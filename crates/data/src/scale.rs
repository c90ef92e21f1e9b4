//! Serving-scale presets with a streaming, shard-by-shard generator.
//!
//! The classic presets ([`crate::tiny`] … `yelp_small`) materialize one
//! [`dgnn_graph::HeteroGraph`] and dense factor tables — fine at ~1/8
//! paper scale, impossible at the serving scale the roadmap targets: a
//! single `users × dim` allocation for 2²⁰ users is exactly the residency
//! problem the sharded store exists to avoid. A [`ScaleSpec`] therefore
//! never builds the world at once. It emits *shards* — contiguous
//! id-ranges of users or items, each with its embedding block and (for
//! users) interaction lists — one at a time, so peak memory is one shard
//! regardless of world size.
//!
//! Determinism is per-shard, not per-stream: shard `s` is generated from
//! its own RNG stream `splitmix64(seed, role, s)`, and the small global
//! structure (category prototypes, community mixtures) from `seed` alone.
//! Regenerating any single shard in isolation yields bit-identical
//! content to generating the full sequence — the property that lets a
//! test (or a repair job) rebuild one lost segment without touching the
//! other million users.
//!
//! The world model is a lightweight cousin of [`crate::WorldSpec`]: the
//! same category-prototype / community-mixture factor geometry drives the
//! embeddings, while interactions use an O(1) power-law popularity draw
//! instead of softmax preference sampling (at this scale the lists exist
//! to shape *serving* load — seen-filtering and Zipf-skewed traffic — not
//! to train models).

use dgnn_tensor::{Matrix, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a streaming scale world.
#[derive(Debug, Clone)]
pub struct ScaleSpec {
    /// Preset name (lands in checkpoint metadata).
    pub name: &'static str,
    /// `|U|`.
    pub num_users: usize,
    /// `|V|`.
    pub num_items: usize,
    /// Embedding dimensionality of the emitted tables.
    pub dim: usize,
    /// Users per shard (contiguous id ranges; last shard may be short).
    pub users_per_shard: usize,
    /// Items per shard.
    pub items_per_shard: usize,
    /// Number of item categories (prototype vectors).
    pub num_categories: usize,
    /// Number of user communities (mixture vectors).
    pub num_communities: usize,
    /// Mean interactions per user (power-law distributed, ≥ 1).
    pub mean_interactions: f64,
    /// Std-dev of per-entity factor noise around the prototype/mixture.
    pub noise: f32,
}

/// One generated shard: a contiguous id-range of users or items.
#[derive(Debug, Clone)]
pub struct ScaleShard {
    /// Shard index within its role.
    pub index: usize,
    /// First global id covered (inclusive).
    pub lo: usize,
    /// One past the last global id covered.
    pub hi: usize,
    /// Embedding rows for ids `lo..hi` (`(hi - lo) × dim`).
    pub emb: Matrix,
    /// Shard-local interaction offsets (`hi - lo + 1` entries; all zeros
    /// for item shards).
    pub seen_indptr: Vec<u32>,
    /// Interacted item ids for this shard's users (empty for item shards).
    pub seen_items: Vec<u32>,
}

/// The preset the benchmark's `serve_scale` workload serves: big enough
/// that full residency is visibly wasteful (128 user shards), small enough
/// that a 1-core box generates and serves it in seconds.
pub fn scale_bench() -> ScaleSpec {
    ScaleSpec {
        name: "scale_bench",
        num_users: 1 << 17,
        num_items: 1 << 14,
        dim: 64,
        users_per_shard: 1 << 10,
        items_per_shard: 1 << 12,
        num_categories: 32,
        num_communities: 64,
        mean_interactions: 3.0,
        noise: 0.25,
    }
}

/// A 4-user-shard miniature for unit tests and the CI scale smoke.
pub fn scale_tiny() -> ScaleSpec {
    ScaleSpec {
        name: "scale_tiny",
        num_users: 2_048,
        num_items: 512,
        dim: 16,
        users_per_shard: 512,
        items_per_shard: 256,
        num_categories: 8,
        num_communities: 16,
        mean_interactions: 3.0,
        noise: 0.25,
    }
}

/// SplitMix64 — the per-shard stream splitter. One step of the generator
/// from Steele et al., "Fast Splittable Pseudorandom Number Generators".
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent RNG stream for (`seed`, `role`, shard): any shard's stream
/// is reproducible without generating any other shard.
fn shard_rng(seed: u64, role: u64, shard: u64) -> StdRng {
    let stream =
        splitmix64(seed ^ splitmix64(role.wrapping_mul(0x517C_C1B7_2722_0A95).wrapping_add(shard)));
    StdRng::seed_from_u64(stream)
}

/// Box–Muller standard normal (same construction as [`crate::WorldSpec`]).
fn normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

impl ScaleSpec {
    /// Id-range spec of the user table.
    pub fn user_spec(&self) -> ShardSpec {
        ShardSpec::new(self.num_users, self.users_per_shard)
    }

    /// Id-range spec of the item table.
    pub fn item_spec(&self) -> ShardSpec {
        ShardSpec::new(self.num_items, self.items_per_shard)
    }

    /// Number of user shards.
    pub fn num_user_shards(&self) -> usize {
        self.user_spec().num_shards()
    }

    /// Number of item shards.
    pub fn num_item_shards(&self) -> usize {
        self.item_spec().num_shards()
    }

    /// The small global structure every shard agrees on: category
    /// prototypes and community mixture vectors, derived from `seed`
    /// alone (`O((categories + communities) × dim)` — independent of
    /// world size).
    fn globals(&self, seed: u64) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut rng = shard_rng(seed, 0x67_6c_6f_62, 0); // "glob"
        let protos: Vec<Vec<f32>> = (0..self.num_categories)
            .map(|_| (0..self.dim).map(|_| normal(&mut rng)).collect())
            .collect();
        let mixtures: Vec<Vec<f32>> = (0..self.num_communities)
            .map(|k| {
                // Each community prefers two categories; its mixture is
                // their midpoint.
                let a = &protos[k % self.num_categories];
                let b = &protos[(k * 7 + 3) % self.num_categories];
                a.iter().zip(b).map(|(x, y)| 0.5 * (x + y)).collect()
            })
            .collect();
        (protos, mixtures)
    }

    /// Generates user shard `s` from its own RNG stream.
    ///
    /// # Panics
    /// Panics when `s` is out of range (programmer error, not data).
    pub fn user_shard(&self, seed: u64, s: usize) -> ScaleShard {
        let spec = self.user_spec();
        let (lo, hi) = spec.shard_range(s);
        let (_, mixtures) = self.globals(seed);
        let mut rng = shard_rng(seed, 0x75_73_65_72, s as u64); // "user"
        let rows = hi - lo;
        let mut emb = Vec::with_capacity(rows * self.dim);
        let mut seen_indptr = Vec::with_capacity(rows + 1);
        let mut seen_items = Vec::new();
        seen_indptr.push(0u32);
        for g in lo..hi {
            let mix = &mixtures[g % self.num_communities];
            for &m in mix {
                emb.push(m + self.noise * normal(&mut rng));
            }
            // Power-law activity, then O(1) popularity-skewed item draws:
            // v = ⌊|V|·u²⌋ concentrates mass on low item ids the same way
            // review-site popularity curves do, without a CDF table.
            let count = power_law_count(&mut rng, self.mean_interactions);
            for _ in 0..count {
                let u: f64 = rng.gen_range(0.0..1.0);
                let v = ((self.num_items as f64) * u * u) as usize;
                seen_items.push(v.min(self.num_items - 1) as u32);
            }
            seen_indptr.push(seen_items.len() as u32);
        }
        ScaleShard {
            index: s,
            lo,
            hi,
            emb: Matrix::from_vec(rows, self.dim, emb),
            seen_indptr,
            seen_items,
        }
    }

    /// Generates item shard `s` from its own RNG stream.
    pub fn item_shard(&self, seed: u64, s: usize) -> ScaleShard {
        let spec = self.item_spec();
        let (lo, hi) = spec.shard_range(s);
        let (protos, _) = self.globals(seed);
        let mut rng = shard_rng(seed, 0x69_74_65_6d, s as u64); // "item"
        let rows = hi - lo;
        let mut emb = Vec::with_capacity(rows * self.dim);
        for g in lo..hi {
            let proto = &protos[g % self.num_categories];
            for &p in proto {
                emb.push(p + self.noise * normal(&mut rng));
            }
        }
        ScaleShard {
            index: s,
            lo,
            hi,
            emb: Matrix::from_vec(rows, self.dim, emb),
            seen_indptr: vec![0; rows + 1],
            seen_items: Vec::new(),
        }
    }

    /// Streams all user shards in id order, one resident at a time.
    pub fn user_shards(&self, seed: u64) -> impl Iterator<Item = ScaleShard> + '_ {
        (0..self.num_user_shards()).map(move |s| self.user_shard(seed, s))
    }

    /// Streams all item shards in id order.
    pub fn item_shards(&self, seed: u64) -> impl Iterator<Item = ScaleShard> + '_ {
        (0..self.num_item_shards()).map(move |s| self.item_shard(seed, s))
    }
}

/// Power-law count with the given mean (clipped Pareto, shape 2 — same
/// family as [`crate::WorldSpec`]'s activity model), at least 1.
fn power_law_count(rng: &mut impl Rng, mean: f64) -> usize {
    let alpha = 2.0;
    let xm = mean * (alpha - 1.0) / alpha;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (xm / u.powf(1.0 / alpha)).round().clamp(1.0, mean * 32.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn shards_cover_the_world_exactly() {
        let spec = scale_tiny();
        assert_eq!(spec.num_user_shards(), 4);
        let mut next = 0usize;
        for shard in spec.user_shards(7) {
            assert_eq!(shard.lo, next);
            assert!(shard.hi > shard.lo);
            assert_eq!(shard.emb.rows(), shard.hi - shard.lo);
            assert_eq!(shard.emb.cols(), spec.dim);
            assert_eq!(shard.seen_indptr.len(), shard.hi - shard.lo + 1);
            assert_eq!(*shard.seen_indptr.last().unwrap() as usize, shard.seen_items.len());
            assert!(shard.seen_items.iter().all(|&v| (v as usize) < spec.num_items));
            next = shard.hi;
        }
        assert_eq!(next, spec.num_users);
    }

    #[test]
    fn any_shard_regenerates_independently() {
        let spec = scale_tiny();
        // Generate shard 2 twice: once cold, once after generating the
        // whole stream — bit-identical both ways.
        let alone = spec.user_shard(42, 2);
        let from_stream = spec.user_shards(42).nth(2).unwrap();
        assert_eq!(bits(&alone.emb), bits(&from_stream.emb));
        assert_eq!(alone.seen_indptr, from_stream.seen_indptr);
        assert_eq!(alone.seen_items, from_stream.seen_items);
        let item_alone = spec.item_shard(42, 1);
        let item_stream = spec.item_shards(42).nth(1).unwrap();
        assert_eq!(bits(&item_alone.emb), bits(&item_stream.emb));
    }

    #[test]
    fn shard_streams_are_decorrelated() {
        let spec = scale_tiny();
        let a = spec.user_shard(42, 0);
        let b = spec.user_shard(42, 1);
        assert_ne!(bits(&a.emb)[..64], bits(&b.emb)[..64], "adjacent shards share an RNG stream");
        let c = spec.user_shard(43, 0);
        assert_ne!(bits(&a.emb)[..64], bits(&c.emb)[..64], "seed does not reach the stream");
    }

    #[test]
    fn every_user_has_history_and_popularity_skews_low() {
        let spec = scale_tiny();
        let mut low = 0usize;
        let mut total = 0usize;
        for shard in spec.user_shards(9) {
            for w in shard.seen_indptr.windows(2) {
                assert!(w[1] > w[0], "a user without interactions");
            }
            low += shard.seen_items.iter().filter(|&&v| (v as usize) < spec.num_items / 4).count();
            total += shard.seen_items.len();
        }
        // u² popularity: P(v < |V|/4) = 1/2 exactly; demand well above the
        // uniform 1/4.
        assert!(low * 3 > total, "popularity not skewed: {low}/{total} in the low quartile");
    }
}
