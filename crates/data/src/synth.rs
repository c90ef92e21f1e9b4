//! The latent-factor world model that substitutes the Ciao/Epinions/Yelp
//! crawls.
//!
//! All three relation families are generated from one ground-truth factor
//! space:
//!
//! * each *category* (the paper's meta relation node) owns a prototype
//!   factor vector; items are noisy copies of their category prototype,
//!   which makes same-category items genuinely similar (the "semantic
//!   relatedness" the paper's `T` matrix encodes);
//! * each *community* of users prefers a subset of categories; user factors
//!   are noisy mixtures of their community's preferred prototypes;
//! * interactions are sampled proportionally to `exp(β·⟨user, item⟩)` with
//!   power-law per-user activity, so collaborative signal exists and is
//!   recoverable;
//! * social ties connect factor-similar users inside a community
//!   (homophily), so `S` genuinely predicts preference overlap.
//!
//! Because `Y`, `S`, and `T` all derive from the same factors, models that
//! exploit social and knowledge context gain real accuracy, and the paper's
//! ablations (`-S`, `-T`, `-ST`) lose it — the property every figure of the
//! evaluation depends on.

use dgnn_graph::{HeteroGraph, HeteroGraphBuilder};
use rand::Rng;

/// Parameters of the synthetic world.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Dataset name.
    pub name: &'static str,
    /// `|U|`.
    pub num_users: usize,
    /// `|V|`.
    pub num_items: usize,
    /// `|R|` — number of categories / meta relation nodes.
    pub num_categories: usize,
    /// Number of user communities (each prefers a few categories).
    pub num_communities: usize,
    /// Ground-truth latent dimensionality.
    pub factor_dim: usize,
    /// Target number of interactions (approximate; duplicates dropped).
    pub target_interactions: usize,
    /// Target number of undirected social ties (approximate).
    pub target_social_ties: usize,
    /// Softmax inverse temperature for preference sampling; larger = less
    /// noise in user choices.
    pub beta: f32,
    /// Std-dev of item factor noise around the category prototype.
    pub item_noise: f32,
    /// Std-dev of user factor noise around the community mixture.
    pub user_noise: f32,
    /// Probability an item gets a second category link.
    pub second_category_prob: f64,
}

impl WorldSpec {
    /// Generates the full heterogeneous graph.
    pub fn generate(&self, rng: &mut impl Rng) -> HeteroGraph {
        assert!(self.num_users > 1 && self.num_items > 1, "world too small");
        assert!(self.num_categories >= 1, "need at least one category");
        let d = self.factor_dim;

        // Category prototypes: random unit-ish vectors.
        let protos: Vec<Vec<f32>> =
            (0..self.num_categories).map(|_| normal_vec(rng, d, 1.0)).collect();

        // Items: category assignment (roughly balanced) + noisy prototype.
        let mut item_cat = Vec::with_capacity(self.num_items);
        let mut item_factor = Vec::with_capacity(self.num_items);
        for v in 0..self.num_items {
            let c = v % self.num_categories;
            item_cat.push(c);
            let mut f = protos[c].clone();
            add_noise(rng, &mut f, self.item_noise);
            item_factor.push(f);
        }

        // Communities: each prefers 1–3 categories.
        let prefs: Vec<Vec<usize>> = (0..self.num_communities)
            .map(|k| {
                let mut cats = vec![k % self.num_categories];
                while cats.len() < 3.min(self.num_categories) && rng.gen_bool(0.6) {
                    cats.push(rng.gen_range(0..self.num_categories));
                }
                cats
            })
            .collect();

        // Users: community assignment + mixture of preferred prototypes.
        let mut user_comm = Vec::with_capacity(self.num_users);
        let mut user_factor = Vec::with_capacity(self.num_users);
        for u in 0..self.num_users {
            let k = u % self.num_communities;
            user_comm.push(k);
            let mut f = vec![0.0f32; d];
            for &c in &prefs[k] {
                for (fi, pi) in f.iter_mut().zip(&protos[c]) {
                    *fi += pi / prefs[k].len() as f32;
                }
            }
            add_noise(rng, &mut f, self.user_noise);
            user_factor.push(f);
        }

        let mut builder =
            HeteroGraphBuilder::new(self.num_users, self.num_items, self.num_categories);

        // Item–relation links.
        for (v, &cat) in item_cat.iter().enumerate() {
            builder.item_relation(v, cat);
            if self.num_categories > 1 && rng.gen_bool(self.second_category_prob) {
                let extra = rng.gen_range(0..self.num_categories);
                if extra != cat {
                    builder.item_relation(v, extra);
                }
            }
        }

        // Interactions: per-user activity ~ clipped Pareto, items sampled
        // by preference softmax over a candidate pool.
        let mean_activity = self.target_interactions as f64 / self.num_users as f64;
        let pool_size = 200.min(self.num_items);
        for (u, factor) in user_factor.iter().enumerate() {
            let n = pareto_count(rng, mean_activity, 2.0).clamp(2, self.num_items / 2);
            // Candidate pool: uniform random items; softmax-weighted picks.
            let mut chosen = Vec::with_capacity(n);
            let mut t = 0u32;
            while chosen.len() < n {
                // Restrict the pool to not-yet-chosen items: with a peaked
                // softmax (large beta) rejection sampling over the full item
                // set can need e^{beta·margin} draws per new item, which
                // turns high-activity users into a near-infinite loop.
                let pool: Vec<usize> = (0..pool_size)
                    .map(|_| rng.gen_range(0..self.num_items))
                    .filter(|v| !chosen.contains(v))
                    .collect();
                if pool.is_empty() {
                    continue; // all draws were duplicates; redraw
                }
                let logits: Vec<f32> =
                    pool.iter().map(|&v| self.beta * dot(factor, &item_factor[v])).collect();
                let pick = pool[sample_softmax(rng, &logits)];
                builder.interaction(u, pick, t);
                chosen.push(pick);
                t += 1;
            }
        }

        // Social ties: homophilous within communities.
        let mut ties = 0usize;
        let mut attempts = 0usize;
        let max_attempts = self.target_social_ties * 50;
        while ties < self.target_social_ties && attempts < max_attempts {
            attempts += 1;
            let a = rng.gen_range(0..self.num_users);
            // Candidate friends: prefer same community.
            let b = if rng.gen_bool(0.85) {
                // Same community pick.
                let k = user_comm[a];
                let start = rng.gen_range(0..self.num_users);
                match (0..self.num_users)
                    .map(|off| (start + off) % self.num_users)
                    .find(|&c| c != a && user_comm[c] == k)
                {
                    Some(c) => c,
                    None => continue,
                }
            } else {
                rng.gen_range(0..self.num_users)
            };
            if a == b {
                continue;
            }
            // Accept with probability increasing in factor similarity, so
            // ties encode genuine homophily even within a community.
            let sim = dot(&user_factor[a], &user_factor[b])
                / (norm(&user_factor[a]) * norm(&user_factor[b]) + 1e-9);
            if rng.gen_bool((0.15 + 0.85 * ((sim as f64 + 1.0) / 2.0)).clamp(0.0, 1.0)) {
                builder.social_tie(a, b);
                ties += 1;
            }
        }

        builder.build()
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

fn normal_vec(rng: &mut impl Rng, d: usize, std: f32) -> Vec<f32> {
    (0..d).map(|_| normal(rng) * std).collect()
}

fn add_noise(rng: &mut impl Rng, v: &mut [f32], std: f32) {
    for x in v {
        *x += normal(rng) * std;
    }
}

/// Box–Muller standard normal.
fn normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Pareto-distributed count with the given mean and shape `alpha > 1`
/// (power-law user activity / degree distributions, as observed in the
/// review-site crawls).
fn pareto_count(rng: &mut impl Rng, mean: f64, alpha: f64) -> usize {
    let xm = mean * (alpha - 1.0) / alpha; // scale so E[X] = mean
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (xm / u.powf(1.0 / alpha)).round().max(1.0) as usize
}

fn sample_softmax(rng: &mut impl Rng, logits: &[f32]) -> usize {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let weights: Vec<f64> = logits.iter().map(|&l| ((l - max) as f64).exp()).collect();
    let total: f64 = weights.iter().sum();
    let mut target = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_spec() -> WorldSpec {
        WorldSpec {
            name: "test-world",
            num_users: 60,
            num_items: 120,
            num_categories: 6,
            num_communities: 4,
            factor_dim: 8,
            target_interactions: 600,
            target_social_ties: 200,
            beta: 3.0,
            item_noise: 0.3,
            user_noise: 0.3,
            second_category_prob: 0.1,
        }
    }

    #[test]
    fn generates_requested_scale() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = small_spec().generate(&mut rng);
        assert_eq!(g.num_users(), 60);
        assert_eq!(g.num_items(), 120);
        assert_eq!(g.num_relations(), 6);
        // Interactions land near the target (Pareto activity fluctuates).
        let n = g.interactions().len();
        assert!((300..=1200).contains(&n), "got {n} interactions");
        let ties = g.social_ties().len();
        assert!((100..=200).contains(&ties), "got {ties} ties");
        // Every item has at least one category.
        for v in 0..g.num_items() {
            assert!(!g.ir().row_cols(v).is_empty(), "item {v} lacks a category");
        }
    }

    #[test]
    fn every_user_has_history() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = small_spec().generate(&mut rng);
        for u in 0..g.num_users() {
            assert!(g.items_of(u).len() >= 2, "user {u} has <2 interactions");
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = small_spec().generate(&mut StdRng::seed_from_u64(5));
        let b = small_spec().generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(a.interactions(), b.interactions());
        assert_eq!(a.social_ties(), b.social_ties());
        assert_eq!(a.item_relations(), b.item_relations());
    }

    #[test]
    fn social_ties_are_homophilous() {
        // Friends should share items more often than random pairs: the
        // homophily property the whole paper relies on.
        let mut rng = StdRng::seed_from_u64(13);
        let spec = small_spec();
        let g = spec.generate(&mut rng);
        let overlap = |a: usize, b: usize| -> f64 {
            let ia = g.items_of(a);
            let ib = g.items_of(b);
            let inter = ia.iter().filter(|v| ib.contains(v)).count();
            inter as f64 / ia.len().min(ib.len()).max(1) as f64
        };
        let mut friend_overlap = 0.0;
        for &(a, b) in g.social_ties() {
            friend_overlap += overlap(a as usize, b as usize);
        }
        friend_overlap /= g.social_ties().len() as f64;
        let mut random_overlap = 0.0;
        let mut pairs = 0;
        for a in 0..g.num_users() {
            let b = (a + g.num_users() / 2 + 1) % g.num_users();
            random_overlap += overlap(a, b);
            pairs += 1;
        }
        random_overlap /= pairs as f64;
        assert!(
            friend_overlap > random_overlap,
            "friends ({friend_overlap:.4}) should overlap more than random pairs \
             ({random_overlap:.4})"
        );
    }

    #[test]
    fn same_category_items_share_users() {
        // Knowledge signal: co-category items should attract overlapping
        // audiences more than cross-category ones.
        let mut rng = StdRng::seed_from_u64(14);
        let g = small_spec().generate(&mut rng);
        let audience_overlap = |a: usize, b: usize| -> f64 {
            let ua = g.users_of(a);
            let ub = g.users_of(b);
            if ua.is_empty() || ub.is_empty() {
                return 0.0;
            }
            let inter = ua.iter().filter(|u| ub.contains(u)).count();
            inter as f64 / ua.len().min(ub.len()) as f64
        };
        let cat_of = |v: usize| g.ir().row_cols(v)[0];
        let mut same = (0.0, 0usize);
        let mut diff = (0.0, 0usize);
        for a in 0..g.num_items() {
            for b in (a + 1)..(a + 8).min(g.num_items()) {
                let o = audience_overlap(a, b);
                if cat_of(a) == cat_of(b) {
                    same = (same.0 + o, same.1 + 1);
                } else {
                    diff = (diff.0 + o, diff.1 + 1);
                }
            }
        }
        let same_avg = same.0 / same.1.max(1) as f64;
        let diff_avg = diff.0 / diff.1.max(1) as f64;
        assert!(
            same_avg >= diff_avg,
            "same-category overlap {same_avg:.4} < cross-category {diff_avg:.4}"
        );
    }
}
