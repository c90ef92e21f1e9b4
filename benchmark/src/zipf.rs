//! The benchmark's own seeded generator and Zipf sampler.
//!
//! Deliberately not `dgnn-bench`'s and not `rand`'s: the request stream is
//! part of the ruler, so no edit to a crate under test may change it.

use std::sync::Arc;

/// SplitMix64 finaliser; turns any seed (including 0) into a good state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed) | 1)
    }

    /// An independent stream for client/sender `stream` of the same seed.
    pub fn fork(&self, stream: u64) -> Self {
        Self(mix(self.0 ^ mix(stream.wrapping_add(1))) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_f64() * n as f64) as usize).min(n - 1)
    }
}

/// Zipf(θ) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1/(k+1)^θ` (inverse CDF over a table shared between
/// sender threads).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Arc<[f64]>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf: cdf.into() }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_forks_differ() {
        let z = Zipf::new(1000, 1.1);
        let draw = |mut r: Rng| (0..64).map(|_| z.sample(&mut r)).collect::<Vec<_>>();
        assert_eq!(draw(Rng::new(7)), draw(Rng::new(7)));
        assert_ne!(draw(Rng::new(7)), draw(Rng::new(8)));
        assert_ne!(draw(Rng::new(7).fork(0)), draw(Rng::new(7).fork(1)));
        assert_eq!(draw(Rng::new(7).fork(1)), draw(Rng::new(7).fork(1)));
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let z = Zipf::new(1 << 12, 1.4);
        let mut rng = Rng::new(0);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&k| k < 1 << 12));
        let head = draws.iter().filter(|&&k| k < 8).count() as f64 / draws.len() as f64;
        // Analytic mass of the first 8 ranks at θ=1.4 over 4096 is 0.678.
        assert!((head - 0.678).abs() < 0.03, "head share {head}");
        let mut uniform = Rng::new(3);
        assert!((0..1000).all(|_| uniform.below(3) < 3));
    }
}
