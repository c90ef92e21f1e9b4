//! The training dataset, made size-stable across seeds.
//!
//! `epinions_small(seed)` draws each user's activity from a Pareto
//! distribution, so the training set ranges from about 10,200 to 15,000
//! interactions depending on the seed — 6 or 7 batches per epoch, and up to
//! 1.7× the epoch time. A ruler whose unit changes with the seed cannot
//! resolve 10%, so the workloads use only worlds whose training set lies in
//! a narrow band around the preset's median size. The seed still chooses
//! the world: candidates are tried in a sequence derived from it.

use dgnn_data::{epinions_small, Dataset};

use crate::zipf::Rng;

/// Median `num_train` of `epinions_small` over seeds, ± 1%.
const TRAIN_BAND: std::ops::RangeInclusive<usize> = 11_124..=11_348;

/// The first world in `seed`'s candidate sequence whose training set is in
/// the band, with the `epinions_small` seed that generates it (about one
/// candidate in six qualifies).
pub fn epinions(seed: u64) -> (Dataset, u64) {
    let mut candidates = Rng::new(seed);
    loop {
        let world_seed = candidates.next_u64();
        let data = epinions_small(world_seed);
        if TRAIN_BAND.contains(&data.num_train()) {
            return (data, world_seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_picks_a_world_of_the_fixed_size() {
        let (a, seed_a) = epinions(5);
        let (b, seed_b) = epinions(5);
        let (c, seed_c) = epinions(6);
        assert_eq!((seed_a, a.num_train()), (seed_b, b.num_train()));
        assert_ne!(seed_a, seed_c);
        for d in [&a, &c] {
            assert!(TRAIN_BAND.contains(&d.num_train()));
            assert_eq!(d.num_train().div_ceil(2048), 6);
        }
    }
}
