//! Scaled dataset presets calibrated to the paper's Table I.
//!
//! The real crawls are 20k–100k users; the presets keep each dataset's
//! *character* — per-user interaction rate, per-user social degree, and the
//! item/user ratio — at a scale where the full 15-model × 3-dataset grid of
//! Table II trains in minutes. See `PAPER_TABLE1` for the original numbers
//! printed side by side by `reproduce E1`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::PaperDatasetStats;
use crate::synth::WorldSpec;
use crate::Dataset;

/// The original Table I statistics from the paper, for side-by-side
/// reporting.
pub const PAPER_TABLE1: [PaperDatasetStats; 3] = [
    PaperDatasetStats {
        name: "Ciao",
        users: 1_925,
        items: 15_053,
        interactions: 30_370,
        interaction_density_pct: 0.1048,
        social_ties: 65_084,
        social_density_pct: 1.7564,
    },
    PaperDatasetStats {
        name: "Epinions",
        users: 18_081,
        items: 251_722,
        interactions: 715_821,
        interaction_density_pct: 0.0157,
        social_ties: 572_784,
        social_density_pct: 0.1752,
    },
    PaperDatasetStats {
        name: "Yelp",
        users: 99_262,
        items: 105_142,
        interactions: 769_929,
        interaction_density_pct: 0.0074,
        social_ties: 1_298_522,
        social_density_pct: 0.0132,
    },
];

/// Number of sampled negatives per test user (the paper's protocol).
pub const NUM_EVAL_NEGATIVES: usize = 100;

fn materialize(spec: WorldSpec, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let full = spec.generate(&mut rng);
    Dataset::leave_one_out(spec.name, &full, 2, NUM_EVAL_NEGATIVES, &mut rng)
}

/// `ciao-s`: the densest-social dataset — few users, many items per user,
/// strong social signal (paper: 15.8 interactions/user, 33.8 ties/user).
pub fn ciao_small(seed: u64) -> Dataset {
    materialize(
        WorldSpec {
            name: "ciao-s",
            num_users: 300,
            num_items: 1_500,
            num_categories: 12,
            num_communities: 10,
            factor_dim: 8,
            target_interactions: 4_500,
            target_social_ties: 3_000,
            beta: 3.0,
            item_noise: 0.35,
            user_noise: 0.35,
            second_category_prob: 0.10,
        },
        seed,
    )
}

/// `epinions-s`: the largest catalog and interaction volume
/// (paper: 39.6 interactions/user, 13.9 items per user of catalog).
pub fn epinions_small(seed: u64) -> Dataset {
    materialize(
        WorldSpec {
            name: "epinions-s",
            num_users: 500,
            num_items: 3_500,
            num_categories: 16,
            num_communities: 14,
            factor_dim: 8,
            target_interactions: 12_000,
            target_social_ties: 5_000,
            beta: 3.0,
            item_noise: 0.40,
            user_noise: 0.40,
            second_category_prob: 0.10,
        },
        seed,
    )
}

/// `yelp-s`: the sparsest interactions, the most users, and the largest
/// total edge count (paper: 7.8 interactions/user, item/user ≈ 1.06,
/// largest social network).
pub fn yelp_small(seed: u64) -> Dataset {
    materialize(
        WorldSpec {
            name: "yelp-s",
            num_users: 1_200,
            num_items: 1_300,
            num_categories: 10,
            num_communities: 12,
            factor_dim: 8,
            target_interactions: 9_400,
            target_social_ties: 8_400,
            beta: 3.0,
            item_noise: 0.45,
            user_noise: 0.45,
            second_category_prob: 0.10,
        },
        seed,
    )
}

/// A tiny dataset for unit/integration tests and the quickstart example:
/// trains in well under a second.
pub fn tiny(seed: u64) -> Dataset {
    materialize(
        WorldSpec {
            name: "tiny",
            num_users: 60,
            num_items: 150,
            num_categories: 5,
            num_communities: 4,
            factor_dim: 6,
            target_interactions: 700,
            target_social_ties: 250,
            beta: 3.0,
            item_noise: 0.3,
            user_noise: 0.3,
            second_category_prob: 0.1,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_has_tests_and_training_data() {
        let ds = tiny(1);
        assert!(ds.num_test() > 20, "got {} test users", ds.num_test());
        assert!(ds.num_train() > 300);
        assert_eq!(ds.name, "tiny");
        // All negatives lists hit the protocol size (catalog is big enough).
        assert!(ds.test.iter().all(|t| t.negatives.len() == 100));
    }

    #[test]
    fn presets_preserve_relative_character() {
        // Cheap sanity check on the three scaled presets: ciao has the
        // densest interactions; yelp has the most users and item/user ≈ 1.
        let ciao = ciao_small(1);
        let yelp = yelp_small(1);
        assert!(ciao.graph.interaction_density() > yelp.graph.interaction_density());
        assert!(yelp.graph.num_users() > ciao.graph.num_users());
        let ratio = yelp.graph.num_items() as f64 / yelp.graph.num_users() as f64;
        assert!((0.8..=1.4).contains(&ratio), "yelp item/user ratio {ratio}");
    }
}
