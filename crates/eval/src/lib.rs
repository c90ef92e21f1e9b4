//! Evaluation protocol: top-N ranking metrics under the paper's
//! 100-negative scheme (Section V-A3).
//!
//! Every model — DGNN and all baselines — implements [`Recommender`] and is
//! measured by the same [`evaluate`] loop, so cross-model comparisons in
//! the tables measure the models, not the plumbing.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod groups;
mod metrics;

pub use metrics::{evaluate, evaluate_at, RankingMetrics, TOP_NS};

use dgnn_data::Dataset;

/// A trained top-N recommender.
pub trait Recommender {
    /// Human-readable model name as it appears in the paper's tables.
    fn name(&self) -> &str;

    /// Scores `items` for `user`; higher = more preferred. Must be a pure
    /// function of the trained state.
    fn score(&self, user: usize, items: &[usize]) -> Vec<f32>;
}

/// A model that can be trained on a [`Dataset`] — implemented by every
/// model crate so the experiment harness can drive the full grid.
pub trait Trainable: Recommender {
    /// Fits the model. `seed` controls all stochasticity (init, sampling).
    fn fit(&mut self, data: &Dataset, seed: u64);
}
