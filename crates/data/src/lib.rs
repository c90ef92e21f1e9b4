//! Dataset layer for the DGNN reproduction.
//!
//! The paper evaluates on three review-site crawls (Ciao, Epinions, Yelp)
//! that are not redistributable. This crate substitutes a *latent-factor
//! world model* ([`synth`]) that emits all three relation families —
//! interactions `Y`, social ties `S`, item–relation links `T` — from one
//! shared ground-truth factor space, so social homophily and item semantic
//! relatedness are genuinely present in the data (see DESIGN.md §1 for why
//! this preserves the evaluation's shape). Real dumps can be dropped in
//! through the plain-text [`io`] format.
//!
//! The rest of the crate is protocol plumbing shared by every model:
//! leave-one-out splitting with 100 sampled negatives per test user
//! ([`Dataset`]), training-triple sampling ([`TrainSampler`]), and the
//! statistics printed in the paper's Table I ([`stats`]).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod dataset;
pub mod io;
mod presets;
mod sampler;
pub mod scale;
pub mod stats;
pub mod synth;

pub use dataset::{Dataset, TestInstance};
pub use presets::{ciao_small, epinions_small, tiny, yelp_small, PAPER_TABLE1};
pub use sampler::{TrainSampler, Triple};
pub use scale::{scale_bench, scale_tiny, ScaleShard, ScaleSpec};
pub use stats::{DatasetStats, PaperDatasetStats};
pub use synth::WorldSpec;
