//! Embedding projection and separation metrics for the paper's case
//! studies (Figures 9–10).
//!
//! A figure cannot be checked in CI, so alongside the 2-D projections
//! ([`tsne`], [`pca`]) this crate provides *quantitative* separation
//! metrics ([`separation`]) that turn the paper's visual claims ("DGNN
//! separates users better", "socially-tied users share social memory
//! attention") into measurable numbers recorded in EXPERIMENTS.md.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod pca;
pub mod separation;
pub mod tsne;

pub use pca::pca_2d;
pub use separation::{attention_similarity_gap, cluster_separation, silhouette};
pub use tsne::{tsne_2d, TsneConfig};
