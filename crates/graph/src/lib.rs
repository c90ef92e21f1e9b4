//! The *collaborative heterogeneous graph* of the paper (Section IV-A).
//!
//! The graph `G = (D, E)` unifies three vertex sets — users `U`, items `V`,
//! and meta relation nodes `R` — and three edge families:
//!
//! * `Y` — user–item interactions,
//! * `S` — user–user social ties (undirected),
//! * `T` — item–relation links (e.g. product categories).
//!
//! [`HeteroGraph`] stores the edge lists once and materializes the CSR
//! adjacencies each model needs ([`HeteroGraph::ui`], [`HeteroGraph::ss`],
//! …). Meta-path composition ([`compose`]) and random walks
//! ([`HeteroGraph::meta_path_walk`]) serve the meta-path baselines (HAN,
//! HERec); the unified typed adjacency ([`HeteroGraph::unified_adj`])
//! serves the homogeneous-graph baselines that the paper "enhances with
//! diverse context" (NGCF, GCCF).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod compose;
mod hetero;
mod unified;
mod walks;

pub use compose::compose;
pub use hetero::{HeteroGraph, HeteroGraphBuilder, Interaction, NodeType};
pub use unified::{EdgeType, UnifiedView};
pub use walks::MetaPathStep;
