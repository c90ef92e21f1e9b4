//! The fourteen baseline recommenders the paper compares DGNN against
//! (Table II), reimplemented at the architecture level on the shared
//! tensor/autograd/graph substrate.
//!
//! Every model keeps its *distinguishing mechanism* — DGCF's intent
//! routing, HGT's typed multi-head attention, MHCN's hypergraph channels
//! with a self-supervised InfoMax term, HERec's meta-path skip-gram
//! pre-training, and so on — while sharing the embedding/BPR/evaluation
//! plumbing, so cross-model comparisons measure mechanisms rather than
//! harness differences.
//!
//! | Family (paper §V-A2) | Models |
//! |---|---|
//! | Attentive social recommenders | [`Samn`], [`Eatnn`] |
//! | GNN-based social recommenders | [`DiffNet`], [`GraphRec`], [`Mhcn`] |
//! | Graph collaborative filtering | [`Ngcf`], [`Gccf`] |
//! | Temporal social recommendation | [`DgRec`] |
//! | Disentangled recommenders | [`Dgcf`], [`DisenHan`] |
//! | Knowledge-aware recommendation | [`Kgat`] |
//! | Heterogeneous graph learning | [`Han`], [`Hgt`], [`Herec`] |
//!
//! All models implement [`dgnn_eval::Trainable`]; [`all_models`] yields the
//! full roster in the paper's column order.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod classic;
mod common;
mod diffnet;
mod disen;
mod eatnn;
mod graphrec;
mod han;
mod herec;
mod hgt;
mod kgat;
mod mhcn;
mod ngcf;
mod samn;
mod temporal;

pub use classic::{Classic, ClassicKind};
pub use common::BaselineConfig;
pub use diffnet::DiffNet;
pub use disen::{Dgcf, DisenHan};
pub use eatnn::Eatnn;
pub use graphrec::GraphRec;
pub use han::Han;
pub use herec::Herec;
pub use hgt::Hgt;
pub use kgat::Kgat;
pub use mhcn::Mhcn;
pub use ngcf::{Gccf, Ngcf};
pub use samn::Samn;
pub use temporal::DgRec;

use dgnn_eval::Trainable;

/// Instantiates every baseline with a shared configuration, in the column
/// order of the paper's Table II.
pub fn all_models(cfg: &BaselineConfig) -> Vec<Box<dyn Trainable>> {
    vec![
        Box::new(Samn::new(cfg.clone())),
        Box::new(Eatnn::new(cfg.clone())),
        Box::new(DiffNet::new(cfg.clone())),
        Box::new(GraphRec::new(cfg.clone())),
        Box::new(Ngcf::new(cfg.clone())),
        Box::new(Gccf::new(cfg.clone())),
        Box::new(DgRec::new(cfg.clone())),
        Box::new(Kgat::new(cfg.clone())),
        Box::new(Dgcf::new(cfg.clone())),
        Box::new(DisenHan::new(cfg.clone())),
        Box::new(Han::new(cfg.clone())),
        Box::new(Hgt::new(cfg.clone())),
        Box::new(Herec::new(cfg.clone())),
        Box::new(Mhcn::new(cfg.clone())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_table_ii_order() {
        let cfg = BaselineConfig::default();
        let names: Vec<String> = all_models(&cfg).iter().map(|m| m.name().to_string()).collect();
        assert_eq!(
            names,
            vec![
                "SAMN", "EATNN", "DiffNet", "GraphRec", "NGCF", "GCCF", "DGRec", "KGAT", "DGCF",
                "DisenHAN", "HAN", "HGT", "HERec", "MHCN",
            ]
        );
    }
}
