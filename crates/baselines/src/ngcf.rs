//! NGCF and GCCF: graph collaborative filtering over the unified graph.
//!
//! Per the paper's fair-comparison note (§V-A2), both CF baselines are
//! *enhanced with the diverse context*: they propagate over the unified
//! user–item–relation graph including the social and knowledge edges, but
//! treat all edges homogeneously — which is exactly the capability gap
//! DGNN's relation-aware disentanglement is designed to close.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Var};
use dgnn_data::{Dataset, Triple};
use dgnn_eval::{Recommender, Trainable};
use dgnn_graph::UnifiedView;
use dgnn_tensor::{Csr, Init};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Which CF variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Wang et al., SIGIR'19: nonlinear propagation with feature
    /// interaction terms, cross-layer concatenation.
    Ngcf,
    /// Chen et al., AAAI'20: linear residual graph convolution (the
    /// nonlinearity removed to fight overfitting).
    Gccf,
}

struct State {
    emb: ParamId,
    w1: Vec<ParamId>,
    w2: Vec<ParamId>,
    adj: Rc<Csr>,
    adj_t: Rc<Csr>,
    user_rows: Rc<Vec<usize>>,
    item_rows: Rc<Vec<usize>>,
}

/// Registers parameters and precomputes the propagation structure —
/// shared by training and by the static-analysis trace entry.
fn build_state(
    variant: Variant,
    cfg: &BaselineConfig,
    data: &Dataset,
    seed: u64,
) -> (ParamSet, State) {
    let g = &data.graph;
    let view = UnifiedView::new(g);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let emb = params.add("emb", Init::Uniform(0.1).build(view.num_nodes(), cfg.dim, &mut rng));
    let mut w1 = Vec::new();
    let mut w2 = Vec::new();
    for l in 0..cfg.layers {
        w1.push(params.add(
            format!("w1[{l}]"),
            Init::XavierUniform.build(cfg.dim, cfg.dim, &mut rng),
        ));
        // GCCF's linear convolution has no feature-interaction term, so W₂
        // would be registered but never reach the loss — the graph auditor
        // flags exactly this as an UnusedParam. Register it for NGCF only
        // (burning the draws keeps the W₁ init stream variant-independent).
        let w2_init = Init::XavierUniform.build(cfg.dim, cfg.dim, &mut rng);
        if variant == Variant::Ngcf {
            w2.push(params.add(format!("w2[{l}]"), w2_init));
        }
    }
    let adj = g.unified_adj(true, true).sym_normalized();
    let adj_t = Rc::new(adj.transpose());
    let st = State {
        emb,
        w1,
        w2,
        adj: Rc::new(adj),
        adj_t,
        user_rows: Rc::new((0..g.num_users()).map(|u| view.user(u)).collect()),
        item_rows: Rc::new((0..g.num_items()).map(|v| view.item(v)).collect()),
    };
    (params, st)
}

fn forward<R: Recorder>(
    st: &State,
    variant: Variant,
    layers: usize,
    tape: &mut R,
    params: &ParamSet,
) -> (Var, Var) {
    let mut h = tape.param(params, st.emb);
    let mut outs = vec![h];
    for l in 0..layers {
        let agg = tape.spmm_with(&st.adj, &st.adj_t, h);
        h = match variant {
            Variant::Ngcf => {
                // LeakyReLU( (Â+I) H W₁ + (ÂH ⊙ H) W₂ )
                let w1 = tape.param(params, st.w1[l]);
                let w2 = tape.param(params, st.w2[l]);
                let self_plus_agg = tape.add(agg, h);
                let lin = tape.matmul(self_plus_agg, w1);
                let inter = tape.mul(agg, h);
                let inter = tape.matmul(inter, w2);
                let s = tape.add(lin, inter);
                tape.leaky_relu(s, 0.2)
            }
            Variant::Gccf => {
                // Linear residual convolution: Â H W (no activation).
                let w1 = tape.param(params, st.w1[l]);
                tape.matmul(agg, w1)
            }
        };
        outs.push(h);
    }
    let cat = tape.concat_cols(&outs);
    let cat = tape.l2_normalize_rows(cat, 1e-9);
    let users = tape.gather(cat, Rc::clone(&st.user_rows));
    let items = tape.gather(cat, Rc::clone(&st.item_rows));
    (users, items)
}

/// Shared implementation of the two graph-CF baselines.
struct GraphCf {
    variant: Variant,
    cfg: BaselineConfig,
    scorer: Scorer,
    loss_history: Vec<f32>,
}

impl GraphCf {
    fn new(variant: Variant, cfg: BaselineConfig) -> Self {
        Self { variant, cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }

    fn static_name(&self) -> &'static str {
        match self.variant {
            Variant::Ngcf => "NGCF",
            Variant::Gccf => "GCCF",
        }
    }

    fn fit_impl(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let (mut params, st) = build_state(self.variant, &self.cfg, data, seed);

        let (variant, layers) = (self.variant, self.cfg.layers);
        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, _| {
                    let (users, items) = forward(&st, variant, layers, tape, params);
                    bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| forward(&st, variant, layers, tape, &params));
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score(self.static_name(), user, items)
    }
}

macro_rules! cf_public_wrapper {
    ($(#[$doc:meta])* $name:ident, $variant:expr) => {
        $(#[$doc])*
        pub struct $name(GraphCf);

        impl $name {
            /// Creates an untrained model.
            pub fn new(cfg: BaselineConfig) -> Self {
                Self(GraphCf::new($variant, cfg))
            }

            /// Mean BPR loss per epoch (after `fit`).
            pub fn loss_history(&self) -> &[f32] {
                &self.0.loss_history
            }

            /// Records one full training step (forward pass + BPR loss over
            /// `triples`) onto `rec` without training — the static-analysis
            /// entry point. Returns the registered parameters and the loss
            /// variable; the graph is identical to what `fit` differentiates.
            pub fn trace_step<R: Recorder>(
                cfg: &BaselineConfig,
                data: &Dataset,
                triples: &[Triple],
                seed: u64,
                rec: &mut R,
            ) -> (ParamSet, Var) {
                let _span = dgnn_obs::span(concat!(stringify!($name), "/trace_step"));
                let (params, st) = build_state($variant, cfg, data, seed);
                let (users, items) = forward(&st, $variant, cfg.layers, rec, &params);
                let loss = bpr_from_embeddings(rec, users, items, &BatchIdx::new(triples));
                (params, loss)
            }
        }

        impl Recommender for $name {
            fn name(&self) -> &str {
                self.0.static_name()
            }
            fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
                self.0.score(user, items)
            }
        }

        impl Trainable for $name {
            fn fit(&mut self, data: &Dataset, seed: u64) {
                self.0.fit_impl(data, seed);
            }
        }
    };
}

cf_public_wrapper!(
    /// NGCF (Wang et al., SIGIR 2019), context-enhanced per the paper.
    Ngcf,
    Variant::Ngcf
);
cf_public_wrapper!(
    /// GCCF (Chen et al., AAAI 2020), context-enhanced per the paper.
    Gccf,
    Variant::Gccf
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn ngcf_beats_random() {
        assert_beats_random(&mut Ngcf::new(quick()));
    }

    #[test]
    fn gccf_beats_random() {
        assert_beats_random(&mut Gccf::new(quick()));
    }

    #[test]
    fn loss_decreases() {
        let data = dgnn_data::tiny(1);
        let mut m = Ngcf::new(quick());
        m.fit(&data, 3);
        let h = m.loss_history();
        assert!(h.first() > h.last(), "loss did not decrease: {h:?}");
    }

    #[test]
    fn embeddings_exposed_after_fit() {
        let data = dgnn_data::tiny(1);
        let mut m = Gccf::new(quick());
        m.fit(&data, 3);
        let (u, v) = (&m.0.scorer.user, &m.0.scorer.item);
        assert_eq!(u.rows(), data.graph.num_users());
        assert_eq!(v.rows(), data.graph.num_items());
    }
}
