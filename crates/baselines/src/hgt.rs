//! HGT (Hu et al., WWW 2020): heterogeneous graph transformer.
//!
//! The distinguishing mechanism: per-edge-family key/query/value
//! projections with multi-head dot-product attention, softmax-normalized
//! per target node, plus node-type output projections and residuals. This
//! is the transformer-style comparator whose per-edge Q·K work makes it the
//! slowest model in the paper's Table IV. This implementation keeps that
//! work; EXPERIMENTS.md E8 records how it ranks at this repository's graph
//! sizes.
//!
//! All heads run at once on full-width operands: per-head logits are one
//! `n × H` [`Recorder::head_dots`], and the segment softmax and weighted
//! sum take `E × H` weights, so no head is ever sliced out or concatenated
//! back. Nor is any row gathered per edge: the query, key and value
//! tables are each read only by the attention op, so the ops read them in
//! place through the family's [`EdgeList`] (`q` by destination, `k` and
//! `v` by source) and sum their gradients per table row, in the order a
//! gather's scatter did. The bits are those of the gathered, head-by-head
//! form (tested below).

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Rows, Var};
use dgnn_data::{Dataset, Triple};
use dgnn_eval::{Recommender, Trainable};
use dgnn_graph::{EdgeType, UnifiedView};
use dgnn_tensor::{EdgeList, Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Attention heads (dim must be divisible by this).
const NUM_HEADS: usize = 2;

struct FamilyParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
}

struct State {
    emb: ParamId,
    families: Vec<(Rc<EdgeList>, Vec<FamilyParams>)>, // per layer params
    /// Output projection per layer.
    wo: Vec<ParamId>,
    user_rows: Rc<Vec<usize>>,
    item_rows: Rc<Vec<usize>>,
    num_nodes: usize,
}

fn forward<R: Recorder>(st: &State, layers: usize, dim: usize, tape: &mut R, params: &ParamSet) -> (Var, Var) {
    let scale = 1.0 / ((dim / NUM_HEADS) as f32).sqrt();
    let mut h = tape.param(params, st.emb);
    for layer in 0..layers.max(1) {
        let mut agg: Option<Var> = None;
        for (edges, layer_params) in &st.families {
            if edges.is_empty() {
                continue;
            }
            let fp = &layer_params[layer];
            let wq = tape.param(params, fp.wq);
            let wk = tape.param(params, fp.wk);
            let wv = tape.param(params, fp.wv);
            let q = tape.matmul(h, wq);
            let k = tape.matmul(h, wk);
            let v = tape.matmul(h, wv);
            // Multi-head dot-product attention, every head at once: `E × H`
            // logits and weights, each edge reading its rows of the node
            // tables in place.
            let logits = tape.head_dots(Rows::dst(q, edges), Rows::src(k, edges), NUM_HEADS);
            let logits = tape.scale(logits, scale);
            let alpha = tape.segment_softmax(logits, Rc::clone(&edges.seg));
            let fam_out = tape.segment_weighted_sum(alpha, Rows::src(v, edges), Rc::clone(&edges.seg));
            agg = Some(match agg {
                Some(a) => tape.add(a, fam_out),
                None => fam_out,
            });
        }
        let agg = agg.unwrap_or_else(|| tape.constant(Matrix::zeros(st.num_nodes, dim)));
        let wo = tape.param(params, st.wo[layer]);
        let projected = tape.matmul(agg, wo);
        let activated = tape.leaky_relu(projected, 0.2);
        // Residual (HGT's target-specific aggregation keeps the old state).
        h = tape.add(activated, h);
    }
    let out = tape.l2_normalize_rows(h, 1e-9);
    let users = tape.gather(out, Rc::clone(&st.user_rows));
    let items = tape.gather(out, Rc::clone(&st.item_rows));
    (users, items)
}

/// The HGT recommender.
pub struct Hgt {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
    state: Option<(State, ParamSet)>,
}

impl Hgt {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        assert_eq!(cfg.dim % NUM_HEADS, 0, "HGT: dim must be divisible by {NUM_HEADS}");
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new(), state: None }
    }

    /// Records one full training step (forward pass + BPR loss over
    /// `triples`) onto `rec` without training — the static-analysis entry
    /// point. Returns the registered parameters and the loss variable.
    pub fn trace_step<R: Recorder>(
        cfg: &BaselineConfig,
        data: &Dataset,
        triples: &[Triple],
        seed: u64,
        rec: &mut R,
    ) -> (ParamSet, Var) {
        let _span = dgnn_obs::span("HGT/trace_step");
        let (st, params) = build_state(cfg, data, seed);
        let (users, items) = forward(&st, cfg.layers, cfg.dim, rec, &params);
        let loss = bpr_from_embeddings(rec, users, items, &BatchIdx::new(triples));
        (params, loss)
    }

    /// Trains with a per-epoch hook (drives the paper's Figure 8).
    pub fn fit_epochs(
        &mut self,
        data: &Dataset,
        seed: u64,
        mut on_epoch: impl FnMut(&Self, usize, f32),
    ) {
        let (st, mut params) = build_state(&self.cfg, data, seed);
        let (layers, dim) = (self.cfg.layers, self.cfg.dim);
        let refresh = |params: &ParamSet| {
            Scorer::from_forward(|tape| forward(&st, layers, dim, tape, params))
        };
        let mut trainer = self.cfg.trainer(&data.graph, seed);
        self.loss_history.clear();
        // The trainer's pool serves the per-epoch scorer refresh too.
        for epoch in 0..self.cfg.epochs {
            let mean = trainer.epoch(&mut params, |tape, params, triples, _| {
                let (users, items) = forward(&st, layers, dim, tape, params);
                bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
            });
            self.loss_history.push(mean);
            self.scorer = refresh(&params);
            on_epoch(self, epoch, mean);
        }
        if self.cfg.epochs == 0 {
            self.scorer = refresh(&params);
        }
        self.state = Some((st, params));
    }
}

/// Draws the parameters (in a fixed rng order) and the per-family edge
/// lists over the unified node ids.
fn build_state(cfg: &BaselineConfig, data: &Dataset, seed: u64) -> (State, ParamSet) {
    let g = &data.graph;
    let view = UnifiedView::new(g);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let d = cfg.dim;
    let emb = params.add("emb", Init::Uniform(0.1).build(view.num_nodes(), d, &mut rng));
    let mut families = Vec::new();
    for ty in EdgeType::ALL {
        let edges = Rc::new(global_family_edges(g, &view, ty));
        let per_layer = (0..cfg.layers.max(1))
            .map(|l| FamilyParams {
                wq: params.add(format!("wq/{ty:?}/{l}"), Init::XavierUniform.build(d, d, &mut rng)),
                wk: params.add(format!("wk/{ty:?}/{l}"), Init::XavierUniform.build(d, d, &mut rng)),
                wv: params.add(format!("wv/{ty:?}/{l}"), Init::XavierUniform.build(d, d, &mut rng)),
            })
            .collect();
        families.push((edges, per_layer));
    }
    let wo = (0..cfg.layers.max(1))
        .map(|l| params.add(format!("wo/{l}"), Init::XavierUniform.build(d, d, &mut rng)))
        .collect();
    let state = State {
        emb,
        families,
        wo,
        user_rows: Rc::new((0..g.num_users()).map(|u| view.user(u)).collect()),
        item_rows: Rc::new((0..g.num_items()).map(|v| view.item(v)).collect()),
        num_nodes: view.num_nodes(),
    };
    (state, params)
}

/// Groups a family's edges by destination over global ids.
fn global_family_edges(
    g: &dgnn_graph::HeteroGraph,
    view: &UnifiedView,
    ty: EdgeType,
) -> EdgeList {
    let map = |local: usize, is_src: bool| -> usize {
        match (ty, is_src) {
            (EdgeType::SocialToUser, _) => view.user(local),
            (EdgeType::ItemToUser, true) | (EdgeType::ItemToRel, true) => view.item(local),
            (EdgeType::ItemToUser, false) => view.user(local),
            (EdgeType::UserToItem, true) => view.user(local),
            (EdgeType::UserToItem, false) | (EdgeType::RelToItem, false) => view.item(local),
            (EdgeType::RelToItem, true) => view.relation(local),
            (EdgeType::ItemToRel, false) => view.relation(local),
        }
    };
    let edges = g.typed_edges(ty);
    let mut src = Vec::with_capacity(edges.len());
    let mut dst = Vec::with_capacity(edges.len());
    for &(d_local, s_local) in &edges {
        dst.push(map(d_local, false));
        src.push(map(s_local, true));
    }
    let num_nodes = view.num_nodes();
    let mut seg = Vec::with_capacity(num_nodes + 1);
    let mut e = 0usize;
    seg.push(0);
    for node in 0..num_nodes {
        while e < dst.len() && dst[e] == node {
            e += 1;
        }
        seg.push(e);
    }
    EdgeList::new(seg, src, num_nodes)
}

impl Recommender for Hgt {
    fn name(&self) -> &str {
        "HGT"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("HGT", user, items)
    }
}

impl Trainable for Hgt {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        self.fit_epochs(data, seed, |_, _, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};
    use dgnn_autograd::Tape;
    use dgnn_data::TrainSampler;

    #[test]
    fn hgt_beats_random() {
        assert_beats_random(&mut Hgt::new(quick()));
    }

    #[test]
    fn fit_epochs_hook_runs_each_epoch() {
        let data = dgnn_data::tiny(4);
        let mut m = Hgt::new(BaselineConfig { epochs: 3, ..quick() });
        let mut count = 0;
        m.fit_epochs(&data, 1, |model, _, loss| {
            count += 1;
            assert!(loss.is_finite());
            // Scoreable inside the hook.
            let _ = model.score(0, &[0, 1]);
        });
        assert_eq!(count, 3);
    }

    /// The attention block as it was written before the head-blocked
    /// kernels and the table reads: every head sliced out of the gathered
    /// rows, scored and aggregated on its own, and the heads concatenated
    /// back.
    fn forward_head_by_head(st: &State, layers: usize, dim: usize, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
        let head_dim = dim / NUM_HEADS;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut h = tape.param(params, st.emb);
        for layer in 0..layers.max(1) {
            let mut agg: Option<Var> = None;
            for (edges, layer_params) in &st.families {
                if edges.is_empty() {
                    continue;
                }
                let fp = &layer_params[layer];
                let (wq, wk, wv) = (tape.param(params, fp.wq), tape.param(params, fp.wk), tape.param(params, fp.wv));
                let (q, k, v) = (tape.matmul(h, wq), tape.matmul(h, wk), tape.matmul(h, wv));
                let qe = tape.gather(q, Rc::clone(&edges.dst));
                let ke = tape.gather(k, Rc::clone(&edges.src));
                let ve = tape.gather(v, Rc::clone(&edges.src));
                let mut head_outs = Vec::with_capacity(NUM_HEADS);
                for head in 0..NUM_HEADS {
                    let (lo, hi) = (head * head_dim, (head + 1) * head_dim);
                    let (qh, kh, vh) = (tape.slice_cols(qe, lo, hi), tape.slice_cols(ke, lo, hi), tape.slice_cols(ve, lo, hi));
                    let logits = tape.row_dots(qh, kh);
                    let logits = tape.scale(logits, scale);
                    let alpha = tape.segment_softmax(logits, Rc::clone(&edges.seg));
                    head_outs.push(tape.segment_weighted_sum(alpha, vh, Rc::clone(&edges.seg)));
                }
                let fam_out = tape.concat_cols(&head_outs);
                agg = Some(match agg {
                    Some(a) => tape.add(a, fam_out),
                    None => fam_out,
                });
            }
            let agg = agg.expect("every family of the tiny world has edges");
            let wo = tape.param(params, st.wo[layer]);
            let projected = tape.matmul(agg, wo);
            let activated = tape.leaky_relu(projected, 0.2);
            h = tape.add(activated, h);
        }
        let out = tape.l2_normalize_rows(h, 1e-9);
        (tape.gather(out, Rc::clone(&st.user_rows)), tape.gather(out, Rc::clone(&st.item_rows)))
    }

    #[test]
    fn head_blocked_step_has_the_bits_of_the_head_by_head_step() {
        let data = dgnn_data::tiny(4);
        let cfg = quick();
        let triples = TrainSampler::new(&data.graph).batch(&mut StdRng::seed_from_u64(3), 256);
        let idx = BatchIdx::new(&triples);
        let step = |head_blocked: bool| {
            let (st, mut params) = build_state(&cfg, &data, 5);
            let mut tape = Tape::new();
            let (users, items) = if head_blocked {
                forward(&st, cfg.layers, cfg.dim, &mut tape, &params)
            } else {
                forward_head_by_head(&st, cfg.layers, cfg.dim, &mut tape, &params)
            };
            let loss = bpr_from_embeddings(&mut tape, users, items, &idx);
            params.zero_grads();
            let loss = tape.backward_into(loss, &mut params);
            let grads: Vec<u32> = params.ids().flat_map(|id| params.grad(id).as_slice().to_vec()).map(f32::to_bits).collect();
            (loss.to_bits(), grads)
        };
        let (blocked, by_head) = (step(true), step(false));
        assert_eq!(blocked.0, by_head.0, "loss bits differ");
        assert!(blocked.1 == by_head.1, "a parameter gradient differs in its bits");
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn odd_dim_rejected() {
        Hgt::new(BaselineConfig { dim: 7, ..quick() });
    }
}
