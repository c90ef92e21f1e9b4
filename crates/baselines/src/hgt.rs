//! HGT (Hu et al., WWW 2020): heterogeneous graph transformer.
//!
//! The distinguishing mechanism: per-edge-family key/query/value
//! projections with multi-head dot-product attention, softmax-normalized
//! per target node, plus node-type output projections and residuals. This
//! is the transformer-style comparator whose per-edge Q·K work makes it the
//! slowest model in the paper's Table IV — a property this implementation
//! deliberately retains.

use std::rc::Rc;

use dgnn_autograd::{Adam, ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::{Dataset, TrainSampler};
use dgnn_eval::{Recommender, Trainable};
use dgnn_graph::{EdgeType, UnifiedView};
use dgnn_tensor::{Init, Matrix, PoolScope};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Attention heads (dim must be divisible by this).
const NUM_HEADS: usize = 2;

struct FamilyEdges {
    seg: Rc<Vec<usize>>,
    src: Rc<Vec<usize>>,
    dst: Rc<Vec<usize>>,
}

struct FamilyParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
}

struct State {
    emb: ParamId,
    families: Vec<(FamilyEdges, Vec<FamilyParams>)>, // per layer params
    /// Output projection per layer.
    wo: Vec<ParamId>,
    user_rows: Rc<Vec<usize>>,
    item_rows: Rc<Vec<usize>>,
    num_nodes: usize,
}

fn forward(st: &State, layers: usize, dim: usize, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let head_dim = dim / NUM_HEADS;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut h = tape.param(params, st.emb);
    for layer in 0..layers.max(1) {
        let mut agg: Option<Var> = None;
        for (edges, layer_params) in &st.families {
            if edges.src.is_empty() {
                continue;
            }
            let fp = &layer_params[layer];
            let wq = tape.param(params, fp.wq);
            let wk = tape.param(params, fp.wk);
            let wv = tape.param(params, fp.wv);
            let q = tape.matmul(h, wq);
            let k = tape.matmul(h, wk);
            let v = tape.matmul(h, wv);
            let qe = tape.gather(q, Rc::clone(&edges.dst));
            let ke = tape.gather(k, Rc::clone(&edges.src));
            let ve = tape.gather(v, Rc::clone(&edges.src));
            // Multi-head dot-product attention, head by head.
            let mut head_outs = Vec::with_capacity(NUM_HEADS);
            for head in 0..NUM_HEADS {
                let (lo, hi) = (head * head_dim, (head + 1) * head_dim);
                let qh = tape.slice_cols(qe, lo, hi);
                let kh = tape.slice_cols(ke, lo, hi);
                let vh = tape.slice_cols(ve, lo, hi);
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

    fn build_state(&self, data: &Dataset, seed: u64) -> (State, ParamSet) {
        let g = &data.graph;
        let view = UnifiedView::new(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let d = self.cfg.dim;
        let emb = params.add("emb", Init::Uniform(0.1).build(view.num_nodes(), d, &mut rng));
        let mut families = Vec::new();
        for ty in EdgeType::ALL {
            let edges = global_family_edges(g, &view, ty);
            let per_layer = (0..self.cfg.layers.max(1))
                .map(|l| FamilyParams {
                    wq: params.add(format!("wq/{ty:?}/{l}"), Init::XavierUniform.build(d, d, &mut rng)),
                    wk: params.add(format!("wk/{ty:?}/{l}"), Init::XavierUniform.build(d, d, &mut rng)),
                    wv: params.add(format!("wv/{ty:?}/{l}"), Init::XavierUniform.build(d, d, &mut rng)),
                })
                .collect();
            families.push((edges, per_layer));
        }
        let wo = (0..self.cfg.layers.max(1))
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

    /// Trains with a per-epoch hook (drives the paper's Figure 8).
    pub fn fit_epochs(
        &mut self,
        data: &Dataset,
        seed: u64,
        mut on_epoch: impl FnMut(&Self, usize, f32),
    ) {
        let (st, mut params) = self.build_state(data, seed);
        let sampler = TrainSampler::new(&data.graph);
        let mut adam = Adam::new(self.cfg.learning_rate, self.cfg.weight_decay);
        let (layers, dim) = (self.cfg.layers, self.cfg.dim);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E11E5);
        let batches = sampler.num_positives().div_ceil(self.cfg.batch_size).max(1);
        self.loss_history.clear();
        // One pool for the whole fit, the per-epoch scorer refresh included.
        let _pool = PoolScope::open();
        for epoch in 0..self.cfg.epochs {
            let _epoch_span = dgnn_obs::span("epoch");
            let mut epoch_loss = 0.0;
            for _ in 0..batches {
                let _batch_span = dgnn_obs::span("batch");
                let triples = sampler.batch(&mut rng, self.cfg.batch_size);
                let mut tape = Tape::new();
                let loss = {
                    let _fwd = dgnn_obs::span("forward");
                    let (users, items) = forward(&st, layers, dim, &mut tape, &params);
                    bpr_from_embeddings(&mut tape, users, items, &BatchIdx::new(&triples))
                };
                params.zero_grads();
                {
                    let _bwd = dgnn_obs::span("backward");
                    epoch_loss += tape.backward_into(loss, &mut params);
                }
                let _opt_span = dgnn_obs::span("optimizer");
                let pre = params.clip_grad_norm(50.0);
                dgnn_obs::hist_record("grad_norm/preclip", f64::from(pre));
                if pre.is_finite() {
                    dgnn_obs::hist_record("grad_norm/postclip", f64::from(pre.min(50.0)));
                }
                use dgnn_autograd::Optimizer;
                adam.step(&mut params);
            }
            let mean = epoch_loss / batches as f32;
            dgnn_obs::hist_record("epoch_mean_loss", f64::from(mean));
            self.loss_history.push(mean);
            let mut tape = Tape::new();
            let (users, items) = forward(&st, layers, dim, &mut tape, &params);
            self.scorer =
                Scorer { user: tape.value(users).clone(), item: tape.value(items).clone() };
            on_epoch(self, epoch, mean);
        }
        if self.cfg.epochs == 0 {
            let mut tape = Tape::new();
            let (users, items) = forward(&st, layers, dim, &mut tape, &params);
            self.scorer =
                Scorer { user: tape.value(users).clone(), item: tape.value(items).clone() };
        }
        self.state = Some((st, params));
    }
}

/// Groups a family's edges by destination over global ids.
fn global_family_edges(
    g: &dgnn_graph::HeteroGraph,
    view: &UnifiedView,
    ty: EdgeType,
) -> FamilyEdges {
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
    FamilyEdges { seg: Rc::new(seg), src: Rc::new(src), dst: Rc::new(dst) }
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

    #[test]
    #[should_panic(expected = "divisible")]
    fn odd_dim_rejected() {
        Hgt::new(BaselineConfig { dim: 7, ..quick() });
    }
}
