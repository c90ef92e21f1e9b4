//! KGAT (Wang et al., KDD 2019): knowledge-graph attention network.
//!
//! The distinguishing mechanism: attentive propagation over the unified
//! user–item–entity graph where each edge family carries a trainable
//! relation embedding, and the attention score
//! `π(h, r, t) = (W_r e_t)ᵀ tanh(W_r e_h + e_r)` decides how much knowledge
//! flows along each triple.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_graph::{EdgeType, UnifiedView};
use dgnn_tensor::Init;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Edges of one family in *global* indices, grouped by destination.
struct FamilyEdges {
    seg: Rc<Vec<usize>>,
    src: Rc<Vec<usize>>,
    dst: Rc<Vec<usize>>,
}

struct State {
    emb: ParamId,
    /// Relation embedding per edge family, `1 × d` each.
    rel_emb: Vec<ParamId>,
    /// Relation transform per family, `d × d`.
    rel_w: Vec<ParamId>,
    families: Vec<FamilyEdges>,
    user_rows: Rc<Vec<usize>>,
    item_rows: Rc<Vec<usize>>,
    num_nodes: usize,
}

/// Groups a family's `(dst, src)` edges by destination over global ids.
fn family_edges(g: &dgnn_graph::HeteroGraph, view: &UnifiedView, ty: EdgeType) -> FamilyEdges {
    let to_global = |local: usize, is_src: bool| -> usize {
        match (ty, is_src) {
            (EdgeType::SocialToUser, _) => view.user(local),
            (EdgeType::ItemToUser, true) => view.item(local),
            (EdgeType::ItemToUser, false) => view.user(local),
            (EdgeType::UserToItem, true) => view.user(local),
            (EdgeType::UserToItem, false) => view.item(local),
            (EdgeType::RelToItem, true) => view.relation(local),
            (EdgeType::RelToItem, false) => view.item(local),
            (EdgeType::ItemToRel, true) => view.item(local),
            (EdgeType::ItemToRel, false) => view.relation(local),
        }
    };
    // typed_edges is already grouped and sorted by local destination, and
    // each family maps one node kind through an affine offset, so global
    // destinations are non-decreasing too.
    let edges = g.typed_edges(ty);
    let mut src = Vec::with_capacity(edges.len());
    let mut dst = Vec::with_capacity(edges.len());
    for &(d_local, s_local) in &edges {
        dst.push(to_global(d_local, false));
        src.push(to_global(s_local, true));
    }
    // Segment pointer over every global node (empty segments for nodes
    // without incoming edges of this family).
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

fn forward(st: &State, layers: usize, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let mut h = tape.param(params, st.emb);
    let mut outs = vec![h];
    for _ in 0..layers.max(1) {
        let mut agg: Option<Var> = None;
        for (f, fam) in st.families.iter().enumerate() {
            if fam.src.is_empty() {
                continue;
            }
            let wr = tape.param(params, st.rel_w[f]);
            let er = tape.param(params, st.rel_emb[f]);
            let hw = tape.matmul(h, wr);
            let hs = tape.gather(hw, Rc::clone(&fam.src));
            let ht = tape.gather(hw, Rc::clone(&fam.dst));
            // π(h, r, t) = (W_r e_t)ᵀ tanh(W_r e_h + e_r)
            let key = tape.add_row(hs, er);
            let key = tape.tanh(key);
            let logits = tape.row_dots(ht, key);
            let alpha = tape.segment_softmax(logits, Rc::clone(&fam.seg));
            let msg = tape.segment_weighted_sum(alpha, hs, Rc::clone(&fam.seg));
            agg = Some(match agg {
                Some(a) => tape.add(a, msg),
                None => msg,
            });
        }
        let agg = agg.unwrap_or_else(|| {
            tape.constant(dgnn_tensor::Matrix::zeros(st.num_nodes, tape.value(h).cols()))
        });
        // Bi-interaction-style update, simplified to LeakyReLU(agg) + h.
        let act = tape.leaky_relu(agg, 0.2);
        h = tape.add(act, h);
        outs.push(h);
    }
    let cat = tape.concat_cols(&outs);
    let cat = tape.l2_normalize_rows(cat, 1e-9);
    let users = tape.gather(cat, Rc::clone(&st.user_rows));
    let items = tape.gather(cat, Rc::clone(&st.item_rows));
    (users, items)
}

/// The KGAT recommender.
pub struct Kgat {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Kgat {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }

    /// Final `(user, item)` embeddings (after `fit`; used for the paper's
    /// Figure 9 visualization).
    pub fn embeddings(&self) -> (&dgnn_tensor::Matrix, &dgnn_tensor::Matrix) {
        (&self.scorer.user, &self.scorer.item)
    }
}

impl Recommender for Kgat {
    fn name(&self) -> &str {
        "KGAT"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("KGAT", user, items)
    }
}

impl Trainable for Kgat {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let view = UnifiedView::new(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let d = self.cfg.dim;
        let emb = params.add("emb", Init::Uniform(0.1).build(view.num_nodes(), d, &mut rng));
        let mut rel_emb = Vec::new();
        let mut rel_w = Vec::new();
        let mut families = Vec::new();
        for ty in EdgeType::ALL {
            rel_emb.push(
                params.add(format!("rel_emb/{ty:?}"), Init::Uniform(0.1).build(1, d, &mut rng)),
            );
            rel_w.push(
                params.add(format!("rel_w/{ty:?}"), Init::XavierUniform.build(d, d, &mut rng)),
            );
            families.push(family_edges(g, &view, ty));
        }
        let st = State {
            emb,
            rel_emb,
            rel_w,
            families,
            user_rows: Rc::new((0..g.num_users()).map(|u| view.user(u)).collect()),
            item_rows: Rc::new((0..g.num_items()).map(|v| view.item(v)).collect()),
            num_nodes: view.num_nodes(),
        };

        let layers = self.cfg.layers;
        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, _| {
                    let (users, items) = forward(&st, layers, tape, params);
                    bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| forward(&st, layers, tape, &params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn kgat_beats_random() {
        assert_beats_random(&mut Kgat::new(quick()));
    }

    #[test]
    fn family_edges_cover_all_nodes() {
        let data = dgnn_data::tiny(3);
        let view = UnifiedView::new(&data.graph);
        for ty in EdgeType::ALL {
            let fam = family_edges(&data.graph, &view, ty);
            assert_eq!(fam.seg.len(), view.num_nodes() + 1);
            assert_eq!(*fam.seg.last().expect("non-empty"), fam.src.len());
            // Segments are non-decreasing.
            assert!(fam.seg.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
