//! GraphRec (Fan et al., WWW 2019): graph attention over both the social
//! and the interaction graph.
//!
//! The distinguishing mechanism: user latent factors combine an
//! *item-space* aggregation (attention over interacted items) and a
//! *social-space* aggregation (attention over friends' item-space
//! factors), fused by a learned combination layer; item latent factors
//! attentively aggregate the users who interacted with them.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_tensor::{Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// One attention-aggregation block: edges grouped by destination.
struct EdgeSet {
    seg: Rc<Vec<usize>>,
    src: Rc<Vec<usize>>,
    dst: Rc<Vec<usize>>,
}

impl EdgeSet {
    fn from_csr(csr: &dgnn_tensor::Csr) -> Self {
        let mut dst = Vec::with_capacity(csr.nnz());
        for r in 0..csr.rows() {
            dst.extend(std::iter::repeat(r).take(csr.degree(r)));
        }
        Self {
            seg: Rc::new(csr.row_ptr().to_vec()),
            src: Rc::new(csr.col_idx().to_vec()),
            dst: Rc::new(dst),
        }
    }

    fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

struct State {
    e_user: ParamId,
    e_item: ParamId,
    /// Attention MLPs per aggregation space (item→user, friend→user,
    /// user→item): a `d × d` transform and a `d × 1` scorer each.
    attn_w: [ParamId; 3],
    attn_v: [ParamId; 3],
    /// Combination layer `2d × d` fusing item-space and social-space.
    combine: ParamId,
    iu_edges: EdgeSet, // item → user (grouped by user)
    ss_edges: EdgeSet, // friend → user (grouped by user)
    ui_edges: EdgeSet, // user → item (grouped by item)
}

/// Attention aggregation: `out[dst] = Σ_e softmax(attn(src_e, dst_e)) src_e`.
fn attend(
    tape: &mut Tape,
    params: &ParamSet,
    w: ParamId,
    v: ParamId,
    src_feat: Var,
    dst_feat: Var,
    edges: &EdgeSet,
    num_dst: usize,
    dim: usize,
) -> Var {
    if edges.is_empty() {
        return tape.constant(Matrix::zeros(num_dst, dim));
    }
    let s = tape.gather(src_feat, Rc::clone(&edges.src));
    let t = tape.gather(dst_feat, Rc::clone(&edges.dst));
    let joint = tape.mul(s, t);
    let w = tape.param(params, w);
    let hidden = tape.matmul(joint, w);
    let hidden = tape.leaky_relu(hidden, 0.2);
    let v = tape.param(params, v);
    let logits = tape.matmul(hidden, v);
    let alpha = tape.segment_softmax(logits, Rc::clone(&edges.seg));
    tape.segment_weighted_sum(alpha, s, Rc::clone(&edges.seg))
}

fn forward(st: &State, dim: usize, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let eu = tape.param(params, st.e_user);
    let ev = tape.param(params, st.e_item);
    let num_users = tape.value(eu).rows();
    let num_items = tape.value(ev).rows();

    // Item-space user factors.
    let h_item_space =
        attend(tape, params, st.attn_w[0], st.attn_v[0], ev, eu, &st.iu_edges, num_users, dim);
    let h_item_space = tape.add(h_item_space, eu);

    // Social-space: friends' item-space factors, attended.
    let h_social = attend(
        tape,
        params,
        st.attn_w[1],
        st.attn_v[1],
        h_item_space,
        eu,
        &st.ss_edges,
        num_users,
        dim,
    );

    // Fuse the two spaces.
    let cat = tape.concat_cols(&[h_item_space, h_social]);
    let cw = tape.param(params, st.combine);
    let fused = tape.matmul(cat, cw);
    let users = tape.leaky_relu(fused, 0.2);

    // Item latent: attention over interacting users.
    let z = attend(tape, params, st.attn_w[2], st.attn_v[2], eu, ev, &st.ui_edges, num_items, dim);
    let items = tape.add(ev, z);
    (users, items)
}

/// The GraphRec recommender.
pub struct GraphRec {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl GraphRec {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }
}

impl Recommender for GraphRec {
    fn name(&self) -> &str {
        "GraphRec"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("GraphRec", user, items)
    }
}

impl Trainable for GraphRec {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let d = self.cfg.dim;
        let e_user = params.add("e_user", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
        let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng));
        let mut attn_w = Vec::new();
        let mut attn_v = Vec::new();
        for space in ["item", "social", "user"] {
            attn_w.push(params.add(format!("attn_w/{space}"), Init::XavierUniform.build(d, d, &mut rng)));
            attn_v.push(params.add(format!("attn_v/{space}"), Init::XavierUniform.build(d, 1, &mut rng)));
        }
        let combine = params.add("combine", Init::XavierUniform.build(2 * d, d, &mut rng));
        let st = State {
            e_user,
            e_item,
            attn_w: [attn_w[0], attn_w[1], attn_w[2]],
            attn_v: [attn_v[0], attn_v[1], attn_v[2]],
            combine,
            iu_edges: EdgeSet::from_csr(g.ui()),
            ss_edges: EdgeSet::from_csr(g.ss()),
            ui_edges: EdgeSet::from_csr(g.iu()),
        };

        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, _| {
                    let (users, items) = forward(&st, d, tape, params);
                    bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| forward(&st, d, tape, &params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn graphrec_beats_random() {
        assert_beats_random(&mut GraphRec::new(quick()));
    }
}
