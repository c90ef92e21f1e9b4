//! SAMN (Chen et al., WSDM 2019): social attentional memory network.
//!
//! The distinguishing mechanism is dual-stage attention over social ties:
//! an *aspect* stage where a memory bank turns each (user, friend) pair
//! into an aspect-filtered relation vector, and a *friend* stage where
//! per-edge attention decides how much each friend influences the user.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_tensor::Init;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Number of memory aspects (the reference implementation's default).
const NUM_ASPECTS: usize = 8;

struct State {
    e_user: ParamId,
    e_item: ParamId,
    /// Aspect keys, `d × A`.
    mem_key: ParamId,
    /// Aspect values, `A × d`.
    mem_val: ParamId,
    /// Friend-attention projection, `d × 1`.
    attn_w: ParamId,
    /// Social edges grouped by destination user (CSR layout).
    edge_dst_seg: Rc<Vec<usize>>,
    edge_src: Rc<Vec<usize>>,
    edge_dst: Rc<Vec<usize>>,
}

fn forward(st: &State, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let eu = tape.param(params, st.e_user);
    let ev = tape.param(params, st.e_item);
    if st.edge_src.is_empty() {
        return (eu, ev);
    }
    let src = tape.gather(eu, Rc::clone(&st.edge_src));
    let dst = tape.gather(eu, Rc::clone(&st.edge_dst));

    // Aspect attention: joint key → softmax over memory slots → relation
    // vector filtering the friend embedding.
    let joint = tape.mul(src, dst);
    let key = tape.param(params, st.mem_key);
    let logits = tape.matmul(joint, key);
    let aspect = tape.softmax_rows(logits);
    let val = tape.param(params, st.mem_val);
    let filter = tape.matmul(aspect, val);
    let relation = tape.mul(filter, src);

    // Friend-level attention over each user's ties.
    let w = tape.param(params, st.attn_w);
    let gate = tape.mul(relation, dst);
    let fl = tape.matmul(gate, w);
    let fl = tape.leaky_relu(fl, 0.2);
    let beta = tape.segment_softmax(fl, Rc::clone(&st.edge_dst_seg));
    let social = tape.segment_weighted_sum(beta, relation, Rc::clone(&st.edge_dst_seg));

    let users = tape.add(eu, social);
    (users, ev)
}

/// The SAMN recommender.
pub struct Samn {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Samn {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }
}

impl Recommender for Samn {
    fn name(&self) -> &str {
        "SAMN"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("SAMN", user, items)
    }
}

impl Trainable for Samn {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let d = self.cfg.dim;
        let e_user = params.add("e_user", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
        let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng));
        let mem_key = params.add("mem_key", Init::XavierUniform.build(d, NUM_ASPECTS, &mut rng));
        let mem_val = params.add("mem_val", Init::XavierUniform.build(NUM_ASPECTS, d, &mut rng));
        let attn_w = params.add("attn_w", Init::XavierUniform.build(d, 1, &mut rng));

        // The social CSR already groups edges by destination row.
        let ss = g.ss();
        let mut edge_dst = Vec::with_capacity(ss.nnz());
        for u in 0..g.num_users() {
            edge_dst.extend(std::iter::repeat_n(u, ss.degree(u)));
        }
        let st = State {
            e_user,
            e_item,
            mem_key,
            mem_val,
            attn_w,
            edge_dst_seg: Rc::new(ss.row_ptr().to_vec()),
            edge_src: Rc::new(ss.col_idx().to_vec()),
            edge_dst: Rc::new(edge_dst),
        };

        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, _| {
                    let (users, items) = forward(&st, tape, params);
                    bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| forward(&st, tape, &params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn samn_beats_random() {
        assert_beats_random(&mut Samn::new(quick()));
    }

    #[test]
    fn samn_handles_graph_without_social_ties() {
        use dgnn_graph::HeteroGraphBuilder;
        let mut b = HeteroGraphBuilder::new(4, 120, 1);
        for u in 0..4 {
            for v in 0..5 {
                b.interaction(u, v * 4 + u, v as u32);
            }
        }
        let full = b.build();
        let mut rng = StdRng::seed_from_u64(0);
        let data = Dataset::leave_one_out("no-social", &full, 2, 20, &mut rng);
        let mut m = Samn::new(quick());
        m.fit(&data, 1); // must not panic on empty edge set
        assert!(m.loss_history.iter().all(|l| l.is_finite()));
    }
}
