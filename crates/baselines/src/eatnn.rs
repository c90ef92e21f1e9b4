//! EATNN (Chen et al., SIGIR 2019): efficient adaptive transfer network.
//!
//! The distinguishing mechanism is *adaptive multi-task transfer*: users
//! carry a shared embedding plus a social-domain embedding, a learned
//! per-user gate decides how much social knowledge transfers into the item
//! domain, and a social link-prediction task is trained jointly with the
//! recommendation task.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_tensor::Init;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Weight of the auxiliary social task in the joint loss.
const SOCIAL_TASK_WEIGHT: f32 = 0.5;

struct State {
    e_shared: ParamId,
    e_social: ParamId,
    e_item: ParamId,
    gate_w: ParamId,
    gate_b: ParamId,
    /// Flattened social ties for auxiliary sampling.
    ties: Vec<(u32, u32)>,
    /// Sorted friend lists for negative rejection.
    friends: Vec<Vec<u32>>,
}

/// Item-domain user representation: shared + gated social transfer.
fn user_repr(st: &State, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let shared = tape.param(params, st.e_shared);
    let social = tape.param(params, st.e_social);
    let gw = tape.param(params, st.gate_w);
    let gb = tape.param(params, st.gate_b);
    let gate_in = tape.matmul(shared, gw);
    let gate_in = tape.add_row(gate_in, gb);
    let gate = tape.sigmoid(gate_in);
    let transferred = tape.mul(gate, social);
    (tape.add(shared, transferred), social)
}

/// Auxiliary social BPR: a user should score true friends above sampled
/// non-friends in the social embedding space.
fn social_loss(
    st: &State,
    tape: &mut Tape,
    social: Var,
    rng: &mut StdRng,
    n: usize,
) -> Option<Var> {
    if st.ties.is_empty() {
        return None;
    }
    let num_users = st.friends.len();
    let mut users = Vec::with_capacity(n);
    let mut pos = Vec::with_capacity(n);
    let mut neg = Vec::with_capacity(n);
    for _ in 0..n {
        let &(a, b) = &st.ties[rng.gen_range(0..st.ties.len())];
        let neg_u = loop {
            let cand = rng.gen_range(0..num_users) as u32;
            if cand != a && st.friends[a as usize].binary_search(&cand).is_err() {
                break cand;
            }
        };
        users.push(a as usize);
        pos.push(b as usize);
        neg.push(neg_u as usize);
    }
    let ue = tape.gather(social, Rc::new(users));
    let pe = tape.gather(social, Rc::new(pos));
    let ne = tape.gather(social, Rc::new(neg));
    let ps = tape.row_dots(ue, pe);
    let ns = tape.row_dots(ue, ne);
    Some(tape.bpr_loss(ps, ns))
}

/// The EATNN recommender.
pub struct Eatnn {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean joint loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Eatnn {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }
}

impl Recommender for Eatnn {
    fn name(&self) -> &str {
        "EATNN"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("EATNN", user, items)
    }
}

impl Trainable for Eatnn {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let d = self.cfg.dim;
        let e_shared = params.add("e_shared", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
        let e_social = params.add("e_social", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
        let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng));
        let gate_w = params.add("gate_w", Init::XavierUniform.build(d, d, &mut rng));
        let gate_b = params.add("gate_b", dgnn_tensor::Matrix::zeros(1, d));

        let mut ties: Vec<(u32, u32)> = Vec::with_capacity(g.social_ties().len() * 2);
        let mut friends: Vec<Vec<u32>> = vec![Vec::new(); g.num_users()];
        for &(a, b) in g.social_ties() {
            ties.push((a, b));
            ties.push((b, a));
            friends[a as usize].push(b);
            friends[b as usize].push(a);
        }
        for f in &mut friends {
            f.sort_unstable();
        }
        let st = State { e_shared, e_social, e_item, gate_w, gate_b, ties, friends };

        let batch = self.cfg.batch_size;
        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, rng| {
                    let (users, social) = user_repr(&st, tape, params);
                    let items = tape.param(params, st.e_item);
                    let main = bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples));
                    match social_loss(&st, tape, social, rng, batch.min(512)) {
                        Some(aux) => {
                            let aux = tape.scale(aux, SOCIAL_TASK_WEIGHT);
                            tape.add(main, aux)
                        }
                        None => main,
                    }
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| {
            let (users, _) = user_repr(&st, tape, &params);
            let items = tape.param(&params, st.e_item);
            (users, items)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn eatnn_beats_random() {
        assert_beats_random(&mut Eatnn::new(quick()));
    }

    #[test]
    fn joint_loss_is_finite_and_decreasing() {
        let data = dgnn_data::tiny(2);
        let mut m = Eatnn::new(quick());
        m.fit(&data, 4);
        assert!(m.loss_history.iter().all(|l| l.is_finite()));
        assert!(m.loss_history.first() > m.loss_history.last());
    }
}
