//! DiffNet (Wu et al., SIGIR 2019): layer-wise social influence diffusion.
//!
//! The distinguishing mechanism: user embeddings diffuse through the social
//! graph (`h_u^{l+1} = mean_{f ∈ N^S(u)} h_f^l + h_u^l`) for `L` layers,
//! and the final user representation fuses the diffused social interest
//! with the mean of the user's interacted-item embeddings.

use std::rc::Rc;

use dgnn_autograd::{Adam, ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::{Dataset, TrainSampler};
use dgnn_eval::{Recommender, Trainable};
use dgnn_tensor::{Csr, Init};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, train_loop, BaselineConfig, BatchIdx, Scorer};

struct State {
    e_user: ParamId,
    e_item: ParamId,
    social: Rc<Csr>,
    social_t: Rc<Csr>,
    ui: Rc<Csr>,
    ui_t: Rc<Csr>,
}

fn forward(st: &State, layers: usize, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let mut hu = tape.param(params, st.e_user);
    let hv = tape.param(params, st.e_item);
    // Social diffusion layers.
    for _ in 0..layers.max(1) {
        let diffused = tape.spmm_with(&st.social, &st.social_t, hu);
        hu = tape.add(diffused, hu);
    }
    // Fuse with interacted-item history.
    let hist = tape.spmm_with(&st.ui, &st.ui_t, hv);
    let users = tape.add(hu, hist);
    (users, hv)
}

/// The DiffNet social diffusion recommender.
pub struct DiffNet {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl DiffNet {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }
}

impl Recommender for DiffNet {
    fn name(&self) -> &str {
        "DiffNet"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("DiffNet", user, items)
    }
}

impl Trainable for DiffNet {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let e_user =
            params.add("e_user", Init::Uniform(0.1).build(g.num_users(), self.cfg.dim, &mut rng));
        let e_item =
            params.add("e_item", Init::Uniform(0.1).build(g.num_items(), self.cfg.dim, &mut rng));
        let social = g.ss().row_normalized();
        let ui = g.ui().row_normalized();
        let st = State {
            e_user,
            e_item,
            social_t: Rc::new(social.transpose()),
            social: Rc::new(social),
            ui_t: Rc::new(ui.transpose()),
            ui: Rc::new(ui),
        };

        let sampler = TrainSampler::new(g);
        let mut adam = Adam::new(self.cfg.learning_rate, self.cfg.weight_decay);
        let layers = self.cfg.layers;
        self.loss_history = train_loop(
            &self.cfg,
            &mut params,
            &mut adam,
            &sampler,
            seed,
            |tape, params, triples, _| {
                let (users, items) = forward(&st, layers, tape, params);
                bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
            },
        );

        let mut tape = Tape::new();
        let (users, items) = forward(&st, layers, &mut tape, &params);
        self.scorer =
            Scorer { user: tape.value(users).clone(), item: tape.value(items).clone() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn diffnet_beats_random() {
        assert_beats_random(&mut DiffNet::new(quick()));
    }

    #[test]
    fn diffnet_is_deterministic() {
        let data = dgnn_data::tiny(5);
        let mut a = DiffNet::new(quick());
        let mut b = DiffNet::new(quick());
        a.fit(&data, 9);
        b.fit(&data, 9);
        assert_eq!(a.loss_history, b.loss_history);
    }
}
