//! DiffNet (Wu et al., SIGIR 2019): layer-wise social influence diffusion.
//!
//! The distinguishing mechanism: user embeddings diffuse through the social
//! graph (`h_u^{l+1} = mean_{f ∈ N^S(u)} h_f^l + h_u^l`) for `L` layers,
//! and the final user representation fuses the diffused social interest
//! with the mean of the user's interacted-item embeddings.

use dgnn_autograd::{ParamId, ParamSet, Propagation, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_tensor::Init;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

struct State {
    e_user: ParamId,
    e_item: ParamId,
    social: Propagation,
    ui: Propagation,
}

fn forward(st: &State, layers: usize, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let mut hu = tape.param(params, st.e_user);
    let hv = tape.param(params, st.e_item);
    // Social diffusion layers.
    for _ in 0..layers.max(1) {
        let diffused = st.social.apply(tape, hu);
        hu = tape.add(diffused, hu);
    }
    // Fuse with interacted-item history.
    let hist = st.ui.apply(tape, hv);
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
        let st = State {
            e_user,
            e_item,
            social: Propagation::new(&g.ss().row_normalized()),
            ui: Propagation::new(&g.ui().row_normalized()),
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
