//! Shared baseline scaffolding: configuration, the shared trainer's
//! baseline salt, and the cached-embedding scorer.

use std::rc::Rc;

use dgnn_autograd::{Adam, Recorder, Tape, Var};
use dgnn_core::training::{BprTrainer, TrainLoop};
use dgnn_data::Triple;
use dgnn_graph::HeteroGraph;
use dgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyperparameters shared by all baselines (matched to DGNN's defaults so
/// Table II compares architectures, not budgets).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Propagation layers (where the model has a notion of layers).
    pub layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// BPR batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Kernel-pool thread count for training (`0` inherits the ambient
    /// setting: `DGNN_THREADS` or the hardware default). Any value produces
    /// bit-identical results; `1` forces fully serial kernels.
    pub threads: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            layers: 2,
            epochs: 30,
            batch_size: 2048,
            learning_rate: 0.01,
            weight_decay: 1e-4,
            threads: 0,
        }
    }
}

impl BaselineConfig {
    /// Pins the kernel-pool thread count for training (`0` = inherit).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The shared BPR trainer for one fit on `g` at this configuration,
    /// its sampling rng salted as every baseline's is.
    pub(crate) fn trainer(&self, g: &HeteroGraph, seed: u64) -> BprTrainer {
        BprTrainer::new(
            g,
            TrainLoop { batch_size: self.batch_size, ..TrainLoop::default() },
            self.threads,
            Adam::new(self.learning_rate, self.weight_decay),
            StdRng::seed_from_u64(seed ^ 0xBA5E11E5),
        )
    }
}

/// Gathered per-batch triple indices as shared vectors for `Tape::gather`.
pub(crate) struct BatchIdx {
    pub users: Rc<Vec<usize>>,
    pub pos: Rc<Vec<usize>>,
    pub neg: Rc<Vec<usize>>,
}

impl BatchIdx {
    pub fn new(triples: &[Triple]) -> Self {
        Self {
            users: Rc::new(triples.iter().map(|t| t.user as usize).collect()),
            pos: Rc::new(triples.iter().map(|t| t.pos as usize).collect()),
            neg: Rc::new(triples.iter().map(|t| t.neg as usize).collect()),
        }
    }
}

/// BPR loss over final user/item embedding matrices for a batch.
pub(crate) fn bpr_from_embeddings<R: Recorder>(
    tape: &mut R,
    users_final: Var,
    items_final: Var,
    idx: &BatchIdx,
) -> Var {
    let ue = tape.gather(users_final, Rc::clone(&idx.users));
    let pe = tape.gather(items_final, Rc::clone(&idx.pos));
    let ne = tape.gather(items_final, Rc::clone(&idx.neg));
    let ps = tape.row_dots(ue, pe);
    let ns = tape.row_dots(ue, ne);
    tape.bpr_loss(ps, ns)
}

/// Cached final embeddings + dot-product scoring — the inference side every
/// baseline shares.
#[derive(Debug)]
pub(crate) struct Scorer {
    pub user: Matrix,
    pub item: Matrix,
}

impl Default for Scorer {
    fn default() -> Self {
        Self { user: Matrix::zeros(0, 0), item: Matrix::zeros(0, 0) }
    }
}

impl Scorer {
    /// Caches the `(user, item)` embeddings that `forward` records onto a
    /// fresh tape from the current parameters.
    pub fn from_forward(forward: impl FnOnce(&mut Tape) -> (Var, Var)) -> Self {
        let mut tape = Tape::new();
        let (user, item) = forward(&mut tape);
        Self { user: tape.value(user).clone(), item: tape.value(item).clone() }
    }

    pub fn score(&self, model_name: &str, user: usize, items: &[usize]) -> Vec<f32> {
        assert!(!self.user.is_empty(), "{model_name}::score called before fit");
        // Routed through the GEMM entry points (not a hand-rolled dot
        // loop) so the fold order matches the serving engine's on every
        // `DGNN_GEMM` backend: a checkpointed model must serve these
        // exact bits.
        let u = self.user.gather_rows(&[user]);
        u.matmul_nt(&self.item.gather_rows(items)).as_slice().to_vec()
    }

    #[cfg(test)]
    pub fn is_fitted(&self) -> bool {
        !self.user.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use dgnn_data::{tiny, Dataset};
    use dgnn_eval::{evaluate_at, Trainable};

    use super::BaselineConfig;

    /// Fast config for smoke tests.
    pub fn quick() -> BaselineConfig {
        BaselineConfig { dim: 8, layers: 2, epochs: 4, batch_size: 256, ..Default::default() }
    }

    /// Trains the model on the tiny dataset and asserts it beats the
    /// ~0.099 HR@10 of random ranking.
    pub fn assert_beats_random(model: &mut dyn Trainable) -> f64 {
        let data: Dataset = tiny(42);
        model.fit(&data, 7);
        let m = evaluate_at(model, &data.test, 10);
        assert!(m.hr > 0.12, "{} HR@10 = {:.4} is not better than random", model.name(), m.hr);
        m.hr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_matches_dgnn() {
        let c = BaselineConfig::default();
        assert_eq!(c.dim, 16);
        assert_eq!(c.epochs, 30);
        assert_eq!(c.batch_size, 2048);
    }

    #[test]
    fn scorer_panics_before_fit() {
        let s = Scorer::default();
        assert!(!s.is_fitted());
        let r = std::panic::catch_unwind(|| s.score("X", 0, &[0]));
        assert!(r.is_err());
    }
}
