//! Shared baseline scaffolding: configuration, the flexible training loop,
//! and the cached-embedding scorer.

use std::rc::Rc;

use dgnn_autograd::{Adam, Optimizer, ParamSet, PlanHarness, Recorder, Tape, Var};
use dgnn_data::{TrainSampler, Triple};
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
    /// Execute training steps under a proven static memory plan (traced
    /// baselines only: NGCF, GCCF, DGCF, MHCN, DisenHAN; the others train
    /// unplanned regardless). Bit-identical to unplanned execution.
    pub use_memory_plan: bool,
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
            use_memory_plan: false,
            threads: 0,
        }
    }
}

impl BaselineConfig {
    /// Enables statically planned, pooled training-step execution.
    pub fn with_memory_plan(mut self) -> Self {
        self.use_memory_plan = true;
        self
    }

    /// Pins the kernel-pool thread count for training (`0` = inherit).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
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

/// A deterministic probe batch for tracing a planned step. Drawn from its
/// own RNG so the training stream is untouched and planned runs remain
/// bit-identical to unplanned ones.
pub(crate) fn probe_batch(sampler: &TrainSampler, batch_size: usize, seed: u64) -> Vec<Triple> {
    sampler.batch(&mut StdRng::seed_from_u64(seed ^ 0x9E37_79B9), batch_size)
}

/// Flexible training loop: `forward` receives the tape, parameters, the
/// batch, and an RNG (for models with auxiliary sampling such as EATNN's
/// social task or MHCN's embedding corruption) and returns the scalar loss.
///
/// With `harness` set (a proven harness from
/// [`dgnn_core::training::planned_harness`]), every step runs planned:
/// intermediates retire into the harness's buffer pool at their static
/// death points. The arithmetic is bit-identical either way.
///
/// Returns mean loss per epoch.
pub(crate) fn train_loop(
    cfg: &BaselineConfig,
    params: &mut ParamSet,
    adam: &mut Adam,
    sampler: &TrainSampler,
    seed: u64,
    mut harness: Option<PlanHarness>,
    mut forward: impl FnMut(&mut Tape, &ParamSet, &[Triple], &mut StdRng) -> Var,
) -> Vec<f32> {
    let (epochs, batch_size) = (cfg.epochs, cfg.batch_size);
    if cfg.threads > 0 {
        dgnn_tensor::parallel::set_threads(cfg.threads);
    }
    dgnn_obs::gauge_set(
        "parallel/threads",
        dgnn_tensor::parallel::current_threads() as f64,
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E11E5);
    let batches = sampler.num_positives().div_ceil(batch_size).max(1);
    let mut losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let _epoch_span = dgnn_obs::span("epoch");
        let mut epoch_loss = 0.0;
        for _ in 0..batches {
            let _batch_span = dgnn_obs::span("batch");
            let triples = sampler.batch(&mut rng, batch_size);
            let mut tape = match harness.as_mut() {
                Some(h) => h.begin_step(),
                None => Tape::new(),
            };
            let loss = {
                let _fwd = dgnn_obs::span("forward");
                forward(&mut tape, params, &triples, &mut rng)
            };
            params.zero_grads();
            {
                let _bwd = dgnn_obs::span("backward");
                epoch_loss += tape.backward_into(loss, params);
            }
            {
                let _opt_span = dgnn_obs::span("optimizer");
                let pre = params.clip_grad_norm(50.0);
                dgnn_obs::hist_record("grad_norm/preclip", f64::from(pre));
                if pre.is_finite() {
                    dgnn_obs::hist_record("grad_norm/postclip", f64::from(pre.min(50.0)));
                }
                adam.step(params);
            }
            if let Some(h) = harness.as_mut() {
                h.end_step(tape);
            }
        }
        let mean = epoch_loss / batches as f32;
        dgnn_obs::hist_record("epoch_mean_loss", f64::from(mean));
        losses.push(mean);
    }
    losses
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
    pub fn score(&self, model_name: &str, user: usize, items: &[usize]) -> Vec<f32> {
        assert!(
            !self.user.is_empty(),
            "{model_name}::score called before fit"
        );
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
        assert!(
            m.hr > 0.12,
            "{} HR@10 = {:.4} is not better than random",
            model.name(),
            m.hr
        );
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
