//! One epoch of Alg. 1's BPR training loop, shared by every model in the
//! reproduction so cross-model timing comparisons (Table IV) measure the
//! models, not the harness.

use dgnn_autograd::{Adam, Optimizer, ParamSet, Tape, Var};
use dgnn_data::{TrainSampler, Triple};
use dgnn_graph::HeteroGraph;
use dgnn_tensor::PoolScope;
use rand::rngs::StdRng;

/// Per-batch hyperparameters of the shared epoch.
#[derive(Debug, Clone, Copy)]
pub struct TrainLoop {
    /// Triples per batch.
    pub batch_size: usize,
    /// Global gradient-norm clip (graph models occasionally spike early).
    pub grad_clip: f32,
}

impl Default for TrainLoop {
    fn default() -> Self {
        Self { batch_size: 2048, grad_clip: 50.0 }
    }
}

/// One fit's BPR training state: the sampler, the optimizer, the sampling
/// rng and the fit's buffer pool.
///
/// A model builds one per fit and runs its own `for epoch in 0..epochs`
/// over [`BprTrainer::epoch`], refreshing its caches and firing its
/// per-epoch hook in between. The pool stays open for as long as the
/// trainer lives, so every step — and every refresh forward the model runs
/// while the trainer is alive — reuses the storage of the one before it.
pub struct BprTrainer {
    sampler: TrainSampler,
    loop_cfg: TrainLoop,
    batches: usize,
    adam: Adam,
    rng: StdRng,
    _pool: PoolScope,
}

impl BprTrainer {
    /// Opens a fit on `graph`'s interactions. `threads > 0` pins the
    /// calling thread's kernel pool (`0` inherits the ambient width); the
    /// width in effect is published as the `parallel/threads` gauge.
    /// `rng` drives sampling and is handed to every step, already salted
    /// by the caller.
    ///
    /// # Panics
    /// Panics if `loop_cfg.batch_size` is zero.
    pub fn new(
        graph: &HeteroGraph,
        loop_cfg: TrainLoop,
        threads: usize,
        adam: Adam,
        rng: StdRng,
    ) -> Self {
        assert!(loop_cfg.batch_size > 0, "BprTrainer: batch_size must be positive");
        if threads > 0 {
            dgnn_tensor::parallel::set_threads(threads);
        }
        dgnn_obs::gauge_set(
            "parallel/threads",
            dgnn_tensor::parallel::current_threads() as f64,
        );
        let sampler = TrainSampler::new(graph);
        let batches = sampler.num_positives().div_ceil(loop_cfg.batch_size).max(1);
        Self { sampler, loop_cfg, batches, adam, rng, _pool: PoolScope::open() }
    }

    /// Runs one epoch and returns its mean loss. Per batch, `step` records
    /// the model's graph for the sampled triples onto a fresh tape and
    /// returns the scalar loss; it also receives the sampling rng, for
    /// models with auxiliary sampling (EATNN's social task, MHCN's
    /// corruption shuffle). The gradient is clipped at
    /// [`TrainLoop::grad_clip`] before each Adam step.
    pub fn epoch(
        &mut self,
        params: &mut ParamSet,
        mut step: impl FnMut(&mut Tape, &ParamSet, &[Triple], &mut StdRng) -> Var,
    ) -> f32 {
        let _epoch_span = dgnn_obs::span("epoch");
        let clip = self.loop_cfg.grad_clip;
        let mut epoch_loss = 0.0;
        for _ in 0..self.batches {
            let _batch_span = dgnn_obs::span("batch");
            let triples = self.sampler.batch(&mut self.rng, self.loop_cfg.batch_size);
            let mut tape = Tape::new();
            let loss = {
                let _fwd = dgnn_obs::span("forward");
                step(&mut tape, params, &triples, &mut self.rng)
            };
            params.zero_grads();
            {
                let _bwd = dgnn_obs::span("backward");
                epoch_loss += tape.backward_into(loss, params);
            }
            let _opt_span = dgnn_obs::span("optimizer");
            let pre = params.clip_grad_norm(clip);
            dgnn_obs::hist_record("grad_norm/preclip", f64::from(pre));
            if pre.is_finite() {
                // Clipping caps a finite norm at the threshold; a non-finite
                // norm is left unclipped (and counted) by clip_grad_norm.
                dgnn_obs::hist_record("grad_norm/postclip", f64::from(pre.min(clip)));
            }
            self.adam.step(params);
        }
        let mean = epoch_loss / self.batches as f32;
        dgnn_obs::hist_record("epoch_mean_loss", f64::from(mean));
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_autograd::{ParamId, Recorder};
    use dgnn_graph::HeteroGraphBuilder;
    use dgnn_tensor::Init;
    use rand::SeedableRng;
    use std::rc::Rc;

    /// The fits' sampling rng, salted as DGNN's is.
    fn sampling_rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed ^ 0xB1E5_5ED)
    }

    /// Matrix-factorization BPR loss for `triples`: rows of `eu` dotted with
    /// rows `pos + offset` / `neg + offset` of `ev`.
    fn mf_bpr(
        tape: &mut Tape,
        params: &ParamSet,
        (eu, ev): (ParamId, ParamId),
        offset: usize,
        triples: &[Triple],
    ) -> Var {
        let eu = tape.param(params, eu);
        let ev = tape.param(params, ev);
        let users: Rc<Vec<usize>> = Rc::new(triples.iter().map(|t| t.user as usize).collect());
        let pos: Rc<Vec<usize>> =
            Rc::new(triples.iter().map(|t| offset + t.pos as usize).collect());
        let neg: Rc<Vec<usize>> =
            Rc::new(triples.iter().map(|t| offset + t.neg as usize).collect());
        let ue = tape.gather(eu, users);
        let pe = tape.gather(ev, pos);
        let ne = tape.gather(ev, neg);
        let ps = tape.row_dots(ue, pe);
        let ns = tape.row_dots(ue, ne);
        tape.bpr_loss(ps, ns)
    }

    /// Matrix-factorization BPR on a tiny planted dataset: the epoch must
    /// drive the loss down and rank positives above negatives.
    #[test]
    fn bpr_loop_learns_matrix_factorization() {
        let mut b = HeteroGraphBuilder::new(4, 12, 1);
        // Users 0,1 like items 0..6; users 2,3 like items 6..12.
        for u in 0..2 {
            for v in 0..6 {
                b.interaction(u, v, 0);
            }
        }
        for u in 2..4 {
            for v in 6..12 {
                b.interaction(u, v, 0);
            }
        }
        let g = b.build();

        let mut rng = StdRng::seed_from_u64(0);
        let mut params = ParamSet::new();
        let eu = params.add("eu", Init::Uniform(0.1).build(4, 8, &mut rng));
        let ev = params.add("ev", Init::Uniform(0.1).build(12, 8, &mut rng));
        let mut trainer = BprTrainer::new(
            &g,
            TrainLoop { batch_size: 64, grad_clip: 10.0 },
            0,
            Adam::new(0.05, 1e-5),
            sampling_rng(7),
        );
        let losses: Vec<f32> = (0..40)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, _| {
                    mf_bpr(tape, params, (eu, ev), 0, triples)
                })
            })
            .collect();

        assert!(losses[0] > *losses.last().expect("non-empty losses"));
        assert!(*losses.last().expect("non-empty") < 0.35, "final loss {losses:?}");

        // Preference check: user 0 should now score item 1 above item 10.
        let u0 = params.value(eu).row(0).to_vec();
        let dot = |item: usize| -> f32 {
            params.value(ev).row(item).iter().zip(&u0).map(|(&a, &b)| a * b).sum()
        };
        assert!(dot(1) > dot(10), "in-block item should outrank out-of-block");
    }

    #[test]
    fn epoch_callback_fires_each_epoch() {
        let mut b = HeteroGraphBuilder::new(2, 5, 1);
        b.interaction(0, 0, 0).interaction(1, 1, 0);
        let g = b.build();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let e = params.add("e", Init::Uniform(0.1).build(7, 4, &mut rng));
        let mut trainer = BprTrainer::new(
            &g,
            TrainLoop { batch_size: 8, grad_clip: 10.0 },
            0,
            Adam::new(0.01, 0.0),
            sampling_rng(0),
        );
        let mut epochs_seen = Vec::new();
        for epoch in 0..3 {
            let loss = trainer.epoch(&mut params, |tape, params, triples, _| {
                mf_bpr(tape, params, (e, e), 2, triples)
            });
            epochs_seen.push(epoch);
            assert!(loss.is_finite());
        }
        assert_eq!(epochs_seen, vec![0, 1, 2]);
    }
}
