//! Shared BPR training loop (Alg. 1's outer loop), reused by every model
//! in the reproduction so cross-model timing comparisons (Table IV) measure
//! the models, not the harness.

use dgnn_autograd::{Adam, Optimizer, ParamSet, Recorder, Tape, Var};
use dgnn_data::{TrainSampler, Triple};
use dgnn_tensor::PoolScope;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Loop hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainLoop {
    /// Number of epochs.
    pub epochs: usize,
    /// Triples per batch.
    pub batch_size: usize,
    /// Global gradient-norm clip (graph models occasionally spike early).
    pub grad_clip: f32,
}

impl Default for TrainLoop {
    fn default() -> Self {
        Self { epochs: 30, batch_size: 2048, grad_clip: 50.0 }
    }
}

/// Runs BPR training: per batch, `forward` must build the computation graph
/// and return `(positive_scores, negative_scores)` as `B × 1` variables.
///
/// Returns the mean BPR loss per epoch. `on_epoch` fires after each epoch
/// with `(epoch_index, mean_loss)` — the hook the per-epoch convergence
/// experiment (Figure 8) uses. One buffer pool serves the whole loop, so
/// each step reuses the storage of the step before it.
pub fn run_bpr<F>(
    loop_cfg: TrainLoop,
    params: &mut ParamSet,
    opt: &mut Adam,
    sampler: &TrainSampler,
    seed: u64,
    mut forward: F,
    mut on_epoch: impl FnMut(usize, f32),
) -> Vec<f32>
where
    F: FnMut(&mut Tape, &ParamSet, &[Triple]) -> (Var, Var),
{
    assert!(loop_cfg.batch_size > 0, "run_bpr: batch_size must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB1E55ED);
    let batches_per_epoch =
        sampler.num_positives().div_ceil(loop_cfg.batch_size).max(1);
    let mut losses = Vec::with_capacity(loop_cfg.epochs);
    let _pool = PoolScope::open();
    for epoch in 0..loop_cfg.epochs {
        let _epoch_span = dgnn_obs::span("epoch");
        let mut epoch_loss = 0.0;
        for _ in 0..batches_per_epoch {
            let _batch_span = dgnn_obs::span("batch");
            let triples = sampler.batch(&mut rng, loop_cfg.batch_size);
            let mut tape = Tape::new();
            let loss = {
                let _fwd = dgnn_obs::span("forward");
                let (pos, neg) = forward(&mut tape, params, &triples);
                tape.bpr_loss(pos, neg)
            };
            params.zero_grads();
            {
                let _bwd = dgnn_obs::span("backward");
                epoch_loss += tape.backward_into(loss, params);
            }
            let _opt_span = dgnn_obs::span("optimizer");
            let pre = params.clip_grad_norm(loop_cfg.grad_clip);
            dgnn_obs::hist_record("grad_norm/preclip", f64::from(pre));
            if pre.is_finite() {
                // Clipping caps a finite norm at the threshold; a non-finite
                // norm is left unclipped (and counted) by clip_grad_norm.
                dgnn_obs::hist_record(
                    "grad_norm/postclip",
                    f64::from(pre.min(loop_cfg.grad_clip)),
                );
            }
            opt.step(params);
        }
        let mean = epoch_loss / batches_per_epoch as f32;
        dgnn_obs::hist_record("epoch_mean_loss", f64::from(mean));
        losses.push(mean);
        on_epoch(epoch, mean);
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::HeteroGraphBuilder;
    use dgnn_tensor::Init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::rc::Rc;

    /// Matrix-factorization BPR on a tiny planted dataset: the loop must
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
        let sampler = TrainSampler::new(&g);

        let mut rng = StdRng::seed_from_u64(0);
        let mut params = ParamSet::new();
        let eu = params.add("eu", Init::Uniform(0.1).build(4, 8, &mut rng));
        let ev = params.add("ev", Init::Uniform(0.1).build(12, 8, &mut rng));
        let mut adam = Adam::new(0.05, 1e-5);

        let losses = run_bpr(
            TrainLoop { epochs: 40, batch_size: 64, grad_clip: 10.0 },
            &mut params,
            &mut adam,
            &sampler,
            7,
            |tape, params, triples| {
                let eu = tape.param(params, eu);
                let ev = tape.param(params, ev);
                let users: Rc<Vec<usize>> =
                    Rc::new(triples.iter().map(|t| t.user as usize).collect());
                let pos: Rc<Vec<usize>> =
                    Rc::new(triples.iter().map(|t| t.pos as usize).collect());
                let neg: Rc<Vec<usize>> =
                    Rc::new(triples.iter().map(|t| t.neg as usize).collect());
                let ue = tape.gather(eu, users);
                let pe = tape.gather(ev, pos);
                let ne = tape.gather(ev, neg);
                let ps = tape.row_dots(ue, pe);
                let ns = tape.row_dots(ue, ne);
                (ps, ns)
            },
            |_, _| {},
        );

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
        let sampler = TrainSampler::new(&b.build());
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let e = params.add("e", Init::Uniform(0.1).build(7, 4, &mut rng));
        let mut adam = Adam::new(0.01, 0.0);
        let mut epochs_seen = Vec::new();
        run_bpr(
            TrainLoop { epochs: 3, batch_size: 8, grad_clip: 10.0 },
            &mut params,
            &mut adam,
            &sampler,
            0,
            |tape, params, triples| {
                let e = tape.param(params, e);
                let users: Rc<Vec<usize>> =
                    Rc::new(triples.iter().map(|t| t.user as usize).collect());
                let pos: Rc<Vec<usize>> =
                    Rc::new(triples.iter().map(|t| 2 + t.pos as usize).collect());
                let neg: Rc<Vec<usize>> =
                    Rc::new(triples.iter().map(|t| 2 + t.neg as usize).collect());
                let ue = tape.gather(e, users);
                let pe = tape.gather(e, pos);
                let ne = tape.gather(e, neg);
                let ps = tape.row_dots(ue, pe);
                let ns = tape.row_dots(ue, ne);
                (ps, ns)
            },
            |epoch, loss| {
                epochs_seen.push(epoch);
                assert!(loss.is_finite());
            },
        );
        assert_eq!(epochs_seen, vec![0, 1, 2]);
    }
}
