//! The three training workloads: `fit_epochs` of DGNN, DGCF and HGT on
//! `epinions_small(seed)` at the paper's hyper-parameters.
//!
//! Work is fixed per `--seconds` (an epoch count, identical on every
//! commit), so a faster commit finishes sooner instead of training more:
//! loss curves, quality and every counter stay comparable.

use std::time::{Duration, Instant};

use crate::world;
use dgnn_autograd::{Adam, Optimizer as _, ParamSet, Tape};
use dgnn_baselines::{BaselineConfig, Dgcf, Hgt};
use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{epinions_small, Dataset, TrainSampler};
use dgnn_eval::{evaluate, Recommender};
use dgnn_tensor::{gemm, parallel};
use rand::rngs::StdRng;
use rand::SeedableRng as _;

use crate::kernels;
use crate::report::RunResult;
use crate::spec::Workload;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Set-ups (data generation) and cold starts (construct + first epoch)
/// per run; each reports its median. Half of each run before the main fit
/// and half after it: a neighbour's burst of a second or two covers all of
/// one half (their sum is 1–2 s) and then moves the median half as far.
const SETUPS: usize = 6;
const COLD_STARTS: usize = 10;
/// The tail percentile 72–108 epochs support, with at least eighteen samples
/// beyond it. (A p95 of 72 epochs is its fourth-slowest epoch, which
/// on a shared box is whichever epochs a neighbour's burst happened to hit.)
/// The gated tail is the median over windows of `TAIL_WINDOW` consecutive
/// epochs (2–3 s) of each window's `TAIL`, as on the serve workloads: a burst
/// of a few seconds from a neighbour slows a quarter of a run's epochs, which
/// is the whole-run p75, but under half of its windows.
const TAIL: f64 = 0.75;
const TAIL_WINDOW: usize = 12;
/// HR@10 of a uniformly random ranking of the 100 candidates is 0.1; a
/// trained model on this dataset reaches ≈0.85. Below this floor the run
/// is wrong, not slow.
const HR_FLOOR: f64 = 0.5;

/// Epochs of the main `fit_epochs` call: about `seconds` of training on
/// the reference box (2 cores, epoch ≈ 180 / 155 / 245 ms).
fn epochs_for(workload: Workload, seconds: u64) -> usize {
    let per_second = match workload {
        Workload::TrainDgnn => 5,
        Workload::TrainDgcf => 6,
        Workload::TrainHgt => 4,
        Workload::ServeSmall | Workload::ServeScale => unreachable!("not a training workload"),
    };
    (per_second * seconds as usize).max(10)
}

/// Constructs the workload's model with default (paper) hyper-parameters,
/// trains it for `epochs`, and hands each epoch's mean loss to `on_epoch`.
fn fit(
    workload: Workload,
    epochs: usize,
    data: &Dataset,
    seed: u64,
    mut on_epoch: impl FnMut(f32),
) -> Box<dyn Recommender> {
    match workload {
        Workload::TrainDgnn => {
            let mut m = Dgnn::new(DgnnConfig {
                epochs,
                ..DgnnConfig::default()
            });
            m.fit_epochs(data, seed, |_, _, loss| on_epoch(loss));
            Box::new(m)
        }
        Workload::TrainDgcf => {
            let mut m = Dgcf::new(BaselineConfig {
                epochs,
                ..BaselineConfig::default()
            });
            m.fit_epochs(data, seed, |_, _, loss| on_epoch(loss));
            Box::new(m)
        }
        Workload::TrainHgt => {
            let mut m = Hgt::new(BaselineConfig {
                epochs,
                ..BaselineConfig::default()
            });
            m.fit_epochs(data, seed, |_, _, loss| on_epoch(loss));
            Box::new(m)
        }
        Workload::ServeSmall | Workload::ServeScale => unreachable!("not a training workload"),
    }
}

/// One timed `fit`: where each epoch began and ended (callback to
/// callback, the first from the start of the call), losses, total wall
/// time and the model.
struct Fit {
    epoch_bounds: Vec<(Instant, Instant)>,
    losses: Vec<f32>,
    wall_s: f64,
    model: Box<dyn Recommender>,
}

impl Fit {
    fn epoch_ms(&self) -> Vec<f64> {
        self.epoch_bounds
            .iter()
            .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
            .collect()
    }
}

fn timed_fit(workload: Workload, epochs: usize, data: &Dataset, seed: u64) -> Fit {
    let mut epoch_bounds = Vec::with_capacity(epochs);
    let mut losses = Vec::with_capacity(epochs);
    let started = Instant::now();
    let mut last = started;
    let model = fit(workload, epochs, data, seed, |loss| {
        let now = Instant::now();
        epoch_bounds.push((last, now));
        losses.push(loss);
        last = now;
    });
    Fit {
        epoch_bounds,
        losses,
        wall_s: started.elapsed().as_secs_f64(),
        model,
    }
}

fn batch_size() -> usize {
    // DgnnConfig and BaselineConfig agree on the paper's 2048.
    DgnnConfig::default().batch_size
}

fn batches_per_epoch(data: &Dataset) -> usize {
    TrainSampler::new(&data.graph)
        .num_positives()
        .div_ceil(batch_size())
        .max(1)
}

/// Counts epochs as operations and checks the loss curve.
fn account_epochs(out: &mut RunResult, losses: &[f32]) {
    out.attempted += losses.len() as u64;
    out.failed += losses.iter().filter(|l| !l.is_finite()).count() as u64;
    let decreased = matches!((losses.first(), losses.last()), (Some(a), Some(b)) if b < a);
    out.check("last epoch loss below first", decreased);
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let mut out = RunResult::new(workload, seed, seconds, false);
    let epochs = epochs_for(workload, seconds);

    let (data, world_seed) = world::epinions(seed);
    let (mut setup_s, mut cold_ms) = (Vec::new(), Vec::new());
    let mut half_of_the_starts = || {
        for _ in 0..SETUPS / 2 {
            let t = Instant::now();
            std::hint::black_box(epinions_small(world_seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        for _ in 0..COLD_STARTS / 2 {
            cold_ms.push(timed_fit(workload, 1, &data, seed).wall_s * 1e3);
        }
    };

    half_of_the_starts();
    let fit = timed_fit(workload, epochs, &data, seed);
    let epoch_ms = fit.epoch_ms();
    let triples = (epochs * batches_per_epoch(&data) * batch_size()) as f64;
    out.metric("latency_ms_p50", median(&epoch_ms));
    let window_tails: Vec<f64> = epoch_ms
        .chunks(TAIL_WINDOW)
        .map(|w| percentile(w, TAIL))
        .collect();
    out.metric("latency_ms_tail", median(&window_tails));
    out.metric("throughput_per_s", triples / fit.wall_s);
    out.metric("peak_rss_mb", crate::sysinfo::peak_rss_mb());
    half_of_the_starts();
    out.metric("setup_s", median(&setup_s));
    out.metric("startup_ms_p50", median(&cold_ms));

    account_epochs(&mut out, &fit.losses);
    let quality = evaluate(fit.model.as_ref(), &data.test)[1];
    out.check("hr_at_10 above floor", quality.hr >= HR_FLOOR);
    for (name, unit, value) in [
        ("hr_at_10", "ratio", quality.hr),
        ("ndcg_at_10", "ratio", quality.ndcg),
        ("train_epoch_ms_p50", "ms", median(&epoch_ms)),
        ("train_epoch_ms_p75", "ms", percentile(&epoch_ms, TAIL)),
        ("samples.epoch_windows", "count", window_tails.len() as f64),
        ("train_samples_per_s", "1/s", triples / fit.wall_s),
        ("shape.num_train", "count", data.num_train() as f64),
        ("samples.epochs", "count", epochs as f64),
        (
            "samples.batches_per_epoch",
            "count",
            batches_per_epoch(&data) as f64,
        ),
        ("samples.setups", "count", SETUPS as f64),
        ("samples.cold_starts", "count", COLD_STARTS as f64),
        ("loss_first", "loss", f64::from(fit.losses[0])),
        (
            "loss_last",
            "loss",
            f64::from(fit.losses[fit.losses.len() - 1]),
        ),
    ] {
        out.extra.set(name, unit, value);
    }
    out
}

/// The traced run: per-layer metrics. Returns the tracer so the caller can
/// write `trace-<workload>.json`.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64) -> (RunResult, Tracer) {
    let mut out = RunResult::new(workload, seed, seconds, true);
    let mut tracer = Tracer::new();
    let traced_from = Instant::now();
    let epochs = epochs_for(workload, seconds).div_ceil(8).max(3);
    let ambient_threads = parallel::current_threads();

    let machine = kernels::machine(&mut out, &mut tracer);

    let (_, world_seed) = world::epinions(seed);
    let data = tracer.span("data.gen", 0, |_| epinions_small(world_seed));
    out.metric(
        "data.gen_ms",
        *tracer
            .durations_ms("data.gen")
            .last()
            .expect("just recorded"),
    );
    let batches = batches_per_epoch(&data);

    // Whole-model view, the same for all three models: epochs of a real
    // `fit_epochs`, with the dispatching thread's GEMM and allocation
    // counters read at its boundaries.
    gemm::reset_counters();
    dgnn_tensor::reset_alloc_counters();
    let fit = timed_fit(workload, epochs, &data, seed);
    let gemm_counts = gemm::counters();
    let (fresh_allocs, _pool_hits) = dgnn_tensor::alloc_counters();
    for (epoch, (begun, ended)) in fit.epoch_bounds.iter().enumerate() {
        tracer.span_between("train.epoch", epoch as u64, *begun, *ended);
    }
    account_epochs(&mut out, &fit.losses);
    let epoch_ms_p50 = median(&fit.epoch_ms());
    out.metric("train.epoch_ms_p50", epoch_ms_p50);
    out.metric(
        "tensor.gemm.calls_per_epoch",
        (gemm_counts.packed_calls + gemm_counts.scalar_calls) as f64 / epochs as f64,
    );
    out.metric(
        "tensor.gemm.macs_per_epoch",
        gemm_counts.macs as f64 / epochs as f64,
    );
    out.metric(
        "tensor.alloc.fresh_per_epoch",
        fresh_allocs as f64 / epochs as f64,
    );

    let quality = tracer.span("eval.evaluate", 0, |_| {
        evaluate(fit.model.as_ref(), &data.test)[1]
    });
    out.metric("eval.evaluate_ms", tracer.durations_ms("eval.evaluate")[0]);
    out.metric("eval.hr_at_10", quality.hr);
    out.metric("eval.ndcg_at_10", quality.ndcg);

    // The single-worker baseline: the same epochs with the kernel pool
    // pinned to one thread, against the ambient width used above.
    parallel::set_threads(1);
    let serial = timed_fit(workload, epochs, &data, seed);
    parallel::set_threads(ambient_threads);
    out.metric("tensor.pool.threads", ambient_threads as f64);
    out.metric(
        "tensor.pool.speedup",
        median(&serial.epoch_ms()) / epoch_ms_p50,
    );

    out.metric("data.sampler.batch_us_p50", sampler_batch_us(&data, seed));
    if workload == Workload::TrainDgnn {
        let step_ms = step_replay(&mut out, &mut tracer, &data, seed, 20 * seconds as usize);
        out.metric(
            "core.epoch_overhead_ms",
            epoch_ms_p50 - batches as f64 * step_ms,
        );
    }

    kernels::train_kernels(
        &mut out,
        machine,
        data.graph.iu(),
        &DgnnConfig::default(),
        seed,
        Duration::from_millis(25 * seconds),
    );

    out.metric("trace.spans", tracer.spans().len() as f64);
    out.metric(
        "trace.overhead_share",
        tracer.overhead_share(traced_from.elapsed()),
    );
    out.extra.set("samples.fit_epochs", "count", epochs as f64);
    out.extra
        .set("samples.batches_per_epoch", "count", batches as f64);
    (out, tracer)
}

fn sampler_batch_us(data: &Dataset, seed: u64) -> f64 {
    let sampler = TrainSampler::new(&data.graph);
    let mut rng = StdRng::seed_from_u64(seed);
    let secs = kernels::sample_secs(Duration::from_millis(200), || {
        std::hint::black_box(sampler.batch(&mut rng, batch_size()));
    });
    median(&secs) * 1e6
}

/// Replays `steps` DGNN training steps outside `fit`, one span per layer
/// call, and returns the median step time (ms).
///
/// The model's own parameters are never updated (`Dgnn::params` is
/// read-only): gradients and Adam state go to a shadow `ParamSet` with the
/// same ids, so every step costs what a real one costs.
fn step_replay(
    out: &mut RunResult,
    tracer: &mut Tracer,
    data: &Dataset,
    seed: u64,
    steps: usize,
) -> f64 {
    let cfg = DgnnConfig::default();
    let mut model = Dgnn::new(cfg.clone());
    tracer.span("core.prepare", 0, |_| model.prepare(&data.graph, seed));
    out.metric("core.prepare_ms", tracer.durations_ms("core.prepare")[0]);

    let mut shadow = ParamSet::new();
    for id in model.params().ids() {
        shadow.add(
            model.params().name(id).to_string(),
            model.params().value(id).clone(),
        );
    }
    let sampler = TrainSampler::new(&data.graph);
    let mut adam = Adam::new(cfg.learning_rate, cfg.weight_decay);
    let grad_clip = dgnn_core::training::TrainLoop::default().grad_clip;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tape_nodes = Vec::with_capacity(steps);
    let mut gemm_calls = Vec::with_capacity(steps);

    for step in 0..steps as u64 {
        let calls_before = gemm::counters().packed_calls + gemm::counters().scalar_calls;
        tracer.span("train.step", step, |tracer| {
            let triples = tracer.span("data.sampler.batch", step, |_| {
                sampler.batch(&mut rng, cfg.batch_size)
            });
            let (mut tape, loss) = tracer.span("core.forward", step, |_| {
                let mut tape = Tape::new();
                let loss = model.record_step(&mut tape, &triples);
                (tape, loss)
            });
            tape_nodes.push(tape.len() as f64);
            tracer.span("autograd.zero_grads", step, |_| shadow.zero_grads());
            let value = tracer.span("autograd.backward", step, |_| {
                tape.backward_into(loss, &mut shadow)
            });
            assert!(
                value.is_finite(),
                "step replay: loss {value} at step {step}"
            );
            tracer.span("autograd.optimizer", step, |_| {
                shadow.clip_grad_norm(grad_clip);
                adam.step(&mut shadow);
            });
        });
        gemm_calls.push(
            (gemm::counters().packed_calls + gemm::counters().scalar_calls - calls_before) as f64,
        );
    }

    let optimizer_ms: Vec<f64> = tracer
        .durations_ms("autograd.zero_grads")
        .iter()
        .zip(tracer.durations_ms("autograd.optimizer"))
        .map(|(zero, step)| zero + step)
        .collect();
    let step_ms = median(&tracer.durations_ms("train.step"));
    out.metric(
        "core.forward_ms_p50",
        median(&tracer.durations_ms("core.forward")),
    );
    out.metric(
        "autograd.backward_ms_p50",
        median(&tracer.durations_ms("autograd.backward")),
    );
    out.metric("autograd.optimizer_ms_p50", median(&optimizer_ms));
    out.metric("autograd.step_ms_p50", step_ms);
    out.metric("autograd.tape_nodes_per_step", median(&tape_nodes));
    out.metric("tensor.gemm.calls_per_step", median(&gemm_calls));
    out.extra.set("samples.replay_steps", "count", steps as f64);
    out.extra.set(
        "train.step_self_ms_p50",
        "ms",
        median(&tracer.self_ms("train.step")),
    );
    step_ms
}
