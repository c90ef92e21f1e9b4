//! Observability integration: the spans the training stack emits, the
//! stability of the exported schemas, and the cost of the observer.

use std::borrow::Cow;
use std::rc::Rc;

use dgnn_autograd::{Adam, ParamId, ParamSet, Recorder, Tape};
use dgnn_baselines::{BaselineConfig, Dgcf, Hgt, Mhcn};
use dgnn_core::training::{BprTrainer, TrainLoop};
use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{tiny, TrainSampler};
use dgnn_eval::Trainable;
use dgnn_graph::{HeteroGraph, HeteroGraphBuilder};
use dgnn_integration_tests::{quick_baseline, quick_dgnn};
use dgnn_obs::export::{chrome_trace, events_to_jsonl, snapshot_to_json, span_totals};
use dgnn_obs::{SpanEvent, SpanPhase};
use dgnn_tensor::Init;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny planted graph: 4 users × 12 items, 24 interactions.
fn planted_graph() -> HeteroGraph {
    let mut b = HeteroGraphBuilder::new(4, 12, 1);
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
    b.build()
}

/// Matrix-factorization BPR on the planted graph through the shared
/// epoch, the smallest real consumer of `BprTrainer`.
fn run_mf_bpr(graph: &HeteroGraph, loop_cfg: TrainLoop, epochs: usize) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut params = ParamSet::new();
    let eu = params.add("eu", Init::Uniform(0.1).build(4, 32, &mut rng));
    let ev = params.add("ev", Init::Uniform(0.1).build(12, 32, &mut rng));
    let mut trainer = BprTrainer::new(
        graph,
        loop_cfg,
        0,
        Adam::new(0.05, 1e-5),
        StdRng::seed_from_u64(7 ^ 0xB1E5_5ED),
    );
    for _ in 0..epochs {
        trainer.epoch(&mut params, |tape, params, triples, _| {
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
            let (ps, ns) = (tape.row_dots(ue, pe), tape.row_dots(ue, ne));
            tape.bpr_loss(ps, ns)
        });
    }
}

/// Records the spans `fit` emits and checks the shared epoch's shape:
/// `epochs` epoch spans, `epochs × batches_per_epoch` batch spans, one
/// forward/backward/optimizer span per batch, balanced and monotone.
fn assert_epoch_spans(what: &str, epochs: usize, batches_per_epoch: usize, fit: impl FnOnce()) {
    dgnn_obs::reset();
    dgnn_obs::enable();
    fit();
    let events = dgnn_obs::take_events();
    dgnn_obs::disable();
    dgnn_obs::reset();

    let batch_begins = events
        .iter()
        .filter(|e| e.name == "batch" && e.phase == SpanPhase::Begin)
        .count();
    assert_eq!(batch_begins, epochs * batches_per_epoch, "{what}: batch spans");
    let epoch_begins = events
        .iter()
        .filter(|e| e.name == "epoch" && e.phase == SpanPhase::Begin)
        .count();
    assert_eq!(epoch_begins, epochs, "{what}: epoch spans");

    // Every batch contains exactly one forward, backward, and optimizer span.
    for inner in ["forward", "backward", "optimizer"] {
        let n = events
            .iter()
            .filter(|e| e.name == inner && e.phase == SpanPhase::Begin)
            .count();
        assert_eq!(n, batch_begins, "{what}: one {inner} span per batch");
    }

    // Timestamps are monotone and begin/end pairs balance at every depth.
    let mut last = 0;
    let mut depth = 0i64;
    for e in &events {
        assert!(e.t_ns >= last, "timestamps must be monotone");
        last = e.t_ns;
        match e.phase {
            SpanPhase::Begin => {
                depth += 1;
                assert_eq!(i64::from(e.depth), depth - 1);
            }
            SpanPhase::End => {
                depth -= 1;
                assert_eq!(i64::from(e.depth), depth);
            }
        }
        assert!(depth >= 0, "end without a matching begin");
    }
    assert_eq!(depth, 0, "every span must be closed");

    // span_totals sees the same counts the raw filter does.
    let totals = span_totals(&events);
    assert_eq!(totals["batch"].0, batch_begins as u64);
    assert_eq!(totals["epoch"].0, epoch_begins as u64);
}

#[test]
fn every_fit_emits_exactly_epochs_times_batches_batch_spans() {
    let graph = planted_graph();
    let loop_cfg = TrainLoop { batch_size: 8, grad_clip: 10.0 };
    let batches_per_epoch = TrainSampler::new(&graph)
        .num_positives()
        .div_ceil(loop_cfg.batch_size)
        .max(1);
    assert_eq!(batches_per_epoch, 3, "planted graph: 24 positives / 8 per batch");
    assert_epoch_spans("MF", 3, batches_per_epoch, || run_mf_bpr(&graph, loop_cfg, 3));

    // The models' own epoch loops: DGNN's, the two with a per-epoch hook,
    // and MHCN, whose step draws from the sampling rng.
    let data = tiny(5);
    let epochs = 2;
    let batches = |batch_size: usize| {
        TrainSampler::new(&data.graph).num_positives().div_ceil(batch_size).max(1)
    };
    let dgnn = DgnnConfig { epochs, ..quick_dgnn() };
    assert_epoch_spans("DGNN", epochs, batches(dgnn.batch_size), || {
        Dgnn::new(dgnn.clone()).fit(&data, 1)
    });
    let cfg = BaselineConfig { epochs, ..quick_baseline() };
    let fits: [(&str, Box<dyn Trainable>); 3] = [
        ("DGCF", Box::new(Dgcf::new(cfg.clone()))),
        ("HGT", Box::new(Hgt::new(cfg.clone()))),
        ("MHCN", Box::new(Mhcn::new(cfg.clone()))),
    ];
    for (what, mut model) in fits {
        assert_epoch_spans(what, epochs, batches(cfg.batch_size), || model.fit(&data, 1));
    }
}

/// Every model applies `threads` to the fitting thread's kernel pool and
/// publishes the width it trains at.
#[test]
fn every_model_trains_at_its_configured_thread_count() {
    const THREADS: usize = 3;
    let dgnn = DgnnConfig { epochs: 1, threads: THREADS, ..quick_dgnn() };
    let cfg = BaselineConfig { epochs: 1, ..quick_baseline() }.with_threads(THREADS);
    let models = dgnn_baselines::all_models(&cfg).len() + 1;
    for i in 0..models {
        let (dgnn, cfg) = (dgnn.clone(), cfg.clone());
        let (name, threads, gauge) = std::thread::spawn(move || {
            let mut model: Box<dyn Trainable> = match i {
                0 => Box::new(Dgnn::new(dgnn)),
                _ => dgnn_baselines::all_models(&cfg).swap_remove(i - 1),
            };
            dgnn_obs::enable();
            model.fit(&tiny(5), 1);
            let gauge = dgnn_obs::snapshot().gauges.get("parallel/threads").copied();
            (model.name().to_string(), dgnn_tensor::parallel::current_threads(), gauge)
        })
        .join()
        .expect("fit thread panicked");
        assert_eq!(threads, THREADS, "{name} trains at the configured width");
        assert_eq!(gauge, Some(THREADS as f64), "{name} publishes parallel/threads");
    }
}

#[test]
fn disabled_observer_records_nothing_across_a_full_fit() {
    dgnn_obs::reset();
    dgnn_obs::disable();
    let data = tiny(11);
    Dgnn::new(quick_dgnn()).fit(&data, 3);
    assert!(dgnn_obs::take_events().is_empty(), "no span events while disabled");
    let snap = dgnn_obs::snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.ops.is_empty());
}

#[test]
fn dgnn_fit_populates_every_metric_family() {
    dgnn_obs::reset();
    dgnn_obs::enable();
    let data = tiny(11);
    Dgnn::new(quick_dgnn()).fit(&data, 3);
    let events = dgnn_obs::take_events();
    let snap = dgnn_obs::snapshot();
    dgnn_obs::disable();
    dgnn_obs::reset();

    let totals = span_totals(&events);
    for phase in ["epoch", "batch", "forward", "backward", "optimizer"] {
        assert!(totals.contains_key(phase), "missing {phase} span");
        assert!(totals[phase].1 > 0, "{phase} total time must be positive");
    }
    for hist in ["epoch_mean_loss", "grad_norm/preclip", "grad_norm/postclip"] {
        let h = snap.histograms.get(hist).unwrap_or_else(|| panic!("missing {hist}"));
        assert!(h.count > 0);
        assert!(h.min <= h.max);
    }
    // The tape profiler attributes time to canonical op kinds only.
    assert!(!snap.ops.is_empty(), "op profile must be populated");
    for (kind, stat) in &snap.ops {
        assert!(
            dgnn_autograd::meta::ALL_OPS.contains(&kind.as_str()),
            "unknown op kind {kind}"
        );
        assert!(stat.forward.calls > 0, "{kind} must have forward calls");
    }
}

#[test]
fn jsonl_and_chrome_exports_keep_their_schema() {
    dgnn_obs::reset();
    dgnn_obs::enable();
    {
        let _outer = dgnn_obs::span("outer");
        let _inner = dgnn_obs::span("inner");
    }
    let events = dgnn_obs::take_events();
    dgnn_obs::disable();
    dgnn_obs::reset();
    assert_eq!(events.len(), 4);

    // Golden JSONL schema: the exact key set and order tools depend on.
    let jsonl = events_to_jsonl(&events);
    for (line, e) in jsonl.lines().zip(&events) {
        let expected = format!(
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"t_ns\":{},\"depth\":{}}}",
            e.name,
            e.phase.chrome_ph(),
            e.t_ns,
            e.depth
        );
        assert_eq!(line, expected);
    }

    // Golden Chrome trace schema: metadata record first, then per-event
    // records carrying the fields Perfetto requires (ph/ts/pid/tid).
    let trace = chrome_trace(&[("main", &events)]);
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"main\"}}"
    ));
    assert!(trace.contains("\"name\":\"outer\",\"cat\":\"dgnn\",\"ph\":\"B\""));
    assert!(trace.contains("\"ph\":\"E\""));
    assert!(trace.ends_with("],\"displayTimeUnit\":\"ms\"}"));

    // Snapshot schema: all four sections always present.
    let snap = dgnn_obs::snapshot();
    let json = snapshot_to_json(&snap, 0);
    for section in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"ops\""] {
        assert!(json.contains(section), "snapshot must always carry {section}");
    }
}

#[test]
fn owned_span_names_survive_export() {
    dgnn_obs::reset();
    dgnn_obs::enable();
    {
        let _g = dgnn_obs::span_owned(format!("model-{}", 3));
    }
    let events = dgnn_obs::take_events();
    dgnn_obs::disable();
    dgnn_obs::reset();
    assert_eq!(events[0].name, Cow::<'static, str>::Owned("model-3".to_string()));
    assert!(events_to_jsonl(&events).contains("\"model-3\""));
}

/// Enabled-observer overhead on a training-shaped workload must stay
/// small. Two defenses make the comparison stable on a busy shared box:
///
/// * **Thread CPU time** ([`dgnn_obs::thread_cpu_ns`]), not wall time:
///   wall time charges whichever arm happens to be running for every
///   deschedule and steal interval — ±25% swings that drowned any usable
///   bound and made this test flaky — while CPU time counts only work
///   the thread itself did, which is what "observer overhead" means.
/// * **Position-balanced blocks**: even per-thread CPU cost of the
///   identical pass drifts ±30% over a scale of seconds on shared
///   hardware (frequency scaling, cache pressure from neighbors). Each
///   block therefore runs disabled–enabled–enabled–disabled, so smooth
///   drift contributes equally to both arms and cancels in the block's
///   ratio; the median across blocks then discards blocks where an
///   abrupt shift landed mid-block.
///
/// The asserted bound is 10%: twice the ≤5% the `profile` binary
/// measures on quiet hardware, because even this estimator only resolves
/// a few percent here. A real regression in the recording hot path shows
/// up at far above this guard band. The workload is matmul-heavy (like
/// real training) so the per-op cost of the profiler is amortized the
/// way it is in practice.
#[test]
fn enabled_observer_overhead_is_bounded() {
    fn pass(params: &mut ParamSet, a: ParamId, b: ParamId) {
        for _ in 0..3 {
            let mut tape = Tape::new();
            let va = tape.param(params, a);
            let vb = tape.param(params, b);
            let mut x = tape.matmul(va, vb);
            for _ in 0..4 {
                x = tape.matmul(x, vb);
            }
            let loss = tape.sum_all(x);
            params.zero_grads();
            tape.backward_into(loss, params);
        }
    }

    let clock = || dgnn_obs::thread_cpu_ns().unwrap_or_else(dgnn_obs::now_ns);

    let mut rng = StdRng::seed_from_u64(3);
    let mut params = ParamSet::new();
    // Batch-of-activations × square-weight shapes: per-op observer cost
    // only amortizes at realistic operand sizes, and training never runs
    // matmuls smaller than a sampled batch against a 64-d embedding table.
    let a = params.add("a", Init::Uniform(0.1).build(128, 64, &mut rng));
    let b = params.add("b", Init::Uniform(0.1).build(64, 64, &mut rng));

    dgnn_obs::reset();
    dgnn_obs::disable();
    pass(&mut params, a, b); // warm-up: touch pages, grow the allocator

    let timed_pass = |on: bool, params: &mut ParamSet| {
        if on {
            dgnn_obs::enable();
        } else {
            dgnn_obs::disable();
        }
        let t0 = clock();
        pass(params, a, b);
        (clock() - t0).max(1) as f64
    };

    let mut ratios = Vec::new();
    for _ in 0..16 {
        let d1 = timed_pass(false, &mut params);
        let e1 = timed_pass(true, &mut params);
        let e2 = timed_pass(true, &mut params);
        let d2 = timed_pass(false, &mut params);
        ratios.push(((e1 * e2) / (d1 * d2)).sqrt());
        // Drain the event buffer so no block pays for an ever-growing
        // backlog the previous blocks accumulated.
        let _ = dgnn_obs::take_events();
    }
    dgnn_obs::disable();
    dgnn_obs::reset();

    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[ratios.len() / 2] - 1.0; // upper median: conservative
    assert!(
        overhead <= 0.10,
        "observer overhead {:.2}% exceeds the 10% guard band \
         (per-block enabled/disabled thread-CPU ratios: {ratios:.3?})",
        overhead * 100.0
    );
}

/// `SpanEvent` re-export sanity: the bench profiler moves events across
/// crate boundaries; keep the type usable from downstream crates.
#[test]
fn span_events_are_cloneable_across_crates() {
    let e = SpanEvent {
        name: Cow::Borrowed("x"),
        phase: SpanPhase::Begin,
        t_ns: 1,
        depth: 0,
    };
    let copy = e.clone();
    assert_eq!(copy.name, e.name);
}
