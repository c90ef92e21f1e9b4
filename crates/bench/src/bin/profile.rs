//! **Training profiler**: per-phase and per-op-kind timing for DGNN and
//! two baselines, driven entirely by the `dgnn-obs` instrumentation.
//!
//! Trains DGNN, NGCF, and DGCF on the tiny dataset with quick configs —
//! the same fit-scoped buffer-pool path every fit runs, so the pool
//! counters are exercised too — with observability enabled, then writes:
//!
//! * `results/profile.json` — one metrics snapshot per model (steps/sec,
//!   per-phase span totals, allocation counters, gradient-norm histograms,
//!   per-op forward/backward profiles), serialized by
//!   `dgnn_obs::export::snapshot_to_json`;
//! * `results/profile_trace.json` — a Chrome trace-event file (open in
//!   Perfetto or `chrome://tracing`; one labeled track per model);
//! * `results/profile_events.jsonl` — the raw span events, one per line.
//!
//! ```text
//! profile            profile + write the artifacts above
//! profile --check    no artifacts; exit 1 if the parallel kernel pool is
//!                    slower than serial beyond the noise budget, or if the
//!                    packed GEMM pipeline fails its same-run speedup floor
//!                    over the forced legacy scalar loops (1.2x on x86_64)
//! ```
//!
//! Besides the observed run, DGNN is trained unobserved with the kernel
//! pool pinned to one thread and to the ambient width
//! (`DGNN_THREADS` / hardware), recorded as the
//! `profile/steps_per_sec_serial` and `profile/steps_per_sec_parallel`
//! gauges. All reference runs share one warm process, so their ratios are
//! load-robust in a way the absolute numbers are not.
//!
//! Both `--check` gates are same-run ratios, so they hold on any machine;
//! absolute training speed is the `benchmark/` ruler's job. The budgets
//! are deliberately loose: they catch a parallel dispatch that loses to
//! its own serial fallback or a packed GEMM that stops paying, not
//! single-digit noise.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::ExitCode;

use dgnn_baselines::{BaselineConfig, Dgcf, Ngcf};
use dgnn_bench::run_cell;
use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{tiny, Dataset, TrainSampler};
use dgnn_eval::Trainable;
use dgnn_obs::export::{chrome_trace, events_to_jsonl, snapshot_to_json, span_totals};
use dgnn_obs::{Snapshot, SpanEvent};
use dgnn_tensor::gemm;
use dgnn_tensor::{alloc_counters, reset_alloc_counters};

/// Seed shared with the rest of the experiment harness.
const SEED: u64 = 2023;
/// Allowed same-run shortfall of pooled vs serial steps/sec before
/// `--check` fails. The quick preset's kernels are small enough that a
/// split rarely pays (at d = 8 its largest GEMMs are 1–2 µs of work), so
/// the gate asks only that pooled not lose: it trips when the work
/// threshold lets such kernels split, or when dispatch itself regresses.
const PARALLEL_BUDGET: f64 = 0.15;
/// Required same-run speedup of the packed GEMM pipeline over the forced
/// legacy scalar loops (`DGNN_GEMM=scalar`) on x86_64, where the AVX2
/// microkernel is guaranteed present. On other architectures the packed
/// portable kernel only has to not lose.
const GEMM_SPEEDUP_FLOOR: f64 = if cfg!(target_arch = "x86_64") { 1.2 } else { 1.0 };

/// Numeric code for the selected GEMM backend, so it survives the
/// numbers-only gauge export (`0` scalar, `1` generic, `2` neon, `3` avx2);
/// the human-readable name is printed alongside.
fn backend_code(be: gemm::Backend) -> f64 {
    match be {
        gemm::Backend::Scalar => 0.0,
        gemm::Backend::Generic => 1.0,
        gemm::Backend::Neon => 2.0,
        gemm::Backend::Avx2 => 3.0,
    }
}

fn quick_baseline() -> BaselineConfig {
    BaselineConfig { dim: 8, layers: 2, epochs: 4, batch_size: 256, ..Default::default() }
}

fn quick_dgnn() -> DgnnConfig {
    DgnnConfig {
        dim: 8,
        layers: 2,
        memory_units: 4,
        epochs: 4,
        batch_size: 256,
        ..Default::default()
    }
}

/// One profiled model: its metrics snapshot and raw span events.
struct Profile {
    name: &'static str,
    snapshot: Snapshot,
    events: Vec<SpanEvent>,
    steps_per_sec: f64,
}

/// Trains `model` with observability enabled and captures everything the
/// instrumentation recorded. `steps` is epochs × batches/epoch, the
/// denominator-free step count for the steps/sec gauge.
///
/// `sps_disabled` (DGNN only) is the steps/sec of an identical run made
/// with observability off, recorded as a gauge so the exported snapshot
/// documents the measured observer overhead next to the enabled figure.
/// `extra_gauges` publishes out-of-band measurements (the serial vs
/// parallel reference runs) into this model's snapshot.
fn profile_model(
    name: &'static str,
    model: &mut dyn Trainable,
    data: &Dataset,
    steps: u64,
    sps_disabled: Option<f64>,
    extra_gauges: &[(&str, f64)],
) -> Profile {
    dgnn_obs::reset();
    dgnn_obs::enable();
    reset_alloc_counters();
    gemm::reset_counters();
    let cell = run_cell(model, data, SEED);
    let (fresh, hits) = alloc_counters();
    let gc = gemm::counters();
    let events = dgnn_obs::take_events();
    let steps_per_sec = steps as f64 / cell.train_time.as_secs_f64().max(1e-9);
    dgnn_obs::counter_add("alloc/fresh", fresh);
    dgnn_obs::counter_add("alloc/pool_hits", hits);
    dgnn_obs::gauge_set("gemm/kernel", backend_code(gemm::backend()));
    dgnn_obs::gauge_set("gemm/packed_calls", gc.packed_calls as f64);
    dgnn_obs::gauge_set("gemm/scalar_calls", gc.scalar_calls as f64);
    dgnn_obs::gauge_set("gemm/macs", gc.macs as f64);
    dgnn_obs::gauge_set("profile/steps", steps as f64);
    dgnn_obs::gauge_set("profile/steps_per_sec", steps_per_sec);
    dgnn_obs::gauge_set("profile/train_s", cell.train_time.as_secs_f64());
    dgnn_obs::gauge_set("profile/eval_s", cell.eval_time.as_secs_f64());
    if let Some(sps) = sps_disabled {
        dgnn_obs::gauge_set("profile/steps_per_sec_disabled", sps);
    }
    for (key, value) in extra_gauges {
        dgnn_obs::gauge_set(key, *value);
    }
    for (phase, (count, total_ns)) in span_totals(&events) {
        dgnn_obs::gauge_set(&format!("phase/{phase}/count"), count as f64);
        dgnn_obs::gauge_set(&format!("phase/{phase}/total_ns"), total_ns as f64);
    }
    let snapshot = dgnn_obs::snapshot();
    dgnn_obs::disable();
    dgnn_obs::reset();
    Profile { name, snapshot, events, steps_per_sec }
}

/// Text trace summary: per-phase totals and the heaviest op kinds.
fn print_summary(p: &Profile) {
    println!("\n--- {} ({:.1} steps/s) ---", p.name, p.steps_per_sec);
    println!("{:<12} {:>8} {:>12}", "Phase", "Count", "Total ms");
    for (phase, (count, total_ns)) in span_totals(&p.events) {
        println!("{:<12} {:>8} {:>12.1}", phase, count, total_ns as f64 / 1e6);
    }
    let mut ops: Vec<_> = p.snapshot.ops.iter().collect();
    ops.sort_by_key(|(_, o)| std::cmp::Reverse(o.forward.total_ns + o.backward.total_ns));
    println!("{:<22} {:>8} {:>11} {:>8} {:>11}", "Op (top 5)", "Fwd", "Fwd ms", "Bwd", "Bwd ms");
    for (kind, o) in ops.iter().take(5) {
        println!(
            "{:<22} {:>8} {:>11.1} {:>8} {:>11.1}",
            kind,
            o.forward.calls,
            o.forward.total_ns as f64 / 1e6,
            o.backward.calls,
            o.backward.total_ns as f64 / 1e6,
        );
    }
}

fn profile_json(profiles: &[Profile]) -> String {
    let mut s = String::from("{\n  \"models\": {\n");
    for (i, p) in profiles.iter().enumerate() {
        let sep = if i + 1 < profiles.len() { "," } else { "" };
        s.push_str(&format!(
            "    \"{}\": {}{sep}\n",
            p.name,
            snapshot_to_json(&p.snapshot, 4).trim_start()
        ));
    }
    s.push_str("  }\n}\n");
    s
}

fn main() -> ExitCode {
    let check = std::env::args().skip(1).any(|a| a == "--check");

    let data = tiny(SEED);
    let bcfg = quick_baseline();
    let dcfg = quick_dgnn();
    let batches = TrainSampler::new(&data.graph).num_positives().div_ceil(bcfg.batch_size).max(1);
    let steps = (batches * bcfg.epochs) as u64;

    // Reference runs with observability off (DGNN only). The untimed
    // warm-up run first absorbs one-time costs (page faults, allocator
    // growth) that would otherwise be billed to whichever run goes first.
    // The reference configs are sampled round-robin — one cell of each
    // per round — rather than back-to-back blocks: machine speed on
    // a shared box drifts ±25% on a scale of seconds, so consecutive
    // blocks would hand one config the fast regime and bill another for
    // the slow one, tripping the same-run ratio gates below on pure
    // noise. Interleaving exposes every config to the same regimes, and
    // each config keeps its best cell (the quick preset trains in ~10ms,
    // where a scheduler hiccup swings steps/sec by double digits;
    // interruptions only ever slow a run down, so best-of-N is the
    // noise-robust estimator).
    dgnn_obs::disable();
    run_cell(&mut Dgnn::new(dcfg.clone()), &data, SEED);
    let one_sps = |cfg: &DgnnConfig, force_scalar: bool| -> f64 {
        if force_scalar {
            gemm::set_backend(Some(gemm::Backend::Scalar));
        }
        let cell = run_cell(&mut Dgnn::new(cfg.clone()), &data, SEED);
        if force_scalar {
            gemm::set_backend(None);
        }
        steps as f64 / cell.train_time.as_secs_f64().max(1e-9)
    };
    let pool_width = dgnn_tensor::parallel::auto_threads();
    // The last config repeats the default one under `DGNN_GEMM=scalar`
    // semantics (legacy loops), giving the packed-vs-scalar GEMM ratio the
    // same same-run noise robustness as the other ratio gates.
    let configs = [
        (dcfg.clone(), false),
        (dcfg.clone().with_threads(1), false),
        (dcfg.clone().with_threads(pool_width), false),
        (dcfg.clone(), true),
    ];
    let mut best = [f64::MIN; 4];
    for round in 0..8 {
        // Rotate the starting config so a fast window shorter than a
        // round doesn't always land on the same configuration.
        for i in 0..configs.len() {
            let j = (i + round) % configs.len();
            let (cfg, force_scalar) = &configs[j];
            best[j] = best[j].max(one_sps(cfg, *force_scalar));
        }
    }
    let [sps_disabled, sps_serial, sps_parallel, sps_gemm_scalar] = best;
    dgnn_tensor::parallel::set_threads(1);

    println!("=== Training profile (tiny dataset, quick configs) ===");
    let profiles = vec![
        profile_model(
            "DGNN",
            &mut Dgnn::new(dcfg),
            &data,
            steps,
            Some(sps_disabled),
            &[
                ("profile/steps_per_sec_serial", sps_serial),
                ("profile/steps_per_sec_parallel", sps_parallel),
                ("gemm/steps_per_sec_scalar", sps_gemm_scalar),
            ],
        ),
        profile_model("NGCF", &mut Ngcf::new(bcfg.clone()), &data, steps, None, &[]),
        profile_model("DGCF", &mut Dgcf::new(bcfg), &data, steps, None, &[]),
    ];
    for p in &profiles {
        print_summary(p);
    }
    let dgnn_sps = profiles[0].steps_per_sec;
    println!(
        "\nDGNN: {dgnn_sps:.1} steps/s observed vs {sps_disabled:.1} steps/s unobserved \
         ({:+.1}% overhead)",
        (sps_disabled / dgnn_sps.max(1e-9) - 1.0) * 100.0,
    );
    println!(
        "DGNN kernels: {sps_serial:.1} steps/s serial vs {sps_parallel:.1} steps/s pooled \
         ({pool_width} thread(s), ratio {:.2})",
        sps_parallel / sps_serial.max(1e-9),
    );
    let gemm_backend = gemm::backend();
    println!(
        "DGNN gemm: {sps_disabled:.1} steps/s on the `{}` backend vs {sps_gemm_scalar:.1} \
         steps/s forced scalar (same-run ratio {:.2})",
        gemm_backend.name(),
        sps_disabled / sps_gemm_scalar.max(1e-9),
    );

    if check {
        let ratio = sps_parallel / sps_serial.max(1e-9);
        if ratio < 1.0 - PARALLEL_BUDGET {
            eprintln!(
                "REGRESSION DGNN: pooled kernels at {sps_parallel:.1} steps/s are more than \
                 {:.0}% below the serial {sps_serial:.1} in the same run \
                 ({pool_width} thread(s))",
                100.0 * PARALLEL_BUDGET,
            );
            return ExitCode::FAILURE;
        }
        // Packed GEMM must beat the legacy scalar loops in the same run —
        // the gate only applies when a packed backend is actually selected
        // (a `DGNN_GEMM=scalar` run compares the scalar loops to
        // themselves, where the only honest expectation is a ratio of 1).
        let gemm_ratio = sps_disabled / sps_gemm_scalar.max(1e-9);
        let gemm_floor = if gemm_backend.is_packed() { GEMM_SPEEDUP_FLOOR } else { 0.85 };
        if gemm_ratio < gemm_floor {
            eprintln!(
                "REGRESSION DGNN: packed GEMM (`{}`) at {sps_disabled:.1} steps/s is below \
                 {gemm_floor:.2}x the same-run forced-scalar {sps_gemm_scalar:.1} \
                 (ratio {gemm_ratio:.2})",
                gemm_backend.name(),
            );
            return ExitCode::FAILURE;
        }
        println!(
            "parallel/serial check passed ({sps_parallel:.1} vs {sps_serial:.1} steps/s \
             same-run)"
        );
        println!(
            "gemm check passed (`{}` backend at {gemm_ratio:.2}x the same-run scalar \
             loops, floor {gemm_floor:.2})",
            gemm_backend.name(),
        );
        return ExitCode::SUCCESS;
    }

    write_results(&profiles);
    println!(
        "\nwrote results/profile.json, results/profile_trace.json (load in Perfetto), \
         results/profile_events.jsonl"
    );
    ExitCode::SUCCESS
}

#[expect(clippy::expect_used, reason = "a profile run that cannot write results/ has no output")]
fn write_results(profiles: &[Profile]) {
    std::fs::create_dir_all("results").expect("profile: creating results dir");
    std::fs::write("results/profile.json", profile_json(profiles))
        .expect("profile: writing results/profile.json");
    let threads: Vec<(&str, &[SpanEvent])> =
        profiles.iter().map(|p| (p.name, p.events.as_slice())).collect();
    std::fs::write("results/profile_trace.json", chrome_trace(&threads))
        .expect("profile: writing trace");
    let jsonl: String = profiles.iter().map(|p| events_to_jsonl(&p.events)).collect();
    std::fs::write("results/profile_events.jsonl", jsonl).expect("profile: writing jsonl");
}
