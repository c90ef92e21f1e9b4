//! **Race-sanitizer gate**: runs the pooled-kernel battery under
//! shadow-access tracking, proves every dispatch with the independent
//! disjointness checker, measures the overhead sanitize mode adds to a
//! dispatch-heavy workload, and exports the result as observability
//! gauges.
//!
//! ```text
//! sanitize              print the proof summary, write results/sanitize.json
//! sanitize --check      additionally exit 1 unless every registered kernel
//!                       contract was exercised AND proved violation-free
//! ```
//!
//! The `--check` mode is CI's admission gate for parallel kernels: a new
//! pooled kernel that is registered in the contract table but absent from
//! the battery (or vice versa), or any dispatch the prover cannot certify,
//! fails the run.

use std::process::ExitCode;
use std::time::Instant;

use dgnn_analysis::race_checker::{check_dispatches, contract_names, RaceReport};
use dgnn_tensor::gemm::{self, PackedPanels};
use dgnn_tensor::parallel;
use dgnn_tensor::sanitize;
use dgnn_tensor::{top_k_rows, Csr, CsrBuilder, Matrix};

/// Battery repetitions for the timing comparison; kept well under the
/// per-thread dispatch-log cap so the proof covers a full census.
const TIMING_ITERS: usize = 40;

/// Deterministic pseudo-random matrix (LCG), bounded away from zero so it
/// is safe as a divisor.
fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = ((s >> 33) % 1000) as f32 / 250.0 - 2.0;
        if v.abs() < 0.1 { 0.5 } else { v }
    })
}

fn csr(rows: usize, cols: usize, seed: u64) -> Csr {
    let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
    let mut b = CsrBuilder::new(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if s >> 61 == 0 {
                b.push(r, c, ((s >> 33) % 100) as f32 / 50.0 - 1.0);
            }
        }
    }
    b.build()
}

/// Drives every kernel in the race checker's contract table through the
/// public API at sizes that fan out across the pool. Mirrors the
/// integration battery in `tests/tests/race_sanitizer.rs` at bench scale.
///
/// Runs twice — legacy scalar backend (historical kernel names) and the
/// packed Generic backend (`gemm_*_packed` dispatches) — so every entry in
/// the contract table is exercised regardless of host SIMD support. The
/// scorer (`gemm_score_panels`) is one dispatch on both.
fn run_kernel_battery(scale: usize) {
    gemm::set_backend(Some(gemm::Backend::Scalar));
    run_backend_battery(scale);
    gemm::set_backend(Some(gemm::Backend::Generic));
    run_backend_battery(scale);
    gemm::set_backend(None);
}

fn run_backend_battery(scale: usize) {
    let (r, k) = (8 * scale, 4 * scale);
    let a = mat(r, k, 1);
    let b = mat(k, r, 2);
    let g = mat(r, k, 3);
    let idx: Vec<usize> = (0..r).map(|i| (i * 5) % r).collect();

    let _ = a.matmul(&b);
    let _ = a.matmul_tn(&g);
    // A reduction of several k blocks, ragged in both output dimensions:
    // the packed fold reads its own output rows back between blocks.
    let _ = mat(150, r + 1, 12).matmul_tn(&mat(150, k + 1, 13));
    let _ = a.matmul_nt(&g);
    let _ = a.add(&g);
    let _ = a.sub(&g);
    let _ = a.mul_elem(&g);
    let _ = a.div_elem(&g);
    let _ = a.leaky_relu_grad(&g, 0.1);
    let _ = a.relu_grad(&g);
    let _ = a.tanh_grad(&g);
    let _ = a.sigmoid_grad(&g);
    let _ = a.softplus_grad(&g);
    let _ = a.map(|x| x * 2.0 + 1.0);
    let mut m = a.clone();
    m.add_assign(&g);
    m.axpy(0.5, &g);
    m.scale_assign(1.25);
    // `a` as 4 column blocks of width k/4.
    let (eta, gb) = (mat(r, 4, 10), mat(r, k / 4, 11));
    let _ = a.weighted_block_sum(&eta);
    let _ = Matrix::weighted_block_sum_grad_blocks(&eta, &gb);
    let _ = Matrix::weighted_block_sum_grad_weights(&a, &gb);
    let _ = a.gather_matmul_nt(&idx, &g);
    // The serving scorer: two resident shards, the second ragged, so the
    // second dispatch writes a column range at a non-zero offset.
    let (s0, s1) = (PackedPanels::pack(&g), PackedPanels::pack(&mat(r - 3, k, 14)));
    let _ = a.gather_matmul_panels(&idx, &[&s0, &s1]);
    let _ = a.gather_rows(&idx);
    let mut sc = Matrix::zeros(r, k);
    sc.scatter_add_rows(&idx, &a);
    let _ = a.l2_normalize_rows(1e-6);
    let _ = a.l2_normalize_heads(1e-6, 4);
    let _ = Matrix::l2_normalize_heads_grad(&a, &g, 1e-6, 4);
    let _ = a.softmax_rows();
    let _ = Matrix::softmax_rows_grad(&a.softmax_rows(), &g);
    let _ = a.layer_norm_rows(1e-6);
    let y = a.layer_norm_rows(1e-6);
    let _ = Matrix::layer_norm_rows_grad(&a, &y, &g, 1e-6);
    let _ = csr(r, r, 8).spmm(&mat(r, k, 9));
    let _ = top_k_rows(&a, 3);
    // Two-head edge attention: `a`'s rows are the edges of `r / 4` target
    // segments of 0, 2, 4 and 10 edges in turn.
    let seg: Vec<usize> = std::iter::once(0)
        .chain((0..r / 4).scan(0, |e, s| {
            *e += [0, 2, 4, 10][s % 4];
            Some(*e)
        }))
        .collect();
    let (alpha, gn) = (mat(r, 2, 15).segment_softmax(&seg), mat(r / 4, k, 17));
    let _ = Matrix::segment_softmax_grad(&alpha, &mat(r, 2, 16), &seg);
    let _ = Matrix::segment_weighted_sum(&alpha, &a, &seg);
    let _ = Matrix::segment_weighted_sum_grad_weights(&a, &gn, &seg, 2);
    let _ = Matrix::segment_weighted_sum_grad_values(&alpha, &gn, &seg);
    let _ = a.head_dots(&g, 2);
    let _ = a.mul_col_broadcast(&alpha);
}

fn timed(iters: usize, scale: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        run_kernel_battery(scale);
    }
    start.elapsed().as_secs_f64()
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");

    // Fan out even the small battery shapes so the proof covers real
    // multi-partition dispatches (thread count still honors DGNN_THREADS).
    parallel::set_min_par_work(1);

    // Proof pass: one sanitized battery, full log, independent check.
    sanitize::set_enabled(true);
    let _ = sanitize::take_log();
    run_kernel_battery(8);
    let log = sanitize::take_log();
    let dropped = sanitize::dropped_dispatches();
    let report: RaceReport = check_dispatches(&log);
    sanitize::set_enabled(false);

    // Overhead pass: identical work with tracking off vs on. The on-pass
    // log is drained afterwards so the cap never truncates a later proof.
    sanitize::set_enabled(false);
    let _ = timed(2, 4); // warm the pool and caches
    let off = timed(TIMING_ITERS, 4);
    sanitize::set_enabled(true);
    let _ = sanitize::take_log();
    let on = timed(TIMING_ITERS, 4);
    let _ = sanitize::take_log();
    sanitize::set_enabled(false);
    let overhead_pct = 100.0 * (on - off) / off.max(1e-9);

    let registered = contract_names().len();
    println!("=== Race sanitizer: shadow-access disjointness proof ===\n");
    print!("{report}");
    println!(
        "kernels: {} proved / {} registered; dropped dispatches: {dropped}",
        report.kernels_proved.len(),
        registered
    );
    println!(
        "sanitize-mode overhead: {overhead_pct:+.1}% \
         ({off:.3}s off vs {on:.3}s on, {TIMING_ITERS} battery iters)"
    );

    // Export the gate's numbers as gauges through the one snapshot
    // serializer every other benchmark artifact uses.
    dgnn_obs::reset();
    dgnn_obs::enable();
    dgnn_obs::gauge_set("sanitize/kernels_proved", report.kernels_proved.len() as f64);
    dgnn_obs::gauge_set("sanitize/kernels_registered", registered as f64);
    dgnn_obs::gauge_set("sanitize/violations", report.violations.len() as f64);
    dgnn_obs::gauge_set("sanitize/dispatches", report.dispatches as f64);
    dgnn_obs::gauge_set("sanitize/pairs_checked", report.pairs_checked as f64);
    dgnn_obs::gauge_set("sanitize/overhead_pct", overhead_pct);
    dgnn_obs::disable();
    let snap = dgnn_obs::snapshot();
    let json = dgnn_obs::export::snapshot_to_json(&snap, 0);
    if std::fs::create_dir_all("results").is_ok() {
        match std::fs::write("results/sanitize.json", &json) {
            Ok(()) => println!("\nwrote results/sanitize.json"),
            Err(e) => eprintln!("\nwarning: could not write results/sanitize.json: {e}"),
        }
    }

    if check {
        let mut failed = false;
        if !report.is_clean() {
            eprintln!("SANITIZE: {} violation(s) — see report above", report.violations.len());
            failed = true;
        }
        if report.kernels_proved.len() < registered {
            let proved = &report.kernels_proved;
            let missing: Vec<&str> = contract_names()
                .into_iter()
                .filter(|k| !proved.iter().any(|p| p == k))
                .collect();
            eprintln!("SANITIZE: registered kernels not proved by the battery: {missing:?}");
            failed = true;
        }
        if dropped > 0 {
            eprintln!("SANITIZE: {dropped} dispatches dropped; proof is incomplete");
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("sanitize gate OK: {registered}/{registered} kernels proved, 0 violations");
    }
    ExitCode::SUCCESS
}
