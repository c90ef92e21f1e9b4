//! Race-sanitizer battery: every pooled kernel runs under shadow-access
//! tracking and the independent disjointness prover must certify the whole
//! log, malicious kernels must produce the *typed* violation they commit,
//! and the schedule fuzzer must show outputs are bit-identical under
//! permuted worker assignment and injected delays — the pool's determinism
//! is structural (disjoint row partitions), not a lucky interleaving.

use dgnn_analysis::race_checker::{
    check_dispatches, check_dispatches_with, contract_names, AccessSpec, KernelContract,
    RaceViolation, Shape,
};
use dgnn_tensor::gemm::{self, PackedPanels};
use dgnn_tensor::parallel::{self, FuzzSchedule};
use dgnn_tensor::sanitize::{self, Access, OUT};
use dgnn_tensor::{top_k_rows, Csr, CsrBuilder, Matrix};
use proptest::prelude::*;

/// Runs `f` with the kernel pool pinned to `threads` and (for parallel
/// runs) the work threshold dropped so even tiny shapes dispatch across
/// the pool. All pool settings are thread-local, so each test restores
/// its own thread to defaults afterwards.
fn with_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    parallel::set_threads(threads);
    parallel::set_min_par_work(if threads > 1 { 1 } else { parallel::DEFAULT_MIN_PAR_WORK });
    let out = f();
    parallel::set_threads(1);
    parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
    out
}

/// Runs `f` with sanitize mode pinned on and a fresh log; returns the
/// dispatches recorded while it ran and restores disabled mode.
fn with_sanitizer<T>(f: impl FnOnce() -> T) -> (T, Vec<sanitize::Dispatch>) {
    sanitize::set_enabled(true);
    let _ = sanitize::take_log();
    let out = f();
    let log = sanitize::take_log();
    sanitize::set_enabled(false);
    (out, log)
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x:?} vs {y:?}");
    }
}

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
            if s >> 62 == 0 {
                b.push(r, c, ((s >> 33) % 100) as f32 / 50.0 - 1.0);
            }
        }
    }
    b.build()
}

/// Exercises every kernel in the race checker's contract table exactly as
/// the public API drives it. Kept in one place so the battery test can
/// assert the *proved* kernel set equals the registered set — adding a
/// contract without extending this battery fails the admission test.
///
/// Runs twice: once on the legacy scalar backend (the historical `matmul`
/// / `matmul_tn` / … kernel names) and once on the packed Generic backend
/// (the `gemm_*_packed` dispatches — Generic is always available and
/// records the same names as the SIMD backends), so both halves of the
/// contract table prove out on every machine. The scorer against resident
/// panels is one kernel (`gemm_score_panels`) on both.
fn run_kernel_battery() {
    gemm::set_backend(Some(gemm::Backend::Scalar));
    run_backend_battery();
    gemm::set_backend(Some(gemm::Backend::Generic));
    run_backend_battery();
    gemm::set_backend(None);
}

fn run_backend_battery() {
    let a = mat(12, 8, 1);
    let b = mat(8, 12, 2);
    let g = mat(12, 8, 3);
    let idx: Vec<usize> = (0..12).map(|i| (i * 5) % 12).collect();

    let _ = a.matmul(&b); // matmul
    let _ = a.matmul_tn(&g); // matmul_tn (8x12 out, items = 8 columns)
    // The same contract when the reduction spans several k blocks: the
    // packed fold then really reads its own output rows back.
    let _ = mat(150, 12, 12).matmul_tn(&mat(150, 9, 13));
    let _ = a.matmul_nt(&g); // matmul_nt
    let _ = a.add(&g); // add
    let _ = a.sub(&g); // sub
    let _ = a.mul_elem(&g); // mul_elem
    let _ = a.div_elem(&g); // div_elem (mat() is bounded away from 0)
    let _ = a.leaky_relu_grad(&g, 0.1); // leaky_relu_grad
    let _ = a.relu_grad(&g); // relu_grad
    let _ = a.tanh_grad(&g); // tanh_grad
    let _ = a.sigmoid_grad(&g); // sigmoid_grad
    let _ = a.softplus_grad(&g); // softplus_grad
    let _ = a.map(|x| x * 2.0 + 1.0); // map
    let mut m = a.clone();
    m.add_assign(&g); // add_assign
    m.axpy(0.5, &g); // axpy
    m.scale_assign(1.25); // scale_assign
    // `a` as 4 column blocks of width 2.
    let (eta, gb) = (mat(12, 4, 10), mat(12, 2, 11));
    let _ = a.weighted_block_sum(&eta); // weighted_block_sum
    let _ = Matrix::weighted_block_sum_grad_blocks(&eta, &gb); // …_grad_blocks
    let _ = Matrix::weighted_block_sum_grad_weights(&a, &gb); // …_grad_weights
    let _ = a.gather_matmul_nt(&idx, &g); // gemm_score_panels (every backend)
    // The serving scorer: two resident shards, the second ragged, so the
    // second dispatch writes a column range at a non-zero offset.
    let (s0, s1) = (PackedPanels::pack(&g), PackedPanels::pack(&mat(9, 8, 14)));
    let _ = a.gather_matmul_panels(&idx, &[&s0, &s1]); // gemm_score_panels
    let _ = a.gather_rows(&idx); // gather_rows
    let mut sc = Matrix::zeros(12, 8);
    sc.scatter_add_rows(&idx, &a); // scatter_add_rows
    let _ = a.l2_normalize_rows(1e-6); // l2_normalize_rows
    let _ = a.l2_normalize_heads(1e-6, 4); // l2_normalize_rows, 4 blocks
    let _ = Matrix::l2_normalize_heads_grad(&a, &g, 1e-6, 4); // l2_normalize_rows_grad
    let _ = a.softmax_rows(); // softmax_rows
    let _ = Matrix::softmax_rows_grad(&a.softmax_rows(), &g); // softmax_rows_grad
    let _ = a.layer_norm_rows(1e-6); // layer_norm_rows
    let y = a.layer_norm_rows(1e-6);
    let _ = Matrix::layer_norm_rows_grad(&a, &y, &g, 1e-6); // layer_norm_rows_grad
    let _ = csr(12, 9, 8).spmm(&mat(9, 7, 9)); // spmm
    let _ = top_k_rows(&a, 3); // top_k_rows
    // Two-head edge attention: `a`'s 12 rows are the edges of 6 target
    // segments, two of them empty and one holding five edges.
    let seg = [0, 3, 3, 8, 9, 9, 12];
    let alpha = mat(12, 2, 15).segment_softmax(&seg); // segment_softmax
    let _ = Matrix::segment_softmax_grad(&alpha, &mat(12, 2, 16), &seg); // segment_softmax_grad
    let _ = Matrix::segment_weighted_sum(&alpha, &a, &seg); // segment_weighted_sum
    let gn = mat(6, 8, 17);
    let _ = Matrix::segment_weighted_sum_grad_weights(&a, &gn, &seg, 2); // …_grad_weights
    let _ = Matrix::segment_weighted_sum_grad_values(&alpha, &gn, &seg); // …_grad_values
    let _ = a.head_dots(&g, 2); // head_dots
    let _ = a.mul_col_broadcast(&alpha); // mul_col_broadcast
}

#[test]
fn battery_proves_every_registered_kernel() {
    let ((), log) = with_pool(4, || with_sanitizer(run_kernel_battery));
    assert_eq!(sanitize::dropped_dispatches(), 0, "log overflowed; proof would be a sample");
    assert!(!log.is_empty());
    // Real parallel dispatches, not serial fast paths: the battery's
    // shapes are big enough that every kernel fans out.
    for d in &log {
        assert!(d.parts >= 2, "kernel `{}` dispatched {} part(s); battery must exercise the pool", d.kernel, d.parts);
    }
    let report = check_dispatches(&log);
    assert!(report.is_clean(), "sanitizer found violations:\n{report}");
    assert_eq!(report.dispatches, log.len());
    assert!(report.pairs_checked > 0);

    // The proof covers the whole admission list: every registered contract
    // was exercised and certified. A kernel added to the table without a
    // battery entry (or vice versa) fails here.
    let mut want: Vec<String> = contract_names().iter().map(|s| s.to_string()).collect();
    want.sort_unstable();
    assert_eq!(report.kernels_proved, want, "proved kernels != registered contracts");
}

#[test]
fn serial_dispatches_are_recorded_and_proved_too() {
    // With the default work threshold, tiny shapes stay serial (parts = 1)
    // but still record — partition 0 is held to the same contract.
    let ((), log) = with_sanitizer(|| {
        let a = mat(3, 2, 11);
        let _ = a.add(&mat(3, 2, 12));
    });
    assert!(!log.is_empty());
    assert!(log.iter().all(|d| d.parts == 1));
    let report = check_dispatches(&log);
    assert!(report.is_clean(), "{report}");
}

// --- malicious kernels: each injected defect yields its typed violation ---

const EVIL_OVERLAP: &[AccessSpec] =
    &[AccessSpec { operand: OUT, write: true, shape: Shape::All }];

#[test]
fn overlapping_writes_are_flagged_with_partition_pair() {
    let ((), log) = with_sanitizer(|| {
        // Both partitions claim the whole output: a deliberate write-write
        // race. The (deliberately wrong) contract declares the overlap, so
        // the violation comes from concrete interval math, not the table.
        sanitize::record_raw("evil_overlap", 2, 8, |_, _| vec![Access::write(OUT, 0..8)]);
    });
    let extra = [KernelContract { kernel: "evil_overlap", accesses: EVIL_OVERLAP }];
    let report = check_dispatches_with(&log, &extra);
    assert!(!report.is_clean());
    let hit = report
        .violations
        .iter()
        .find(|v| matches!(v, RaceViolation::OverlappingWrites { .. }))
        .expect("write-write race must be reported as OverlappingWrites");
    if let RaceViolation::OverlappingWrites { kernel, part_a, part_b, lo, hi, .. } = hit {
        assert_eq!(kernel, "evil_overlap");
        assert_eq!((*part_a, *part_b), (0, 1));
        assert!(lo < hi, "violation must carry a concrete overlapping range");
    }
    assert!(report.kernels_proved.is_empty());
}

const EVIL_READ: &[AccessSpec] = &[
    AccessSpec { operand: OUT, write: true, shape: Shape::PartRows },
    AccessSpec { operand: OUT, write: false, shape: Shape::All },
];

#[test]
fn cross_partition_read_of_write_set_is_flagged() {
    let ((), log) = with_sanitizer(|| {
        // Disjoint writes, but every partition reads the whole output —
        // i.e. it reads rows another partition is concurrently writing.
        sanitize::record_raw("evil_read", 2, 8, |_, r| {
            vec![Access::write(OUT, r.start..r.end), Access::read(OUT, 0..8)]
        });
    });
    let extra = [KernelContract { kernel: "evil_read", accesses: EVIL_READ }];
    let report = check_dispatches_with(&log, &extra);
    let hit = report
        .violations
        .iter()
        .find(|v| matches!(v, RaceViolation::CrossPartitionRead { .. }))
        .expect("read of another partition's write-set must be CrossPartitionRead");
    if let RaceViolation::CrossPartitionRead { kernel, reader, writer, lo, hi, .. } = hit {
        assert_eq!(kernel, "evil_read");
        assert_ne!(reader, writer);
        assert!(lo < hi);
    }
}

const EVIL_DRIFT: &[AccessSpec] =
    &[AccessSpec { operand: OUT, write: true, shape: Shape::PartRows }];

#[test]
fn contract_drift_is_flagged_as_mismatch() {
    let ((), log) = with_sanitizer(|| {
        // The kernel records a read its contract never declared — the
        // "kernel widened, table didn't" drift case.
        sanitize::record_raw("evil_drift", 2, 8, |_, r| {
            vec![Access::write(OUT, r.start..r.end), Access::read(0, r.start..r.end)]
        });
    });
    let extra = [KernelContract { kernel: "evil_drift", accesses: EVIL_DRIFT }];
    let report = check_dispatches_with(&log, &extra);
    assert!(matches!(
        report.violations.first(),
        Some(RaceViolation::ContractMismatch { .. })
    ), "undeclared access must be a ContractMismatch, got {:?}", report.violations);
}

#[test]
fn unregistered_kernel_is_flagged() {
    let ((), log) = with_sanitizer(|| {
        sanitize::record_raw("not_in_the_table", 2, 8, |_, r| {
            vec![Access::write(OUT, r.start..r.end)]
        });
    });
    let report = check_dispatches(&log);
    assert!(matches!(
        report.violations.first(),
        Some(RaceViolation::UnknownKernel { .. })
    ));
}

// --- schedule fuzzer: bit-identity is structural, not schedule luck ---

/// A composite computation touching GEMM, sparse, normalizer, RMW and
/// raw-pointer kernels; returns everything as one matrix for bit compare.
fn fuzz_workload() -> Matrix {
    let a = mat(17, 9, 21);
    let b = mat(9, 17, 22);
    let adj = csr(17, 17, 23);
    let mut h = a.matmul(&b).softmax_rows();
    h = adj.spmm(&h);
    h.add_assign(&mat(17, 17, 24));
    // A reduction of several k blocks: every partition parks its fold in
    // its own output rows between blocks.
    h.add_assign(&mat(150, 17, 26).matmul_tn(&mat(150, 17, 27)));
    // The serving scorer into two column ranges: partitions of one to five
    // rows take the row-vector kernel or the tile as their span decides.
    let (s0, s1) = (PackedPanels::pack(&mat(10, 9, 28)), PackedPanels::pack(&mat(7, 9, 29)));
    h.add_assign(&a.gather_matmul_panels(&(0..17).map(|i| (i * 5) % 17).collect::<Vec<_>>(), &[&s0, &s1]));
    let t = top_k_rows(&h, 5);
    let mut out = h.l2_normalize_rows(1e-6);
    let mut tail = Matrix::zeros(17, 5);
    for r in 0..17 {
        tail.set_row(r, t.scores(r));
    }
    out.scatter_add_rows(&(0..17).rev().map(|i| i % 17).collect::<Vec<_>>(), &mat(17, 17, 25));
    // Edge attention: `a`'s rows as the edges of 5 segments, one empty.
    let seg = [0, 4, 4, 9, 13, 17];
    let alpha = a.head_dots(&mat(17, 9, 30), 3).segment_softmax(&seg);
    let agg = Matrix::segment_weighted_sum(&alpha, &a, &seg);
    let gv = Matrix::segment_weighted_sum_grad_values(&alpha, &agg, &seg);
    Matrix::concat_cols(&[&out, &tail, &gv])
}

#[test]
fn fuzzed_schedules_are_bit_identical_to_serial() {
    let serial = with_pool(1, fuzz_workload);
    for threads in [2, 4] {
        for seed in 0..4u64 {
            for max_delay_us in [0u32, 50, 200] {
                parallel::set_fuzz_schedule(Some(FuzzSchedule { seed, max_delay_us }));
                let fuzzed = with_pool(threads, fuzz_workload);
                parallel::set_fuzz_schedule(None);
                assert_bits_eq(
                    &serial,
                    &fuzzed,
                    &format!("threads={threads} seed={seed} delay={max_delay_us}us"),
                );
            }
        }
    }
}

#[test]
fn sanitizer_composes_with_fuzzed_schedules() {
    // Shadow logging records on the dispatching thread before workers run,
    // so fuzzing the schedule must not change the recorded access sets —
    // and the fuzzed run must still prove out.
    parallel::set_fuzz_schedule(Some(FuzzSchedule { seed: 7, max_delay_us: 50 }));
    let (out, log) = with_pool(4, || with_sanitizer(fuzz_workload));
    parallel::set_fuzz_schedule(None);
    let report = check_dispatches(&log);
    assert!(report.is_clean(), "{report}");
    assert_bits_eq(&out, &with_pool(1, fuzz_workload), "fuzzed+sanitized");
}

// --- property sweeps: shapes × threads × schedules ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_fuzzed_kernels_match_serial(
        rows in 1usize..24,
        inner in 1usize..12,
        cols in 1usize..16,
        threads in 2usize..6,
        seed in 0u64..1000,
        delay in 0u32..60,
    ) {
        let a = mat(rows, inner, seed ^ 1);
        let b = mat(inner, cols, seed ^ 2);
        let s = csr(rows, rows, seed ^ 3);
        let run = || {
            let mm = a.matmul(&b);
            let sm = mm.softmax_rows();
            (s.spmm(&sm), sm)
        };
        let (sp_serial, sm_serial) = with_pool(1, run);
        parallel::set_fuzz_schedule(Some(FuzzSchedule { seed, max_delay_us: delay }));
        let ((sp_par, sm_par), log) = with_pool(threads, || with_sanitizer(run));
        parallel::set_fuzz_schedule(None);
        assert_bits_eq(&sp_serial, &sp_par, "spmm(softmax(matmul))");
        assert_bits_eq(&sm_serial, &sm_par, "softmax(matmul)");
        let report = check_dispatches(&log);
        prop_assert!(report.is_clean(), "sanitizer violations:\n{report}");
    }

    #[test]
    fn prop_part_range_tiles_for_any_part_count(
        items in 0usize..400,
        parts in 1usize..=64,
    ) {
        let mut cursor = 0usize;
        for p in 0..parts {
            let r = parallel::part_range(items, parts, p);
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.end >= r.start);
            // Near-even split: no partition exceeds its neighbour by > 1.
            prop_assert!(r.len() <= items / parts + 1);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, items);
    }
}
