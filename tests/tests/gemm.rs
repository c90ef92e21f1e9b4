//! Packed-GEMM subsystem tests: every routed matmul entry point must be
//! **bit-identical** between serial and parallel execution for every
//! backend (the per-element fold order is fixed in a register lane,
//! independent of partitioning), packed backends must agree with the
//! legacy scalar kernels within a documented relative tolerance, and a
//! full DGNN retrain under `DGNN_GEMM=scalar` must reproduce the
//! historical numbers bit-for-bit.

use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::tiny;
use dgnn_eval::Trainable;
use dgnn_tensor::gemm::{self, Backend};
use dgnn_tensor::parallel;
use dgnn_tensor::Matrix;
use proptest::prelude::*;

const SEED: u64 = 11;

/// Documented agreement bound between a packed backend and the legacy
/// scalar kernels: the two pipelines use different accumulation orders
/// (register-lane fold vs cache-blocked i-k-j), so results differ by
/// rounding only. With `k ≤ 64` and inputs in ±2, a relative error of
/// `1e-4` (against an f64 reference magnitude) is a conservative bound —
/// both pipelines are exact folds of `k` correctly-rounded f32 FMAs/muls.
const PACKED_VS_SCALAR_RTOL: f32 = 1e-4;

/// Runs `f` with the kernel pool pinned to `threads` and the dispatch
/// threshold dropped so tiny shapes still fan out; restores defaults after.
fn with_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    parallel::set_threads(threads);
    parallel::set_min_par_work(if threads > 1 { 1 } else { parallel::DEFAULT_MIN_PAR_WORK });
    let out = f();
    parallel::set_threads(1);
    parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
    out
}

/// Runs `f` with the thread-local GEMM backend forced to `be`, restoring
/// the previously resolved backend afterwards (so calls nest correctly).
/// Forcing an unavailable SIMD backend degrades to Generic, so the sweep
/// below is safe on any host.
fn with_backend<T>(be: Backend, f: impl FnOnce() -> T) -> T {
    let prev = gemm::backend();
    gemm::set_backend(Some(be));
    let out = f();
    gemm::set_backend(Some(prev));
    out
}

/// Backends worth testing on this host: the auto-detected one, the packed
/// portable fallback, and the legacy scalar loops. Deduplicated so each
/// runs once.
fn backends_under_test() -> Vec<Backend> {
    let mut v = vec![with_backend(Backend::Avx2, gemm::backend)];
    for b in [Backend::Neon, Backend::Generic, Backend::Scalar] {
        let got = with_backend(b, gemm::backend);
        if !v.contains(&got) {
            v.push(got);
        }
    }
    v
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x:?} vs {y:?}");
    }
}

fn assert_close(a: &Matrix, b: &Matrix, rtol: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() <= rtol * scale,
            "{what}: |{x} - {y}| > rtol {rtol} * {scale} at {i}"
        );
    }
}

/// Deterministic pseudo-random matrix (LCG) in roughly ±2.
fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) % 1000) as f32 / 250.0 - 2.0
    })
}

fn idx_for(m: usize, table_rows: usize, seed: u64) -> Vec<usize> {
    (0..m).map(|i| (i * 7 + seed as usize) % table_rows).collect()
}

/// All routed entry points at one shape, concatenated for one-shot
/// comparison: `matmul`, `matmul_tn`, `matmul_nt`, `gather_matmul_nt`.
fn all_entry_points(m: usize, k: usize, n: usize, seed: u64) -> Vec<Matrix> {
    let a = mat(m, k, seed ^ 1);
    let b = mat(k, n, seed ^ 2);
    let bt = mat(n, k, seed ^ 3);
    let at = mat(k, m, seed ^ 4); // for tn: (k×m)ᵀ · (k×n)
    let idx = idx_for(m, m.max(1), seed);
    vec![a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt), a.gather_matmul_nt(&idx, &bt)]
}

#[test]
fn parallel_is_bit_identical_to_serial_for_every_backend() {
    // Shapes chosen to hit full tiles, ragged tails in every dimension,
    // single rows/cols, and k=0.
    let shapes = [
        (8, 8, 8),
        (16, 8, 24),
        (13, 5, 9),
        (1, 1, 1),
        (9, 0, 7),
        (3, 17, 1),
        (256, 8, 8), // the DGNN quick-preset shape
    ];
    for be in backends_under_test() {
        for &(m, k, n) in &shapes {
            let serial = with_backend(be, || with_pool(1, || all_entry_points(m, k, n, 42)));
            for threads in [2, 4] {
                let par = with_backend(be, || with_pool(threads, || all_entry_points(m, k, n, 42)));
                for (s, p) in serial.iter().zip(&par) {
                    assert_bits_eq(s, p, &format!("{be:?} {m}x{k}x{n} threads={threads}"));
                }
            }
        }
    }
}

#[test]
fn packed_backends_match_scalar_within_tolerance() {
    let shapes = [(8, 8, 8), (16, 8, 24), (13, 5, 9), (31, 33, 2), (256, 8, 8)];
    for &(m, k, n) in &shapes {
        let scalar = with_backend(Backend::Scalar, || all_entry_points(m, k, n, 7));
        for be in backends_under_test() {
            if be == Backend::Scalar {
                continue;
            }
            let packed = with_backend(be, || all_entry_points(m, k, n, 7));
            for (op, (s, p)) in scalar.iter().zip(&packed).enumerate() {
                assert_close(
                    s,
                    p,
                    PACKED_VS_SCALAR_RTOL,
                    &format!("{be:?} vs scalar, op {op}, {m}x{k}x{n}"),
                );
            }
        }
    }
}

#[test]
fn forced_scalar_backend_is_bitwise_the_legacy_kernel() {
    // `DGNN_GEMM=scalar` must reproduce the pre-packing numerics exactly:
    // compare the fused gathered entry point against its compositional
    // legacy equivalent, which the original kernels guaranteed bit-identical.
    with_backend(Backend::Scalar, || {
        let (m, k, n) = (23, 9, 14);
        let a = mat(m, k, 91);
        let bt = mat(n, k, 92);
        let idx = idx_for(17, m, 5);
        assert_bits_eq(
            &a.gather_matmul_nt(&idx, &bt),
            &a.gather_rows(&idx).matmul_nt(&bt),
            "scalar gather_matmul_nt == gather_rows+matmul_nt",
        );
    });
}

#[test]
fn gathered_entry_points_match_their_compositions_bitwise_when_packed() {
    // On a packed backend the gathered scorer reads the same rows the
    // explicit gather would produce, so the product is bit-identical to
    // the two-step composition *on the same backend*.
    for be in backends_under_test() {
        with_backend(be, || {
            let (m, k, n) = (19, 6, 11);
            let a = mat(m, k, 61);
            let bt = mat(n, k, 63);
            let idx = idx_for(26, m, 3);
            assert_bits_eq(
                &a.gather_matmul_nt(&idx, &bt),
                &a.gather_rows(&idx).matmul_nt(&bt),
                &format!("{be:?} gather_matmul_nt == gather_rows+matmul_nt"),
            );
        });
    }
}

#[test]
fn tail_and_degenerate_shapes() {
    // m/n/k straddling the 8×8 tile in every combination, plus empties.
    let edges = [1usize, 7, 8, 9, 15, 16, 17];
    for be in backends_under_test() {
        if be == Backend::Scalar {
            continue; // tails are a packed-pipeline concern
        }
        with_backend(be, || {
            for &m in &edges {
                for &n in &edges {
                    let k = (m + n) % 5; // small k incl. 0
                    let a = mat(m, k, 51);
                    let b = mat(k, n, 52);
                    let got = a.matmul(&b);
                    let want = with_backend(Backend::Scalar, || a.matmul(&b));
                    assert_close(
                        &want,
                        &got,
                        PACKED_VS_SCALAR_RTOL,
                        &format!("{be:?} {m}x{k}x{n}"),
                    );
                }
            }
            // k = 0 must yield exact zeros (overwrite semantics).
            let z = mat(9, 0, 53).matmul(&mat(0, 7, 54));
            assert!(z.as_slice().iter().all(|&v| v.to_bits() == 0.0f32.to_bits()));
        });
    }
}

#[test]
fn dgnn_training_is_bit_identical_across_threads_on_the_selected_backend() {
    // The tentpole determinism claim end-to-end: on whatever backend auto
    // selects (AVX2 here on x86_64 CI), a full DGNN retrain is bit-identical
    // at 1/2/4 threads.
    let data = tiny(SEED);
    let config = || DgnnConfig {
        dim: 8,
        layers: 2,
        memory_units: 4,
        epochs: 3,
        batch_size: 256,
        ..Default::default()
    };
    let mut serial = Dgnn::new(config().with_threads(1));
    serial.fit(&data, SEED);
    for threads in [2, 4] {
        let mut par = Dgnn::new(config().with_threads(threads));
        parallel::set_min_par_work(1);
        par.fit(&data, SEED);
        parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
        parallel::set_threads(1);
        assert_eq!(serial.loss_history.len(), par.loss_history.len());
        for (i, (x, y)) in serial.loss_history.iter().zip(&par.loss_history).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "loss[{i}] diverges at {threads} threads");
        }
        assert_bits_eq(
            serial.user_embeddings(),
            par.user_embeddings(),
            &format!("user embeddings, {threads} threads"),
        );
        assert_bits_eq(
            serial.item_embeddings(),
            par.item_embeddings(),
            &format!("item embeddings, {threads} threads"),
        );
    }
}

#[test]
fn dgnn_forced_scalar_retrain_is_bit_identical_across_threads() {
    // The forced-scalar golden retrain: `DGNN_GEMM=scalar` must run the
    // exact legacy kernels (which kept their historical numerics verbatim),
    // and the retrain must be reproducible and bit-identical between a
    // serial run and a 4-thread run, exactly like the pre-packing suite.
    with_backend(Backend::Scalar, || {
        let data = tiny(SEED);
        let config = || DgnnConfig {
            dim: 8,
            layers: 2,
            memory_units: 4,
            epochs: 3,
            batch_size: 256,
            ..Default::default()
        };
        let mut serial = Dgnn::new(config().with_threads(1));
        serial.fit(&data, SEED);

        // Reproducibility: a second scalar serial run is bit-for-bit the same.
        let mut again = Dgnn::new(config().with_threads(1));
        again.fit(&data, SEED);
        for (x, y) in serial.loss_history.iter().zip(&again.loss_history) {
            assert_eq!(x.to_bits(), y.to_bits(), "scalar retrain must be reproducible");
        }

        let mut par = Dgnn::new(config().with_threads(4));
        parallel::set_min_par_work(1);
        par.fit(&data, SEED);
        parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
        parallel::set_threads(1);
        assert_eq!(serial.loss_history.len(), par.loss_history.len());
        for (i, (x, y)) in serial.loss_history.iter().zip(&par.loss_history).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "scalar loss[{i}] diverges at 4 threads");
        }
        assert_bits_eq(serial.user_embeddings(), par.user_embeddings(), "scalar user embeddings");
        assert_bits_eq(serial.item_embeddings(), par.item_embeddings(), "scalar item embeddings");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_parallel_bitwise_and_scalar_tolerance(
        m in 1usize..40,
        k in 0usize..20,
        n in 1usize..24,
        threads in 2usize..5,
        seed in 0u64..1000,
    ) {
        for be in backends_under_test() {
            let serial = with_backend(be, || with_pool(1, || all_entry_points(m, k, n, seed)));
            let par = with_backend(be, || with_pool(threads, || all_entry_points(m, k, n, seed)));
            for (op, (s, p)) in serial.iter().zip(&par).enumerate() {
                prop_assert_eq!(s.shape(), p.shape());
                for (x, y) in s.as_slice().iter().zip(p.as_slice()) {
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "{:?} op {} {}x{}x{} threads={} not bit-identical: {} vs {}",
                        be, op, m, k, n, threads, x, y
                    );
                }
            }
        }
        // Cross-backend: packed results stay within the documented
        // tolerance of the legacy scalar kernels.
        let scalar = with_backend(Backend::Scalar, || all_entry_points(m, k, n, seed));
        for be in backends_under_test() {
            if be == Backend::Scalar { continue; }
            let packed = with_backend(be, || all_entry_points(m, k, n, seed));
            for (s, p) in scalar.iter().zip(&packed) {
                for (x, y) in s.as_slice().iter().zip(p.as_slice()) {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    prop_assert!(
                        (x - y).abs() <= PACKED_VS_SCALAR_RTOL * scale,
                        "{:?} vs scalar beyond rtol: {} vs {}", be, x, y
                    );
                }
            }
        }
    }
}
