//! Parallel-kernel bit-identity tests: every kernel the pool partitions must
//! produce *bit-for-bit* the same floats at any thread count, because the
//! row-range partitioning never changes any per-element reduction order.
//! Property tests sweep random shapes and thread counts; the golden test
//! retrains DGNN end-to-end at `threads = 2` and `4` and demands the exact
//! serial loss history and embeddings.

use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::tiny;
use dgnn_eval::Trainable;
use dgnn_tensor::parallel;
use dgnn_tensor::{Csr, CsrBuilder, Matrix};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const SEED: u64 = 11;

/// Runs `f` with the kernel pool pinned to `threads` and (for parallel runs)
/// the work threshold dropped to one unit so even tiny test shapes dispatch
/// across the pool. Settings are thread-local, so proptest cases on this
/// test thread are restored to defaults afterwards.
fn with_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    parallel::set_threads(threads);
    parallel::set_min_par_work(if threads > 1 { 1 } else { parallel::DEFAULT_MIN_PAR_WORK });
    let out = f();
    parallel::set_threads(1);
    parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
    out
}

/// Bitwise equality — `==` would hide `-0.0` vs `0.0` and NaN divergences,
/// and the contract is bit identity, not approximate agreement.
fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x:?} vs {y:?}"
        );
    }
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |d| Matrix::from_vec(rows, cols, d))
}

fn csr(rows: usize, cols: usize) -> impl Strategy<Value = Csr> {
    collection::vec(((0..rows), (0..cols), -2.0f32..2.0), 0..rows * cols)
        .prop_map(move |trips| {
            let mut b = CsrBuilder::new(rows, cols);
            for (r, c, v) in trips {
                b.push(r, c, v);
            }
            b.build()
        })
}

/// Random shapes kept small enough for quick cases but large enough that
/// several partitions get non-empty row ranges at up to 6 threads.
fn dims3() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..24, 1usize..12, 1usize..12)
}

fn threads() -> impl Strategy<Value = usize> {
    2usize..7
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_family_is_bit_identical_across_threads(
        (m, k, n) in dims3(),
        t in threads(),
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let at = Matrix::from_fn(k, m, |_, _| next());
        let bt = Matrix::from_fn(m, k, |_, _| next());

        assert_bits_eq(
            &with_pool(1, || a.matmul(&b)),
            &with_pool(t, || a.matmul(&b)),
            "matmul",
        );
        assert_bits_eq(
            &with_pool(1, || at.matmul_tn(&bt.transpose())),
            &with_pool(t, || at.matmul_tn(&bt.transpose())),
            "matmul_tn",
        );
        assert_bits_eq(
            &with_pool(1, || a.matmul_nt(&Matrix::from_fn(n, k, |r, c| (r * k + c) as f32 * 0.1))),
            &with_pool(t, || a.matmul_nt(&Matrix::from_fn(n, k, |r, c| (r * k + c) as f32 * 0.1))),
            "matmul_nt",
        );
    }

    #[test]
    fn spmm_is_bit_identical_across_threads(
        a in csr(13, 7),
        x in matrix(7, 5),
        t in threads(),
    ) {
        assert_bits_eq(
            &with_pool(1, || a.spmm(&x)),
            &with_pool(t, || a.spmm(&x)),
            "spmm",
        );
    }

    #[test]
    fn activations_are_bit_identical_across_threads(
        x in matrix(17, 6),
        t in threads(),
    ) {
        assert_bits_eq(
            &with_pool(1, || x.leaky_relu(0.2)),
            &with_pool(t, || x.leaky_relu(0.2)),
            "leaky_relu",
        );
        assert_bits_eq(
            &with_pool(1, || x.map_weighted(32, f32::tanh)),
            &with_pool(t, || x.map_weighted(32, f32::tanh)),
            "tanh",
        );
        assert_bits_eq(
            &with_pool(1, || x.map_weighted(32, |v| if v > 20.0 { v } else { v.exp().ln_1p() })),
            &with_pool(t, || x.map_weighted(32, |v| if v > 20.0 { v } else { v.exp().ln_1p() })),
            "softplus",
        );
    }

    #[test]
    fn activation_grads_are_bit_identical_across_threads(
        x in matrix(17, 6),
        g in matrix(17, 6),
        t in threads(),
    ) {
        assert_bits_eq(
            &with_pool(1, || x.leaky_relu_grad(&g, 0.2)),
            &with_pool(t, || x.leaky_relu_grad(&g, 0.2)),
            "leaky_relu_grad",
        );
        let tout = x.map_weighted(32, f32::tanh);
        assert_bits_eq(
            &with_pool(1, || tout.tanh_grad(&g)),
            &with_pool(t, || tout.tanh_grad(&g)),
            "tanh_grad",
        );
        assert_bits_eq(
            &with_pool(1, || x.softplus_grad(&g)),
            &with_pool(t, || x.softplus_grad(&g)),
            "softplus_grad",
        );
    }

    #[test]
    fn layer_norm_is_bit_identical_across_threads(
        x in matrix(15, 8),
        g in matrix(15, 8),
        t in threads(),
    ) {
        let eps = 1e-6;
        let y1 = with_pool(1, || x.layer_norm_rows(eps));
        let yt = with_pool(t, || x.layer_norm_rows(eps));
        assert_bits_eq(&y1, &yt, "layer_norm_rows");
        assert_bits_eq(
            &with_pool(1, || Matrix::layer_norm_rows_grad(&x, &y1, &g, eps)),
            &with_pool(t, || Matrix::layer_norm_rows_grad(&x, &y1, &g, eps)),
            "layer_norm_rows_grad",
        );
    }

    #[test]
    fn weighted_block_sum_family_is_bit_identical_across_threads(
        n in 1usize..40,
        m in 1usize..9,
        b in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
        };
        let t = Matrix::from_fn(n, m * b, |_, _| next());
        let eta = Matrix::from_fn(n, m, |_, _| next());
        let g = Matrix::from_fn(n, b, |_, _| next());
        let run = |threads: usize| {
            with_pool(threads, || {
                (
                    t.weighted_block_sum(&eta),
                    Matrix::weighted_block_sum_grad_blocks(&eta, &g),
                    Matrix::weighted_block_sum_grad_weights(&t, &g),
                )
            })
        };
        let serial = run(1);
        for threads in [2, 4] {
            let pooled = run(threads);
            assert_bits_eq(&serial.0, &pooled.0, "weighted_block_sum");
            assert_bits_eq(&serial.1, &pooled.1, "weighted_block_sum_grad_blocks");
            assert_bits_eq(&serial.2, &pooled.2, "weighted_block_sum_grad_weights");
        }
    }

    #[test]
    fn segment_attention_family_is_bit_identical_across_threads(
        // About half the segments empty, the rest of 1 to 11 members.
        degrees in collection::vec(0usize..24, 1..30),
        heads in 1usize..4,
        b in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) * 4.0 - 2.0
        };
        let seg: Vec<usize> = std::iter::once(0)
            .chain(degrees.iter().scan(0, |e, &k| {
                *e += k.saturating_sub(12);
                Some(*e)
            }))
            .collect();
        let (e, n, d) = (seg[degrees.len()], degrees.len(), heads * b);
        let q = Matrix::from_fn(e, d, |_, _| next());
        let v = Matrix::from_fn(e, d, |_, _| next());
        let gy = Matrix::from_fn(e, heads, |_, _| next());
        let g = Matrix::from_fn(n, d, |_, _| next());
        let run = |threads: usize| {
            with_pool(threads, || {
                let y = q.head_dots(&v, heads).segment_softmax(&seg);
                vec![
                    Matrix::segment_softmax_grad(&y, &gy, &seg),
                    Matrix::segment_weighted_sum(&y, &v, &seg),
                    Matrix::segment_weighted_sum_grad_weights(&v, &g, &seg, heads),
                    Matrix::segment_weighted_sum_grad_values(&y, &g, &seg),
                    v.mul_col_broadcast(&y),
                    y,
                ]
            })
        };
        let serial = run(1);
        for threads in [2, 3, 4] {
            for (k, (a, b)) in serial.iter().zip(&run(threads)).enumerate() {
                assert_bits_eq(a, b, &format!("segment attention output {k}"));
            }
        }
    }

    #[test]
    fn gather_scatter_is_bit_identical_across_threads(
        idx in collection::vec(0usize..11, 1..40),
        src_seed in any::<u64>(),
        t in threads(),
    ) {
        let mut s = src_seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
        };
        let table = Matrix::from_fn(11, 5, |_, _| next());
        let src = Matrix::from_fn(idx.len(), 5, |_, _| next());

        assert_bits_eq(
            &with_pool(1, || table.gather_rows(&idx)),
            &with_pool(t, || table.gather_rows(&idx)),
            "gather_rows",
        );

        let scatter = |threads: usize| {
            with_pool(threads, || {
                let mut acc = Matrix::zeros(11, 5);
                acc.scatter_add_rows(&idx, &src);
                acc
            })
        };
        assert_bits_eq(&scatter(1), &scatter(t), "scatter_add_rows");
    }

    #[test]
    fn elementwise_ops_are_bit_identical_across_threads(
        a in matrix(19, 4),
        b in matrix(19, 4),
        t in threads(),
    ) {
        assert_bits_eq(&with_pool(1, || a.add(&b)), &with_pool(t, || a.add(&b)), "add");
        assert_bits_eq(
            &with_pool(1, || a.mul_elem(&b)),
            &with_pool(t, || a.mul_elem(&b)),
            "mul_elem",
        );
        let axpy = |threads: usize| {
            with_pool(threads, || {
                let mut c = a.clone();
                c.axpy(0.37, &b);
                c
            })
        };
        assert_bits_eq(&axpy(1), &axpy(t), "axpy");
        assert_bits_eq(
            &with_pool(1, || a.softmax_rows()),
            &with_pool(t, || a.softmax_rows()),
            "softmax_rows",
        );
        assert_bits_eq(
            &with_pool(1, || a.l2_normalize_rows(1e-9)),
            &with_pool(t, || a.l2_normalize_rows(1e-9)),
            "l2_normalize_rows",
        );
    }

    #[test]
    fn row_normalizer_backwards_are_bit_identical_across_threads(
        x in matrix(23, 8),
        g in matrix(23, 8),
        log_heads in 0usize..3,
        t in threads(),
    ) {
        let heads = 1 << log_heads;
        // Zero one block of one row so the `eps` pass-through is exercised.
        let mut x = x;
        for c in 0..8 / heads {
            x[(5, c)] = 0.0;
        }
        let run = |threads: usize| {
            with_pool(threads, || {
                let y = x.softmax_rows();
                vec![
                    x.l2_normalize_heads(1e-9, heads),
                    Matrix::l2_normalize_heads_grad(&x, &g, 1e-9, heads),
                    Matrix::softmax_rows_grad(&y, &g),
                ]
            })
        };
        let serial = run(1);
        for (k, (a, b)) in serial.iter().zip(&run(t)).enumerate() {
            assert_bits_eq(a, b, &format!("row normalizer output {k}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Golden test: the full DGNN training loop is bit-identical at threads = 4.
// ---------------------------------------------------------------------------

fn quick_dgnn() -> DgnnConfig {
    DgnnConfig {
        dim: 8,
        layers: 2,
        memory_units: 4,
        epochs: 3,
        batch_size: 256,
        ..Default::default()
    }
}

fn assert_bits_eq_slice(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn dgnn_training_is_bit_identical_at_two_and_four_threads() {
    let data = tiny(SEED);

    let mut serial = Dgnn::new(quick_dgnn().with_threads(1));
    serial.fit(&data, SEED);

    for threads in [2, 4] {
        // Drop the dispatch threshold so the quick preset's small matrices
        // actually cross the pool instead of taking the serial fast path.
        let mut par = Dgnn::new(quick_dgnn().with_threads(threads));
        parallel::set_min_par_work(1);
        par.fit(&data, SEED);
        parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
        parallel::set_threads(1);

        assert_bits_eq_slice(&serial.loss_history, &par.loss_history, "DGNN loss history");
        assert_bits_eq(
            serial.user_embeddings(),
            par.user_embeddings(),
            "DGNN user embeddings",
        );
        assert_bits_eq(
            serial.item_embeddings(),
            par.item_embeddings(),
            "DGNN item embeddings",
        );
    }
}

// ---------------------------------------------------------------------------
// The pool's dispatch protocol under load: every partition of every
// dispatch runs exactly once, whoever dispatches and however often.
// ---------------------------------------------------------------------------

#[test]
fn ten_thousand_back_to_back_dispatches_count_exactly() {
    let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
    let mut expect = [0usize; 4];
    for i in 0..10_000 {
        let parts = 2 + i % 3;
        parallel::run_parts(parts, |p| {
            hits[p].fetch_add(1, Ordering::Relaxed);
        });
        for e in &mut expect[..parts] {
            *e += 1;
        }
    }
    let counts: Vec<usize> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
    assert_eq!(counts, expect);
}

#[test]
fn four_threads_dispatching_concurrently_at_three_threads_stay_exact() {
    let a = Matrix::from_fn(37, 19, |r, c| ((r * 19 + c) % 13) as f32 * 0.25 - 1.5);
    let b = Matrix::from_fn(19, 23, |r, c| ((r * 23 + c) % 7) as f32 * 0.5 - 1.0);
    let serial = with_pool(1, || a.matmul(&b));
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                parallel::set_threads(3);
                parallel::set_min_par_work(1);
                start.wait();
                for _ in 0..500 {
                    assert_bits_eq(&a.matmul(&b), &serial, "matmul under concurrent dispatchers");
                    let hits = AtomicUsize::new(0);
                    parallel::run_parts(3, |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(hits.into_inner(), 3, "every partition ran once");
                }
            });
        }
    });
}
