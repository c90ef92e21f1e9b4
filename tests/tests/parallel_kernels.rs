//! Parallel-kernel bit-identity tests: every kernel the pool partitions must
//! produce *bit-for-bit* the same floats at any thread count, because the
//! row-range partitioning never changes any per-element reduction order.
//! Property tests sweep random shapes and thread counts; the golden test
//! retrains DGNN end-to-end at `threads = 2` and `4` and demands the exact
//! serial loss history and embeddings; the schedule fuzzer shows outputs
//! stay bit-identical under permuted worker assignment and injected delays
//! — the pool's determinism is structural (disjoint row partitions), not a
//! lucky interleaving.

use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::tiny;
use dgnn_eval::Trainable;
use dgnn_tensor::gemm::PackedPanels;
use dgnn_tensor::parallel::{self, FuzzSchedule};
use dgnn_tensor::{top_k_rows, Csr, CsrBuilder, EdgeList, EdgeRows, Matrix, RowRead};
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
        assert_bits_eq(
            &with_pool(1, || x.relu_grad(&g)),
            &with_pool(t, || x.relu_grad(&g)),
            "relu_grad",
        );
        assert_bits_eq(
            &with_pool(1, || x.sigmoid_grad(&g)),
            &with_pool(t, || x.sigmoid_grad(&g)),
            "sigmoid_grad",
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
        assert_bits_eq(&with_pool(1, || a.sub(&b)), &with_pool(t, || a.sub(&b)), "sub");
        assert_bits_eq(
            &with_pool(1, || a.div_elem(&b)),
            &with_pool(t, || a.div_elem(&b)),
            "div_elem",
        );
        let axpy = |threads: usize| {
            with_pool(threads, || {
                let mut c = a.clone();
                c.axpy(0.37, &b);
                c
            })
        };
        assert_bits_eq(&axpy(1), &axpy(t), "axpy");
        let add_assign = |threads: usize| {
            with_pool(threads, || {
                let mut c = a.clone();
                c.add_assign(&b);
                c
            })
        };
        assert_bits_eq(&add_assign(1), &add_assign(t), "add_assign");
        let scale_assign = |threads: usize| {
            with_pool(threads, || {
                let mut c = a.clone();
                c.scale_assign(1.25);
                c
            })
        };
        assert_bits_eq(&scale_assign(1), &scale_assign(t), "scale_assign");
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

// ---------------------------------------------------------------------------
// Schedule fuzzer: bit-identity is structural, not schedule luck.
// ---------------------------------------------------------------------------

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

/// Deterministic pseudo-random sparse matrix (LCG), about a quarter full.
fn lcg_csr(rows: usize, cols: usize, seed: u64) -> Csr {
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

/// Every table-read form of the edge kernels, forward and each gradient,
/// next to what a gather → per-edge kernel → `scatter_add_rows` pipeline
/// computes. Destination tables are `n × d`, source tables `sources × d`.
fn table_read_pairs(edges: &EdgeList, heads: usize, b: usize, seed: u64) -> Vec<(&'static str, Matrix, Matrix)> {
    let (n, s, e, d) = (edges.nodes(), edges.sources(), edges.len(), heads * b);
    let (seg, src, dst) = (edges.seg.as_slice(), edges.src.as_slice(), edges.dst.as_slice());
    // Signed zeros among the values, so a fold that starts from the wrong
    // zero shows up in the bits.
    let m = |rows, cols, salt| {
        mat(rows, cols, seed ^ salt).map(|v| match v {
            v if (0.1..0.3).contains(&v) => -0.0,
            v if (-0.3..-0.1).contains(&v) => 0.0,
            v => v,
        })
    };
    let (q, k) = (m(n, d, 1), m(s, d, 2));
    let (x, w, gy, g) = (m(e, d, 3), m(e, heads, 4), m(e, heads, 5), m(n, d, 6));
    let scatter = |rows: usize, idx: &[usize], grad: &Matrix| {
        let mut acc = Matrix::zeros(rows, d);
        acc.scatter_add_rows(idx, grad);
        acc
    };
    let (qd, ks) = (EdgeRows::new(&q, RowRead::Dst(edges)), EdgeRows::new(&k, RowRead::Src(edges)));
    let (qe, ke) = (q.gather_rows(dst), k.gather_rows(src));
    vec![
        // HGT's logits: a destination table against a source table.
        ("head_dots dst·src", Matrix::head_dots_via(qd, ks, heads), qe.head_dots(&ke, heads)),
        ("head_dots grad dst", Matrix::head_dots_grad(RowRead::Dst(edges), ks, &gy), scatter(n, dst, &ke.mul_col_broadcast(&gy))),
        ("head_dots grad src", Matrix::head_dots_grad(RowRead::Src(edges), qd, &gy), scatter(s, src, &qe.mul_col_broadcast(&gy))),
        // DGCF's affinity: a destination table against per-edge rows.
        ("head_dots dst·edge", Matrix::head_dots_via(qd, (&x).into(), heads), qe.head_dots(&x, heads)),
        ("head_dots grad edge", Matrix::head_dots_grad(RowRead::Edge, qd, &gy), qe.mul_col_broadcast(&gy)),
        // Aggregation over a source table (HGT's values, DGCF's last
        // propagation) and over a destination table.
        ("weighted sum src", Matrix::segment_weighted_sum(&w, ks, seg), Matrix::segment_weighted_sum(&w, &ke, seg)),
        ("weighted sum dst", Matrix::segment_weighted_sum(&w, qd, seg), Matrix::segment_weighted_sum(&w, &qe, seg)),
        (
            "weighted sum grad weights src",
            Matrix::segment_weighted_sum_grad_weights(ks, &g, seg, heads),
            Matrix::segment_weighted_sum_grad_weights(&ke, &g, seg, heads),
        ),
        (
            "weighted sum grad src",
            Matrix::segment_weighted_sum_grad_rows(&w, &g, seg, RowRead::Src(edges)),
            scatter(s, src, &Matrix::segment_weighted_sum_grad_values(&w, &g, seg)),
        ),
        (
            "weighted sum grad dst",
            Matrix::segment_weighted_sum_grad_rows(&w, &g, seg, RowRead::Dst(edges)),
            scatter(n, dst, &Matrix::segment_weighted_sum_grad_values(&w, &g, seg)),
        ),
    ]
}

/// Holds every table-read form to the gathered pipeline run serially, at
/// 1, 2 and 4 threads and under fuzzed worker schedules.
fn check_table_reads(edges: &EdgeList, heads: usize, b: usize, seed: u64) {
    let oracle: Vec<Matrix> = with_pool(1, || table_read_pairs(edges, heads, b, seed)).into_iter().map(|p| p.2).collect();
    let mut runs = vec![("serial", 1, None)];
    for threads in [2, 4] {
        runs.push(("pooled", threads, None));
        runs.push(("fuzzed", threads, Some(FuzzSchedule { seed, max_delay_us: 20 })));
    }
    for (how, threads, fuzz) in runs {
        parallel::set_fuzz_schedule(fuzz);
        let got = with_pool(threads, || table_read_pairs(edges, heads, b, seed));
        parallel::set_fuzz_schedule(None);
        for ((what, table, _), want) in got.iter().zip(&oracle) {
            assert_bits_eq(table, want, &format!("{what}, {how} at {threads} thread(s)"));
        }
    }
}

#[test]
fn table_reads_without_edges_are_gather_then_scatter() {
    // E = 0: three empty destinations, two unread sources.
    check_table_reads(&EdgeList::new(vec![0, 0, 0, 0], Vec::new(), 2), 2, 2, 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn table_reads_are_gather_then_scatter_bit_for_bit(
        // Many empty segments; sources drawn from the lower half only, so
        // the upper half is never read and the lower half repeats.
        degrees in collection::vec(0usize..9, 0..24),
        sources in 1usize..14,
        log2_heads in 0u32..3,
        b in 1usize..4,
        seed in any::<u64>(),
    ) {
        let seg: Vec<usize> = std::iter::once(0)
            .chain(degrees.iter().scan(0, |e, &k| {
                *e += k.saturating_sub(3);
                Some(*e)
            }))
            .collect();
        let mut s = seed;
        let src = (0..seg[degrees.len()])
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as usize % sources.div_ceil(2)
            })
            .collect();
        check_table_reads(&EdgeList::new(seg, src, sources), 1 << log2_heads, b, seed);
    }
}

/// A composite computation touching GEMM, sparse, normalizer, RMW and
/// raw-pointer kernels; returns everything as one matrix for bit compare.
fn fuzz_workload() -> Matrix {
    let a = mat(17, 9, 21);
    let b = mat(9, 17, 22);
    let adj = lcg_csr(17, 17, 23);
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
        let s = lcg_csr(rows, rows, seed ^ 3);
        let run = || {
            let mm = a.matmul(&b);
            let sm = mm.softmax_rows();
            (s.spmm(&sm), sm)
        };
        let (sp_serial, sm_serial) = with_pool(1, run);
        parallel::set_fuzz_schedule(Some(FuzzSchedule { seed, max_delay_us: delay }));
        let (sp_par, sm_par) = with_pool(threads, run);
        parallel::set_fuzz_schedule(None);
        assert_bits_eq(&sp_serial, &sp_par, "spmm(softmax(matmul))");
        assert_bits_eq(&sm_serial, &sm_par, "softmax(matmul)");
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
