//! Microbench: the memory-augmented relation heterogeneity encoder
//! (Eq. 3), including the **factoring ablation** called out in DESIGN.md —
//! attention-first (`Σ_m η_m (H W¹_m)`, what DGNN ships) versus the naive
//! per-edge materialization the equation literally writes
//! (`O(|M|·|E|·d²)`), which is the cost profile HGT pays.
//!
//! `encoder_gemm` times the three GEMMs one relation family's bank issues
//! per step on `epinions_small` — `H·W1` and its two gradients `G·W1ᵀ` and
//! `Hᵀ·G` at 3,500 × 16 × 128 (14.3 MFLOP each) — so a kernel change shows
//! without the full benchmark harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgnn_tensor::{Csr, CsrBuilder, EdgeList, EdgeRows, Init, Matrix, RowRead};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;

const DIM: usize = 16;
const MEMORY: usize = 8;

struct Fixture {
    h: Matrix,
    w1: Vec<Matrix>,
    /// `[W¹_1 | … | W¹_M]`, the layout the model stores.
    w1_stack: Matrix,
    w2: Matrix,
    adj: Csr,
    /// `adj`'s edges and entries, the form the models propagate through.
    edges: EdgeList,
    adj_w: Matrix,
}

fn fixture(nodes: usize, edges: usize) -> Fixture {
    let mut rng = StdRng::seed_from_u64(3);
    let h = Init::Uniform(0.1).build(nodes, DIM, &mut rng);
    let w1: Vec<Matrix> =
        (0..MEMORY).map(|_| Init::XavierUniform.build(DIM, DIM, &mut rng)).collect();
    let w1_stack = Matrix::concat_cols(&w1.iter().collect::<Vec<_>>());
    let w2 = Init::XavierUniform.build(DIM, MEMORY, &mut rng);
    let mut b = CsrBuilder::new(nodes, nodes);
    for _ in 0..edges {
        b.push(rng.gen_range(0..nodes), rng.gen_range(0..nodes), 1.0);
    }
    let adj = b.build().row_normalized();
    let (edges, adj_w) =
        (EdgeList::from_csr(&adj), Matrix::from_vec(adj.nnz(), 1, adj.values().to_vec()));
    Fixture { h, w1, w1_stack, w2, adj, edges, adj_w }
}

/// Attention-first factoring as `dgnn_core` records it: one wide GEMM
/// against the stacked bank, the η-weighted block reduce, then one
/// propagation (a constant-weight segment sum over the sources).
fn factored(f: &Fixture) -> Matrix {
    let eta = f.h.matmul(&f.w2).leaky_relu(0.2);
    let msg = f.h.matmul(&f.w1_stack).weighted_block_sum(&eta);
    Matrix::segment_weighted_sum(
        &f.adj_w,
        EdgeRows::new(&msg, RowRead::Src(&f.edges)),
        &f.edges.seg,
    )
}

/// Naive per-edge materialization: for every edge, blend the |M| transforms
/// into a d×d matrix and apply it to the source row.
fn per_edge(f: &Fixture) -> Matrix {
    let eta = f.h.matmul(&f.w2).map(|x| if x >= 0.0 { x } else { 0.2 * x });
    let mut out = Matrix::zeros(f.h.rows(), DIM);
    let mut blended = Matrix::zeros(DIM, DIM);
    for dst in 0..f.adj.rows() {
        for (src, weight) in f.adj.row(dst) {
            blended.scale_assign(0.0);
            for (m, w) in f.w1.iter().enumerate() {
                blended.axpy(eta[(src, m)], w);
            }
            let msg = Matrix::from_vec(1, DIM, f.h.row(src).to_vec()).matmul(&blended);
            for (o, &x) in out.row_mut(dst).iter_mut().zip(msg.as_slice()) {
                *o += weight * x;
            }
        }
    }
    out
}

fn bench_factoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoder_factoring");
    for (nodes, edges) in [(500usize, 3_000usize), (2_000, 12_000)] {
        let f = fixture(nodes, edges);
        group.bench_with_input(
            BenchmarkId::new("factored", format!("{nodes}n_{edges}e")),
            &f,
            |b, f| b.iter(|| black_box(factored(f))),
        );
        group.bench_with_input(
            BenchmarkId::new("per_edge_naive", format!("{nodes}n_{edges}e")),
            &f,
            |b, f| b.iter(|| black_box(per_edge(f))),
        );
    }
    group.finish();
}

fn bench_encoder_gemm(c: &mut Criterion) {
    const NODES: usize = 3_500;
    let mut rng = StdRng::seed_from_u64(5);
    let h = Init::Uniform(0.1).build(NODES, DIM, &mut rng);
    let w1 = Init::XavierUniform.build(DIM, MEMORY * DIM, &mut rng);
    let g = Init::Uniform(0.1).build(NODES, MEMORY * DIM, &mut rng);
    let mut group = c.benchmark_group("encoder_gemm");
    group.bench_function("nn_h_w1", |b| b.iter(|| black_box(h.matmul(&w1))));
    group.bench_function("nt_g_w1t", |b| b.iter(|| black_box(g.matmul_nt(&w1))));
    group.bench_function("tn_ht_g", |b| b.iter(|| black_box(h.matmul_tn(&g))));
    group.finish();
}

criterion_group!(benches, bench_factoring, bench_encoder_gemm);
criterion_main!(benches);
