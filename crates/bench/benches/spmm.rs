//! Microbench: sparse propagation (the `O(|E|·d)` kernel every GNN layer
//! runs) across the three dataset scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgnn_bench::{datasets, experiments::SEEDS};
use dgnn_tensor::{Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm");
    let mut rng = StdRng::seed_from_u64(0);
    for ds in datasets(SEEDS[0]) {
        let adj = ds.graph.ui().row_normalized();
        let feats = Init::Uniform(0.1).build(ds.graph.num_items(), 16, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("ui_propagate_d16", &ds.name),
            &(adj, feats),
            |b, (adj, feats)| b.iter(|| black_box(adj.spmm(black_box(feats)))),
        );
    }
    group.finish();
}

fn bench_transpose(c: &mut Criterion) {
    let ds = datasets(SEEDS[0]).remove(2); // yelp-s: largest
    let adj = ds.graph.unified_adj(true, true);
    c.bench_function("csr_transpose_unified_yelp", |b| {
        b.iter(|| black_box(adj.transpose()))
    });
}

fn bench_dense_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Init::Uniform(0.1).build(2000, 16, &mut rng);
    let w: Matrix = Init::XavierUniform.build(16, 16, &mut rng);
    c.bench_function("dense_2000x16_by_16x16", |b| {
        b.iter(|| black_box(a.matmul(black_box(&w))))
    });
}

criterion_group!(benches, bench_spmm, bench_transpose, bench_dense_matmul);
criterion_main!(benches);
