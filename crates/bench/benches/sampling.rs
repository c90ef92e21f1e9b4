//! Microbench: BPR triple sampling throughput (the per-batch fixed cost of
//! every training loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgnn_bench::{datasets, experiments::SEEDS};
use dgnn_data::TrainSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("negative_sampling");
    for ds in datasets(SEEDS[0]) {
        let sampler = TrainSampler::new(&ds.graph);
        group.bench_with_input(
            BenchmarkId::new("batch_2048", &ds.name),
            &sampler,
            |b, sampler| {
                let mut rng = StdRng::seed_from_u64(5);
                b.iter(|| black_box(sampler.batch(&mut rng, 2048)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
