//! Microbench: evaluation throughput — ranking 101 candidates per test
//! user and computing HR/NDCG at all cutoffs (the paper's protocol).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgnn_bench::{datasets, experiments::SEEDS};
use dgnn_eval::{evaluate, Recommender};
use dgnn_tensor::{Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// A fixed-embedding scorer standing in for a trained model.
struct FixedEmbeddings {
    user: Matrix,
    item: Matrix,
}

impl Recommender for FixedEmbeddings {
    fn name(&self) -> &str {
        "fixed"
    }
    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        let u = self.user.row(user);
        items.iter().map(|&v| self.item.row(v).iter().zip(u).map(|(&a, &b)| a * b).sum()).collect()
    }
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate_protocol");
    let mut rng = StdRng::seed_from_u64(9);
    for ds in datasets(SEEDS[0]) {
        let model = FixedEmbeddings {
            user: Init::Uniform(0.1).build(ds.graph.num_users(), 48, &mut rng),
            item: Init::Uniform(0.1).build(ds.graph.num_items(), 48, &mut rng),
        };
        group.bench_with_input(
            BenchmarkId::new("all_cutoffs", &ds.name),
            &(model, ds.test),
            |b, (model, test)| b.iter(|| black_box(evaluate(model, test))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
