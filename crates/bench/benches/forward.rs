//! Microbench: one full training step (forward + backward + Adam) for
//! DGNN, DGCF, and HGT on the tiny dataset — the per-batch version of
//! Table IV's per-epoch comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use dgnn_baselines::{BaselineConfig, Dgcf, Hgt};
use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::tiny;
use dgnn_eval::Trainable;
use std::hint::black_box;

fn bench_one_epoch(c: &mut Criterion) {
    let data = tiny(42);
    let mut group = c.benchmark_group("one_epoch_tiny");

    group.bench_function("DGNN", |b| {
        b.iter(|| {
            let mut m =
                Dgnn::new(DgnnConfig { epochs: 1, batch_size: 512, ..DgnnConfig::default() });
            m.fit(black_box(&data), 7);
            black_box(m.loss_history.clone())
        })
    });
    group.bench_function("DGCF", |b| {
        b.iter(|| {
            let mut m = Dgcf::new(BaselineConfig {
                epochs: 1,
                batch_size: 512,
                ..BaselineConfig::default()
            });
            m.fit(black_box(&data), 7);
            black_box(m.loss_history.clone())
        })
    });
    group.bench_function("HGT", |b| {
        b.iter(|| {
            let mut m = Hgt::new(BaselineConfig {
                epochs: 1,
                batch_size: 512,
                ..BaselineConfig::default()
            });
            m.fit(black_box(&data), 7);
            black_box(m.loss_history.clone())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_one_epoch);
criterion_main!(benches);
