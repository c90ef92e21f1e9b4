//! Microbench: what one kernel-pool dispatch costs, and what it buys.
//!
//! `dispatch/empty_run_parts_2` hands an empty partition to one worker and
//! waits for it — the fixed price every split kernel pays. `dispatch/matmul`
//! times the encoder's `H·W1` GEMM at the two row counts `train_dgnn`
//! issues (500 and 3,500 rows × 16 × 128) with the pool pinned to one and
//! to two threads at the default work threshold, so the 1 → 2 ratio shows
//! whether splitting pays at that size. A buffer pool is open, as in every
//! fit, so the output is recycled rather than faulted in fresh each call.

use criterion::{criterion_group, criterion_main, Criterion};
use dgnn_tensor::{parallel, Init, PoolScope};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.bench_function("empty_run_parts_2", |b| {
        b.iter(|| {
            parallel::run_parts(2, |p| {
                black_box(p);
            })
        })
    });
    let _pool = PoolScope::open();
    let mut rng = StdRng::seed_from_u64(5);
    let w1 = Init::XavierUniform.build(16, 128, &mut rng);
    for rows in [500usize, 3_500] {
        let h = Init::Uniform(0.1).build(rows, 16, &mut rng);
        for threads in [1usize, 2] {
            parallel::set_threads(threads);
            group.bench_function(format!("matmul/{rows}x16x128/t{threads}"), |b| {
                b.iter(|| black_box(h.matmul(&w1)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
