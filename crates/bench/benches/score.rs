//! Microbench: the serving scorer (Eq. 9–10 as one gathered user×item
//! product) at the two served catalog shapes — `16,384 × 64` in 4 shards
//! of 4,096 (`serve_scale`) and `3,500 × 48` in one (`serve_small`'s
//! order of size) — for batches of 1, 4 and 32 users.
//!
//! `per_call_pack` is `Matrix::gather_matmul_nt` per shard, which packs the
//! shard's panels inside every call; `resident` is what the engine runs,
//! `Matrix::gather_matmul_panels` against panels packed once. The gap is
//! the transposing copy; `resident/b1` against `resident/b4` shows the
//! row-vector kernel against the tile.

use criterion::{criterion_group, criterion_main, Criterion};
use dgnn_tensor::gemm::PackedPanels;
use dgnn_tensor::{Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const USERS: usize = 1_024;

fn bench_score(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    for (items, dim, shard_rows) in [(16_384usize, 64usize, 4_096usize), (3_500, 48, 3_500)] {
        let users = Init::Uniform(0.1).build(USERS, dim, &mut rng);
        let shards: Vec<Matrix> = (0..items / shard_rows)
            .map(|_| Init::Uniform(0.1).build(shard_rows, dim, &mut rng))
            .collect();
        let packed: Vec<PackedPanels> = shards.iter().map(PackedPanels::pack).collect();
        let panels: Vec<&PackedPanels> = packed.iter().collect();
        let mut group = c.benchmark_group(format!("score/{items}x{dim}"));
        for batch in [1usize, 4, 32] {
            let idx: Vec<usize> = (0..batch).map(|i| (i * 37 + 5) % USERS).collect();
            group.bench_function(format!("per_call_pack/b{batch}"), |b| {
                b.iter(|| {
                    for shard in &shards {
                        black_box(users.gather_matmul_nt(&idx, shard));
                    }
                })
            });
            group.bench_function(format!("resident/b{batch}"), |b| {
                b.iter(|| black_box(users.gather_matmul_panels(&idx, &panels)))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_score);
criterion_main!(benches);
