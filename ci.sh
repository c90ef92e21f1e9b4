#!/usr/bin/env bash
# CI gate: the static stage first (formatting, clippy with the workspace's
# source rules, the metric-name lint, the compute-graph audit; no training
# step), then the release build of every target (tests and benches
# included) with warnings denied, a smoke run of the experiment runner, the
# full test suite, then same-run ratio gates. Absolute speed is the
# benchmark/ ruler's job, not a CI gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== [1/7] static: rustfmt, clippy (source rules denied), metric-name lint, graph audit ==="
cargo fmt --all --check
cargo clippy -q --workspace --all-targets -- -D warnings
cargo run -q -p dgnn-analysis --bin lint .
# Stage 4 runs these two suites again. Here, on a 2-core host, they fail a
# broken model graph about 45 s sooner than stage 4 would, for under a
# second on a warm tree.
cargo test -q -p dgnn-analysis
cargo test -q -p dgnn-integration-tests --test ablation_shape static_analysis

echo "=== [2/7] release build of every target (warnings denied) ==="
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace --all-targets

echo "=== [3/7] experiment runner smoke (Table I and the relation ablation) ==="
# The only table generator must not rot unbuilt: E1 (a custom experiment)
# and E5 (through the cell loop) take about 6 s.
cargo run -q --release -p dgnn-bench --bin reproduce -- E1 E5 > /dev/null

echo "=== [4/7] full test suite (default kernel pool and GEMM backend) ==="
cargo test -q --workspace

echo "=== [5/7] thread- and backend-pinned suites (serial, 4-thread pool, forced-scalar GEMM) ==="
# The suites that pin thread counts or GEMM backends run again under each
# setting: dgnn-tensor's own tests plus the integration suites gemm,
# parallel_kernels (with the schedule fuzzer), sharded_store,
# serve_roundtrip and topk_kernel. Stage 4 ran everything once on the
# defaults.
# DGNN_GEMM=scalar pins every matmul to the legacy cache-blocked loops
# (the historical bit-exact numerics).
PINNED_SUITES=(gemm parallel_kernels sharded_store serve_roundtrip topk_kernel)
for knob in DGNN_THREADS=1 DGNN_THREADS=4 DGNN_GEMM=scalar; do
    echo "--- $knob"
    env "$knob" cargo test -q -p dgnn-tensor
    env "$knob" cargo test -q -p dgnn-integration-tests "${PINNED_SUITES[@]/#/--test=}"
done

echo "=== [6/7] kernel-pool and packed-GEMM same-run ratio gates (profiled) ==="
cargo run -q --release -p dgnn-bench --bin profile -- --check

echo "=== [7/7] benchmark harness (its own workspace: unit tests + 2-second train_dgnn/dgcf/hgt smokes) ==="
# benchmark/ compiles against the crates' public API from outside the
# workspace (Dgnn::{new,prepare,params,record_step,fit_epochs,save_checkpoint},
# Dgcf::fit_epochs, Hgt::fit_epochs, training::TrainLoop::default().grad_clip,
# Tape::{new,len,backward_into}, ParamSet, Adam, gemm::counters,
# alloc_counters, Csr::spmm, Checkpoint::{load,matrix} and the `final/user`
# and `final/item` tensors it reads, Engine::{load,open_segmented},
# SegmentedCheckpoint, SegmentedWriter, Server::start, ServeConfig), so an
# API break fails here instead of when the benchmark runs. It refuses to
# run with any DGNN_* variable set.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in train_dgnn train_dgcf train_hgt; do
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 2 --trace 0 > /dev/null
done

echo "CI_OK"
