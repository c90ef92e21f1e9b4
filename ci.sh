#!/usr/bin/env bash
# CI gate: static analysis first (cheap, catches graph/source problems
# before any training step), then the full build + test suite with
# warnings denied, then the training-throughput regression gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== [1/11] source lints (dgnn-analysis lint harness) ==="
cargo run -q -p dgnn-analysis --bin lint .

echo "=== [2/11] compute-graph audit (ShapeTracer over DGNN + baselines) ==="
cargo test -q -p dgnn-analysis
cargo test -q -p dgnn-integration-tests --test ablation_shape static_analysis

echo "=== [3/11] release build (warnings denied) ==="
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace --benches

echo "=== [4/11] full test suite (serial and 4-thread kernel pool) ==="
DGNN_THREADS=1 cargo test -q --workspace
DGNN_THREADS=4 cargo test -q --workspace

echo "=== [5/11] full test suite on the forced-scalar GEMM backend ==="
# DGNN_GEMM=scalar pins every matmul to the legacy cache-blocked loops
# (the historical bit-exact numerics); stage 4 already ran the suite on
# the detected packed backend, which is what unset / `auto` selects.
DGNN_GEMM=scalar cargo test -q --workspace

echo "=== [6/11] training steps/sec regression gate (profiled) ==="
cargo run -q --release -p dgnn-bench --bin profile -- --check BENCH_profile.json

echo "=== [7/11] race sanitizer (shadow-access proof + schedule fuzzer + contract gate) ==="
# DGNN_SANITIZE=1 turns on shadow-access tracking; the suite proves every
# pooled kernel's partition disjointness, runs the malicious-kernel typed
# failures, and certifies bit-identity under fuzzed worker schedules. The
# bench gate then re-proves the full contract table at 4 threads.
DGNN_THREADS=4 DGNN_SANITIZE=1 cargo test -q -p dgnn-integration-tests --test race_sanitizer
DGNN_THREADS=4 cargo run -q --release -p dgnn-bench --bin sanitize -- --check

echo "=== [8/11] telemetry gate (percentile/prometheus properties + live scrape + flight dump) ==="
cargo test -q -p dgnn-integration-tests --test telemetry

echo "=== [9/11] serving gate (checkpoint + HTTP load + live /metrics scrape + qps and obs-overhead regression) ==="
cargo run -q --release -p dgnn-bench --bin loadgen -- --check BENCH_serve.json

echo "=== [10/11] scale gate (streaming gen + segmented store + lazy Zipf load + RSS/residency bounds) ==="
# --scale runs the million-user-architecture tier on the CI-sized preset:
# streams a sharded world to disk, opens it lazily, proves sharded scoring
# bit-identical to a dense reference at 1 and 4 threads, then drives 64
# closed-loop Zipf clients and gates on laziness (touched shards < total),
# residency and RSS ceilings, and qps against the committed baseline.
cargo run -q --release -p dgnn-bench --bin loadgen -- --scale --check BENCH_scale.json

echo "=== [11/11] benchmark harness (its own workspace: unit tests + a 2-second train_dgnn smoke) ==="
# benchmark/ compiles against the crates' public API from outside the
# workspace (Dgnn::{new,prepare,params,record_step,fit_epochs},
# Tape::{new,len,backward_into}, ParamSet, Adam, gemm::counters,
# alloc_counters), so an API break fails here instead of in the bench
# driver. It refuses to run with any DGNN_* variable set.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload train_dgnn --seed 7 --seconds 2 --trace 0 > /dev/null

echo "CI_OK"
