#!/usr/bin/env bash
# CI gate: static analysis first (cheap, catches graph/source problems
# before any training step), then the full build + test suite with
# warnings denied, a smoke run of the experiment runner, then same-run
# ratio gates and the race sanitizer.
# Absolute speed is the benchmark/ ruler's job, not a CI gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== [1/10] source lints (dgnn-analysis lint harness) ==="
cargo run -q -p dgnn-analysis --bin lint .

echo "=== [2/10] compute-graph audit (ShapeTracer over DGNN + baselines) ==="
cargo test -q -p dgnn-analysis
cargo test -q -p dgnn-integration-tests --test ablation_shape static_analysis

echo "=== [3/10] release build (warnings denied) ==="
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace --benches

echo "=== [4/10] experiment runner smoke (Table I and the relation ablation) ==="
# The only table generator must not rot unbuilt: E1 (a custom experiment)
# and E5 (through the cell loop) take about 6 s.
cargo run -q --release -p dgnn-bench --bin reproduce -- E1 E5 > /dev/null

echo "=== [5/10] full test suite (default kernel pool and GEMM backend) ==="
cargo test -q --workspace

echo "=== [6/10] thread- and backend-pinned suites (serial, 4-thread pool, forced-scalar GEMM) ==="
# The suites that pin thread counts or GEMM backends run again under each
# setting: dgnn-tensor's own tests plus the integration suites gemm,
# parallel_kernels, race_sanitizer, sharded_store, serve_roundtrip and
# topk_kernel. Stage 5 ran everything once on the defaults.
# DGNN_GEMM=scalar pins every matmul to the legacy cache-blocked loops
# (the historical bit-exact numerics).
PINNED_SUITES=(gemm parallel_kernels race_sanitizer sharded_store serve_roundtrip topk_kernel)
for knob in DGNN_THREADS=1 DGNN_THREADS=4 DGNN_GEMM=scalar; do
    echo "--- $knob"
    env "$knob" cargo test -q -p dgnn-tensor
    env "$knob" cargo test -q -p dgnn-integration-tests "${PINNED_SUITES[@]/#/--test=}"
done

echo "=== [7/10] kernel-pool and packed-GEMM same-run ratio gates (profiled) ==="
cargo run -q --release -p dgnn-bench --bin profile -- --check

echo "=== [8/10] race sanitizer (shadow-access proof + schedule fuzzer + contract gate) ==="
# DGNN_SANITIZE=1 turns on shadow-access tracking; the suite proves every
# pooled kernel's partition disjointness, runs the malicious-kernel typed
# failures, and certifies bit-identity under fuzzed worker schedules. The
# bench gate then re-proves the full contract table at 4 threads.
DGNN_THREADS=4 DGNN_SANITIZE=1 cargo test -q -p dgnn-integration-tests --test race_sanitizer
DGNN_THREADS=4 cargo run -q --release -p dgnn-bench --bin sanitize -- --check

echo "=== [9/10] telemetry gate (percentile/prometheus properties + live scrape + flight dump) ==="
cargo test -q -p dgnn-integration-tests --test telemetry

echo "=== [10/10] benchmark harness (its own workspace: unit tests + 2-second train_dgnn/dgcf/hgt smokes) ==="
# benchmark/ compiles against the crates' public API from outside the
# workspace (Dgnn::{new,prepare,params,record_step,fit_epochs},
# Dgcf::fit_epochs, Hgt::fit_epochs, training::TrainLoop::default().grad_clip,
# Tape::{new,len,backward_into}, ParamSet, Adam, gemm::counters,
# alloc_counters), so an API break fails here instead of in the bench
# driver. It refuses to run with any DGNN_* variable set.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in train_dgnn train_dgcf train_hgt; do
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 2 --trace 0 > /dev/null
done

echo "CI_OK"
