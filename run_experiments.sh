#!/usr/bin/env bash
# Regenerates every table and figure of the paper: a static-analysis
# preflight, then one `reproduce` run (tables on stdout, raw rows in
# results/experiments.csv and results/E{1,6,10,11}*.csv).
set -eu
cd "$(dirname "$0")"

# Preflight: fail fast on graph/source problems before spending training
# compute: the static stage of ci.sh (see crates/analysis).
echo "=== preflight: static analysis ==="
cargo fmt --all --check
cargo clippy -q --workspace --all-targets -- -D warnings
cargo run -q -p dgnn-analysis --bin lint .
cargo test -q -p dgnn-analysis
cargo test -q -p dgnn-integration-tests --test ablation_shape static_analysis \
    || { echo "compute-graph audit failed; aborting experiments"; exit 1; }
cargo run --release -q -p dgnn-bench --bin reproduce
echo "ALL_EXPERIMENTS_DONE"
