//! The fixed part of the ruler: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this file rendered by [`manifest`]; a unit test keeps the two
//! identical.

use crate::json;

/// How long one run measures (`--seconds` default and `run_seconds`).
pub const RUN_SECONDS: u64 = 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainDgnn,
    TrainDgcf,
    TrainHgt,
    ServeSmall,
    ServeScale,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TrainDgnn,
        Workload::TrainDgcf,
        Workload::TrainHgt,
        Workload::ServeSmall,
        Workload::ServeScale,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDgnn => "train_dgnn",
            Workload::TrainDgcf => "train_dgcf",
            Workload::TrainHgt => "train_hgt",
            Workload::ServeSmall => "serve_small",
            Workload::ServeScale => "serve_scale",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also `BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrainDgnn => {
                "the paper's model at the paper's config: thousands of tiny GEMMs plus per-memory-unit tape ops in core::model"
            }
            Workload::TrainDgcf => {
                "issues zero GEMM calls and no dgnn-core code: the bypass for every GEMM or encoder change, moved only by tape, pool or allocator changes"
            }
            Workload::TrainHgt => {
                "mixed GEMM, slice_cols and segment/gather profile, and the third column of the paper's Table IV"
            }
            Workload::ServeSmall => {
                "dense store with a tiny catalog: HTTP accept, parse, hand-off and the batcher window are almost all of the latency, the engine little"
            }
            Workload::ServeScale => {
                "lazy sharded store at 2^17 users x 2^14 items x d=64: engine-heavy, the only user of shard loading and the other Backend arm"
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. The timing bounds sit at the contract's ceiling because the
/// 2-core reference box does: within a quiet spell the spread over 10 seeds
/// (IQR/median) is 1–6%, but whole sets of 10 runs of the same commit, taken
/// half an hour apart, differed by up to 12% (`train_hgt` epoch median) and
/// 17% (its tail) with the neighbours' load. `--compare` prints the spreads,
/// so a quiet pair of sets can still be read more finely than the bound.
/// Every workload reports every metric; the unit of work behind
/// `latency_*` and `throughput_per_s` is one epoch (and one training
/// triple) on `train_*`, one request on `serve_*` — see the README.
pub const END_TO_END: [(MetricSpec, f64); 6] = [
    (lower("setup_s", "s"), 0.25),
    (lower("startup_ms_p50", "ms"), 0.25),
    (lower("latency_ms_p50", "ms"), 0.25),
    (lower("latency_ms_tail", "ms"), 0.25),
    (higher("throughput_per_s", "1/s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.15),
];

/// Per-layer metrics of the traced run (layer = crate/module). A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricSpec; 52] = [
    higher("machine.fma_gflops", "GFLOP/s"),
    higher("machine.copy_gbps", "GB/s"),
    lower("data.gen_ms", "ms"),
    lower("data.sampler.batch_us_p50", "us"),
    lower("core.prepare_ms", "ms"),
    lower("core.forward_ms_p50", "ms"),
    lower("core.epoch_overhead_ms", "ms"),
    lower("autograd.backward_ms_p50", "ms"),
    lower("autograd.optimizer_ms_p50", "ms"),
    lower("autograd.step_ms_p50", "ms"),
    lower("autograd.tape_nodes_per_step", "count"),
    higher("tensor.gemm.enc_gflops", "GFLOP/s"),
    higher("tensor.gemm.enc_tn_gflops", "GFLOP/s"),
    higher("tensor.gemm.enc_nt_gflops", "GFLOP/s"),
    higher("tensor.gemm.peak_share", "ratio"),
    higher("tensor.gemm.score_b1_gflops", "GFLOP/s"),
    higher("tensor.gemm.score_b32_gflops", "GFLOP/s"),
    lower("tensor.gemm.calls_per_epoch", "count"),
    lower("tensor.gemm.macs_per_epoch", "count"),
    lower("tensor.gemm.calls_per_step", "count"),
    higher("tensor.spmm.gbps", "GB/s"),
    higher("tensor.spmm.peak_share", "ratio"),
    higher("tensor.gather.gbps", "GB/s"),
    higher("tensor.scatter_add.gbps", "GB/s"),
    higher("tensor.elementwise.gbps", "GB/s"),
    lower("tensor.topk.us_p50", "us"),
    lower("tensor.alloc.fresh_per_epoch", "count"),
    higher("tensor.pool.threads", "count"),
    higher("tensor.pool.speedup", "ratio"),
    lower("train.epoch_ms_p50", "ms"),
    lower("eval.evaluate_ms", "ms"),
    higher("eval.hr_at_10", "ratio"),
    higher("eval.ndcg_at_10", "ratio"),
    lower("serve.checkpoint.save_ms", "ms"),
    lower("serve.checkpoint.load_ms", "ms"),
    lower("serve.checkpoint.bytes", "count"),
    higher("serve.segment.write_mbps", "MB/s"),
    lower("serve.segment.open_ms", "ms"),
    lower("serve.shard.first_touch_ms_p50", "ms"),
    lower("serve.shard.user_resident_share", "ratio"),
    lower("serve.engine.batch1_ms_p50", "ms"),
    lower("serve.engine.batch32_ms_p50", "ms"),
    higher("serve.engine.kernel_share", "ratio"),
    lower("serve.http.health_rtt_ms_p50", "ms"),
    lower("serve.http.recommend_rtt_ms_p50", "ms"),
    lower("serve.http.batch_wait_ms_p50", "ms"),
    higher("loadgen.replayed", "count"),
    higher("loadgen.ok", "count"),
    lower("loadgen.failed", "count"),
    higher("loadgen.verified", "count"),
    higher("trace.spans", "count"),
    lower("trace.overhead_share", "ratio"),
];

/// `BENCHMARK.json` as the contract wants it.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name()),
                json::quote(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                json::number(*bound)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `-- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let v = json::parse(&manifest()).unwrap();
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
            .iter()
            .flat_map(|k| names(k))
            .collect();
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "a name is used once"
        );
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        for m in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
        assert!(manifest().len() < 64 * 1024);
    }
}
