//! What a run produces and how it is printed and stored.

use std::path::PathBuf;

use crate::json;
use crate::spec::{MetricSpec, Workload, END_TO_END, PER_LAYER};
use crate::sysinfo;

/// `benchmark/out/`: result files, traces and the serve workloads' scratch
/// checkpoints. Resolved from the package directory so the harness writes
/// inside its checkout whatever the working directory is.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("creating benchmark/out");
    dir
}

/// Named values measured by one run, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(String, &'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push((name.to_string(), unit, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &'static str, f64)> {
        self.0.iter().map(|(n, u, v)| (n.as_str(), *u, *v))
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Operations attempted and failed (train: epochs, with a non-finite
    /// loss failing; serve: requests, failing on a non-200, a transport
    /// error or an answer that differs from the direct engine's).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks beyond per-operation failures, each `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// The contract metrics: every end-to-end metric of an untraced run,
    /// every per-layer metric of a traced one.
    pub metrics: Values,
    /// Everything else worth reading: sample counts per phase, quality,
    /// load-generator validity, shapes.
    pub extra: Values,
}

impl RunResult {
    pub fn new(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            traced,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Values::default(),
            extra: Values::default(),
        }
    }

    /// Records contract metric `name` (unit from the spec; a name the spec
    /// does not list for this kind of run is a bug in the harness).
    pub fn metric(&mut self, name: &str, value: f64) {
        let spec = self.contract_specs().into_iter().find(|m| m.name == name);
        let spec = spec.unwrap_or_else(|| panic!("{name} is not a metric of this kind of run"));
        self.metrics.set(name, spec.unit, value);
    }

    pub fn check(&mut self, what: &str, passed: bool) {
        self.checks.push((what.to_string(), passed));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn contract_specs(&self) -> Vec<MetricSpec> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|(m, _)| *m).collect()
        }
    }

    /// `{"name": {"value": v, "unit": u}, …}` over exactly the contract's
    /// metric names for this kind of run. A per-layer metric the workload
    /// does not exercise reads 0; an end-to-end metric is never missing.
    fn contract_metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .contract_specs()
            .iter()
            .map(|m| {
                let value = match self.metrics.get(m.name) {
                    Some(v) => v,
                    None if self.traced => 0.0,
                    None => panic!(
                        "{}: end-to-end metric {} was not measured",
                        self.workload.name(),
                        m.name
                    ),
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The contract's last line of standard output.
    pub fn last_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.contract_metrics_json()
        )
    }

    /// The run as one JSON object for `out/*.json`.
    pub fn to_json(&self) -> String {
        let extra: Vec<String> = self
            .extra
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(n),
                    json::number(v),
                    json::quote(u)
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(what, ok)| format!("{}: {ok}", json::quote(what)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"error_share\": {}, \"checks\": {{{}}}, \"metrics\": {}, \"extra\": {{{}}}}}",
            json::quote(self.workload.name()),
            self.seed,
            self.seconds,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            json::number(self.failed as f64 / self.attempted.max(1) as f64),
            checks.join(", "),
            self.contract_metrics_json(),
            extra.join(", ")
        )
    }

    /// Every metric by name and unit, for people.
    pub fn print(&self) {
        let kind = if self.traced {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        };
        println!(
            "== {} ({kind}) seed {} seconds {}",
            self.workload.name(),
            self.seed,
            self.seconds
        );
        for m in self.contract_specs() {
            let value = self.metrics.get(m.name).unwrap_or(0.0);
            println!(
                "  {:<36} {:>16.6} {:<8} ({} is better)",
                m.name,
                value,
                m.unit,
                m.better.as_str()
            );
        }
        for (name, unit, value) in self.extra.iter() {
            println!("  {name:<36} {value:>16.6} {unit:<8} (info)");
        }
        for (what, ok) in &self.checks {
            println!("  check {what}: {}", if *ok { "ok" } else { "FAILED" });
        }
        println!(
            "  attempted {} failed {} error_share {} correct {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct()
        );
    }

    pub fn file_stem(&self) -> String {
        format!(
            "{}{}",
            self.workload.name(),
            if self.traced { "-traced" } else { "" }
        )
    }
}

/// Where and how the numbers were taken, as a JSON object.
pub fn header_json() -> String {
    let pool = dgnn_tensor::parallel::current_threads();
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"gemm_backend\": {}, \"pool_threads\": {pool}, \"malloc\": {}, \"rustc\": {}, \"git_commit\": {}}}",
        sysinfo::nproc(),
        json::quote(&sysinfo::cpu_model()),
        json::quote(dgnn_tensor::gemm::backend().name()),
        json::quote(sysinfo::MALLOC_POLICY),
        json::quote(&sysinfo::rustc_version()),
        json::quote(&sysinfo::git_commit()),
    )
}

/// `{"header": …, "runs": […]}`: the shape of every file under `out/`.
pub fn file_json(header: &str, runs: &[String]) -> String {
    format!(
        "{{\"header\": {header},\n \"runs\": [\n  {}\n ]}}\n",
        runs.join(",\n  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn untraced() -> RunResult {
        let mut r = RunResult::new(Workload::ServeSmall, 1, 10, false);
        for (i, (m, _)) in END_TO_END.iter().enumerate() {
            r.metric(m.name, 1.5 + i as f64);
        }
        r.attempted = 100;
        r
    }

    #[test]
    fn last_line_has_exactly_the_contract_keys() {
        let r = untraced();
        let v = json::parse(&r.last_line()).unwrap();
        let json::Value::Obj(top) = &v else {
            panic!("not an object")
        };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
        let json::Value::Obj(metrics) = v.get("metrics").unwrap() else {
            panic!("metrics")
        };
        let mut want: Vec<&str> = END_TO_END.iter().map(|(m, _)| m.name).collect();
        want.sort_unstable();
        assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want);
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(json::Value::as_str),
            Some("s")
        );
        assert_eq!(
            metrics["setup_s"]
                .get("value")
                .and_then(json::Value::as_f64),
            Some(1.5)
        );
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_run_incorrect() {
        let mut r = untraced();
        r.failed = 1;
        assert!(!r.correct());
        assert!(r.to_json().contains("\"error_share\": 0.01"));
        r.failed = 0;
        r.check("hr_at_10 above floor", false);
        assert!(!r.correct());
        assert!(r.last_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric_with_zero_for_unexercised_layers() {
        let mut r = RunResult::new(Workload::TrainDgcf, 1, 10, true);
        r.attempted = 1;
        r.metric("machine.fma_gflops", 50.0);
        let v = json::parse(&r.last_line()).unwrap();
        let json::Value::Obj(metrics) = v.get("metrics").unwrap() else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(
            metrics["machine.fma_gflops"]
                .get("value")
                .and_then(json::Value::as_f64),
            Some(50.0)
        );
        assert_eq!(
            metrics["serve.http.batch_wait_ms_p50"]
                .get("value")
                .and_then(json::Value::as_f64),
            Some(0.0)
        );
        json::parse(&file_json("{}", &[r.to_json()])).unwrap();
    }
}
