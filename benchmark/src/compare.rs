//! `--all`: every workload in a fresh child process, untraced then traced,
//! optionally repeated over seeds; and `--compare`: two such result files
//! judged metric by metric against the bounds in [`crate::spec`].

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Value};
use crate::report;
use crate::spec::{Better, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

/// Runs every workload `repeat` times (seeds `seed`, `seed+1`, …), each run
/// in a child process of its own so peak RSS, caches and thread pools start
/// fresh. Writes `out/all.json`; returns whether every run was correct.
pub fn run_all(seed: u64, seconds: u64, repeat: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut runs: Vec<Value> = Vec::new();
    let mut all_correct = true;
    for r in 0..repeat as u64 {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let stem = format!("{}{}", workload.name(), if traced { "-traced" } else { "" });
                let path = report::out_dir().join(format!("{stem}.json"));
                // A child that dies must not be read as its predecessor's result.
                let _ = std::fs::remove_file(&path);
                let status = Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &(seed + r).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .status()
                    .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
                all_correct &= status.success();
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                let run = file
                    .get("runs")
                    .and_then(Value::as_arr)
                    .and_then(|a| a.first());
                runs.push(
                    run.cloned()
                        .ok_or_else(|| format!("{}: no run recorded", path.display()))?,
                );
            }
        }
    }
    let rendered: Vec<String> = runs.iter().map(Value::render).collect();
    let path = report::out_dir().join("all.json");
    std::fs::write(&path, report::file_json(&report::header_json(), &rendered))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "\n== summary over {repeat} run(s) per workload, seeds {seed}..={}",
        seed + repeat as u64 - 1
    );
    for (traced, title) in [(false, "end-to-end"), (true, "per-layer")] {
        let table = metric_table(&runs, traced);
        println!("-- {title}: median [spread = IQR/median]");
        for workload in Workload::ALL {
            let names: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|(m, _)| m.name).collect()
            };
            for name in names {
                if let Some((unit, values)) =
                    table.get(&(workload.name().to_string(), name.to_string()))
                {
                    println!(
                        "  {:<12} {:<34} {:>16.6} {:<8} [{:.4}] n={}",
                        workload.name(),
                        name,
                        median(values),
                        unit,
                        spread(values),
                        values.len()
                    );
                }
            }
        }
    }
    println!("wrote {}", path.display());
    Ok(all_correct)
}

type Table = BTreeMap<(String, String), (String, Vec<f64>)>;

/// `(workload, metric) → (unit, one value per run)` over the traced or the
/// untraced runs.
fn metric_table(runs: &[Value], traced: bool) -> Table {
    let mut table = Table::new();
    for run in runs {
        if run.get("traced").and_then(Value::as_bool) != Some(traced) {
            continue;
        }
        let (Some(workload), Some(Value::Obj(metrics))) = (
            run.get("workload").and_then(Value::as_str),
            run.get("metrics"),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                table
                    .entry((workload.to_string(), name.clone()))
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(v);
            }
        }
    }
    table
}

fn load_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = file
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\""))?;
    Ok(runs.to_vec())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// change of that size cannot be told from noise.
    Unresolved,
}

/// Judges B against base A for one metric: B is regressed when its median
/// is worse than A's by more than `bound` × A's median.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > bound * ma.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints, per workload × end-to-end metric, both medians, the ratio with
/// its base, the bound and the verdict. Returns whether every row is `ok`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (
        metric_table(&load_runs(path_a)?, false),
        metric_table(&load_runs(path_b)?, false),
    );
    println!("A = {path_a} (base)\nB = {path_b}");
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:<6} {:>10} {:>9} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "unit",
        "B/A",
        "spread A",
        "spread B",
        "bound"
    );
    let mut all_ok = true;
    let mut rows = 0;
    for workload in Workload::ALL {
        for (m, bound) in END_TO_END {
            let key = (workload.name().to_string(), m.name.to_string());
            let (Some((_, va)), Some((_, vb))) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let verdict = judge(va, vb, m.better, bound);
            all_ok &= verdict == Verdict::Ok;
            rows += 1;
            println!(
                "{:<12} {:<18} {:>14.6} {:>14.6} {:<6} {:>10.4} {:>9.4} {:>9.4} {:>6.2}  {}",
                workload.name(),
                m.name,
                median(va),
                median(vb),
                m.unit,
                median(vb) / median(va),
                spread(va),
                spread(vb),
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no untraced run of any workload".to_string());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&steady, &[105.0, 106.0, 104.0, 105.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[115.0, 116.0, 114.0, 115.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Lower is an improvement for a lower-is-better metric, a regression otherwise.
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Noise wider than the bound hides any change of that size.
        assert_eq!(
            judge(&[100.0, 140.0, 70.0, 100.0], &steady, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Single runs have no spread and are compared directly.
        assert_eq!(judge(&[100.0], &[109.0], Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn runs_are_grouped_by_workload_metric_and_kind() {
        let run = |workload: &str, traced: bool, value: f64| {
            json::parse(&format!(
                "{{\"workload\": \"{workload}\", \"traced\": {traced}, \"metrics\": {{\"setup_s\": {{\"value\": {value}, \"unit\": \"s\"}}}}}}"
            ))
            .unwrap()
        };
        let runs = [
            run("train_dgnn", false, 1.0),
            run("train_dgnn", false, 2.0),
            run("train_dgnn", true, 9.0),
            run("serve_small", false, 3.0),
        ];
        let table = metric_table(&runs, false);
        assert_eq!(
            table[&("train_dgnn".to_string(), "setup_s".to_string())],
            ("s".to_string(), vec![1.0, 2.0])
        );
        assert_eq!(
            table[&("serve_small".to_string(), "setup_s".to_string())].1,
            vec![3.0]
        );
        assert_eq!(metric_table(&runs, true).len(), 1);
    }
}
