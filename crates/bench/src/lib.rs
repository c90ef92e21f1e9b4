//! Experiment harness: shared plumbing for the binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §3 for the
//! experiment index).
//!
//! Each experiment binary prints a human-readable table to stdout *and*
//! writes a machine-readable CSV into `results/` so figures can be plotted
//! from the raw series. Two tool binaries sit beside them: `profile`
//! (per-op training profile plus two same-run ratio gates) and `sanitize`
//! (the race-sanitizer contract proof). Speed is measured by the
//! `benchmark/` ruler, not here.

#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use dgnn_baselines::{all_models, BaselineConfig};
use dgnn_core::DgnnConfig;
use dgnn_data::{ciao_small, epinions_small, yelp_small, Dataset};
use dgnn_eval::{evaluate, RankingMetrics, Trainable};

/// Master seed for all experiments (data generation and training).
pub const SEED: u64 = 2023;

/// Training epochs used across the experiment grid. Chosen so the full
/// Table II grid (15 models × 3 datasets) runs in minutes; every model
/// gets the identical budget.
pub const GRID_EPOCHS: usize = 20;

/// The three scaled datasets, generated fresh (deterministically) per run.
pub fn datasets() -> Vec<Dataset> {
    vec![ciao_small(SEED), epinions_small(SEED), yelp_small(SEED)]
}

/// DGNN configuration used across the experiment grid (the paper's tuned
/// values; Section V-A4).
pub fn dgnn_config() -> DgnnConfig {
    DgnnConfig { epochs: GRID_EPOCHS, ..DgnnConfig::default() }
}

/// Baseline configuration matched to [`dgnn_config`]'s budget.
pub fn baseline_config() -> BaselineConfig {
    BaselineConfig { epochs: GRID_EPOCHS, ..BaselineConfig::default() }
}

/// The full model roster of Table II: the 14 baselines plus DGNN, in the
/// paper's column order.
pub fn roster() -> Vec<Box<dyn Trainable>> {
    let mut models = all_models(&baseline_config());
    models.push(Box::new(dgnn_core::Dgnn::new(dgnn_config())));
    models
}

/// Result of one (model, dataset) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Metrics at N = 5, 10, 20 (aligned with [`dgnn_eval::TOP_NS`]).
    pub metrics: [RankingMetrics; 3],
    /// Wall-clock training time.
    pub train_time: Duration,
    /// Wall-clock evaluation time.
    pub eval_time: Duration,
}

/// Trains `model` on `data` and evaluates at all cutoffs.
///
/// Timing runs through `dgnn_obs::timed`, so the wall-clock numbers in
/// `CellResult` and — when observability is enabled — the `train`/`eval`
/// spans of an exported trace are the same measurement.
pub fn run_cell(model: &mut dyn Trainable, data: &Dataset, seed: u64) -> CellResult {
    let ((), train_ns) = dgnn_obs::timed("train", || model.fit(data, seed));
    let (metrics, eval_ns) = dgnn_obs::timed("eval", || evaluate(model, &data.test));
    CellResult {
        model: model.name().to_string(),
        dataset: data.name.clone(),
        metrics,
        train_time: Duration::from_nanos(train_ns),
        eval_time: Duration::from_nanos(eval_ns),
    }
}

/// Index into [`CellResult::metrics`] for a cutoff in {5, 10, 20}.
pub fn cutoff_index(n: usize) -> usize {
    dgnn_eval::TOP_NS
        .iter()
        .position(|&x| x == n)
        // PANICS: the cutoff set is a compile-time constant; any other
        // value is a caller bug worth failing loudly on.
        .unwrap_or_else(|| panic!("unsupported cutoff {n}; use 5, 10, or 20"))
}

/// Writes raw rows to `results/<name>.csv` (creating the directory).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write csv row");
    }
    path
}

/// Renders one metrics table (rows = models, columns = datasets) in the
/// layout of the paper's Table II.
pub fn print_metric_table(title: &str, results: &[CellResult], n: usize) {
    let idx = cutoff_index(n);
    let mut datasets: Vec<String> = Vec::new();
    let mut models: Vec<String> = Vec::new();
    for r in results {
        if !datasets.contains(&r.dataset) {
            datasets.push(r.dataset.clone());
        }
        if !models.contains(&r.model) {
            models.push(r.model.clone());
        }
    }
    println!("\n=== {title} (N = {n}) ===");
    print!("{:<10}", "Model");
    for d in &datasets {
        print!("  {d:>11}-HR  {d:>9}-NDCG");
    }
    println!();
    for m in &models {
        print!("{m:<10}");
        for d in &datasets {
            let cell = results
                .iter()
                .find(|r| &r.model == m && &r.dataset == d)
                // PANICS: the grid is fully populated by construction; a
                // hole means the harness itself is broken.
                .unwrap_or_else(|| panic!("missing cell {m}/{d}"));
            print!(
                "  {:>14.4}  {:>14.4}",
                cell.metrics[idx].hr, cell.metrics[idx].ndcg
            );
        }
        println!();
    }
}

/// Percentage improvement of `ours` over `other` (the paper's "Imp" rows).
pub fn improvement_pct(ours: f64, other: f64) -> f64 {
    if other <= 0.0 {
        0.0
    } else {
        (ours - other) / other * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_fifteen_models_ending_with_dgnn() {
        let r = roster();
        assert_eq!(r.len(), 15);
        assert_eq!(r.last().expect("non-empty").name(), "DGNN");
    }

    #[test]
    fn cutoff_indices() {
        assert_eq!(cutoff_index(5), 0);
        assert_eq!(cutoff_index(10), 1);
        assert_eq!(cutoff_index(20), 2);
    }

    #[test]
    #[should_panic(expected = "unsupported cutoff")]
    fn bad_cutoff_panics() {
        cutoff_index(7);
    }

    #[test]
    fn improvement_math() {
        assert!((improvement_pct(0.55, 0.50) - 10.0).abs() < 1e-9);
        assert_eq!(improvement_pct(0.5, 0.0), 0.0);
    }
}
