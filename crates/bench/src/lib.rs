//! Experiment harness: the table of every experiment in the paper's
//! evaluation ([`experiments`]), run by the `reproduce` binary, and the
//! shared configuration it trains with (see DESIGN.md §3 for the
//! experiment index).
//!
//! One tool binary sits beside `reproduce`: `profile` (per-op training
//! profile plus two same-run ratio gates). Speed is measured by the
//! `benchmark/` ruler, not here.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod experiments;

use std::time::Duration;

use dgnn_baselines::{all_models, BaselineConfig};
use dgnn_core::DgnnConfig;
use dgnn_data::{ciao_small, epinions_small, yelp_small, Dataset};
use dgnn_eval::{evaluate, RankingMetrics, Trainable};

/// Training epochs used across the experiment grid. Chosen so the full
/// Table II grid (15 models × 3 datasets) runs in minutes; every model
/// gets the identical budget.
const GRID_EPOCHS: usize = 20;

/// The three scaled datasets, generated (deterministically) from `seed`.
pub fn datasets(seed: u64) -> Vec<Dataset> {
    vec![ciao_small(seed), epinions_small(seed), yelp_small(seed)]
}

/// DGNN configuration used across the experiment grid (the paper's tuned
/// values; Section V-A4).
pub(crate) fn dgnn_config() -> DgnnConfig {
    DgnnConfig { epochs: GRID_EPOCHS, ..DgnnConfig::default() }
}

/// Baseline configuration matched to [`dgnn_config`]'s budget.
pub(crate) fn baseline_config() -> BaselineConfig {
    BaselineConfig { epochs: GRID_EPOCHS, ..BaselineConfig::default() }
}

/// The full model roster of Table II: the 14 baselines plus DGNN, in the
/// paper's column order.
pub(crate) fn roster() -> Vec<Box<dyn Trainable>> {
    let mut models = all_models(&baseline_config());
    models.push(Box::new(dgnn_core::Dgnn::new(dgnn_config())));
    models
}

/// Result of training and evaluating one model on one dataset.
#[derive(Debug, Clone)]
pub struct CellResult {
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
        metrics,
        train_time: Duration::from_nanos(train_ns),
        eval_time: Duration::from_nanos(eval_ns),
    }
}

/// Index into [`CellResult::metrics`] for a cutoff in {5, 10, 20}.
#[expect(
    clippy::panic,
    reason = "the cutoff set is a compile-time constant; any other value is a caller bug"
)]
pub(crate) fn cutoff_index(n: usize) -> usize {
    dgnn_eval::TOP_NS
        .iter()
        .position(|&x| x == n)
        .unwrap_or_else(|| panic!("unsupported cutoff {n}; use 5, 10, or 20"))
}

/// Percentage improvement of `ours` over `other` (the paper's "Imp" rows).
pub(crate) fn improvement_pct(ours: f64, other: f64) -> f64 {
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
