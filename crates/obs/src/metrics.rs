//! Metrics registry: named counters, gauges, and min/max/sum histograms.
//!
//! Lookups take `&str` and only allocate a key on the *first* record of a
//! name, so steady-state training loops run allocation-free. All state is
//! thread-local, matching the single-threaded training executor; the
//! `Snapshot` type is plain owned data and crosses threads freely.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::ops::OpStat;

thread_local! {
    static COUNTERS: RefCell<BTreeMap<String, u64>> = const { RefCell::new(BTreeMap::new()) };
    static GAUGES: RefCell<BTreeMap<String, f64>> = const { RefCell::new(BTreeMap::new()) };
    static HISTS: RefCell<BTreeMap<String, HistStat>> = const { RefCell::new(BTreeMap::new()) };
}

/// Aggregate of every value recorded into one histogram.
///
/// Count/sum/min/max is enough for the repo's questions (mean loss per
/// epoch, gradient-norm spread); full quantile sketches can slot in later
/// behind the same name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStat {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
}

impl HistStat {
    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn new(v: f64) -> Self {
        Self { count: 1, sum: v, min: v, max: v }
    }

}

/// Point-in-time copy of the whole registry (metrics + per-op profiles).
///
/// Produced by [`crate::snapshot`]; serialized by
/// [`crate::export::snapshot_to_json`] — the serialization code path
/// behind the `profile` binary's `results/profile.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, HistStat>,
    /// Per-op-kind forward/backward profiles.
    pub ops: BTreeMap<String, OpStat>,
}

/// Adds `delta` to the named counter (no-op while disabled).
pub fn counter_add(name: &str, delta: u64) {
    if !crate::is_enabled() {
        return;
    }
    COUNTERS.with(|m| {
        let mut m = m.borrow_mut();
        match m.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                m.insert(name.to_string(), delta);
            }
        }
    });
}

/// Sets the named gauge to `value` (no-op while disabled).
pub fn gauge_set(name: &str, value: f64) {
    if !crate::is_enabled() {
        return;
    }
    GAUGES.with(|m| {
        let mut m = m.borrow_mut();
        match m.get_mut(name) {
            Some(v) => *v = value,
            None => {
                m.insert(name.to_string(), value);
            }
        }
    });
}

/// Records `value` into the named histogram (no-op while disabled).
pub fn hist_record(name: &str, value: f64) {
    if !crate::is_enabled() {
        return;
    }
    HISTS.with(|m| {
        let mut m = m.borrow_mut();
        match m.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                m.insert(name.to_string(), HistStat::new(value));
            }
        }
    });
}

pub(crate) fn snapshot_metrics() -> Snapshot {
    Snapshot {
        counters: COUNTERS.with(|m| m.borrow().clone()),
        gauges: GAUGES.with(|m| m.borrow().clone()),
        histograms: HISTS.with(|m| m.borrow().clone()),
        ops: BTreeMap::new(),
    }
}

pub(crate) fn clear() {
    COUNTERS.with(|m| m.borrow_mut().clear());
    GAUGES.with(|m| m.borrow_mut().clear());
    HISTS.with(|m| m.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_stat_tracks_extremes_and_mean() {
        let mut h = HistStat::new(2.0);
        h.record(-1.0);
        h.record(5.0);
        assert_eq!(h.count, 3);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 5.0);
        assert!((h.sum / h.count as f64 - 2.0).abs() < 1e-12);
    }
}
