//! The workspace's single percentile definition.
//!
//! One definition of "what is p99?" for the workspace: **nearest-rank
//! over a zero-based sorted array**, `index = round(q · (n − 1))`. It is
//! exact (returns an observed value, never an interpolation), the
//! [`crate::StreamHist`] quantile estimator ranks by it, and both are
//! proptested against a sorted-vector oracle in
//! `tests/tests/telemetry.rs`.

/// Zero-based nearest-rank index of quantile `q` in `n` sorted samples:
/// `round(q·(n−1))`, clamped into `[0, n−1]`. `n = 0` returns 0 (callers
/// must handle the empty case themselves; every helper here returns 0.0).
pub fn rank(q: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let idx = (q.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize;
    idx.min(n - 1)
}

/// Nearest-rank percentile of an **already sorted** (ascending) slice.
/// Returns 0.0 when empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(q, sorted.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_matches_the_legacy_stats_definition() {
        // The old stats.rs computed round(q*(n-1)): for n=6, p50 -> idx 3.
        assert_eq!(rank(0.50, 6), 3);
        assert_eq!(rank(0.99, 6), 5);
        assert_eq!(rank(0.0, 6), 0);
        assert_eq!(rank(1.0, 6), 5);
        assert_eq!(rank(0.5, 1), 0);
        assert_eq!(rank(0.5, 0), 0);
        // Out-of-range q clamps instead of indexing out of bounds.
        assert_eq!(rank(2.0, 4), 3);
        assert_eq!(rank(-1.0, 4), 0);
    }

    #[test]
    fn percentiles_pick_observed_values() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile_sorted(&v, 0.5), 3.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }
}
