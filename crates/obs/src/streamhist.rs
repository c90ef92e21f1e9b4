//! Bounded log2-bucketed streaming histogram with quantile estimation.
//!
//! [`StreamHist`] replaces "buffer every raw sample" collectors on paths
//! that must run for days: its footprint is one fixed array of bucket
//! counts (plus exact count/sum/min/max), so memory is constant no matter
//! how many values are recorded. The process-shared registry
//! ([`crate::shared`]) keeps the same layout in atomics and hands out
//! plain `StreamHist` copies for quantile math and exposition.
//!
//! # Bucket layout
//!
//! Buckets are geometric: each power-of-two octave `[2^e, 2^{e+1})` over
//! `e ∈ [E_MIN, E_MAX]` splits into [`SUB`] equal-width sub-buckets, so a
//! bucket's bounds are `2^e·(1+s/SUB)` to `2^e·(1+(s+1)/SUB)`. The bucket
//! of a value falls out of its IEEE-754 bit pattern (exponent field +
//! top mantissa bits) — no `log2` call, no search, no allocation on the
//! record path. The widest bucket ratio is `(SUB+1)/SUB = 9/8`, so a
//! quantile estimated as the geometric midpoint of its bucket carries at
//! most ~6% relative error (bounded by the bucket width; proptested
//! against a sorted-vector oracle in `tests/tests/telemetry.rs`).
//!
//! Values below `2^E_MIN` (including zero, negatives, and non-finite
//! values, which have no honest geometric bucket) clamp into the first
//! bucket; values at or above `2^{E_MAX+1}` clamp into the last. The
//! exact min/max tracked alongside keep the clamped tails honest: quantile
//! estimates are clamped into `[min, max]`.

use crate::metrics::HistStat;
use crate::percentile::rank;

/// Sub-buckets per power-of-two octave.
pub const SUB: usize = 8;
const SUB_BITS: u32 = 3;
/// Smallest bucketed exponent: values below `2^E_MIN` clamp into bucket 0.
pub const E_MIN: i32 = -32;
/// Largest bucketed exponent: values `≥ 2^(E_MAX+1)` clamp into the last
/// bucket.
pub const E_MAX: i32 = 31;
/// Total bucket count: `(E_MAX - E_MIN + 1) * SUB`.
pub const BUCKETS: usize = ((E_MAX - E_MIN + 1) as usize) * SUB;

/// Index of the bucket holding `v`. Total over all `f64` values: negative,
/// zero, and non-finite inputs land in bucket 0, overflow in the last.
pub fn bucket_index(v: f64) -> usize {
    if !(v > 0.0) || !v.is_finite() {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < E_MIN {
        return 0;
    }
    if exp > E_MAX {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & ((SUB as u64) - 1)) as usize;
    (exp - E_MIN) as usize * SUB + sub
}

/// Lower bound of bucket `idx` (inclusive).
pub fn bucket_lo(idx: usize) -> f64 {
    let e = E_MIN + (idx / SUB) as i32;
    let sub = (idx % SUB) as f64;
    (2.0f64).powi(e) * (1.0 + sub / SUB as f64)
}

/// Upper bound of bucket `idx` (exclusive).
pub fn bucket_hi(idx: usize) -> f64 {
    let e = E_MIN + (idx / SUB) as i32;
    let sub = (idx % SUB) as f64;
    (2.0f64).powi(e) * (1.0 + (sub + 1.0) / SUB as f64)
}

/// Fixed-size streaming histogram (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamHist {
    /// Per-bucket value counts.
    buckets: Box<[u64; BUCKETS]>,
    /// Exact aggregate of everything recorded.
    stat: HistStat,
}

impl Default for StreamHist {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamHist {
    /// Fresh, empty histogram. The single boxed bucket array is the only
    /// allocation this type ever makes — the record path is free of them.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0u64; BUCKETS]),
            stat: HistStat { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY },
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        self.buckets[bucket_index(v)] += 1;
        self.stat.count += 1;
        self.stat.sum += v;
        self.stat.min = self.stat.min.min(v);
        self.stat.max = self.stat.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.stat.count
    }

    /// Exact count/sum/min/max aggregate (min/max are meaningless while
    /// empty — the caller-facing [`StreamHist::stat`] normalizes that).
    pub fn stat(&self) -> HistStat {
        if self.stat.count == 0 {
            HistStat { count: 0, sum: 0.0, min: 0.0, max: 0.0 }
        } else {
            self.stat
        }
    }

    /// Estimated `q`-quantile (`q ∈ [0, 1]`, nearest-rank definition
    /// shared with [`crate::percentile`]): the geometric midpoint of the
    /// bucket holding the rank, clamped into the exact `[min, max]`. The
    /// estimate and the true quantile share a bucket, so the relative
    /// error is bounded by the bucket width (≤ `(SUB+1)/SUB − 1`).
    /// Returns 0 while empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.stat.count == 0 {
            return 0.0;
        }
        let target = rank(q, self.stat.count as usize) as u64;
        // The extreme ranks are tracked exactly — answer them exactly.
        if target == 0 {
            return self.stat.min;
        }
        if target == self.stat.count - 1 {
            return self.stat.max;
        }
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum > target {
                let est = (bucket_lo(idx) * bucket_hi(idx)).sqrt();
                return est.clamp(self.stat.min, self.stat.max);
            }
        }
        // PANICS: unreachable — cum reaches stat.count, which is > target.
        unreachable!("quantile rank {target} beyond recorded count {}", self.stat.count)
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs,
    /// ascending — the shape Prometheus histogram exposition wants.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_hi(idx), cum));
            }
        }
        out
    }

    /// Overwrites bucket `idx` and the aggregate — the loader used by the
    /// shared registry to materialize an atomic histogram snapshot.
    pub(crate) fn set_raw(&mut self, buckets: impl Iterator<Item = u64>, stat: HistStat) {
        for (slot, v) in self.buckets.iter_mut().zip(buckets) {
            *slot = v;
        }
        self.stat = stat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_bracket() {
        let values = [1e-12, 0.001, 0.02, 0.5, 1.0, 1.1, 2.0, 3.7, 1000.0, 1e9, 1e12];
        let mut last = 0usize;
        for &v in &values {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index must be monotone in the value");
            last = idx;
            if v >= bucket_lo(0) && v < bucket_hi(BUCKETS - 1) {
                assert!(bucket_lo(idx) <= v && v < bucket_hi(idx), "{v} outside bucket {idx}");
            }
        }
    }

    #[test]
    fn degenerate_values_clamp_into_end_buckets() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), 0);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        assert_eq!(bucket_index(1e-300), 0);
    }

    #[test]
    fn bucket_widths_are_tight() {
        for idx in 0..BUCKETS {
            let ratio = bucket_hi(idx) / bucket_lo(idx);
            assert!(ratio <= (SUB as f64 + 1.0) / SUB as f64 + 1e-12, "bucket {idx}: {ratio}");
        }
    }

    #[test]
    fn quantiles_track_exact_stats() {
        let mut h = StreamHist::new();
        for i in 1..=1000u64 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        assert!((p50 / 500.0 - 1.0).abs() < 0.13, "p50 {p50} too far from 500");
        // p0/p100 clamp to the exact extremes.
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
        assert_eq!(h.stat().count, 1000);
        assert_eq!(h.stat().min, 1.0);
        assert_eq!(h.stat().max, 1000.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = StreamHist::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.stat(), HistStat { count: 0, sum: 0.0, min: 0.0, max: 0.0 });
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn cumulative_buckets_are_ascending_and_total() {
        let mut h = StreamHist::new();
        for v in [0.25, 0.25, 3.0, 700.0] {
            h.record(v);
        }
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().map(|&(_, c)| c), Some(4));
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }
}
