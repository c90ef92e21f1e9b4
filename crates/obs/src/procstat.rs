//! Process memory gauges from `/proc/self/statm`.
//!
//! `statm` is the cheapest resident-set source the kernel offers: one
//! short line of space-separated page counts, readable with a single
//! positional `read` — no seek, no line iterator, no per-read heap
//! allocation. [`rss_bytes`] keeps the file open across calls and parses
//! into a fixed stack buffer, so the read path is zero-alloc after the
//! first call (asserted by the counting-allocator integration test).
//!
//! Peak tracking is a running maximum over observed readings (statm has
//! no high-water-mark field; `VmHWM` lives in the allocation-heavy
//! `/proc/self/status`). That makes the peak gauge an *observed* peak —
//! exact at every publish point, a lower bound between them — which is
//! the right trade for a gauge scraped once per `/metrics` hit.
//!
//! On non-Linux targets every reader returns `None` and the publishers
//! are no-ops; nothing panics for lack of procfs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Observed peak RSS (bytes) across all [`rss_bytes`] calls.
static PEAK_RSS: AtomicU64 = AtomicU64::new(0);

#[cfg(target_os = "linux")]
mod imp {
    use std::fs::File;
    use std::sync::OnceLock;

    static STATM: OnceLock<Option<File>> = OnceLock::new();

    /// Page size from the auxiliary vector (`AT_PAGESZ`), read once.
    /// Falls back to 4096 — correct on every x86_64 Linux and the common
    /// aarch64 configuration — when auxv is unreadable.
    static PAGE_SIZE: OnceLock<u64> = OnceLock::new();

    fn page_size() -> u64 {
        *PAGE_SIZE.get_or_init(|| {
            const AT_PAGESZ: u64 = 6;
            if let Ok(bytes) = std::fs::read("/proc/self/auxv") {
                for pair in bytes.chunks_exact(16) {
                    let key = u64::from_ne_bytes(pair[..8].try_into().unwrap_or([0; 8]));
                    let val = u64::from_ne_bytes(pair[8..].try_into().unwrap_or([0; 8]));
                    if key == AT_PAGESZ && val > 0 {
                        return val;
                    }
                }
            }
            4096
        })
    }

    /// Resident pages → bytes via one positional read of the cached fd.
    pub fn rss_bytes_now() -> Option<u64> {
        use std::os::unix::fs::FileExt;
        let file = STATM.get_or_init(|| File::open("/proc/self/statm").ok()).as_ref()?;
        let mut buf = [0u8; 128];
        // A positional read of procfs at offset 0 gives a fresh snapshot per
        // call without seek state, into a fixed stack array (zero-alloc path).
        #[expect(
            clippy::disallowed_methods,
            reason = "gauge plumbing reading procfs, not segment I/O"
        )]
        let n = file.read_at(&mut buf, 0).ok()?;
        // statm: "size resident shared text lib data dt" in pages; we want
        // field 2 (resident).
        let mut fields = buf[..n].split(|&b| b == b' ');
        let _size = fields.next()?;
        let resident = fields.next()?;
        let mut pages: u64 = 0;
        for &b in resident {
            if !b.is_ascii_digit() {
                return None;
            }
            pages = pages.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        }
        Some(pages * page_size())
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    /// No procfs on this target.
    pub fn rss_bytes_now() -> Option<u64> {
        None
    }
}

/// Current resident set size in bytes (`None` off Linux or when procfs is
/// unavailable). Zero-alloc after the first call; also folds the reading
/// into the observed-peak maximum.
pub fn rss_bytes() -> Option<u64> {
    let rss = imp::rss_bytes_now()?;
    PEAK_RSS.fetch_max(rss, Ordering::Relaxed);
    Some(rss)
}

/// Highest RSS observed by any [`rss_bytes`] call so far (`None` until a
/// first successful reading).
pub fn peak_rss_bytes() -> Option<u64> {
    match PEAK_RSS.load(Ordering::Relaxed) {
        0 => None,
        peak => Some(peak),
    }
}

/// Names of the shared gauges [`publish_rss`] maintains.
pub const RSS_GAUGE: &str = "proc/rss_bytes";
/// See [`RSS_GAUGE`].
pub const PEAK_RSS_GAUGE: &str = "proc/peak_rss_bytes";

/// Registered-handle cache so repeated publishes skip the registry lock.
static GAUGES: OnceLock<(
    &'static crate::shared::SharedGauge,
    &'static crate::shared::SharedGauge,
)> = OnceLock::new();

/// Samples RSS and publishes `proc/rss_bytes` + `proc/peak_rss_bytes`
/// into the process-shared gauge registry (no-op off Linux).
pub fn publish_rss() {
    let Some(rss) = rss_bytes() else { return };
    let (cur, peak) = GAUGES
        .get_or_init(|| (crate::shared::gauge(RSS_GAUGE), crate::shared::gauge(PEAK_RSS_GAUGE)));
    cur.set(rss as f64);
    if let Some(p) = peak_rss_bytes() {
        peak.set(p as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_reads_are_plausible_and_peak_is_monotone() {
        let Some(first) = rss_bytes() else {
            assert!(peak_rss_bytes().is_none() || cfg!(target_os = "linux"));
            return;
        };
        // A live Rust test process is comfortably above 256 KiB and below
        // 1 TiB resident.
        assert!(first > 256 * 1024, "implausibly small RSS: {first}");
        assert!(first < 1 << 40, "implausibly large RSS: {first}");
        let peak0 = peak_rss_bytes().expect("peak set after a successful read");
        assert!(peak0 >= first);
        // Grow the heap and confirm both gauges move the right way.
        let ballast = vec![1u8; 8 << 20];
        std::hint::black_box(&ballast);
        let after = rss_bytes().expect("second read");
        let peak1 = peak_rss_bytes().expect("peak after growth");
        assert!(peak1 >= peak0);
        assert!(peak1 >= after.min(peak1));
    }

    #[test]
    fn publish_rss_sets_shared_gauges() {
        if imp::rss_bytes_now().is_none() {
            return;
        }
        publish_rss();
        let snap = crate::shared::snapshot();
        let rss = snap.gauges.get(RSS_GAUGE).copied().unwrap_or(0.0);
        let peak = snap.gauges.get(PEAK_RSS_GAUGE).copied().unwrap_or(0.0);
        assert!(rss > 0.0);
        assert!(peak >= rss * 0.5, "peak {peak} vs rss {rss}");
    }
}
