//! Process-shared metrics: atomic counters, gauges, and streaming
//! histograms any thread can record into.
//!
//! The thread-local registry ([`crate::counter_add`] & friends) fits the
//! single-threaded training executor, but a serving process has a worker
//! pool, a batcher, and an acceptor all producing telemetry that one
//! scrape endpoint must see — per-thread registries would force a
//! collect-and-merge dance on every scrape and lose samples from dead
//! threads. This module is the process view: instruments are registered
//! once by name (the only allocation), handed out as `&'static` handles,
//! and recorded into with plain atomics — the record path takes no lock
//! and never allocates (proven by the counting-allocator test in
//! `tests/tests/obs_disabled_alloc.rs`).
//!
//! Unlike the thread-local registry there is no enable flag: a server
//! wants metrics without every thread opting in, so every record is its
//! plain atomic operations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::metrics::{HistStat, Snapshot};
use crate::streamhist::{bucket_index, StreamHist, BUCKETS};

/// Monotone process-shared counter.
#[derive(Debug)]
pub struct SharedCounter {
    v: AtomicU64,
}

impl SharedCounter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Last-write-wins process-shared gauge (an `f64` carried as bits).
#[derive(Debug)]
pub struct SharedGauge {
    bits: AtomicU64,
}

impl SharedGauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Process-shared [`StreamHist`]: same bucket layout, atomic counts.
pub struct SharedHist {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl std::fmt::Debug for SharedHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedHist").field("count", &self.count.load(Ordering::Relaxed)).finish()
    }
}

/// Atomic fetch-min/max/add over `f64` bit patterns: CAS loops that
/// tolerate racing writers. Relaxed ordering is enough — metrics carry no
/// synchronization duty.
fn atomic_f64_update(slot: &AtomicU64, v: f64, fold: impl Fn(f64, f64) -> f64) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let folded = fold(f64::from_bits(cur), v);
        if folded.to_bits() == cur {
            return;
        }
        match slot.compare_exchange_weak(
            cur,
            folded.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl SharedHist {
    fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one value. Lock-free and allocation-free.
    pub fn record(&self, v: f64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, v, |acc, x| acc + x);
        atomic_f64_update(&self.min_bits, v, f64::min);
        atomic_f64_update(&self.max_bits, v, f64::max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time plain copy for exposition. Not a
    /// cross-field atomic snapshot — concurrent recorders may be mid-update
    /// — but each field is itself consistent, which is all a scrape needs.
    pub fn snapshot(&self) -> StreamHist {
        let count = self.count.load(Ordering::Relaxed);
        let stat = if count == 0 {
            HistStat { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
        } else {
            HistStat {
                count,
                sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
                min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            }
        };
        let mut h = StreamHist::new();
        h.set_raw(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)), stat);
        h
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, &'static SharedCounter>,
    gauges: BTreeMap<String, &'static SharedGauge>,
    hists: BTreeMap<String, &'static SharedHist>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    // A poisoned registry only means some thread panicked mid-lookup; the
    // maps are still structurally valid, so keep serving telemetry.
    registry().lock().unwrap_or_else(|p| p.into_inner())
}

/// The named shared counter, registering it on first use. The handle is
/// `'static` (instruments are one leaked allocation per distinct name for
/// the process lifetime — a bounded set by construction), so callers cache
/// it and the record path never touches the registry lock.
pub fn counter(name: &str) -> &'static SharedCounter {
    let mut reg = lock();
    if let Some(c) = reg.counters.get(name) {
        return c;
    }
    let c: &'static SharedCounter = Box::leak(Box::new(SharedCounter { v: AtomicU64::new(0) }));
    reg.counters.insert(name.to_string(), c);
    c
}

/// The named shared gauge, registering it on first use (see [`counter`]).
pub fn gauge(name: &str) -> &'static SharedGauge {
    let mut reg = lock();
    if let Some(g) = reg.gauges.get(name) {
        return g;
    }
    let g: &'static SharedGauge =
        Box::leak(Box::new(SharedGauge { bits: AtomicU64::new(0.0f64.to_bits()) }));
    reg.gauges.insert(name.to_string(), g);
    g
}

/// The named shared streaming histogram, registering it on first use (see
/// [`counter`]).
pub fn hist(name: &str) -> &'static SharedHist {
    let mut reg = lock();
    if let Some(h) = reg.hists.get(name) {
        return h;
    }
    let h: &'static SharedHist = Box::leak(Box::new(SharedHist::new()));
    reg.hists.insert(name.to_string(), h);
    h
}

/// Point-in-time [`Snapshot`] of every registered shared instrument.
/// Histograms fold to their exact [`HistStat`] aggregate (the pinned JSON
/// schema); empty ones are skipped. Serializes through the same
/// [`crate::export::snapshot_to_json`] path as the thread-local registry.
pub fn snapshot() -> Snapshot {
    let reg = lock();
    let mut s = Snapshot::default();
    for (name, c) in &reg.counters {
        s.counters.insert(name.clone(), c.get());
    }
    for (name, g) in &reg.gauges {
        s.gauges.insert(name.clone(), g.get());
    }
    for (name, h) in &reg.hists {
        let snap = h.snapshot();
        if snap.count() > 0 {
            s.histograms.insert(name.clone(), snap.stat());
        }
    }
    s
}

/// Plain copies of every non-empty registered histogram, keyed by name —
/// the input for Prometheus bucket exposition.
pub fn hist_snapshots() -> BTreeMap<String, StreamHist> {
    let reg = lock();
    reg.hists
        .iter()
        .filter_map(|(name, h)| {
            let snap = h.snapshot();
            (snap.count() > 0).then(|| (name.clone(), snap))
        })
        .collect()
}

/// Zeroes every registered instrument (registrations stay, handles remain
/// valid). Benchmarks and tests use this to scope measurements.
pub fn reset() {
    let reg = lock();
    for c in reg.counters.values() {
        c.v.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.values() {
        g.bits.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
    for h in reg.hists.values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_accumulate() {
        let c = counter("test_shared/counter_a");
        let c2 = counter("test_shared/counter_a");
        assert!(std::ptr::eq(c, c2), "same name must yield the same handle");
        let before = c.get();
        c.add(2);
        c2.add(3);
        assert_eq!(c.get(), before + 5);

        let g = gauge("test_shared/gauge_a");
        g.set(1.5);
        assert_eq!(g.get(), 1.5);

        let h = hist("test_shared/hist_a");
        h.record(2.0);
        h.record(8.0);
        let snap = h.snapshot();
        assert!(snap.count() >= 2);
        assert!(snap.stat().min <= 2.0 && snap.stat().max >= 8.0);
    }

    #[test]
    fn snapshot_carries_all_sections() {
        counter("test_shared/snap_c").add(1);
        gauge("test_shared/snap_g").set(4.25);
        hist("test_shared/snap_h").record(3.0);
        let s = snapshot();
        assert!(s.counters["test_shared/snap_c"] >= 1);
        assert_eq!(s.gauges["test_shared/snap_g"], 4.25);
        assert!(s.histograms["test_shared/snap_h"].count >= 1);
        assert!(hist_snapshots().contains_key("test_shared/snap_h"));
    }

    #[test]
    fn concurrent_recorders_lose_no_counts() {
        let h = hist("test_shared/race_h");
        let before = h.count();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "a cross-thread registry probe, not kernel work"
                )]
                std::thread::spawn(move || {
                    let h = hist("test_shared/race_h");
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 + 0.5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread must not panic");
        }
        assert_eq!(h.count() - before, 4000);
        let snap = h.snapshot();
        assert_eq!(snap.cumulative_buckets().last().map(|&(_, c)| c), Some(snap.count()));
    }
}
