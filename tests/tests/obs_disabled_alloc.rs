//! Allocation cost proofs: the observability hot path must not allocate
//! when recording is off, the kernel pool's dispatch path must not
//! allocate at all, and the always-on serving telemetry (flight recorder,
//! shared registry) must not allocate even when recording is ON — its
//! buffers are fixed at startup. A counting global allocator measures the exact number of heap
//! allocations across a burst of calls.
//!
//! The counter is **per-thread**: a process-wide counter would charge the
//! measuring test for allocations made concurrently by libtest harness
//! threads or sibling tests, which made the old best-of-N retry version of
//! this test flaky. A thread-local counter makes each window exact, so one
//! window with zero retries suffices.
//!
//! This lives in its own test binary because `#[global_allocator]` is a
//! process-wide choice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the *current* thread. `const`-initialized so
    /// reading it never itself allocates; `try_with` covers TLS teardown.
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn local_allocs() -> u64 {
    LOCAL_ALLOCS.with(Cell::get)
}

// SAFETY: delegates every operation to the `System` allocator unchanged;
// the only addition is a thread-local counter bump (const-init TLS, so the
// bump itself cannot recurse into the allocator), which cannot violate any
// allocator invariant.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from a matching `alloc` on `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_observability_hot_path_never_allocates() {
    dgnn_obs::reset();
    dgnn_obs::disable();

    // Warm up thread-locals outside the measurement window.
    {
        let _g = dgnn_obs::span("warmup");
        dgnn_obs::counter_add("warmup", 1);
        dgnn_obs::hist_record("warmup", 1.0);
        dgnn_obs::record_op("matmul", dgnn_obs::OpPhase::Forward, 1);
    }

    let before = local_allocs();
    for _ in 0..10_000 {
        let _batch = dgnn_obs::span("batch");
        let _fwd = dgnn_obs::span("forward");
        dgnn_obs::counter_add("grad_nonfinite", 1);
        dgnn_obs::gauge_set("lr", 0.01);
        dgnn_obs::hist_record("grad_norm/preclip", 2.5);
        dgnn_obs::record_op("matmul", dgnn_obs::OpPhase::Forward, 120);
        dgnn_obs::record_op("gather", dgnn_obs::OpPhase::Backward, 80);
    }
    let allocs = local_allocs() - before;
    assert_eq!(allocs, 0, "disabled-mode recording must be allocation-free");

    // The same calls while disabled must also have recorded nothing.
    assert!(dgnn_obs::take_events().is_empty());
    let snap = dgnn_obs::snapshot();
    assert!(snap.counters.is_empty() && snap.histograms.is_empty() && snap.ops.is_empty());
}

#[test]
fn flight_recorder_and_shared_registry_steady_state_never_allocate() {
    use dgnn_obs::{flight_record, FlightKind, FLIGHT_CAPACITY};

    // Warm up outside the window: the first record initializes the ring
    // (one fixed Vec::with_capacity), the per-thread tag TLS, and each
    // registry handle (one Box::leak per name). Everything after that is
    // in-place: ring slots overwrite, histogram buckets are atomics.
    let hist = dgnn_obs::shared::hist("allocfree/h");
    let ctr = dgnn_obs::shared::counter("allocfree/c");
    let gauge = dgnn_obs::shared::gauge("allocfree/g");
    flight_record(FlightKind::Mark, 0, 0);
    hist.record(1.0);
    ctr.add(1);
    gauge.set(1.0);
    let flight_before = dgnn_obs::flight_total();
    let hist_before = hist.count();

    let rounds = FLIGHT_CAPACITY as u64 * 4; // fill the ring, then overwrite
    let before = local_allocs();
    for i in 0..rounds {
        flight_record(FlightKind::Mark, i, i % 7);
        hist.record((i % 97) as f64 + 0.5);
        ctr.add(1);
        gauge.set(i as f64);
    }
    let allocs = local_allocs() - before;
    assert_eq!(allocs, 0, "live telemetry steady state must be allocation-free");

    // The window really recorded: this is the enabled path, not a no-op.
    assert_eq!(dgnn_obs::flight_total() - flight_before, rounds);
    assert_eq!(hist.count() - hist_before, rounds);
}

#[test]
fn rss_read_path_never_allocates_after_warmup() {
    use dgnn_obs::procstat;

    // Warm up outside the window: the first call opens the cached
    // `/proc/self/statm` fd, resolves the page size from auxv, and
    // registers the shared gauge handles (one Box::leak per name).
    if procstat::rss_bytes().is_none() {
        return; // no procfs on this target — nothing to measure
    }
    procstat::publish_rss();

    let before = local_allocs();
    for _ in 0..1_000 {
        let _ = std::hint::black_box(procstat::rss_bytes());
        let _ = std::hint::black_box(procstat::peak_rss_bytes());
        procstat::publish_rss();
    }
    let allocs = local_allocs() - before;
    assert_eq!(allocs, 0, "statm read/publish path must be allocation-free after warmup");
}

#[test]
fn pooled_dispatch_path_never_allocates() {
    use dgnn_tensor::parallel;

    // Two threads and a one-unit work threshold, so every dispatch below
    // splits across the pool instead of taking the serial fast path.
    parallel::set_threads(2);
    parallel::set_min_par_work(1);
    let rows = 64usize;
    assert_eq!(parallel::planned_parts(rows, 1), 2, "the window must exercise the pool");

    // Warm up: spawn the worker and run one dispatch so nothing lazy
    // remains inside the window. The output buffer is preallocated; the
    // kernel body writes in place.
    let mut out = vec![0.0f32; rows];
    parallel::par_row_chunks(&mut out, rows, 1, 1, |range, chunk| {
        for (off, r) in range.enumerate() {
            chunk[off] = r as f32;
        }
    });

    let before = local_allocs();
    for _ in 0..2_000 {
        parallel::par_row_chunks(&mut out, rows, 1, 1, |range, chunk| {
            for (off, r) in range.enumerate() {
                chunk[off] += r as f32;
            }
        });
    }
    let allocs = local_allocs() - before;
    parallel::set_threads(1);
    parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
    assert_eq!(allocs, 0, "pooled dispatch path must be allocation-free");
    let expect: Vec<f32> = (0..rows).map(|r| r as f32 * 2_001.0).collect();
    assert_eq!(out, expect, "every dispatch wrote every row exactly once");
}
