//! Structured tracing, metrics, and per-op profiling for the DGNN stack.
//!
//! Every timing and counter claim the repo makes — Table IV running times,
//! Figure 8 convergence, the buffer-pool allocation reductions — flows
//! through this crate so the numbers share one code path from measurement
//! to serialized artifact. Three instruments, all thread-local and
//! zero-dependency:
//!
//! * **Spans** ([`span`], [`SpanGuard`]) — hierarchical RAII timing
//!   regions buffered as begin/end events. Export as JSONL
//!   ([`export::events_to_jsonl`]) or as a Chrome trace-event file
//!   ([`export::chrome_trace`]) loadable in Perfetto / `chrome://tracing`.
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`hist_record`]) — a
//!   registry of named counters, gauges, and min/max/sum histograms,
//!   serialized by the shared snapshot writer
//!   ([`export::snapshot_to_json`]).
//! * **Per-op profiles** ([`record_op`]) — forward/backward wall time and
//!   invocation counts per tape op kind, fed by `dgnn-autograd`'s
//!   `TapeObserver`.
//!
//! Serving adds three process-wide instruments on top (multi-threaded
//! producers, one scrape consumer):
//!
//! * **Shared metrics** ([`shared`]) — atomic counters/gauges/streaming
//!   histograms handed out as `&'static` handles; record paths are
//!   lock-free and allocation-free.
//! * **Streaming histograms** ([`StreamHist`]) — bounded log2-bucketed
//!   histograms behind the shared registry.
//! * **Flight recorder** ([`flight`]) — an always-on fixed-size ring of
//!   recent events, dumped as JSONL on panic or on demand.
//!
//! [`export::prometheus_text`] renders any snapshot in Prometheus text
//! exposition for a `/metrics` endpoint.
//!
//! # Enable discipline
//!
//! Everything is gated on a thread-local flag ([`enable`] / [`disable`]).
//! While disabled — the default — every recording entry point returns
//! after a single `Cell<bool>` read: no clock read, no event, **no heap
//! allocation** (asserted by an integration test with a counting
//! allocator). Training code can therefore stay instrumented permanently;
//! only sessions that opt in pay for observability, and they pay little:
//! the `profile` binary measures the enabled-mode overhead at ≤5% of
//! steps/sec on quiet hardware. `tests/tests/observability.rs` asserts a
//! 2× guard band (10%) in thread CPU time, the tightest bound a busy
//! shared CI box can resolve without flaking.
//!
//! # Why not `tracing`/`metrics` crates
//!
//! The build environment is offline and the repo's policy is std-only
//! infrastructure. The API mirrors the shape of those ecosystems closely
//! enough that a future adapter is mechanical.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod export;
pub mod flight;
pub mod procstat;
pub mod shared;
pub mod streamhist;

mod clock;
mod metrics;
mod ops;
mod span;

pub use clock::{now_ns, thread_cpu_ns};
pub use flight::{
    flight_clear, flight_dump_jsonl, flight_record, flight_snapshot, flight_to_jsonl, flight_total,
    FlightEvent, FlightKind, FLIGHT_CAPACITY,
};
pub use metrics::{counter_add, gauge_set, hist_record, HistStat, Snapshot};
pub use ops::{record_op, OpPhase, OpStat};
pub use span::{span, span_owned, timed, SpanEvent, SpanGuard, SpanPhase};
pub use streamhist::StreamHist;

use std::cell::Cell;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Turns recording on for the current thread.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
}

/// Turns recording off for the current thread (the default state).
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

/// True when recording is on for the current thread.
///
/// This is the only cost a disabled program pays per instrumentation
/// point: one thread-local `Cell<bool>` read.
pub fn is_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Clears all buffered span events, metrics, and per-op profiles on this
/// thread. The enabled flag is left untouched.
pub fn reset() {
    span::clear_events();
    metrics::clear();
    ops::clear();
}

/// Drains and returns the buffered span events (oldest first), leaving the
/// buffer empty.
pub fn take_events() -> Vec<SpanEvent> {
    span::take_events()
}

/// A point-in-time copy of the metrics registry and per-op profile table.
pub fn snapshot() -> Snapshot {
    let mut s = metrics::snapshot_metrics();
    s.ops = ops::snapshot_ops();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests in this module: thread-local state is shared across
    /// `cargo test` threads only within a thread, but tests in one module
    /// may interleave on the same thread via the harness. A guard keeps
    /// enable/reset pairs atomic per test.
    fn fresh() {
        disable();
        reset();
    }

    #[test]
    fn disabled_records_nothing() {
        fresh();
        {
            let _g = span("outer");
            counter_add("c", 3);
            gauge_set("g", 1.0);
            hist_record("h", 2.0);
            record_op("matmul", OpPhase::Forward, 10);
        }
        assert!(take_events().is_empty());
        let s = snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty());
        assert!(s.histograms.is_empty() && s.ops.is_empty());
    }

    #[test]
    fn enabled_spans_are_balanced_and_monotone() {
        fresh();
        enable();
        {
            let _a = span("epoch");
            {
                let _b = span("batch");
            }
        }
        disable();
        let ev = take_events();
        assert_eq!(ev.len(), 4);
        assert_eq!(
            ev.iter().map(|e| (e.name.as_ref(), e.phase)).collect::<Vec<_>>(),
            vec![
                ("epoch", SpanPhase::Begin),
                ("batch", SpanPhase::Begin),
                ("batch", SpanPhase::End),
                ("epoch", SpanPhase::End),
            ]
        );
        assert!(ev.windows(2).all(|w| w[0].t_ns <= w[1].t_ns), "timestamps must be monotone");
        assert_eq!(ev[0].depth, 0);
        assert_eq!(ev[1].depth, 1);
    }

    #[test]
    fn metrics_accumulate() {
        fresh();
        enable();
        counter_add("steps", 2);
        counter_add("steps", 3);
        gauge_set("lr", 0.01);
        gauge_set("lr", 0.02);
        hist_record("loss", 1.0);
        hist_record("loss", 3.0);
        record_op("matmul", OpPhase::Forward, 100);
        record_op("matmul", OpPhase::Forward, 50);
        record_op("matmul", OpPhase::Backward, 70);
        disable();
        let s = snapshot();
        assert_eq!(s.counters["steps"], 5);
        assert!((s.gauges["lr"] - 0.02).abs() < 1e-12);
        let h = &s.histograms["loss"];
        assert_eq!(h.count, 2);
        assert!((h.sum - 4.0).abs() < 1e-12 && h.min == 1.0 && h.max == 3.0);
        let op = &s.ops["matmul"];
        assert_eq!((op.forward.calls, op.forward.total_ns), (2, 150));
        assert_eq!((op.backward.calls, op.backward.total_ns), (1, 70));
        reset();
    }

    #[test]
    fn timed_measures_even_when_disabled() {
        fresh();
        let (value, ns) = timed("work", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(value > 0);
        assert!(ns > 0, "timed must measure wall time regardless of the enabled flag");
        assert!(take_events().is_empty(), "but it must not record events while disabled");
    }

    #[test]
    fn owned_span_names_round_trip() {
        fresh();
        enable();
        {
            let _g = span_owned(format!("fit/{}", "DGNN"));
        }
        disable();
        let ev = take_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name.as_ref(), "fit/DGNN");
        assert_eq!(ev[1].name.as_ref(), "fit/DGNN");
    }
}
