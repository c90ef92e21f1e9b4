//! Per-request phase tracing and the serving tier's live telemetry handles.
//!
//! Every request carries a [`RequestTrace`] — a process-unique id plus the
//! wall time spent in each serving phase:
//!
//! ```text
//! parse ─▶ queue_wait ─▶ batch_assembly ─▶ engine ─▶ write
//! (worker)  (channel)      (batcher drain)  (batch)   (worker)
//! ```
//!
//! `parse` and `write` happen on the worker thread that owns the socket;
//! `queue_wait` (enqueue → batcher dequeue), `batch_assembly` (dequeue →
//! engine dispatch), and `engine` (the shared `recommend_batch` call)
//! happen across the batcher channel, so the batcher sends a
//! [`PhaseBreakdown`] back with each reply and the worker folds it into
//! the trace. Phases land live in the process-shared histograms behind
//! [`telemetry`], which the `/metrics`, `/stats` and `/health` endpoints
//! read while the server runs.
//!
//! [`telemetry`] hands out one [`ServeTelemetry`] of cached `&'static`
//! instrument handles, so the per-request record path never touches the
//! registry lock (and never allocates — see the counting-allocator proof
//! in `tests/tests/obs_disabled_alloc.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use dgnn_obs::shared::{counter, hist, SharedCounter, SharedHist};
use dgnn_obs::{flight_record, now_ns, FlightKind};

/// The batcher-side phase timings of one request, sent back over the
/// reply channel alongside the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Enqueue (worker send) → batcher dequeue, microseconds.
    pub queue_wait_us: u64,
    /// Batcher dequeue → engine dispatch (time spent waiting for
    /// ride-along queries), microseconds.
    pub batch_assembly_us: u64,
    /// The engine's `recommend_batch` wall time, microseconds (shared by
    /// every request in the batch).
    pub engine_us: u64,
    /// How many queries shared the dispatch.
    pub batch_size: u32,
}

/// Wall-clock phase trace of one HTTP request.
#[derive(Debug, Clone, Copy)]
pub struct RequestTrace {
    /// Process-unique request id (also the flight-recorder correlation
    /// key).
    pub id: u64,
    /// [`now_ns`] at accept time.
    pub t_start_ns: u64,
    /// Request-line + header read/parse time, microseconds.
    pub parse_us: u64,
    /// Batcher-side phases; `None` for requests that never reach the
    /// batcher (health checks, scrapes, errors).
    pub phases: Option<PhaseBreakdown>,
    /// Response serialization + socket write time, microseconds.
    pub write_us: u64,
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

impl RequestTrace {
    /// Starts a trace: assigns the id, stamps the start time, and drops a
    /// `request_start` event into the flight recorder.
    pub fn begin() -> Self {
        let id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
        flight_record(FlightKind::RequestStart, id, 0);
        Self { id, t_start_ns: now_ns(), parse_us: 0, phases: None, write_us: 0 }
    }

    /// Total wall time since [`RequestTrace::begin`], microseconds.
    pub fn elapsed_us(&self) -> u64 {
        now_ns().saturating_sub(self.t_start_ns) / 1000
    }

    /// Ends the trace: records every phase into the live histograms and
    /// drops a `request_done` event (payload: id, HTTP status) into the
    /// flight recorder.
    pub fn finish(&self, status: u16) {
        let t = telemetry();
        t.latency_ms.record(us_to_ms(self.elapsed_us()));
        t.parse_ms.record(us_to_ms(self.parse_us));
        t.write_ms.record(us_to_ms(self.write_us));
        if let Some(p) = self.phases {
            t.queue_wait_ms.record(us_to_ms(p.queue_wait_us));
            t.batch_assembly_ms.record(us_to_ms(p.batch_assembly_us));
            t.engine_ms.record(us_to_ms(p.engine_us));
        }
        if status < 400 {
            t.requests_ok.add(1);
        } else {
            t.requests_err.add(1);
        }
        flight_record(FlightKind::RequestDone, self.id, u64::from(status));
    }
}

/// Microseconds → milliseconds (the unit every latency histogram uses).
pub fn us_to_ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// Cached `&'static` handles to every live serving instrument. One lookup
/// at first use; record paths after that are lock-free and
/// allocation-free.
pub struct ServeTelemetry {
    /// End-to-end request latency.
    pub latency_ms: &'static SharedHist,
    /// Request read/parse phase.
    pub parse_ms: &'static SharedHist,
    /// Enqueue → dequeue phase.
    pub queue_wait_ms: &'static SharedHist,
    /// Dequeue → engine dispatch phase.
    pub batch_assembly_ms: &'static SharedHist,
    /// Engine `recommend_batch` phase.
    pub engine_ms: &'static SharedHist,
    /// Response serialize/write phase.
    pub write_ms: &'static SharedHist,
    /// The gathered matmul inside the engine.
    pub gather_matmul_ms: &'static SharedHist,
    /// The top-K select inside the engine.
    pub topk_ms: &'static SharedHist,
    /// Queries coalesced per engine dispatch.
    pub batch_size: &'static SharedHist,
    /// Requests answered 2xx.
    pub requests_ok: &'static SharedCounter,
    /// Requests answered 4xx/5xx.
    pub requests_err: &'static SharedCounter,
}

/// The process-wide [`ServeTelemetry`] instance.
pub fn telemetry() -> &'static ServeTelemetry {
    static T: OnceLock<ServeTelemetry> = OnceLock::new();
    T.get_or_init(|| ServeTelemetry {
        latency_ms: hist("serve/latency_ms"),
        parse_ms: hist("serve/phase/parse_ms"),
        queue_wait_ms: hist("serve/phase/queue_wait_ms"),
        batch_assembly_ms: hist("serve/phase/batch_assembly_ms"),
        engine_ms: hist("serve/phase/engine_ms"),
        write_ms: hist("serve/phase/write_ms"),
        gather_matmul_ms: hist("serve/engine/gather_matmul_ms"),
        topk_ms: hist("serve/engine/topk_ms"),
        batch_size: hist("serve/batch_size"),
        requests_ok: counter("serve/requests_ok"),
        requests_err: counter("serve/requests_err"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let a = RequestTrace::begin();
        let b = RequestTrace::begin();
        assert!(b.id > a.id);
        assert!(a.t_start_ns > 0);
    }

    #[test]
    fn finish_records_phases_and_outcome() {
        let t = telemetry();
        let (lat0, ok0, qw0) = (t.latency_ms.count(), t.requests_ok.get(), t.queue_wait_ms.count());
        let mut trace = RequestTrace::begin();
        trace.parse_us = 10;
        trace.write_us = 5;
        trace.phases = Some(PhaseBreakdown {
            queue_wait_us: 100,
            batch_assembly_us: 50,
            engine_us: 200,
            batch_size: 3,
        });
        trace.finish(200);
        assert!(t.latency_ms.count() > lat0);
        assert!(t.requests_ok.get() > ok0);
        assert!(t.queue_wait_ms.count() > qw0);

        let err0 = t.requests_err.get();
        let plain = RequestTrace::begin();
        plain.finish(404);
        assert!(t.requests_err.get() > err0);
    }

    #[test]
    fn unit_conversion() {
        assert_eq!(us_to_ms(2500), 2.5);
        assert_eq!(us_to_ms(0), 0.0);
    }
}
