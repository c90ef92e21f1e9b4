//! Crash flight recorder: a fixed-size, always-on ring buffer of recent
//! events, dumped as JSONL when something dies.
//!
//! Live metrics answer "how is the server doing"; the flight recorder
//! answers "what were the last ~[`FLIGHT_CAPACITY`] things it did before
//! the panic". It is deliberately always on — by the time you wish it had
//! been enabled, the crash already happened — so the steady-state cost
//! must be tiny: events are fixed-size `Copy` structs written into a
//! preallocated ring (overwrite-oldest) under one uncontended mutex, with
//! **zero steady-state allocation** (proven by the counting-allocator test
//! in `tests/tests/obs_disabled_alloc.rs`; the ring itself is one
//! allocation at first use).
//!
//! Producers tag events with a small per-thread id (assigned on a thread's
//! first record) so a dump shows which worker did what. The serving tier
//! records request/batch milestones and dumps the ring to a JSONL file
//! when a worker or batcher thread panics, and serves it on demand at
//! `GET /debug/flight`.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::clock::now_ns;

/// Ring capacity: the dump shows at most this many trailing events.
pub const FLIGHT_CAPACITY: usize = 512;

/// What happened. The two payload words `a`/`b` are kind-specific (the
/// producer documents them); keeping them untyped keeps the event `Copy`
/// and the ring allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlightKind {
    /// A request was parsed and entered the system. `a` = request id.
    RequestStart,
    /// A request was answered. `a` = request id, `b` = HTTP status.
    RequestDone,
    /// A batch began engine execution. `a` = batch id, `b` = batch size.
    BatchStart,
    /// A batch finished. `a` = batch id, `b` = engine time in µs.
    BatchDone,
    /// A thread is unwinding. `a`/`b` producer-defined.
    Panic,
    /// Free-form marker for tests and tooling.
    Mark,
}

impl FlightKind {
    /// Stable wire name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::RequestStart => "request_start",
            FlightKind::RequestDone => "request_done",
            FlightKind::BatchStart => "batch_start",
            FlightKind::BatchDone => "batch_done",
            FlightKind::Panic => "panic",
            FlightKind::Mark => "mark",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// [`now_ns`] timestamp.
    pub t_ns: u64,
    /// Small per-thread tag (first-record order, starting at 1).
    pub thread: u32,
    /// Event kind.
    pub kind: FlightKind,
    /// Kind-specific payload word.
    pub a: u64,
    /// Kind-specific payload word.
    pub b: u64,
}

struct Ring {
    /// Preallocated to [`FLIGHT_CAPACITY`] at first use; pushes after the
    /// fill never allocate.
    buf: Vec<FlightEvent>,
    /// Next overwrite position once full.
    head: usize,
    /// Total events ever recorded (dumps report how many were dropped).
    total: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring { buf: Vec::with_capacity(FLIGHT_CAPACITY), head: 0, total: 0 })
    })
}

fn lock_ring() -> std::sync::MutexGuard<'static, Ring> {
    // Poison only means another thread panicked while holding the lock —
    // exactly the situation a flight recorder exists for; the ring is
    // still structurally valid.
    ring().lock().unwrap_or_else(|p| p.into_inner())
}

static NEXT_THREAD_TAG: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// 0 = unassigned. `const`-initialized so the read never allocates.
    static THREAD_TAG: Cell<u32> = const { Cell::new(0) };
}

fn thread_tag() -> u32 {
    THREAD_TAG.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Records one event into the ring (always on — see the module docs).
pub fn flight_record(kind: FlightKind, a: u64, b: u64) {
    let e = FlightEvent { t_ns: now_ns(), thread: thread_tag(), kind, a, b };
    let mut r = lock_ring();
    r.total += 1;
    if r.buf.len() < FLIGHT_CAPACITY {
        r.buf.push(e);
    } else {
        let head = r.head;
        r.buf[head] = e;
        r.head = (head + 1) % FLIGHT_CAPACITY;
    }
}

/// The buffered events, oldest first.
pub fn flight_snapshot() -> Vec<FlightEvent> {
    let r = lock_ring();
    let mut out = Vec::with_capacity(r.buf.len());
    out.extend_from_slice(&r.buf[r.head..]);
    out.extend_from_slice(&r.buf[..r.head]);
    out
}

/// Total events ever recorded (≥ the buffered count once the ring wraps).
pub fn flight_total() -> u64 {
    lock_ring().total
}

/// Empties the ring (tests and benchmark scoping). The preallocated
/// capacity is retained.
pub fn flight_clear() {
    let mut r = lock_ring();
    r.buf.clear();
    r.head = 0;
    r.total = 0;
}

/// Serializes events as JSONL, one object per line:
/// `{"t_ns":1,"thread":2,"kind":"request_done","a":7,"b":200}`.
pub fn flight_to_jsonl(events: &[FlightEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(
            out,
            "{{\"t_ns\":{},\"thread\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
            e.t_ns,
            e.thread,
            e.kind.as_str(),
            e.a,
            e.b,
        );
    }
    out
}

/// [`flight_snapshot`] + [`flight_to_jsonl`]: the ring as a JSONL dump,
/// oldest event first.
pub fn flight_dump_jsonl() -> String {
    flight_to_jsonl(&flight_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring is process-global; tests in this module serialize so one
    /// test's `flight_clear` cannot race another's snapshot.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn records_in_order_and_overwrites_oldest() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        flight_clear();
        for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
            flight_record(FlightKind::Mark, i, 0);
        }
        let events = flight_snapshot();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(flight_total(), FLIGHT_CAPACITY as u64 + 10);
        // Oldest surviving event is #10; the newest is the last recorded.
        assert_eq!(events[0].a, 10);
        assert_eq!(events.last().map(|e| e.a), Some(FLIGHT_CAPACITY as u64 + 9));
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns), "dump must be oldest-first");
        flight_clear();
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let line = flight_to_jsonl(&[FlightEvent {
            t_ns: 42,
            thread: 3,
            kind: FlightKind::BatchDone,
            a: 9,
            b: 1234,
        }]);
        assert_eq!(line, "{\"t_ns\":42,\"thread\":3,\"kind\":\"batch_done\",\"a\":9,\"b\":1234}\n");
    }

    #[test]
    fn threads_get_distinct_tags() {
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        flight_clear();
        flight_record(FlightKind::Mark, 1, 0);
        #[expect(
            clippy::disallowed_methods,
            reason = "a cross-thread tagging probe, not kernel work"
        )]
        std::thread::spawn(|| flight_record(FlightKind::Mark, 2, 0))
            .join()
            .expect("probe thread must not panic");
        let events = flight_snapshot();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].thread, events[1].thread);
        assert!(events.iter().all(|e| e.thread > 0));
        flight_clear();
    }
}
