//! Shadow-access tracking for the parallel kernel backend.
//!
//! When sanitize mode is on, every pooled kernel dispatch records — on the
//! **dispatching** thread, into a thread-local log — the symbolic read and
//! write ranges each worker partition touches. The log is consumed by
//! `dgnn-analysis::race_checker`, which proves per dispatch that
//!
//! * worker write-sets are pairwise disjoint,
//! * no worker reads another worker's write-set,
//! * the caller-run partition 0 obeys the same contract as pool workers, and
//! * the access ranges the kernel *declares* here match the static
//!   partition contract registered for it in the checker's table exactly.
//!
//! The two descriptions are maintained in different crates on purpose: the
//! declaration below lives next to the loop it describes (and is reviewed
//! with it), while the contract table lives with the independent prover. A
//! kernel change that widens an access without updating both sides is a
//! `ContractMismatch`, not a silent pass.
//!
//! # Gating
//!
//! Sanitize mode is resolved per thread from the `DGNN_SANITIZE`
//! environment variable (`1`/`true`) or pinned programmatically with
//! [`set_enabled`]. When disabled, the only cost on a kernel dispatch is a
//! single thread-local `Cell` read — no allocation, no branch into any
//! recording code. `tests/tests/obs_disabled_alloc.rs` proves the disabled
//! dispatch path allocation-free with a counting global allocator, the same
//! proof pattern `dgnn-obs` uses for its disabled span recorder.
//!
//! # Symbolic spans
//!
//! An [`Access`] is a strided span: `count` intervals of `width` elements
//! whose starts are `stride` apart, beginning at element `lo`. Contiguous
//! ranges are the `count == 1` case. The strided form exists for kernels
//! like `matmul_tn`, whose partitions read a *column* band of the left
//! operand — declaring that band as a whole-buffer read would hide exactly
//! the over-broad-contract drift the sanitizer is meant to catch.

use std::cell::{Cell, RefCell};
use std::ops::Range;

use crate::parallel;

/// Operand code for a kernel's primary output buffer; inputs use 0, 1, 2…
/// in the order the kernel's contract documents.
pub const OUT: u8 = 0xFF;

/// Per-thread cap on buffered dispatches. Beyond it, new dispatches are
/// dropped (and counted) rather than growing without bound — sanitize mode
/// inside a long training run must not turn into a memory leak.
pub const MAX_LOG: usize = 8192;

/// One symbolic element range a partition touches in one operand:
/// `count` spans of `width` elements, starting at `lo`, `stride` apart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// Which buffer: [`OUT`] or an input index (0, 1, 2… per the kernel's
    /// registered contract).
    pub operand: u8,
    /// True for a write (or the write half of a read-modify-write).
    pub write: bool,
    /// First element of the first span.
    pub lo: usize,
    /// Elements per span.
    pub width: usize,
    /// Distance between consecutive span starts (irrelevant when
    /// `count == 1`).
    pub stride: usize,
    /// Number of spans.
    pub count: usize,
}

impl Access {
    /// Contiguous read of elements `range` in `operand`.
    pub fn read(operand: u8, range: Range<usize>) -> Self {
        Self::contiguous(operand, false, range)
    }

    /// Contiguous write of elements `range` in `operand`.
    pub fn write(operand: u8, range: Range<usize>) -> Self {
        Self::contiguous(operand, true, range)
    }

    /// Strided read: `count` spans of `width` elements starting at `lo`,
    /// `stride` apart (e.g. a column band of a row-major matrix).
    pub fn read_strided(operand: u8, lo: usize, width: usize, stride: usize, count: usize) -> Self {
        Self { operand, write: false, lo, width, stride, count }
    }

    /// Strided write: `count` spans of `width` elements starting at `lo`,
    /// `stride` apart (e.g. a column range of a partition's output rows).
    pub fn write_strided(operand: u8, lo: usize, width: usize, stride: usize, count: usize) -> Self {
        Self { operand, write: true, lo, width, stride, count }
    }

    fn contiguous(operand: u8, write: bool, range: Range<usize>) -> Self {
        let width = range.end.saturating_sub(range.start);
        Self { operand, write, lo: range.start, width, stride: width.max(1), count: 1 }
    }

    /// True when the span covers no elements at all.
    pub fn is_empty(&self) -> bool {
        self.width == 0 || self.count == 0
    }

    /// One-past-the-last element any span touches (0 when empty).
    pub fn end(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            self.lo + (self.count - 1) * self.stride + self.width
        }
    }
}

/// Everything one partition of one dispatch touched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartAccess {
    /// Partition index in `0..parts`; partition 0 ran on the caller.
    pub part: usize,
    /// First item (output row) this partition owns.
    pub row_lo: usize,
    /// One past the last item this partition owns.
    pub row_hi: usize,
    /// Declared accesses, the automatic output write first.
    pub accesses: Vec<Access>,
}

/// One pooled kernel dispatch: the partitioning plus every partition's
/// declared access set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dispatch {
    /// Registered kernel name (the race checker's contract-table key).
    pub kernel: &'static str,
    /// Number of partitions this dispatch planned (1 = serial fast path).
    pub parts: usize,
    /// Number of items (output rows) partitioned over.
    pub items: usize,
    /// Per-partition access records, in partition order.
    pub partitions: Vec<PartAccess>,
}

thread_local! {
    /// -1: unresolved (consult `DGNN_SANITIZE` on first read); 0/1 pinned.
    static ENABLED: Cell<i8> = const { Cell::new(-1) };
    static LOG: RefCell<Vec<Dispatch>> = const { RefCell::new(Vec::new()) };
    static DROPPED: Cell<u64> = const { Cell::new(0) };
}

/// Is sanitize mode on for the calling thread? One `Cell` read after the
/// first call (which resolves `DGNN_SANITIZE` once per thread).
#[inline]
pub fn enabled() -> bool {
    let v = ENABLED.with(Cell::get);
    if v >= 0 {
        return v == 1;
    }
    let on = matches!(
        std::env::var("DGNN_SANITIZE").as_deref(),
        Ok("1") | Ok("true") | Ok("TRUE")
    );
    ENABLED.with(|c| c.set(i8::from(on)));
    on
}

/// Pins sanitize mode for the calling thread, overriding `DGNN_SANITIZE`.
pub fn set_enabled(on: bool) {
    ENABLED.with(|c| c.set(i8::from(on)));
}

/// Drains and returns the calling thread's dispatch log (oldest first) and
/// resets the overflow counter.
pub fn take_log() -> Vec<Dispatch> {
    DROPPED.with(|c| c.set(0));
    LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// Dispatches dropped since the last [`take_log`] because the per-thread
/// log was full ([`MAX_LOG`]); nonzero means the log is a sample, not a
/// census, and a proof over it is incomplete.
pub fn dropped_dispatches() -> u64 {
    DROPPED.with(Cell::get)
}

/// Appends one dispatch to the calling thread's log (bounded by
/// [`MAX_LOG`]). Callers are expected to have checked [`enabled`] first.
pub fn record(d: Dispatch) {
    LOG.with(|l| {
        let mut log = l.borrow_mut();
        if log.len() >= MAX_LOG {
            DROPPED.with(|c| c.set(c.get() + 1));
        } else {
            log.push(d);
        }
    });
}

/// Records a dispatch for a kernel that partitions `items` rows into
/// `parts` via [`parallel::part_range`] but manages its own output buffers
/// (raw-pointer kernels like `top_k_rows`). `accesses(part, rows)` must
/// declare *every* buffer the partition touches, writes included — there is
/// no automatic output record on this path.
///
/// No-op unless sanitize mode is on; never records from inside a running
/// partition body (nested dispatches degrade to serial and are an
/// implementation detail of the outer kernel's contract).
pub fn record_raw(
    kernel: &'static str,
    parts: usize,
    items: usize,
    accesses: impl Fn(usize, &Range<usize>) -> Vec<Access>,
) {
    record_parts(kernel, parts, items, |p| parallel::part_range(items, parts.max(1), p), accesses);
}

/// [`record_raw`] for a kernel whose partitions are not the near-even
/// [`parallel::part_range`] split: `range_of(part)` gives partition
/// `part`'s item range (the segment kernels split by member count).
pub fn record_parts(
    kernel: &'static str,
    parts: usize,
    items: usize,
    range_of: impl Fn(usize) -> Range<usize>,
    accesses: impl Fn(usize, &Range<usize>) -> Vec<Access>,
) {
    if !enabled() || parallel::in_kernel() {
        return;
    }
    let partitions = (0..parts.max(1))
        .map(|p| {
            let range = range_of(p);
            PartAccess {
                part: p,
                row_lo: range.start,
                row_hi: range.end,
                accesses: accesses(p, &range),
            }
        })
        .collect();
    record(Dispatch { kernel, parts: parts.max(1), items, partitions });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_constructors_and_extent() {
        let r = Access::read(0, 3..9);
        assert_eq!((r.lo, r.width, r.count), (3, 6, 1));
        assert!(!r.write);
        assert_eq!(r.end(), 9);

        let w = Access::write(OUT, 4..4);
        assert!(w.is_empty());
        assert_eq!(w.end(), 0);

        let s = Access::read_strided(1, 2, 3, 10, 4);
        assert_eq!(s.end(), 2 + 3 * 10 + 3);
    }

    #[test]
    fn log_roundtrip_and_cap() {
        set_enabled(true);
        let _ = take_log();
        record_raw("test/roundtrip", 3, 7, |_, r| {
            vec![Access::write(OUT, r.start * 2..r.end * 2)]
        });
        let log = take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].parts, 3);
        assert_eq!(log[0].partitions.len(), 3);
        assert_eq!(log[0].partitions[2].row_hi, 7);
        // Partition rows tile 0..items.
        assert_eq!(log[0].partitions[0].row_lo, 0);
        assert_eq!(log[0].partitions[1].row_lo, log[0].partitions[0].row_hi);

        for _ in 0..MAX_LOG + 5 {
            record(Dispatch { kernel: "test/cap", parts: 1, items: 0, partitions: Vec::new() });
        }
        assert_eq!(dropped_dispatches(), 5);
        let log = take_log();
        assert_eq!(log.len(), MAX_LOG);
        assert_eq!(dropped_dispatches(), 0, "take_log resets the overflow counter");
        set_enabled(false);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        set_enabled(false);
        let _ = take_log();
        record_raw("test/disabled", 2, 4, |_, _| vec![]);
        assert!(take_log().is_empty());
    }
}
