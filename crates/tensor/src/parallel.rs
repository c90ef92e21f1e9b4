//! Deterministic multi-threaded kernel execution.
//!
//! [`run_parts`] / [`par_row_chunks`] execute a row-range-partitioned
//! closure on a persistent pool of worker threads (the [`KernelPool`]).
//! The partitioning contract is the entire design:
//!
//! * every output element is written by exactly **one** partition, and
//! * each partition computes its elements with exactly the same
//!   per-element instruction sequence (and therefore the same f32
//!   rounding) as the serial loop — partitions only restrict *which*
//!   output rows a loop visits, never the order of any per-element
//!   reduction.
//!
//! Under that contract the parallel result is **bit-identical** to the
//! serial one for any thread count and any partition boundaries: no sum
//! ever crosses a partition, so there is no floating-point reordering to
//! observe. `tests/tests/parallel_kernels.rs` enforces this with
//! proptests over random shapes and thread counts.
//!
//! # Thread-count resolution
//!
//! The effective thread count is **thread-local** (so concurrent tests —
//! and later, concurrent training sessions — can pin their own counts
//! without racing): it is set explicitly with [`set_threads`], or
//! resolved lazily on first use from the `DGNN_THREADS` environment
//! variable, falling back to `std::thread::available_parallelism()`.
//! `threads == 1` is a guaranteed-serial fallback: the partition closure
//! runs directly on the caller with zero pool interaction.
//!
//! # Work thresholds
//!
//! Dispatching a job to sleeping workers costs a few microseconds of
//! wake-up latency, so kernels smaller than [`min_par_work`] "work
//! units" (≈ one fused multiply-add each) always run serially. Tests
//! lower the threshold with [`set_min_par_work`] to force parallel
//! dispatch on tiny shapes.
//!
//! # Allocation discipline
//!
//! Workers never allocate or drop a `Matrix`: they write through raw
//! row-range slices into output buffers the *dispatching* thread
//! allocated. The thread's buffer pool ([`crate::PoolScope`]) and the
//! fresh/hit alloc counters therefore observe every allocation exactly
//! once, on the thread that owns them, no matter how many workers ran
//! the kernel.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, OnceLock};

use crate::sanitize;

/// Hard cap on pool workers; a safety bound, far above any sensible
/// `DGNN_THREADS` for the kernels in this crate.
pub const MAX_THREADS: usize = 64;

/// Default minimum total work (in ≈FMA-sized units) before a kernel is
/// split across workers. Below this, wake-up latency exceeds the work.
pub const DEFAULT_MIN_PAR_WORK: usize = 262_144;

thread_local! {
    /// 0 means "not yet resolved" — see [`current_threads`].
    static THREADS: Cell<usize> = const { Cell::new(0) };
    static MIN_PAR_WORK: Cell<usize> = const { Cell::new(DEFAULT_MIN_PAR_WORK) };
    /// True while this thread is executing a partition body; nested
    /// dispatch would deadlock on the pool mutex, so it degrades to
    /// serial instead.
    static IN_KERNEL: Cell<bool> = const { Cell::new(false) };
    /// When set, dispatches permute worker assignment and inject seeded
    /// per-partition delays — see [`set_fuzz_schedule`].
    static FUZZ: Cell<Option<FuzzSchedule>> = const { Cell::new(None) };
}

/// True while the calling thread is inside a partition body (dispatcher
/// or pool worker). The sanitizer uses this to skip recording nested
/// (serially degraded) dispatches.
pub(crate) fn in_kernel() -> bool {
    IN_KERNEL.with(Cell::get)
}

/// A deterministic adversarial schedule for [`run_parts`]: partition→worker
/// assignment is permuted and every partition spin-waits a seeded
/// pseudo-random delay (`0..=max_delay_us` µs) before running, so worker
/// *completion orders* vary across seeds. Under the partitioning contract
/// the output must still be bit-identical to serial — the schedule fuzzer
/// in `tests/tests/race_sanitizer.rs` asserts exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzSchedule {
    /// Seed for both the assignment permutation and the per-partition
    /// delays; same seed ⇒ same schedule.
    pub seed: u64,
    /// Upper bound (inclusive) on the injected per-partition delay, in
    /// microseconds. `0` permutes assignment without delaying.
    pub max_delay_us: u32,
}

/// Installs (or with `None` removes) an adversarial dispatch schedule for
/// the calling thread. Test-harness API: schedules cost an allocation per
/// dispatch and exist to *perturb timing*, never semantics.
pub fn set_fuzz_schedule(fs: Option<FuzzSchedule>) {
    FUZZ.with(|c| c.set(fs));
}

/// One step of the splitmix-style generator used for fuzz schedules; the
/// high bits are the usable output.
fn fuzz_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 17
}

/// Spin-waits the seeded delay for `part` under schedule `fs`.
fn fuzz_delay(fs: FuzzSchedule, part: usize) {
    let mut state = fs.seed ^ (part as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let us = fuzz_next(&mut state) % (u64::from(fs.max_delay_us) + 1);
    if us == 0 {
        return;
    }
    let start = std::time::Instant::now();
    while (start.elapsed().as_micros() as u64) < us {
        std::hint::spin_loop();
    }
}

/// Seeded Fisher–Yates permutation of `0..n` (worker slots for partitions
/// `1..parts` under a fuzz schedule).
fn fuzz_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut slots: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
    for i in (1..n).rev() {
        let j = (fuzz_next(&mut state) % (i as u64 + 1)) as usize;
        slots.swap(i, j);
    }
    slots
}

/// Thread count `DGNN_THREADS` / the hardware would give, without
/// consulting or mutating the thread-local override.
pub fn auto_threads() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = match std::env::var("DGNN_THREADS") {
        Ok(v) => v.trim().parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or(hw),
        Err(_) => hw,
    };
    n.clamp(1, MAX_THREADS)
}

/// Effective kernel thread count for the calling thread.
///
/// Resolved once per thread from [`auto_threads`] unless [`set_threads`]
/// pinned it explicitly.
pub fn current_threads() -> usize {
    let t = THREADS.with(Cell::get);
    if t != 0 {
        return t;
    }
    let resolved = auto_threads();
    THREADS.with(|c| c.set(resolved));
    resolved
}

/// Pins the kernel thread count for the calling thread (clamped to
/// `1..=MAX_THREADS`). `1` guarantees fully serial execution.
pub fn set_threads(n: usize) {
    THREADS.with(|c| c.set(n.clamp(1, MAX_THREADS)));
}

/// Current work threshold (see module docs) for the calling thread.
pub fn min_par_work() -> usize {
    MIN_PAR_WORK.with(Cell::get)
}

/// Overrides the work threshold for the calling thread. Tests set this
/// to `1` to force parallel dispatch on tiny shapes.
pub fn set_min_par_work(units: usize) {
    MIN_PAR_WORK.with(|c| c.set(units.max(1)));
}

/// Number of partitions a kernel over `items` rows costing
/// `work_per_item` units each should use on this thread: enough that
/// every partition carries at least [`min_par_work`] units, never more
/// than [`current_threads`] or `items`.
pub fn planned_parts(items: usize, work_per_item: usize) -> usize {
    let t = current_threads();
    if t <= 1 || items <= 1 || IN_KERNEL.with(Cell::get) {
        return 1;
    }
    let total = items.saturating_mul(work_per_item.max(1));
    t.min(items).min(total / min_par_work()).max(1)
}

/// The contiguous sub-range of `0..items` owned by partition `part` of
/// `parts` (near-even split; earlier partitions take the remainder).
///
/// Edge cases are well-defined, not accidental: `items == 0` yields
/// `0..0` for every partition, and when `parts > items` the trailing
/// `parts - items` partitions are empty (`start..start`) — both shapes
/// are exercised by unit tests and a tiling proptest in
/// `tests/tests/race_sanitizer.rs`.
pub fn part_range(items: usize, parts: usize, part: usize) -> Range<usize> {
    debug_assert!(parts >= 1, "part_range: parts must be at least 1");
    debug_assert!(part < parts, "part_range: partition {part} out of {parts}");
    let parts = parts.max(1);
    let base = items / parts;
    let extra = items % parts;
    let start = part * base + part.min(extra);
    start..start + base + usize::from(part < extra)
}

/// One unit of work shipped to a worker: the partition index plus a raw
/// pointer to the dispatcher's (stack-held) partition closure.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    part: usize,
}

// SAFETY: the pointee is `Sync`, so calling it through `&` from another
// thread is sound, and it cannot dangle: the dispatcher blocks on the
// done-channel until the worker acknowledges this exact job before the
// closure can go out of scope (see `run_parts`).
unsafe impl Send for Job {}

/// The persistent worker set. Workers are spawned lazily, park on their
/// job channel between dispatches, and live for the process lifetime.
/// All dispatch is serialized under the pool mutex, so the shared done
/// channel always pairs acknowledgements with the dispatch that is
/// currently holding the lock.
struct KernelPool {
    senders: Vec<Sender<Job>>,
    done_tx: Sender<bool>,
    done_rx: Receiver<bool>,
}

impl KernelPool {
    /// Grows the pool to at least `want` workers.
    fn ensure_workers(&mut self, want: usize) {
        while self.senders.len() < want {
            let idx = self.senders.len();
            let (tx, rx) = channel::<Job>();
            let done = self.done_tx.clone();
            std::thread::Builder::new()
                .name(format!("dgnn-kernel-{idx}"))
                .spawn(move || worker_loop(&rx, &done))
                .expect("kernel pool: spawning a worker thread failed");
            self.senders.push(tx);
        }
    }
}

fn worker_loop(jobs: &Receiver<Job>, done: &Sender<bool>) {
    while let Ok(job) = jobs.recv() {
        // A panicking kernel must not wedge the dispatcher (it is blocked
        // waiting for our acknowledgement), so catch it and report failure.
        let ok = catch_unwind(AssertUnwindSafe(|| {
            IN_KERNEL.with(|c| c.set(true));
            // SAFETY: see `unsafe impl Send for Job` — the dispatcher keeps
            // the closure alive until it receives the `done` send below.
            let task = unsafe { &*job.task };
            task(job.part);
        }))
        .is_ok();
        IN_KERNEL.with(|c| c.set(false));
        if done.send(ok).is_err() {
            return; // process teardown
        }
    }
}

static POOL: OnceLock<Mutex<KernelPool>> = OnceLock::new();

fn pool() -> &'static Mutex<KernelPool> {
    POOL.get_or_init(|| {
        let (done_tx, done_rx) = channel();
        Mutex::new(KernelPool { senders: Vec::new(), done_tx, done_rx })
    })
}

/// Executes `f(part)` for every `part` in `0..parts`, partitions `1..`
/// on pool workers and partition `0` on the calling thread, returning
/// only after all partitions complete.
///
/// `parts <= 1` (and any nested call from inside a partition body) runs
/// `f(0)` directly with zero pool interaction — the guaranteed-serial
/// fallback.
///
/// When a [`FuzzSchedule`] is installed ([`set_fuzz_schedule`]), the
/// partition→worker assignment is permuted and each partition spin-waits
/// a seeded delay first; outputs must be unaffected by construction.
///
/// # Panics
/// Propagates a panic from the caller-run partition; panics with a
/// generic message if a worker-run partition panicked.
pub fn run_parts(parts: usize, f: impl Fn(usize) + Sync) {
    if parts <= 1 || IN_KERNEL.with(Cell::get) {
        f(0);
        return;
    }
    match FUZZ.with(Cell::get) {
        None => dispatch(parts, &f, None),
        Some(fs) => {
            let delayed = |p: usize| {
                fuzz_delay(fs, p);
                f(p);
            };
            dispatch(parts, &delayed, Some(fs));
        }
    }
}

/// Pool dispatch body shared by the plain and fuzzed paths. `parts >= 2`
/// and the caller is not inside a partition (checked by [`run_parts`]).
fn dispatch(parts: usize, f: &(dyn Fn(usize) + Sync), fuzz: Option<FuzzSchedule>) {
    // The transmute only erases the reference lifetime (identical fat-
    // pointer layout). The pointer stays valid for the whole dispatch: this
    // function does not return — and `f` is not dropped — until every
    // worker has acknowledged completion through the done channel, and the
    // caller-side partition below runs under `catch_unwind` so even a local
    // panic cannot unwind past the acknowledgement loop.
    // SAFETY: lifetime-only transmute; the erased reference outlives the
    // dispatch because the acknowledgement loop below blocks until every
    // worker reports completion of this exact job set.
    let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let mut kp = match pool().lock() {
        Ok(g) => g,
        // A previous dispatcher panicked after its acknowledgement loop;
        // the channels themselves are still consistent.
        Err(poisoned) => poisoned.into_inner(),
    };
    kp.ensure_workers(parts - 1);
    // Under a fuzz schedule, shuffle which worker runs which partition so
    // completion orders vary; the plain path keeps the fixed assignment.
    let slots = fuzz.map(|fs| fuzz_permutation(parts - 1, fs.seed));
    for p in 1..parts {
        let slot = slots.as_ref().map_or(p - 1, |s| s[p - 1]);
        kp.senders[slot]
            .send(Job { task, part: p })
            .expect("kernel pool: a worker job channel closed unexpectedly");
    }
    // The dispatching thread is partition 0's worker: small jobs pay no
    // wake-up for the first partition and the thread is never idle.
    let local = catch_unwind(AssertUnwindSafe(|| {
        IN_KERNEL.with(|c| c.set(true));
        f(0);
    }));
    IN_KERNEL.with(|c| c.set(false));
    let mut workers_ok = true;
    for _ in 1..parts {
        workers_ok &= kp
            .done_rx
            .recv()
            .expect("kernel pool: the worker done channel closed unexpectedly");
    }
    drop(kp);
    if let Err(payload) = local {
        resume_unwind(payload);
    }
    assert!(workers_ok, "kernel pool: a worker panicked while executing a partition");
}

/// Sendable base pointer for handing each worker its disjoint rows.
struct SendPtr(*mut f32);

impl SendPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper itself, not the raw pointer field.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

// SAFETY: the pointer is only ever dereferenced through non-overlapping
// row ranges (one per partition, see `par_row_chunks`), so no two
// threads touch the same element.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Partitions the `rows × cols` row-major buffer `out` over the kernel
/// pool: `f(row_range, chunk)` receives each partition's row range and
/// the exactly-corresponding mutable slice of `out` (`chunk[0]` is the
/// first element of row `row_range.start`).
///
/// `kernel` names the partition contract registered for this loop in
/// `dgnn-analysis::race_checker`, and `reads(row_range)` declares every
/// *input* element span the partition touches (the output write
/// `row_range.start * cols .. row_range.end * cols` is recorded
/// automatically). Both are consulted only when sanitize mode is on
/// ([`crate::sanitize`]); the disabled cost is a single thread-local read
/// and `reads` is never invoked.
///
/// `work_per_row` is the planner's cost estimate (≈FMA units per output
/// row) used against [`min_par_work`]; pass the serial inner-loop cost
/// (e.g. `k * n` for a GEMM).
///
/// # Panics
/// Panics if `out.len() != rows * cols`.
pub fn par_row_chunks(
    kernel: &'static str,
    out: &mut [f32],
    rows: usize,
    cols: usize,
    work_per_row: usize,
    reads: impl Fn(&Range<usize>) -> Vec<sanitize::Access>,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    // A row never counts for less than its width.
    let write = |r: &Range<usize>| sanitize::Access::write(sanitize::OUT, r.start * cols..r.end * cols);
    par_rows(kernel, out, rows, cols, work_per_row.max(cols), write, reads, f);
}

/// [`par_row_chunks`] for a kernel that writes only the columns `cols` of
/// its rows of the `rows × ld` buffer `out` — one block of a wider output
/// filled in place. `f` still receives the partition's whole rows (`ld`
/// floats each); the recorded write is the strided span it may touch,
/// `cols.len()` elements at `cols.start` of every row, so the race checker
/// holds the kernel to the column range as well as to its rows.
///
/// # Panics
/// Panics if `out.len() != rows * ld` or `cols` does not lie inside a row.
#[allow(clippy::too_many_arguments)] // `par_row_chunks`'s, plus the column range
pub fn par_row_chunks_cols(
    kernel: &'static str,
    out: &mut [f32],
    rows: usize,
    ld: usize,
    cols: Range<usize>,
    work_per_row: usize,
    reads: impl Fn(&Range<usize>) -> Vec<sanitize::Access>,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    assert!(cols.start <= cols.end && cols.end <= ld, "par_row_chunks_cols: column range outside the row");
    let write = |r: &Range<usize>| {
        sanitize::Access::write_strided(sanitize::OUT, r.start * ld + cols.start, cols.len(), ld, r.len())
    };
    par_rows(kernel, out, rows, ld, work_per_row.max(cols.len()), write, reads, f);
}

/// The dispatch behind [`par_row_chunks`] and [`par_row_chunks_cols`]:
/// `write(row_range)` is the output access recorded ahead of `reads`.
#[allow(clippy::too_many_arguments)] // the public signature, plus the write declaration
fn par_rows(
    kernel: &'static str,
    out: &mut [f32],
    rows: usize,
    ld: usize,
    work_per_row: usize,
    write: impl Fn(&Range<usize>) -> sanitize::Access,
    reads: impl Fn(&Range<usize>) -> Vec<sanitize::Access>,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    assert_eq!(out.len(), rows * ld, "par_row_chunks: output length mismatch");
    let parts = planned_parts(rows, work_per_row.max(1));
    sanitize::record_raw(kernel, parts, rows, |_, range| {
        let mut accesses = vec![write(range)];
        accesses.extend(reads(range));
        accesses
    });
    if parts <= 1 {
        f(0..rows, out);
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    run_parts(parts, move |p| {
        let range = part_range(rows, parts, p);
        // SAFETY: partitions are disjoint row ranges of `out`, which both
        // outlives the dispatch (`run_parts` blocks until every partition
        // is acknowledged) and covers `rows * ld` elements (asserted
        // above), so each reconstructed slice is in-bounds and unaliased.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(range.start * ld), range.len() * ld)
        };
        f(range, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn part_range_covers_everything_once() {
        for items in 0..40 {
            for parts in 1..8 {
                let mut seen = vec![0u8; items];
                for p in 0..parts {
                    for i in part_range(items, parts, p) {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "items={items} parts={parts}");
            }
        }
    }

    #[test]
    fn part_range_edge_cases() {
        // Zero items: every partition is the empty range at 0.
        for parts in 1..6 {
            for p in 0..parts {
                assert_eq!(part_range(0, parts, p), 0..0, "items=0 parts={parts} p={p}");
            }
        }
        // Single row: partition 0 owns it, the rest are empty.
        assert_eq!(part_range(1, 4, 0), 0..1);
        for p in 1..4 {
            let r = part_range(1, 4, p);
            assert!(r.is_empty(), "single row, partition {p} must be empty");
        }
        // parts > items: exactly `items` non-empty partitions, all width 1,
        // and the empty tail still chains contiguously.
        for p in 0..7 {
            let r = part_range(3, 7, p);
            assert_eq!(r.len(), usize::from(p < 3), "items=3 parts=7 p={p}");
        }
        let mut end = 0;
        for p in 0..7 {
            let r = part_range(3, 7, p);
            assert_eq!(r.start, end, "ranges must chain without gaps");
            end = r.end;
        }
        assert_eq!(end, 3);
        // Near-even split: sizes differ by at most one, larger ones first.
        let sizes: Vec<usize> = (0..5).map(|p| part_range(13, 5, p).len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 2, 2]);
    }

    #[test]
    fn planned_parts_interacts_with_min_par_work_boundary() {
        set_threads(8);
        // Exactly at the threshold: total == min_par_work ⇒ one partition
        // is allowed to carry it, so the split is total/min_par_work = 1.
        set_min_par_work(1000);
        assert_eq!(planned_parts(100, 10), 1, "at-threshold work stays serial");
        assert_eq!(planned_parts(100, 20), 2, "2× threshold splits in two");
        assert_eq!(planned_parts(100, 1000), 8, "ample work uses all threads");
        // items caps the split even with huge work.
        assert_eq!(planned_parts(3, 1_000_000), 3);
        set_threads(1);
        set_min_par_work(DEFAULT_MIN_PAR_WORK);
    }

    #[test]
    fn fuzz_schedule_is_deterministic_and_covers_all_partitions() {
        let fs = FuzzSchedule { seed: 42, max_delay_us: 0 };
        assert_eq!(fuzz_permutation(6, fs.seed), fuzz_permutation(6, fs.seed));
        let mut seen = vec![false; 6];
        for s in fuzz_permutation(6, fs.seed) {
            assert!(!seen[s], "permutation repeats a slot");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&b| b), "permutation must cover every slot");

        set_fuzz_schedule(Some(FuzzSchedule { seed: 7, max_delay_us: 20 }));
        let mask = AtomicUsize::new(0);
        run_parts(5, |p| {
            mask.fetch_or(1 << p, Ordering::SeqCst);
        });
        set_fuzz_schedule(None);
        assert_eq!(mask.load(Ordering::SeqCst), 0b11111, "fuzzed dispatch ran every partition");
    }

    #[test]
    fn planned_parts_respects_threshold_and_threads() {
        set_threads(4);
        set_min_par_work(DEFAULT_MIN_PAR_WORK);
        assert_eq!(planned_parts(8, 1), 1, "tiny work stays serial");
        assert_eq!(planned_parts(1_000_000, 1_000), 4, "big work uses all threads");
        set_min_par_work(1);
        assert_eq!(planned_parts(2, 1), 2, "forced threshold splits tiny work");
        assert_eq!(planned_parts(1, 1_000_000), 1, "one row cannot split");
        set_threads(1);
        assert_eq!(planned_parts(1_000_000, 1_000), 1, "threads=1 is serial");
        set_min_par_work(DEFAULT_MIN_PAR_WORK);
    }

    #[test]
    fn run_parts_executes_each_partition_exactly_once() {
        let hits = AtomicUsize::new(0);
        let mask = AtomicUsize::new(0);
        run_parts(5, |p| {
            hits.fetch_add(1, Ordering::SeqCst);
            mask.fetch_or(1 << p, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(mask.load(Ordering::SeqCst), 0b11111);
    }

    #[test]
    fn par_row_chunks_writes_disjoint_complete_output() {
        set_threads(3);
        set_min_par_work(1);
        let (rows, cols) = (13, 4);
        let mut out = vec![0.0f32; rows * cols];
        par_row_chunks("map", &mut out, rows, cols, 1, |_| Vec::new(), |range, chunk| {
            for (off, r) in range.enumerate() {
                for c in 0..cols {
                    chunk[off * cols + c] += (r * cols + c) as f32 + 1.0;
                }
            }
        });
        let expect: Vec<f32> = (0..rows * cols).map(|i| i as f32 + 1.0).collect();
        assert_eq!(out, expect, "every element written exactly once");
        set_threads(1);
        set_min_par_work(DEFAULT_MIN_PAR_WORK);
    }

    #[test]
    fn worker_panic_is_reported_and_pool_survives() {
        let boom = catch_unwind(AssertUnwindSafe(|| {
            run_parts(3, |p| assert!(p != 2, "deliberate test panic in worker partition"));
        }));
        assert!(boom.is_err(), "worker panic must propagate to the dispatcher");
        // The pool must still dispatch correctly afterwards.
        let hits = AtomicUsize::new(0);
        run_parts(3, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3, "pool usable after a worker panic");
    }

    #[test]
    fn nested_dispatch_degrades_to_serial() {
        let inner_hits = AtomicUsize::new(0);
        run_parts(2, |_| {
            // A nested run_parts would deadlock on the pool mutex if it
            // tried to dispatch; it must run serially instead.
            run_parts(4, |_| {
                inner_hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner_hits.load(Ordering::SeqCst), 2, "nested calls ran serially");
    }
}
