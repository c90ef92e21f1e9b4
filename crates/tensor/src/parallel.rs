//! Deterministic multi-threaded kernel execution.
//!
//! [`run_parts`] / [`par_row_chunks`] execute a row-range-partitioned
//! closure on a persistent pool of worker threads (the [`KernelPool`]);
//! [`par_segment_chunks`] partitions by whole segments of a CSR-style
//! pointer instead, for reductions over a node's edges.
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
//! # Dispatch
//!
//! Each worker owns a mailbox: a sequence number plus the erased partition
//! closure and its index. The dispatcher writes the job, bumps the
//! sequence with Release and unparks the worker; the worker, waiting for
//! the sequence to move with Acquire, runs the partition and decrements a
//! shared countdown. An idle worker spins briefly, then yields its core,
//! then parks once about 100 µs have passed without a job; the dispatcher
//! runs partition 0 itself and then waits on the countdown by spinning
//! and yielding, never on a futex. A dispatch to awake workers costs well
//! under a microsecond; a parked worker pays one futex wake-up.
//!
//! # Work thresholds
//!
//! Kernels smaller than [`min_par_work`] "work units" (≈ one fused
//! multiply-add each) always run serially: below it, the dispatch and the
//! second core's cold caches cost more than the split saves. Tests lower
//! the threshold with [`set_min_par_work`] to force parallel dispatch on
//! tiny shapes.
//!
//! # Allocation discipline
//!
//! Workers never allocate or drop a `Matrix`: they write through raw
//! row-range slices into output buffers the *dispatching* thread
//! allocated. The thread's buffer pool ([`crate::PoolScope`]) and the
//! fresh/hit alloc counters therefore observe every allocation exactly
//! once, on the thread that owns them, no matter how many workers ran
//! the kernel.

use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::sanitize;

/// Hard cap on pool workers; a safety bound, far above any sensible
/// `DGNN_THREADS` for the kernels in this crate.
pub const MAX_THREADS: usize = 64;

/// Default minimum total work (in ≈FMA-sized units) before a kernel is
/// split across workers. Measured (DESIGN.md §7): at the paper's config
/// every value from 4,096 to 65,536 trains equally fast at width 2, and
/// below 32,768 the d = 8 presets split GEMMs too small to pay for it.
pub const DEFAULT_MIN_PAR_WORK: usize = 32_768;

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
    let start = Instant::now();
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

/// `spin_loop` rounds a waiter polls before it starts yielding its core.
const SPIN_ROUNDS: u32 = 64;

/// How long an idle worker keeps polling its mailbox after its last job
/// before it parks. A training step issues its kernels microseconds apart,
/// so a worker stays awake through them and sleeps through long serial
/// kernels and between fits.
const PARK_AFTER: Duration = Duration::from_micros(100);

/// Polls `ready` until it holds: `SPIN_ROUNDS` spins, then one
/// `yield_now` per poll so an oversubscribed core still runs whoever the
/// waiter waits for. Returns `false` if `budget` ran out first.
fn spin_then_yield(budget: Duration, ready: impl Fn() -> bool) -> bool {
    for _ in 0..SPIN_ROUNDS {
        if ready() {
            return true;
        }
        std::hint::spin_loop();
    }
    let start = Instant::now();
    while !ready() {
        if start.elapsed() >= budget {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// One partition of a dispatch: a raw pointer to the dispatcher's
/// (stack-held) partition closure plus the partition index.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    part: usize,
}

/// A worker's inbox. The dispatcher writes `job`, then bumps `seq` with
/// Release; the worker waits for `seq` to move with Acquire and only then
/// reads `job`. Aligned to a cache line so one worker polling its `seq`
/// does not share a line with the writes to another's.
#[repr(align(64))]
struct Mailbox {
    seq: AtomicUsize,
    job: UnsafeCell<Option<Job>>,
}

// `job` is the only non-`Sync` field. It is written only by the dispatcher
// holding the pool mutex, and only while the owning worker is idle: the
// worker's last read of it precedes its Release decrement of `pending`,
// which the dispatcher Acquire-waits to reach zero before returning. The
// worker reads it only after an Acquire load of `seq` observed the Release
// bump that follows the write.
// SAFETY: by that protocol reads and writes of `job` never overlap, and the
// pointee of `Job::task` is `Sync`, so calling it from a worker is sound.
unsafe impl Sync for Mailbox {}
// SAFETY: the mailbox moves into its worker thread inside an `Arc`; the
// raw pointer it holds is only dereferenced under the protocol argued for
// `Sync` above, which does not depend on which thread owns the box.
unsafe impl Send for Mailbox {}

/// A spawned worker: its mailbox and the handle that unparks it.
struct Worker {
    mailbox: Arc<Mailbox>,
    thread: Thread,
}

/// The persistent worker set plus the completion state of the dispatch
/// in flight. Workers are spawned lazily and live for the process
/// lifetime. All dispatch is serialized under the `workers` mutex, so
/// `pending` and `panicked` always belong to the dispatch holding it.
struct KernelPool {
    workers: Mutex<Vec<Worker>>,
    /// Partitions of the current dispatch not yet finished by a worker.
    pending: AtomicUsize,
    /// Set by a worker whose partition panicked; the dispatcher reads and
    /// clears it once `pending` reaches zero.
    panicked: AtomicBool,
}

static POOL: KernelPool = KernelPool {
    workers: Mutex::new(Vec::new()),
    pending: AtomicUsize::new(0),
    panicked: AtomicBool::new(false),
};

/// Grows `workers` to at least `want` threads.
fn ensure_workers(workers: &mut Vec<Worker>, want: usize) {
    while workers.len() < want {
        let mailbox = Arc::new(Mailbox { seq: AtomicUsize::new(0), job: UnsafeCell::new(None) });
        let inbox = Arc::clone(&mailbox);
        let handle = std::thread::Builder::new()
            .name(format!("dgnn-kernel-{}", workers.len()))
            .spawn(move || worker_loop(&inbox))
            .expect("kernel pool: spawning a worker thread failed");
        workers.push(Worker { mailbox, thread: handle.thread().clone() });
    }
}

fn worker_loop(mailbox: &Mailbox) {
    let mut seen = 0;
    loop {
        // Spin, then yield, then park until the dispatcher bumps `seq`. The
        // dispatcher unparks after every bump, and a pending unpark makes
        // `park` return at once, so a bump between the last poll and the
        // `park` call is never lost.
        while !spin_then_yield(PARK_AFTER, || mailbox.seq.load(Ordering::Acquire) != seen) {
            std::thread::park();
        }
        seen = mailbox.seq.load(Ordering::Acquire);
        // SAFETY: the Acquire load above observed the dispatcher's bump,
        // which it made after writing `job`; it writes again only after
        // our `pending` decrement below (see `unsafe impl Sync for Mailbox`).
        let job = unsafe { *mailbox.job.get() }.expect("kernel pool: a mailbox bump always carries a job");
        // A panicking kernel must not wedge the dispatcher (it waits for
        // `pending` to drain), so catch it and report failure.
        let ok = catch_unwind(AssertUnwindSafe(|| {
            IN_KERNEL.with(|c| c.set(true));
            // SAFETY: the dispatcher keeps the closure alive until `pending`
            // reaches zero, which cannot happen before our decrement below.
            let task = unsafe { &*job.task };
            task(job.part);
        }))
        .is_ok();
        IN_KERNEL.with(|c| c.set(false));
        if !ok {
            POOL.panicked.store(true, Ordering::Relaxed);
        }
        // Release publishes this partition's output writes and the
        // `panicked` store to the dispatcher's Acquire wait.
        POOL.pending.fetch_sub(1, Ordering::Release);
    }
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
    // function does not return — and `f` is not dropped — until `pending`
    // has drained to zero, and the caller-side partition below runs under
    // `catch_unwind` so even a local panic cannot unwind past that wait.
    // SAFETY: lifetime-only transmute; the erased reference outlives the
    // dispatch because the wait below blocks until every worker has
    // finished its partition of this exact job set.
    let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
    let mut workers = match POOL.workers.lock() {
        Ok(g) => g,
        // A dispatcher can only panic while holding the lock before it
        // posts a job (a failed spawn) or after its completion wait, so
        // every mailbox and counter is idle again.
        Err(poisoned) => poisoned.into_inner(),
    };
    ensure_workers(&mut workers, parts - 1);
    // Every worker is idle (the previous holder drained `pending`), so this
    // plain store cannot race a decrement; the Release bumps below publish it.
    POOL.pending.store(parts - 1, Ordering::Relaxed);
    // Under a fuzz schedule, shuffle which worker runs which partition so
    // completion orders vary; the plain path keeps the fixed assignment.
    let slots = fuzz.map(|fs| fuzz_permutation(parts - 1, fs.seed));
    for p in 1..parts {
        let worker = &workers[slots.as_ref().map_or(p - 1, |s| s[p - 1])];
        // SAFETY: we hold the pool mutex and this worker is idle — it
        // decremented `pending` for its last job before the previous
        // dispatcher's Acquire wait let go of the lock — so nothing reads
        // the cell until the Release bump below publishes this write.
        unsafe { *worker.mailbox.job.get() = Some(Job { task, part: p }) };
        worker.mailbox.seq.fetch_add(1, Ordering::Release);
        // Cheap when the worker is awake; wakes it when it has parked.
        worker.thread.unpark();
    }
    // The dispatching thread is partition 0's worker: small jobs pay no
    // wake-up for the first partition and the thread is never idle.
    let local = catch_unwind(AssertUnwindSafe(|| {
        IN_KERNEL.with(|c| c.set(true));
        f(0);
    }));
    IN_KERNEL.with(|c| c.set(false));
    // Acquire pairs with each worker's Release decrement: once it reads
    // zero, every partition's writes and `panicked` stores are visible.
    spin_then_yield(Duration::MAX, || POOL.pending.load(Ordering::Acquire) == 0);
    let workers_ok = !POOL.panicked.swap(false, Ordering::Relaxed);
    drop(workers);
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

/// Which rows of a segment kernel's output a segment owns: one row per
/// segment (`out` is `N × ld`), or the rows of its members (`out` is
/// `E × ld`, member rows `seg[n]..seg[n + 1]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentRows {
    /// Output row `n` belongs to segment `n`.
    PerSegment,
    /// Output rows `seg[n]..seg[n + 1]` belong to segment `n`.
    PerMember,
}

/// First segment of partition `part` of `parts` over the CSR-style pointer
/// `seg`: the split points balance members plus segments, so a partition
/// of many empty segments is as cheap as one of a few full ones. `seg` is
/// non-decreasing, so `seg[b] + b` is strictly increasing in `b` and the
/// split is a binary search for the first boundary at or past the target.
fn segment_split(seg: &[usize], parts: usize, part: usize) -> usize {
    let n = seg.len() - 1;
    let target = (seg[n] + n) * part / parts;
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if seg[mid] + mid < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`par_row_chunks`] for a kernel over the segments of a CSR-style
/// pointer `seg` (`N + 1` entries, `seg[0] == 0`; segment `n` has members
/// `seg[n]..seg[n + 1]`). Partitions are contiguous *segment* ranges, so a
/// reduction over a segment's members never crosses a partition; their
/// split points balance member counts, not segment counts, because the
/// segments of one edge family are mostly empty. `f(segments, chunk)`
/// receives the partition's segment range and the rows of `out` those
/// segments own under `rows` (see [`SegmentRows`]).
///
/// `reads(segments)` declares the partition's input spans, as for
/// [`par_row_chunks`]; the output write is recorded automatically. The
/// dispatch is recorded with segments as its items.
///
/// # Panics
/// Panics if `seg` is empty, does not start at 0, or `out` does not hold
/// exactly the rows `rows` implies.
#[allow(clippy::too_many_arguments)] // `par_row_chunks`'s, plus the segment pointer and row kind
pub fn par_segment_chunks(
    kernel: &'static str,
    out: &mut [f32],
    seg: &[usize],
    rows: SegmentRows,
    ld: usize,
    work_per_member: usize,
    reads: impl Fn(&Range<usize>) -> Vec<sanitize::Access>,
    f: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    assert!(seg.first() == Some(&0), "par_segment_chunks: segment pointer must start at 0");
    let n = seg.len() - 1;
    let members = seg[n];
    let row_of = |b: usize| match rows {
        SegmentRows::PerSegment => b,
        SegmentRows::PerMember => seg[b],
    };
    assert_eq!(out.len(), row_of(n) * ld, "par_segment_chunks: output length mismatch");
    let parts = planned_parts(members, work_per_member.max(ld).max(1)).min(n.max(1));
    // Split points on the stack (`parts <= MAX_THREADS`), checked to run
    // from 0 to `n` without decreasing in segments or output rows: that is
    // what makes the partitions' output slices below disjoint and complete,
    // whatever `seg` holds.
    let mut bounds = [0usize; MAX_THREADS + 1];
    for (p, b) in bounds.iter_mut().enumerate().take(parts + 1) {
        *b = segment_split(seg, parts, p);
    }
    assert!(
        bounds[parts] == n
            && bounds[..=parts].windows(2).all(|w| w[0] <= w[1] && row_of(w[0]) <= row_of(w[1])),
        "par_segment_chunks: segment pointer is not non-decreasing"
    );
    let range_of = |p: usize| bounds[p]..bounds[p + 1];
    sanitize::record_parts(kernel, parts, n, range_of, |_, r| {
        let mut accesses = vec![sanitize::Access::write(sanitize::OUT, row_of(r.start) * ld..row_of(r.end) * ld)];
        accesses.extend(reads(r));
        accesses
    });
    if parts <= 1 {
        f(0..n, out);
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    run_parts(parts, move |p| {
        let range = range_of(p);
        let (lo, hi) = (row_of(range.start), row_of(range.end));
        // SAFETY: segment ranges of different partitions are disjoint and
        // `row_of` is non-decreasing, so the row ranges are disjoint too;
        // `out` outlives the dispatch and holds `row_of(n) * ld` elements
        // (asserted above), so each slice is in-bounds and unaliased.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo * ld), (hi - lo) * ld) };
        f(range, chunk);
    });
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
        // The worker slot each partition ran on, from the worker's thread
        // name; `usize::MAX` stands for the dispatching thread.
        let ran_on: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        run_parts(5, |p| {
            mask.fetch_or(1 << p, Ordering::SeqCst);
            let slot = std::thread::current()
                .name()
                .and_then(|n| n.strip_prefix("dgnn-kernel-"))
                .and_then(|i| i.parse().ok());
            ran_on[p].store(slot.unwrap_or(usize::MAX), Ordering::SeqCst);
        });
        set_fuzz_schedule(None);
        assert_eq!(mask.load(Ordering::SeqCst), 0b11111, "fuzzed dispatch ran every partition");
        let slots = fuzz_permutation(4, 7);
        assert_ne!(slots, [0, 1, 2, 3], "seed 7 must shuffle the slots for this check to mean anything");
        let ran_on: Vec<usize> = ran_on.iter().map(|s| s.load(Ordering::SeqCst)).collect();
        assert_eq!(ran_on[0], usize::MAX, "partition 0 runs on the dispatcher");
        assert_eq!(ran_on[1..], slots[..], "partition p runs on worker slots[p - 1]");
    }

    #[test]
    fn dispatch_reaches_workers_at_every_point_of_their_idle_cycle() {
        // Pauses from "still spinning" through "about to park" to "long
        // parked": a bump that lands between a worker's last poll and its
        // `park` call must still wake it, or this test hangs.
        let hits = AtomicUsize::new(0);
        let mut dispatched = 0;
        for pause in (0..=30).map(|i| PARK_AFTER * i / 10).chain([PARK_AFTER * 50]) {
            std::thread::sleep(pause);
            run_parts(3, |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            dispatched += 3;
        }
        assert_eq!(hits.load(Ordering::SeqCst), dispatched);
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
    fn segment_splits_tile_and_balance_members() {
        // 100 empty segments, then 10 of 10 members each: split by segment
        // count, the last partition would get every member.
        let seg: Vec<usize> = (0..=110usize).map(|n| n.saturating_sub(100) * 10).collect();
        for parts in 1..6 {
            let bounds: Vec<usize> = (0..=parts).map(|p| segment_split(&seg, parts, p)).collect();
            assert_eq!((bounds[0], bounds[parts]), (0, 110), "parts={parts}");
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "parts={parts}: {bounds:?}");
        }
        // Members plus segments weigh 210; the halves weigh 111 and 99.
        assert_eq!(segment_split(&seg, 2, 1), 101);
    }

    #[test]
    #[should_panic(expected = "not non-decreasing")]
    fn par_segment_chunks_rejects_overlapping_rows() {
        set_threads(2);
        set_min_par_work(1);
        // Segment 0 claims rows 0..20 of a 5-row output.
        let mut out = vec![0.0f32; 5];
        par_segment_chunks("segment_softmax", &mut out, &[0, 20, 5], SegmentRows::PerMember, 1, 1, |_| Vec::new(), |_, _| {});
    }

    #[test]
    fn worker_panic_is_reported_and_pool_survives() {
        // Once with the panicking worker's peers awake, once with them
        // parked: the peers of a failed dispatch must still be reachable.
        for pause in [Duration::ZERO, PARK_AFTER * 50] {
            run_parts(4, |_| {});
            std::thread::sleep(pause);
            let boom = catch_unwind(AssertUnwindSafe(|| {
                run_parts(4, |p| assert!(p != 2, "deliberate test panic in worker partition"));
            }));
            assert!(boom.is_err(), "worker panic must propagate to the dispatcher");
            // The pool must still dispatch correctly afterwards, without
            // re-reporting the old panic.
            let hits = AtomicUsize::new(0);
            run_parts(4, |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 4, "pool usable after a worker panic");
        }
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
