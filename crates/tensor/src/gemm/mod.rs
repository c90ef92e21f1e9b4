//! Register-tiled GEMM subsystem with runtime-dispatched SIMD microkernels
//! that read their operands where they lie.
//!
//! Every dense matmul entry point in [`crate::Matrix`] (`matmul`,
//! `matmul_tn`, `matmul_nt`, `matmul_nt_acc`, `gather_matmul_nt`, the
//! scorer against resident panels) routes through this module unless the
//! legacy scalar backend is selected. The microkernels take a strided operand description (the `(ptr, rs, cs)`
//! interface of BLIS / tract, carried all the way into the kernel), so at
//! the tall-skinny shapes this repo trains at — where a packing pass costs
//! as much as the multiply — nothing is copied that does not have to be:
//!
//! * **Left operand, in place** ([`Lhs`]) — tile lane `i` at inner index
//!   `kk` is `data[lane(i) + kk * k_stride]`. Row-major rows (`matmul`,
//!   `matmul_nt`, `matmul_nt_acc`) are `lane = row * k`, `k_stride = 1`;
//!   the gathered variants put `idx[row] * k` in the same slot; `matmul_tn`
//!   reads a column band of `self` as `lane = col`, `k_stride = cols`. The
//!   dead lanes of a ragged last `MR`-row tile are clamped to its last live
//!   row — an in-bounds re-read whose products are never stored — instead
//!   of being zero-padded into a copy.
//! * **Right operand** ([`Rhs`]) — B row `kk` of an `NR`-column panel is 8
//!   contiguous floats. A row-major `k × n` operand (`matmul`, `matmul_tn`)
//!   already has that shape and is read in place with row stride `n`.
//!   Packing survives only where the layout truly differs,
//!   always on the dispatching thread and shared read-only by every
//!   partition: [`pack_b_tail`] for the one ragged `n % NR` column panel,
//!   whose in-place 8-float load would run past the row (and, on the last
//!   row, past the operand); [`pack_bt`] per call for the `…_nt` right
//!   operand in training (`matmul_nt`, `matmul_nt_acc`: its panels run down
//!   `rhs` columns, and `rhs` is a parameter that changes every step); and
//!   `pack_bt` *once* for a resident catalog — a served item table is
//!   held as [`PackedPanels`] and scored by
//!   [`Matrix::gather_matmul_panels`](crate::Matrix::gather_matmul_panels)
//!   without ever being packed again. Pool workers allocate and copy
//!   nothing.
//! * **Microkernel** — an `MR × NR` register tile accumulates over `k`.
//!   Each output element `(i, j)` lives in a fixed register lane and is a
//!   fold over ascending `kk` of single-rounding operations starting from
//!   `0.0` — the accumulation order depends on neither the operand layout,
//!   the tile index, the partition boundaries, nor the thread count, so
//!   parallel results are bit-identical to serial for every backend, and
//!   in-place results are bit-identical to the pack-then-tile pipeline this
//!   module used to run (kept as the test oracle below).
//! * **Row-vector microkernel** (`kernel_1x64`, the scorer's partitions of
//!   a few rows — a served batch is usually one query) — the same eight
//!   accumulators spent on eight *panels* of one row: one broadcast of
//!   `a[kk]` against eight B rows, 64 output columns, no dead lanes. Every
//!   lane still runs the chain the tile runs for that element — ascending
//!   `kk` from `0.0`, one single-rounding operation per step on the SIMD
//!   backends, multiply-then-add on the portable one — so which kernel a
//!   partition gets (decided by its row count, `panels::score_loop`)
//!   cannot change a bit of any element. The portable fold is moreover the
//!   legacy scalar dot, which is how [`Backend::Scalar`] is served from
//!   the same panels with its historical bits.
//! * **Blocked reduction** ([`tile_loop_blocked`], `matmul_tn`) — when `k`
//!   is the long dimension (`Hᵀ·G` reduces over every node), one pass per
//!   tile would stream all of B once per tile. The loop instead walks `k`
//!   in [`K_BLOCK`]-row blocks and runs every tile over a block while it is
//!   in cache; between blocks each element's chain is parked in its own
//!   output slot and picked up again ([`Fold::Resume`]: load C, keep
//!   folding, store). An f32 store/load is exact, so this is still the one
//!   ascending-`kk` fold from `0.0`.
//!
//! Backends:
//!
//! * [`Backend::Avx2`] — AVX2/FMA 8×8 kernel ([`avx2`]), selected when the
//!   CPU reports both features at runtime.
//! * [`Backend::Neon`] — aarch64 NEON 8×8 kernel ([`neon`]).
//! * [`Backend::Generic`] — portable unrolled scalar 8×8 kernel on the
//!   same operand description ([`generic`]); the always-available tiled
//!   fallback.
//! * [`Backend::Scalar`] — the legacy cache-blocked scalar loops in
//!   `dense.rs`, bypassing this module's tile loop entirely. This is the
//!   historical kernel, bit-for-bit: forcing `DGNN_GEMM=scalar` reproduces
//!   exactly the numbers the repo produced before this module existed. The
//!   one product without a legacy loop is the scorer against
//!   [`PackedPanels`], which runs the portable kernels (same bits, above).
//!
//! Selection happens once per process from the `DGNN_GEMM` environment
//! variable (`auto` | `avx2` | `neon` | `generic` | `scalar`); benches and
//! tests can override per-thread with [`set_backend`], mirroring the
//! thread-local knobs in [`crate::parallel`]. SIMD backends requested on
//! hardware that lacks them degrade to [`Backend::Generic`] with a
//! one-time warning rather than aborting.

use std::ops::Range;
use std::sync::OnceLock;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod avx2;
pub(crate) mod generic;
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;
mod panels;

pub use panels::PackedPanels;
pub(crate) use panels::score_loop;

/// Rows per microkernel tile.
pub const MR: usize = 8;
/// Columns per microkernel tile (and per B column panel).
pub const NR: usize = 8;

/// Which GEMM implementation executes the routed matmul entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// AVX2/FMA 8×8 microkernel (x86/x86_64 with runtime `avx2` + `fma`
    /// detection).
    Avx2,
    /// NEON 8×8 microkernel (aarch64).
    Neon,
    /// Portable unrolled scalar 8×8 microkernel.
    Generic,
    /// Legacy cache-blocked scalar loops; no tile loop, historical
    /// bit-exact numerics, legacy kernel names in the sanitizer log.
    Scalar,
}

impl Backend {
    /// Stable lowercase name, as accepted by `DGNN_GEMM` and exported by
    /// the profile bench's `gemm/kernel` gauge.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
            Backend::Generic => "generic",
            Backend::Scalar => "scalar",
        }
    }

    /// True when this backend runs the microkernel tile loop (everything
    /// except the legacy scalar loops), whose calls [`GemmCounters`] counts
    /// as `packed_calls`.
    pub fn is_packed(self) -> bool {
        !matches!(self, Backend::Scalar)
    }
}

/// Best tiled backend the running CPU supports.
fn detect() -> Backend {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return Backend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Backend::Neon;
        }
    }
    Backend::Generic
}

/// True when `b` can actually execute on this CPU.
fn available(b: Backend) -> bool {
    match b {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Backend::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        Backend::Generic | Backend::Scalar => true,
        #[allow(unreachable_patterns)] // arms above are cfg-gated per arch
        _ => false,
    }
}

/// Process-wide default, resolved once from `DGNN_GEMM` + feature
/// detection.
fn env_default() -> Backend {
    static DEFAULT: OnceLock<Backend> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let raw = std::env::var("DGNN_GEMM").unwrap_or_default();
        let want = match raw.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => return detect(),
            "avx2" => Backend::Avx2,
            "neon" => Backend::Neon,
            "generic" | "packed" => Backend::Generic,
            "scalar" => Backend::Scalar,
            other => {
                eprintln!("DGNN_GEMM={other:?} is not auto|avx2|neon|generic|scalar; using auto");
                return detect();
            }
        };
        if available(want) {
            want
        } else {
            eprintln!(
                "DGNN_GEMM={} requested but this CPU does not support it; using generic",
                want.name()
            );
            Backend::Generic
        }
    })
}

thread_local! {
    /// Per-thread override used by benches/tests; `None` defers to the
    /// process-wide `DGNN_GEMM` default.
    static OVERRIDE: std::cell::Cell<Option<Backend>> = const { std::cell::Cell::new(None) };
}

/// The backend the current thread's matmul dispatches will use. Workers of
/// the kernel pool never call this: the dispatching thread resolves the
/// backend once and captures it in the partition closure.
pub fn backend() -> Backend {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(env_default)
}

/// Overrides the backend for the current thread (`None` restores the
/// `DGNN_GEMM` default). Unavailable SIMD backends degrade to
/// [`Backend::Generic`] exactly as the env path does, so a forced setting
/// can never dispatch an illegal instruction.
pub fn set_backend(b: Option<Backend>) {
    let checked = b.map(|want| if available(want) { want } else { Backend::Generic });
    OVERRIDE.with(|o| o.set(checked));
}

/// Per-thread counters over the routed GEMM entry points, giving benches a
/// uniform view of *all* matmul work — including fused paths like
/// `matmul_nt_acc` that older accounting lumped into backward rule totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GemmCounters {
    /// Calls routed through the microkernel tile loop.
    pub packed_calls: u64,
    /// Calls served by the legacy scalar loops.
    pub scalar_calls: u64,
    /// Multiply–accumulate count (`m·n·k` per call), both pipelines.
    pub macs: u64,
}

thread_local! {
    static COUNTERS: std::cell::Cell<GemmCounters> = const {
        std::cell::Cell::new(GemmCounters { packed_calls: 0, scalar_calls: 0, macs: 0 })
    };
}

/// Records one routed GEMM call on the dispatching thread.
pub(crate) fn count_call(packed: bool, m: usize, n: usize, k: usize) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        if packed {
            v.packed_calls += 1;
        } else {
            v.scalar_calls += 1;
        }
        v.macs = v.macs.saturating_add((m as u64).saturating_mul(n as u64).saturating_mul(k as u64));
        c.set(v);
    });
}

/// Snapshot of this thread's GEMM counters.
pub fn counters() -> GemmCounters {
    COUNTERS.with(|c| c.get())
}

/// Zeroes this thread's GEMM counters (bench epochs).
pub fn reset_counters() {
    COUNTERS.with(|c| c.set(GemmCounters::default()));
}

/// Number of `MR`-row panels needed to cover `rows`.
pub(crate) fn row_panels(rows: usize) -> usize {
    rows.div_ceil(MR)
}

/// Length in floats of the packed-B buffer for `k × n` (zero-padded to
/// whole panels).
pub(crate) fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Length in floats of the packed ragged column panel of a `k × n` right
/// operand: `k × NR` when `n % NR != 0`, nothing otherwise.
pub(crate) fn packed_tail_len(k: usize, n: usize) -> usize {
    match n % NR {
        0 => 0,
        _ => NR * k,
    }
}

/// Packs the ragged last column panel of the row-major `k × n` matrix `b`
/// — columns `n - n % NR ..n` — as `k` rows of `NR` floats, zero-filling
/// the missing columns: the one panel an in-place 8-float B load would
/// read past (on the last row, past the operand). `out` holds
/// [`packed_tail_len`] floats.
pub(crate) fn pack_b_tail(b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let live = n % NR;
    if live == 0 {
        return;
    }
    let j0 = n - live;
    for (kk, dst) in out[..NR * k].chunks_exact_mut(NR).enumerate() {
        dst[..live].copy_from_slice(&b[kk * n + j0..(kk + 1) * n]);
        dst[live..].fill(0.0);
    }
}

/// Packs the *transpose* of the row-major `jn × k` matrix `b` (so the
/// virtual right operand is `bᵀ`, `k × jn`): panel column `j` at inner
/// index `kk` is `b[(j0 + j) * k + kk]`. Reads each `b` row contiguously.
pub(crate) fn pack_bt(b: &[f32], jn: usize, k: usize, out: &mut [f32]) {
    let used = packed_b_len(k, jn);
    out[..used].fill(0.0);
    let panels = jn.div_ceil(NR);
    for p in 0..panels {
        let j0 = p * NR;
        let live = NR.min(jn - j0);
        let dst = &mut out[p * NR * k..(p + 1) * NR * k];
        for j in 0..live {
            for (kk, &v) in b[(j0 + j) * k..(j0 + j + 1) * k].iter().enumerate() {
                dst[kk * NR + j] = v;
            }
        }
    }
}

/// How a tile's register fold meets the output buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fold {
    /// Chains start at `0.0`; the tile overwrites the output.
    Fresh,
    /// Chains start at `0.0`; the tile is *added* onto the output with one
    /// `+` per element after the register fold (the `matmul_nt_acc`
    /// contract).
    AddTo,
    /// Chains start at the value already in the output and the tile
    /// overwrites it: the next `k` block of a fold an earlier call began
    /// (the blocked `matmul_tn`). An f32 store/load round trip is exact, so
    /// the chain is the one an unblocked loop would run.
    Resume,
}

/// The left operand of a tile loop, read where it lies: element `(r, kk)`
/// of the partition's virtual `span × k` operand is
/// `data[lane(r) + kk * k_stride]`.
pub(crate) struct Lhs<'a, F: Fn(usize) -> usize> {
    /// The whole operand buffer.
    pub data: &'a [f32],
    /// Offset of local output row `r`'s `kk = 0` element: `(row0 + r) * k`
    /// for row-major rows, `idx[row0 + r] * k` for gathered rows,
    /// `col0 + r` for the column band `matmul_tn` reads.
    pub lane: F,
    /// Distance between consecutive `kk`: `1` along a row, the row width
    /// down a column.
    pub k_stride: usize,
}

/// The right operand of a tile loop, as `NR`-column panels of a virtual
/// `k × n` matrix.
pub(crate) enum Rhs<'a> {
    /// A row-major `k × n` operand read in place (B row `kk` of panel `pc`
    /// is `b[kk * n + pc * NR..][..NR]`), plus its ragged last panel packed
    /// by [`pack_b_tail`] (empty when `n % NR == 0`).
    InPlace {
        /// The operand itself.
        b: &'a [f32],
        /// The packed ragged panel.
        tail: &'a [f32],
    },
    /// Every panel packed by [`pack_bt`], `k × NR` floats each.
    Packed(&'a [f32]),
}

impl Rhs<'_> {
    /// Panel `pc` at inner index `k0`: the floats from B row `k0` on, and
    /// the distance between consecutive B rows.
    fn panel(&self, pc: usize, k: usize, n: usize, k0: usize) -> (&[f32], usize) {
        match *self {
            Rhs::Packed(pb) => (&pb[(pc * k + k0) * NR..], NR),
            Rhs::InPlace { b, .. } if (pc + 1) * NR <= n => (&b[k0 * n + pc * NR..], n),
            Rhs::InPlace { tail, .. } => (&tail[k0 * NR..], NR),
        }
    }
}

/// Rows of the reduction dimension [`tile_loop_blocked`] folds per pass:
/// `64 × n` floats of B is 32 KB at the encoder's `n = 128`, so a block is
/// read from cache by every tile instead of being streamed once per tile.
pub(crate) const K_BLOCK: usize = 64;

/// Runs the tile loop for one partition with both operands read in place:
/// `out` is the partition's `span × n` row-major output chunk and `k` the
/// reduction length. [`Fold::AddTo`] adds the product onto `out`; anything
/// else overwrites it.
///
/// Every element's value is a fold over ascending `kk` from `0.0` in a
/// fixed register lane, so the result is independent of operand layout,
/// panel boundaries, partitioning, and thread count.
#[allow(clippy::too_many_arguments)] // two operands, three extents, output, fold
pub(crate) fn tile_loop<F: Fn(usize) -> usize>(
    be: Backend,
    a: &Lhs<'_, F>,
    b: &Rhs<'_>,
    k: usize,
    n: usize,
    span: usize,
    out: &mut [f32],
    fold: Fold,
) {
    if k == 0 {
        // An empty fold is `0.0`; no kernel runs, so no operand pointer is
        // ever formed from an empty buffer.
        for v in &mut out[..span * n] {
            if fold == Fold::AddTo {
                *v += 0.0;
            } else {
                *v = 0.0;
            }
        }
        return;
    }
    tile_block(be, a, b, k, 0..k, n, span, out, fold);
}

/// [`tile_loop`] for a long reduction: walks `k` in [`K_BLOCK`]-row blocks
/// and runs every tile over one block before moving to the next, carrying
/// each element's chain across blocks through `out` ([`Fold::Resume`]).
/// Bit-identical to [`tile_loop`] with [`Fold::Fresh`]: the same ascending
/// `kk` fold from `0.0`, merely parked in memory between blocks.
pub(crate) fn tile_loop_blocked<F: Fn(usize) -> usize>(
    be: Backend,
    a: &Lhs<'_, F>,
    b: &Rhs<'_>,
    k: usize,
    n: usize,
    span: usize,
    out: &mut [f32],
) {
    if k <= K_BLOCK {
        return tile_loop(be, a, b, k, n, span, out, Fold::Fresh);
    }
    for k0 in (0..k).step_by(K_BLOCK) {
        let fold = if k0 == 0 { Fold::Fresh } else { Fold::Resume };
        tile_block(be, a, b, k, k0..(k0 + K_BLOCK).min(k), n, span, out, fold);
    }
}

/// One pass of every tile over the non-empty inner range `kr` of a
/// `k`-long reduction.
#[allow(clippy::too_many_arguments)] // `tile_loop`'s, plus the inner range
fn tile_block<F: Fn(usize) -> usize>(
    be: Backend,
    a: &Lhs<'_, F>,
    b: &Rhs<'_>,
    k: usize,
    kr: Range<usize>,
    n: usize,
    span: usize,
    out: &mut [f32],
    fold: Fold,
) {
    assert!(out.len() >= span.saturating_mul(n), "tile loop: output chunk too short");
    let kb = kr.len();
    let cp = n.div_ceil(NR);
    for pr in 0..row_panels(span) {
        let rows_live = MR.min(span - pr * MR);
        // Dead lanes of the last panel re-read its last live row: in
        // bounds, and their products are never stored.
        let lanes: [usize; MR] =
            std::array::from_fn(|i| (a.lane)(pr * MR + i.min(rows_live - 1)) + kr.start * a.k_stride);
        let a_last = lanes.iter().copied().fold(0, usize::max) + (kb - 1) * a.k_stride;
        assert!(a_last < a.data.len(), "tile loop: left operand read out of bounds");
        for pc in 0..cp {
            let cols_live = NR.min(n - pc * NR);
            let (bp, b_k) = b.panel(pc, k, n, kr.start);
            assert!((kb - 1) * b_k + NR <= bp.len(), "tile loop: right operand read out of bounds");
            let c0 = pr * MR * n + pc * NR;
            match be {
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                // Avx2 is selected only after runtime checks of `avx2`+`fma`
                // (see `detect`/`available`), and `kb >= 1` (`kr` is
                // non-empty).
                // SAFETY: the two asserts above bound the furthest A element
                // (`max lane + (kb-1)*k_stride`) and the last 8-float B row
                // (`(kb-1)*b_k + NR`) inside their slices; the live corner
                // at `c0` is inside `out` (length asserted on entry).
                Backend::Avx2 => unsafe {
                    avx2::kernel_8x8(
                        kb,
                        a.data.as_ptr(),
                        &lanes,
                        a.k_stride,
                        bp.as_ptr(),
                        b_k,
                        out.as_mut_ptr().add(c0),
                        n,
                        rows_live,
                        cols_live,
                        fold,
                    );
                },
                #[cfg(target_arch = "aarch64")]
                // SAFETY: Neon is selected only when the runtime check
                // `is_aarch64_feature_detected!("neon")` holds; the operand
                // and output bounds argument is identical to the AVX2 arm
                // (asserted A and B extents, masked store inside `out`).
                Backend::Neon => unsafe {
                    neon::kernel_8x8(
                        kb,
                        a.data.as_ptr(),
                        &lanes,
                        a.k_stride,
                        bp.as_ptr(),
                        b_k,
                        out.as_mut_ptr().add(c0),
                        n,
                        rows_live,
                        cols_live,
                        fold,
                    );
                },
                // `Scalar` never reaches the tile loop (dense.rs routes it
                // to the legacy kernels first); degrade defensively.
                _ => generic::kernel_8x8(
                    kb, a.data, &lanes, a.k_stride, bp, b_k, out, c0, n, rows_live, cols_live, fold,
                ),
            }
        }
    }
}

/// The pack-then-tile pipeline this module used before the microkernels
/// read operands in place, kept as the oracle every entry point is held
/// bitwise equal to: A rows packed into zero-padded `MR`-lane panels, all of
/// B packed into `NR`-column panels, one unblocked pass of the tile loop
/// over the panels.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Length in floats of the packed-A buffer for `rows × k`.
    pub fn packed_a_len(rows: usize, k: usize) -> usize {
        row_panels(rows) * MR * k
    }

    /// `out[panel][kk*MR + i] = a[src(panel*MR + i) * k + kk]`, zero-filling
    /// the lanes past `rows`.
    fn pack_rows(a: &[f32], k: usize, rows: usize, src: impl Fn(usize) -> usize) -> Vec<f32> {
        let mut out = vec![0.0; packed_a_len(rows, k)];
        for r in 0..rows {
            let (panel, lane) = (r / MR, r % MR);
            for (kk, &v) in a[src(r) * k..(src(r) + 1) * k].iter().enumerate() {
                out[panel * MR * k + kk * MR + lane] = v;
            }
        }
        out
    }

    /// Packs the row-major `rows × k` matrix `a`.
    pub fn pack_a(a: &[f32], k: usize, rows: usize) -> Vec<f32> {
        pack_rows(a, k, rows, |r| r)
    }

    /// [`pack_a`] through a row-index indirection.
    pub fn pack_a_gathered(a: &[f32], idx: &[usize], k: usize) -> Vec<f32> {
        pack_rows(a, k, idx.len(), |r| idx[r])
    }

    /// Packs the columns of the row-major `m × c` matrix `a` as the rows of
    /// `aᵀ`.
    pub fn pack_at(a: &[f32], m: usize, c: usize) -> Vec<f32> {
        let mut out = vec![0.0; packed_a_len(c, m)];
        for kk in 0..m {
            for col in 0..c {
                out[(col / MR) * MR * m + kk * MR + col % MR] = a[kk * c + col];
            }
        }
        out
    }

    /// Packs the row-major `k × n` matrix `b` into zero-padded `NR`-column
    /// panels.
    pub fn pack_b(b: &[f32], k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; packed_b_len(k, n)];
        for kk in 0..k {
            for j in 0..n {
                out[(j / NR) * NR * k + kk * NR + j % NR] = b[kk * n + j];
            }
        }
        out
    }

    /// [`super::pack_bt`] into a fresh buffer.
    pub fn pack_bt(b: &[f32], jn: usize, k: usize) -> Vec<f32> {
        let mut out = vec![0.0; packed_b_len(k, jn)];
        super::pack_bt(b, jn, k, &mut out);
        out
    }

    /// The tile loop over packed panels: panel lane `i` at `kk` is
    /// `pa[kk*MR + i]`, B row `kk` is `pb[kk*NR..][..NR]`.
    #[allow(clippy::too_many_arguments)] // the pre-in-place `tile_loop` signature
    pub fn tile_loop(
        be: Backend,
        pa: &[f32],
        pb: &[f32],
        k: usize,
        n: usize,
        span: usize,
        out: &mut [f32],
        fold: Fold,
    ) {
        assert!(fold != Fold::Resume, "the oracle folds every element in one pass");
        assert!(out.len() >= span * n);
        let lanes: [usize; MR] = std::array::from_fn(|i| i);
        for pr in 0..row_panels(span) {
            let rows_live = MR.min(span - pr * MR);
            let pa_panel = &pa[pr * MR * k..(pr + 1) * MR * k];
            for pc in 0..n.div_ceil(NR) {
                let cols_live = NR.min(n - pc * NR);
                let pb_panel = &pb[pc * NR * k..(pc + 1) * NR * k];
                let c0 = pr * MR * n + pc * NR;
                match be {
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    // Callers pass Avx2 only when `available`; `k >= 1`.
                    // SAFETY: both panels are slices of exactly `8*k` floats,
                    // which is every `lane + kk*8` and `kk*8 .. +8` the
                    // kernel reads; the live corner at `c0` is inside `out`
                    // (asserted above) by the tile geometry.
                    Backend::Avx2 if k > 0 => unsafe {
                        avx2::kernel_8x8(
                            k,
                            pa_panel.as_ptr(),
                            &lanes,
                            MR,
                            pb_panel.as_ptr(),
                            NR,
                            out.as_mut_ptr().add(c0),
                            n,
                            rows_live,
                            cols_live,
                            fold,
                        );
                    },
                    #[cfg(target_arch = "aarch64")]
                    // SAFETY: as the AVX2 arm, with NEON `available`.
                    Backend::Neon if k > 0 => unsafe {
                        neon::kernel_8x8(
                            k,
                            pa_panel.as_ptr(),
                            &lanes,
                            MR,
                            pb_panel.as_ptr(),
                            NR,
                            out.as_mut_ptr().add(c0),
                            n,
                            rows_live,
                            cols_live,
                            fold,
                        );
                    },
                    _ => generic::kernel_8x8(
                        k, pa_panel, &lanes, MR, pb_panel, NR, out, c0, n, rows_live, cols_live, fold,
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parallel, Matrix};
    use proptest::prelude::*;

    fn seq(len: usize, salt: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 7 + 3) % 11) as f32 * 0.25 - 1.0 + salt).collect()
    }

    /// Deterministic pseudo-random matrix (LCG) in roughly ±2.
    pub(super) fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % 1000) as f32 / 250.0 - 2.0
        })
    }

    /// The packed backends this CPU can run.
    pub(super) fn packed_backends() -> Vec<Backend> {
        let mut v = vec![Backend::Generic];
        if detect() != Backend::Generic {
            v.push(detect());
        }
        v
    }

    pub(super) fn assert_bits(got: &Matrix, want: &[f32], what: &str) {
        assert_eq!(got.as_slice().len(), want.len(), "{what}: length");
        for (i, (x, y)) in got.as_slice().iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x:?} vs oracle {y:?}");
        }
    }

    /// Every routed entry point at `m × k × n` (for `matmul_tn`: `k × m`
    /// transposed times `k × n`, so `k` is the blocked reduction) against
    /// the pack-then-tile oracle, bit for bit, on backend `be`.
    fn check_against_oracle(be: Backend, m: usize, k: usize, n: usize, seed: u64) {
        let what = |entry: &str| format!("{entry} {m}x{k}x{n} on {}", be.name());
        let a = mat(m, k, seed ^ 1);
        let b = mat(k, n, seed ^ 2);
        let bt = mat(n, k, seed ^ 3);
        let at = mat(k, m, seed ^ 4);
        let acc0 = mat(m, n, seed ^ 5);
        let idx: Vec<usize> = (0..m + 3).map(|i| (i * 7 + seed as usize) % m.max(1)).collect();
        let idx = if m == 0 { Vec::new() } else { idx };
        let g = idx.len();

        let pa = oracle::pack_a(a.as_slice(), k, m);
        let pg = oracle::pack_a_gathered(a.as_slice(), &idx, k);
        let pat = oracle::pack_at(at.as_slice(), k, m);
        let pb = oracle::pack_b(b.as_slice(), k, n);
        let pbt = oracle::pack_bt(bt.as_slice(), n, k);
        let run = |pa: &[f32], pb: &[f32], rows: usize, init: Vec<f32>, fold: Fold| {
            let mut out = init;
            oracle::tile_loop(be, pa, pb, k, n, rows, &mut out, fold);
            out
        };
        // 7.0 marks elements the oracle failed to overwrite.
        let want_nn = run(&pa, &pb, m, vec![7.0; m * n], Fold::Fresh);
        let want_tn = run(&pat, &pb, m, vec![7.0; m * n], Fold::Fresh);
        let want_nt = run(&pa, &pbt, m, vec![7.0; m * n], Fold::Fresh);
        let want_acc = run(&pa, &pbt, m, acc0.as_slice().to_vec(), Fold::AddTo);
        let want_gnt = run(&pg, &pbt, g, vec![7.0; g * n], Fold::Fresh);

        set_backend(Some(be));
        assert_bits(&a.matmul(&b), &want_nn, &what("matmul"));
        assert_bits(&at.matmul_tn(&b), &want_tn, &what("matmul_tn"));
        assert_bits(&a.matmul_nt(&bt), &want_nt, &what("matmul_nt"));
        let mut acc = acc0.clone();
        acc.matmul_nt_acc(&a, &bt);
        assert_bits(&acc, &want_acc, &what("matmul_nt_acc"));
        assert_bits(&a.gather_matmul_nt(&idx, &bt), &want_gnt, &what("gather_matmul_nt"));
        set_backend(None);
    }

    /// Runs `f` serially and then fanned out over three pool partitions.
    pub(super) fn serial_and_pooled(f: impl Fn()) {
        parallel::set_threads(1);
        f();
        parallel::set_threads(3);
        parallel::set_min_par_work(1);
        f();
        parallel::set_threads(1);
        parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
    }

    #[test]
    fn entry_points_match_the_packed_oracle_at_the_encoder_shapes() {
        for be in packed_backends() {
            serial_and_pooled(|| {
                // H·W1 and its two gradients on epinions_small and tiny: for
                // TN the 3,500 / 500 is the reduction length.
                check_against_oracle(be, 3_500, 16, 128, 1);
                check_against_oracle(be, 16, 3_500, 128, 2);
                check_against_oracle(be, 500, 16, 8, 3);
                check_against_oracle(be, 16, 500, 8, 4);
            });
        }
    }

    #[test]
    fn blocked_tn_matches_the_oracle_around_the_block_size() {
        for be in packed_backends() {
            serial_and_pooled(|| {
                for k in [K_BLOCK - 1, K_BLOCK, K_BLOCK + 1, 2 * K_BLOCK, 3 * K_BLOCK + 8] {
                    // Ragged in both output dimensions: Resume must reload
                    // exactly the live corner.
                    check_against_oracle(be, 13, k, 11, k as u64);
                    check_against_oracle(be, 16, k, 16, k as u64);
                }
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_entry_points_match_the_packed_oracle(
            m in 0usize..40,
            k_pick in 0usize..48,
            n in 0usize..40,
            threads in 1usize..4,
            seed in any::<u64>(),
        ) {
            // One case in six reduces over more than one block (TN only).
            let k = if k_pick < 40 { k_pick } else { [63, 64, 65, 200][k_pick % 4] };
            parallel::set_threads(threads);
            parallel::set_min_par_work(1);
            for be in packed_backends() {
                check_against_oracle(be, m, k, n, seed);
            }
            parallel::set_threads(1);
            parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
        }
    }

    #[test]
    fn in_place_operands_are_never_read_past_their_end() {
        // Operands that end exactly at the end of their allocation, at
        // shapes where a careless in-place load would run over: the last
        // row of a ragged B panel, the dead lanes of a ragged A panel, the
        // dead columns of a TN band. `tile_block` asserts every extent, so
        // an over-read is a panic here, not silence.
        for be in packed_backends() {
            for (m, k, n) in [(1, 1, 1), (9, 3, 9), (7, 5, 15), (8, 1, 17), (17, 70, 9)] {
                check_against_oracle(be, m, k, n, 9);
            }
        }
    }

    #[test]
    fn pack_b_tail_is_the_last_panel_of_the_full_packing() {
        for (k, n) in [(4, 10), (3, 7), (5, 16), (0, 5), (2, 1)] {
            let b = seq(k * n, 0.5);
            let mut tail = vec![9.0; packed_tail_len(k, n)];
            pack_b_tail(&b, k, n, &mut tail);
            let full = oracle::pack_b(&b, k, n);
            let want = if n % NR == 0 { &[][..] } else { &full[(n / NR) * NR * k..] };
            assert_eq!(tail, want, "k={k} n={n}");
        }
    }

    #[test]
    fn pack_b_and_bt_agree_on_transposed_input() {
        let (k, n) = (4, 10);
        let b = seq(k * n, 0.5);
        // bt as an explicit n×k transpose of b.
        let mut bt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        assert_eq!(oracle::pack_b(&b, k, n), oracle::pack_bt(&bt, n, k), "pack_bt of bᵀ must equal pack_b of b");
    }

    #[test]
    fn generic_tile_loop_matches_naive_product() {
        let (m, k, n) = (11, 5, 9);
        let a = seq(m * k, 0.1);
        let b = seq(k * n, -0.3);
        let mut tail = vec![0.0; packed_tail_len(k, n)];
        pack_b_tail(&b, k, n, &mut tail);
        let mut out = vec![0.0; m * n];
        let lhs = Lhs { data: &a, lane: |r| r * k, k_stride: 1 };
        let rhs = Rhs::InPlace { b: &b, tail: &tail };
        tile_loop(Backend::Generic, &lhs, &rhs, k, n, m, &mut out, Fold::Fresh);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f32;
                for kk in 0..k {
                    want += a[i * k + kk] * b[kk * n + j];
                }
                assert_eq!(out[i * n + j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn k_zero_overwrites_with_zeros_and_acc_preserves() {
        let (m, n) = (3, 4);
        let lhs = Lhs { data: &[], lane: |_| 0, k_stride: 1 };
        let rhs = Rhs::InPlace { b: &[], tail: &[] };
        let mut out = vec![7.0; m * n];
        tile_loop(Backend::Generic, &lhs, &rhs, 0, n, m, &mut out, Fold::Fresh);
        assert!(out.iter().all(|&v| v == 0.0), "k=0 overwrite must zero the chunk");
        let mut out = vec![7.0; m * n];
        tile_loop(Backend::Generic, &lhs, &rhs, 0, n, m, &mut out, Fold::AddTo);
        assert!(out.iter().all(|&v| v == 7.0), "k=0 accumulate adds 0.0 to each element");
        let mut out = vec![7.0; m * n];
        tile_loop_blocked(Backend::Generic, &lhs, &rhs, 0, n, m, &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "k=0 blocked fold must zero the chunk");
    }

    #[test]
    fn forced_unavailable_backend_degrades_to_generic() {
        // On any one machine at most one SIMD backend is available; the
        // other must degrade. Exercise whichever is foreign here.
        let foreign = if cfg!(target_arch = "aarch64") { Backend::Avx2 } else { Backend::Neon };
        set_backend(Some(foreign));
        assert_eq!(backend(), Backend::Generic);
        set_backend(None);
    }
}
