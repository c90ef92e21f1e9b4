//! AVX2/FMA f32 microkernels over strided operands: the 8×8 tile and the
//! 1×64 row vector.
//!
//! The register tile is one `ymm` accumulator per row (8 column lanes), so
//! output element `(i, j)` is lane `j` of `acc[i]` for the entire `k`
//! loop: a pure chain of `vfmadd` operations from `0.0` in ascending `kk`
//! order. That fixed per-lane fold is the whole determinism argument —
//! nothing about partitioning, operand layout, or thread count can reach
//! the arithmetic. The row-vector kernel spends the same eight accumulators
//! on eight panels of one row; each lane runs the identical chain, so the
//! two kernels agree bit for bit on every element both can compute.

#[cfg(target_arch = "x86")]
use std::arch::x86 as arch;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as arch;

use arch::{
    __m256, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
    _mm256_storeu_ps,
};

use super::Fold;

/// Computes one `8 × 8` register tile over `k` steps. A element `(i, kk)`
/// is `*a.add(lanes[i] + kk * a_k)`; B row `kk` is the 8 contiguous floats
/// at `b.add(kk * b_k)`. The top-left `rows × cols` corner goes to `c` with
/// row stride `rsc`, overwriting it. [`Fold::Fresh`] starts every chain
/// from `0.0`, [`Fold::Resume`] from the value already in `c`.
///
/// # Safety
/// Caller must guarantee: the CPU supports `avx2` and `fma` (the dispatch
/// in [`super::tile_loop`] checks via `is_x86_feature_detected!`);
/// `k >= 1` (the tile loop answers `k == 0` without a kernel call); for
/// every `i < 8` and `kk < k`, `a + lanes[i] + kk*a_k` is a readable float
/// and `b + kk*b_k` starts 8 readable floats; and for every `i < rows`,
/// `j < cols`, the address `c + i*rsc + j` is readable and writable — i.e.
/// `c` covers the partition's output chunk with `rows <= 8`,
/// `cols <= min(8, rsc)`.
#[expect(clippy::too_many_arguments, reason = "(ptr, strides) per operand is the kernel ABI")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn kernel_8x8(
    k: usize,
    a: *const f32,
    lanes: &[usize; 8],
    a_k: usize,
    b: *const f32,
    b_k: usize,
    c: *mut f32,
    rsc: usize,
    rows: usize,
    cols: usize,
    fold: Fold,
) {
    // SAFETY: delegated to the caller contract above — every read below is
    // at `a + lanes[i] + kk*a_k` or `b + kk*b_k .. +8` with `kk < k`, every
    // access to `c` stays inside its `rows×cols` corner, and the target
    // features are verified before dispatch.
    unsafe {
        let mut t: [__m256; 8] = [_mm256_setzero_ps(); 8];
        if fold == Fold::Resume {
            for (i, ti) in t.iter_mut().enumerate().take(rows) {
                let row = c.add(i * rsc);
                if cols == 8 {
                    *ti = _mm256_loadu_ps(row);
                } else {
                    // Dead columns restart from 0.0; they only ever fold
                    // the zero padding of the packed tail panel.
                    let mut tmp = [0.0f32; 8];
                    std::ptr::copy_nonoverlapping(row, tmp.as_mut_ptr(), cols);
                    *ti = _mm256_loadu_ps(tmp.as_ptr());
                }
            }
        }
        let ap: [*const f32; 8] = std::array::from_fn(|i| a.add(lanes[i]));
        for kk in 0..k {
            let bv = _mm256_loadu_ps(b.add(kk * b_k));
            // Fully unrolled by the fixed bound: 8 broadcasts + 8 fmadds
            // per kk, one accumulator register per output row.
            for (ti, ai) in t.iter_mut().zip(&ap) {
                let av = _mm256_broadcast_ss(&*ai.add(kk * a_k));
                *ti = _mm256_fmadd_ps(av, bv, *ti);
            }
        }
        for (i, ti) in t.iter().enumerate().take(rows) {
            let row = c.add(i * rsc);
            if cols == 8 {
                _mm256_storeu_ps(row, *ti);
            } else {
                let mut tmp = [0.0f32; 8];
                _mm256_storeu_ps(tmp.as_mut_ptr(), *ti);
                for (j, &v) in tmp.iter().enumerate().take(cols) {
                    *row.add(j) = v;
                }
            }
        }
    }
}

/// Computes one row against up to eight consecutive packed panels: output
/// column `p*8 + j` is the fold over `kk < k` of
/// `*a.add(kk * a_k) * *b.add((p*k + kk)*8 + j)` from `0.0`, one `vfmadd`
/// per step — lane for lane the chain [`kernel_8x8`] runs for that element
/// under [`Fold::Fresh`]. The first `cols` columns are stored to `c`.
///
/// # Safety
/// Caller must guarantee: the CPU supports `avx2` and `fma`; `k >= 1`;
/// `1 <= panels <= 8`; `a + kk*a_k` is a readable float for every
/// `kk < k`; `b` starts `panels` panels of `k` rows of 8 readable floats;
/// and `c` starts `cols` writable floats with
/// `(panels-1)*8 < cols <= panels*8`.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn kernel_1x64(
    k: usize,
    a: *const f32,
    a_k: usize,
    b: *const f32,
    panels: usize,
    c: *mut f32,
    cols: usize,
) {
    // A dead accumulator re-reads the last live panel and is never stored.
    // SAFETY: delegated to the caller contract above — every read below is
    // at `a + kk*a_k` or inside one of the `panels` live panels, every
    // store stays inside `c[..cols]`, and the target features are verified
    // before dispatch.
    unsafe {
        let bp: [*const f32; 8] = std::array::from_fn(|p| b.add(p.min(panels - 1) * k * 8));
        let mut t: [__m256; 8] = [_mm256_setzero_ps(); 8];
        for kk in 0..k {
            let av = _mm256_broadcast_ss(&*a.add(kk * a_k));
            // Fully unrolled by the fixed bound: 8 loads + 8 fmadds per kk
            // against one broadcast.
            for (tp, p) in t.iter_mut().zip(&bp) {
                *tp = _mm256_fmadd_ps(av, _mm256_loadu_ps(p.add(kk * 8)), *tp);
            }
        }
        for (p, tp) in t.iter().enumerate().take(panels) {
            let live = (cols - p * 8).min(8);
            if live == 8 {
                _mm256_storeu_ps(c.add(p * 8), *tp);
            } else {
                let mut tmp = [0.0f32; 8];
                _mm256_storeu_ps(tmp.as_mut_ptr(), *tp);
                std::ptr::copy_nonoverlapping(tmp.as_ptr(), c.add(p * 8), live);
            }
        }
    }
}
