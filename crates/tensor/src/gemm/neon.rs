//! aarch64 NEON f32 microkernels over strided operands: the 8×8 tile and
//! the 1×64 row vector.
//!
//! Each output row's 8 columns live in two `float32x4_t` accumulators for
//! the whole `k` loop; element `(i, j)` is a fixed lane folded with fused
//! `FMLA` over ascending `kk` from `0.0`, so results are independent of
//! partitioning, operand layout and thread count — the same determinism
//! argument as the AVX2 kernel. The row-vector kernel gives each of eight
//! panels of one row the same pair of accumulators and the same chain.

use std::arch::aarch64::{float32x4_t, vdupq_n_f32, vfmaq_f32, vld1q_f32, vst1q_f32};

use super::Fold;

/// Computes one `8 × 8` register tile over `k` steps. A element `(i, kk)`
/// is `*a.add(lanes[i] + kk * a_k)`; B row `kk` is the 8 contiguous floats
/// at `b.add(kk * b_k)`. The `rows × cols` live corner goes to `c` with row
/// stride `rsc`, overwriting it. [`Fold::Fresh`] starts every chain from
/// `0.0`, [`Fold::Resume`] from the value already in `c`.
///
/// # Safety
/// Caller must guarantee NEON support (checked at backend selection via
/// `is_aarch64_feature_detected!`); `k >= 1`; that for every `i < 8` and
/// `kk < k`, `a + lanes[i] + kk*a_k` is a readable float and `b + kk*b_k`
/// starts 8 readable floats; and that `c + i*rsc + j` is readable and
/// writable for all `i < rows`, `j < cols` with `rows <= 8`,
/// `cols <= min(8, rsc)`.
#[expect(clippy::too_many_arguments, reason = "(ptr, strides) per operand is the kernel ABI")]
#[target_feature(enable = "neon")]
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
    // SAFETY: delegated to the caller contract above — every read is at
    // `a + lanes[i] + kk*a_k` or `b + kk*b_k .. +8` with `kk < k`, every
    // access to `c` stays inside its `rows×cols` corner, and NEON
    // availability was verified at backend selection.
    unsafe {
        let mut lo: [float32x4_t; 8] = [vdupq_n_f32(0.0); 8];
        let mut hi: [float32x4_t; 8] = [vdupq_n_f32(0.0); 8];
        if fold == Fold::Resume {
            for i in 0..rows {
                let row = c.add(i * rsc);
                if cols == 8 {
                    lo[i] = vld1q_f32(row);
                    hi[i] = vld1q_f32(row.add(4));
                } else {
                    // Dead columns restart from 0.0; they only ever fold
                    // the zero padding of the packed tail panel.
                    let mut tmp = [0.0f32; 8];
                    std::ptr::copy_nonoverlapping(row, tmp.as_mut_ptr(), cols);
                    lo[i] = vld1q_f32(tmp.as_ptr());
                    hi[i] = vld1q_f32(tmp.as_ptr().add(4));
                }
            }
        }
        let ap: [*const f32; 8] = std::array::from_fn(|i| a.add(lanes[i]));
        for kk in 0..k {
            let b0 = vld1q_f32(b.add(kk * b_k));
            let b1 = vld1q_f32(b.add(kk * b_k + 4));
            for i in 0..8 {
                let ai = vdupq_n_f32(*ap[i].add(kk * a_k));
                lo[i] = vfmaq_f32(lo[i], ai, b0);
                hi[i] = vfmaq_f32(hi[i], ai, b1);
            }
        }
        for i in 0..rows {
            let row = c.add(i * rsc);
            if cols == 8 {
                vst1q_f32(row, lo[i]);
                vst1q_f32(row.add(4), hi[i]);
            } else {
                let mut tmp = [0.0f32; 8];
                vst1q_f32(tmp.as_mut_ptr(), lo[i]);
                vst1q_f32(tmp.as_mut_ptr().add(4), hi[i]);
                for (j, &v) in tmp.iter().enumerate().take(cols) {
                    *row.add(j) = v;
                }
            }
        }
    }
}

/// Computes one row against up to eight consecutive packed panels: output
/// column `p*8 + j` is the fold over `kk < k` of
/// `*a.add(kk * a_k) * *b.add((p*k + kk)*8 + j)` from `0.0`, one fused
/// `FMLA` per step — lane for lane the chain [`kernel_8x8`] runs for that
/// element under [`Fold::Fresh`]. The first `cols` columns are stored to
/// `c`.
///
/// # Safety
/// Caller must guarantee NEON support; `k >= 1`; `1 <= panels <= 8`;
/// `a + kk*a_k` is a readable float for every `kk < k`; `b` starts `panels`
/// panels of `k` rows of 8 readable floats; and `c` starts `cols` writable
/// floats with `(panels-1)*8 < cols <= panels*8`.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn kernel_1x64(
    k: usize,
    a: *const f32,
    a_k: usize,
    b: *const f32,
    panels: usize,
    c: *mut f32,
    cols: usize,
) {
    // A dead accumulator pair re-reads the last live panel, never stored.
    // SAFETY: delegated to the caller contract above — every read is at
    // `a + kk*a_k` or inside one of the `panels` live panels, every store
    // stays inside `c[..cols]`, and NEON availability was verified at
    // backend selection.
    unsafe {
        let bp: [*const f32; 8] = std::array::from_fn(|p| b.add(p.min(panels - 1) * k * 8));
        let mut lo: [float32x4_t; 8] = [vdupq_n_f32(0.0); 8];
        let mut hi: [float32x4_t; 8] = [vdupq_n_f32(0.0); 8];
        for kk in 0..k {
            let av = vdupq_n_f32(*a.add(kk * a_k));
            for p in 0..8 {
                lo[p] = vfmaq_f32(lo[p], av, vld1q_f32(bp[p].add(kk * 8)));
                hi[p] = vfmaq_f32(hi[p], av, vld1q_f32(bp[p].add(kk * 8 + 4)));
            }
        }
        for p in 0..panels {
            let live = (cols - p * 8).min(8);
            if live == 8 {
                vst1q_f32(c.add(p * 8), lo[p]);
                vst1q_f32(c.add(p * 8 + 4), hi[p]);
            } else {
                let mut tmp = [0.0f32; 8];
                vst1q_f32(tmp.as_mut_ptr(), lo[p]);
                vst1q_f32(tmp.as_mut_ptr().add(4), hi[p]);
                std::ptr::copy_nonoverlapping(tmp.as_ptr(), c.add(p * 8), live);
            }
        }
    }
}
