//! Portable unrolled scalar microkernels over strided operands (the 8×8
//! tile and the 1×64 row vector) — the always-available fallback backend.
//!
//! Same operand description and tile geometry as the SIMD kernels,
//! implemented with plain `mul` + `add` (two roundings per step, like the
//! legacy scalar loops — software `mul_add` would be correct but slow on
//! hardware without FMA, which is exactly where this kernel runs). Each
//! output element folds over ascending `kk` from `0.0` in a fixed tile
//! slot, so parallel results are bit-identical to serial — and the two
//! kernels, running the same fold per element, to each other.

use super::{Fold, MR, NR};

/// Computes one `MR × NR` tile over `k` steps — A element `(i, kk)` is
/// `a[lanes[i] + kk * a_k]`, B row `kk` is `b[kk * b_k..][..NR]` — and
/// stores the `rows × cols` live corner into `out[c0..]` with row stride
/// `rsc`, each chain starting as `fold` says (see [`Fold`]). Safe code: all
/// indexing is slice-checked.
#[expect(clippy::too_many_arguments, reason = "mirrors the unsafe SIMD kernel ABI")]
pub(crate) fn kernel_8x8(
    k: usize,
    a: &[f32],
    lanes: &[usize; MR],
    a_k: usize,
    b: &[f32],
    b_k: usize,
    out: &mut [f32],
    c0: usize,
    rsc: usize,
    rows: usize,
    cols: usize,
    fold: Fold,
) {
    let mut t = [[0.0f32; NR]; MR];
    if fold == Fold::Resume {
        for (i, ti) in t.iter_mut().enumerate().take(rows) {
            ti[..cols].copy_from_slice(&out[c0 + i * rsc..c0 + i * rsc + cols]);
        }
    }
    for kk in 0..k {
        let bv = &b[kk * b_k..kk * b_k + NR];
        for (ti, &lane) in t.iter_mut().zip(lanes) {
            let ai = a[lane + kk * a_k];
            for (tij, &bj) in ti.iter_mut().zip(bv) {
                *tij += ai * bj;
            }
        }
    }
    for (i, ti) in t.iter().enumerate().take(rows) {
        out[c0 + i * rsc..c0 + i * rsc + cols].copy_from_slice(&ti[..cols]);
    }
}

/// Computes one row against the `b.len() / (k * NR)` consecutive packed
/// panels `b` (at most 8): `c[p*NR + j]` is the fold over `kk < k` of
/// `a[kk * a_k] * b[(p*k + kk)*NR + j]` from `0.0` — per element the fold
/// [`kernel_8x8`] runs under [`Fold::Fresh`], and the legacy scalar dot.
/// `c` is the live columns. Safe code: all indexing is slice-checked.
pub(crate) fn kernel_1x64(k: usize, a: &[f32], a_k: usize, b: &[f32], c: &mut [f32]) {
    let mut t = [[0.0f32; NR]; 8];
    let panels = b.chunks_exact(k * NR);
    for (tp, panel) in t.iter_mut().zip(panels) {
        for (kk, bv) in panel.chunks_exact(NR).enumerate() {
            let ai = a[kk * a_k];
            for (tj, &bj) in tp.iter_mut().zip(bv) {
                *tj += ai * bj;
            }
        }
    }
    for (cp, tp) in c.chunks_mut(NR).zip(&t) {
        cp.copy_from_slice(&tp[..cp.len()]);
    }
}
