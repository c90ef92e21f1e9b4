//! Head-blocked segment kernels: the edge-attention primitives.
//!
//! A graph attention layer scores every edge, normalises the scores over
//! the edges that share a target node (a *segment*), and sums the
//! neighbours' values under those weights. With `H` heads a row of width
//! `d` is `H` column blocks of `d / H`, and every kernel here takes all
//! heads at once: logits and weights are `E × H`, values `E × d`, and head
//! `h` reads and writes only column block `h`. A multi-head layer runs on
//! its full-width operands, with no per-head column copy and no concat.
//!
//! Segments are a CSR-style pointer `seg` of `N + 1` entries starting at
//! 0: members (edges) `seg[n]..seg[n + 1]` belong to segment `n`. Every
//! kernel runs on the kernel pool through [`parallel::par_segment_chunks`],
//! partitioned into whole segments, and every output element is one
//! fixed-order fold, the serial loop's. Results are therefore bit-identical
//! at any thread count. With `H = 1` each kernel is the single-head loop,
//! and with `H > 1` head `h`'s block is bit-identical to that loop run on
//! the head's column slice (unit tests below).
//!
//! Work is priced for the pool's split threshold as one unit per
//! multiply-add (an `exp` counts 16), the same scale as a GEMM's FMA. At
//! the default threshold a 4-wide edge family of ~10k edges stays serial
//! and a 16-wide one (HGT's heads, DGCF's four intents) splits.

use crate::parallel::{self, SegmentRows};
use crate::{pool, Matrix};

/// Asserts that `seg` is a segment pointer over `members` rows.
fn check_seg(what: &str, seg: &[usize], members: usize) {
    assert_eq!(seg.first(), Some(&0), "{what}: segment pointer must start at 0");
    assert_eq!(seg.last(), Some(&members), "{what}: segment pointer does not cover all edges");
}

/// Width of one head's block: `d / heads`, which must divide evenly.
pub(crate) fn block_width(what: &str, d: usize, heads: usize) -> usize {
    assert!(heads > 0 && d.is_multiple_of(heads), "{what}: width {d} does not split into {heads} heads");
    d / heads
}

/// In-place stable softmax of column `col` of the row-major `rows` (`h`
/// columns): subtract the column's max, exponentiate, divide by the sum
/// when it is positive.
fn softmax_column(rows: &mut [f32], h: usize, col: usize) {
    let max = rows.iter().skip(col).step_by(h).copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in rows.iter_mut().skip(col).step_by(h) {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in rows.iter_mut().skip(col).step_by(h) {
            *v /= sum;
        }
    }
}

impl Matrix {
    /// `n × heads` per-head row dot products: `out[r, h]` is the dot of
    /// column block `h` of row `r` of `self` and of `rhs`, folded left to
    /// right. `heads = 1` is [`Matrix::row_dots`]. Row-partitioned.
    pub fn head_dots(&self, rhs: &Matrix, heads: usize) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "head_dots: shape mismatch");
        let (rows, d) = self.shape();
        let b = block_width("head_dots", d, heads);
        let mut data = pool::alloc_overwritten(rows * heads);
        let (a, c) = (self.as_slice(), rhs.as_slice());
        parallel::par_row_chunks(&mut data, rows, heads, d, |range, chunk| {
            for (out, r) in chunk.chunks_exact_mut(heads).zip(range) {
                for (head, o) in out.iter_mut().enumerate() {
                    let block = r * d + head * b..r * d + (head + 1) * b;
                    *o = a[block.clone()].iter().zip(&c[block]).map(|(&p, &q)| p * q).sum();
                }
            }
        });
        Matrix::from_vec(rows, heads, data)
    }

    /// Softmax over every segment of every column: `self` is `E × H`
    /// logits, and `out[e, h]` is `exp(x[e, h] − m) / Σ exp(x[·, h] − m)`
    /// over the members of `e`'s segment, `m` their max. A segment whose
    /// sum is not positive is left exponentiated but unnormalised.
    pub fn segment_softmax(&self, seg: &[usize]) -> Matrix {
        check_seg("segment_softmax", seg, self.rows());
        let (e, h) = self.shape();
        let mut data = pool::alloc_overwritten(e * h);
        let x = self.as_slice();
        parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerMember, h, 16 * h, |segs, chunk| {
            let base = seg[segs.start];
            chunk.copy_from_slice(&x[base * h..seg[segs.end] * h]);
            for n in segs {
                let rows = &mut chunk[(seg[n] - base) * h..(seg[n + 1] - base) * h];
                for col in 0..h {
                    softmax_column(rows, h, col);
                }
            }
        });
        Matrix::from_vec(e, h, data)
    }

    /// Gradient of [`Matrix::segment_softmax`] given its output `y` and
    /// the upstream gradient `g` (both `E × H`): the softmax Jacobian
    /// product `y ⊙ (g − ⟨g, y⟩)`, the dot taken over each segment's
    /// members in each column.
    pub fn segment_softmax_grad(y: &Matrix, g: &Matrix, seg: &[usize]) -> Matrix {
        assert_eq!(y.shape(), g.shape(), "segment_softmax_grad: y/g shape mismatch");
        check_seg("segment_softmax_grad", seg, y.rows());
        let (e, h) = y.shape();
        let mut data = pool::alloc_overwritten(e * h);
        let (yd, gd) = (y.as_slice(), g.as_slice());
        parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerMember, h, 4 * h, |segs, chunk| {
            let base = seg[segs.start];
            for n in segs {
                let span = seg[n] * h..seg[n + 1] * h;
                let (ys, gs) = (&yd[span.clone()], &gd[span]);
                let out = &mut chunk[(seg[n] - base) * h..(seg[n + 1] - base) * h];
                for col in 0..h {
                    let dot: f32 = ys
                        .iter()
                        .skip(col)
                        .step_by(h)
                        .zip(gs.iter().skip(col).step_by(h))
                        .map(|(&s, &g)| s * g)
                        .sum();
                    for ((o, &s), &g) in out
                        .iter_mut()
                        .skip(col)
                        .step_by(h)
                        .zip(ys.iter().skip(col).step_by(h))
                        .zip(gs.iter().skip(col).step_by(h))
                    {
                        *o = s * (g - dot);
                    }
                }
            }
        });
        Matrix::from_vec(e, h, data)
    }

    /// Weighted segment sum: `w` is `E × H` and `v` is `E × d`, and
    /// `out[n, block h] = Σ_{e ∈ seg(n)} w[e, h] · v[e, block h]`, summed
    /// from zero in member order (`N × d`, `N = seg.len() − 1`). With
    /// softmax weights this is multi-head attention aggregation.
    pub fn segment_weighted_sum(w: &Matrix, v: &Matrix, seg: &[usize]) -> Matrix {
        assert_eq!(w.rows(), v.rows(), "segment_weighted_sum: weight/value mismatch");
        check_seg("segment_weighted_sum", seg, v.rows());
        let (h, d) = (w.cols(), v.cols());
        let b = block_width("segment_weighted_sum", d, h);
        let n = seg.len() - 1;
        let mut data = pool::alloc_zeroed(n * d);
        let (wd, vd) = (w.as_slice(), v.as_slice());
        parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerSegment, d, d, |segs, chunk| {
            // Heads outermost: at narrow widths per-edge setup, not the
            // multiply-adds, is the cost, so each edge gets one slice.
            for (off, node) in segs.enumerate() {
                for head in 0..h {
                    let out = &mut chunk[off * d + head * b..][..b];
                    for e in seg[node]..seg[node + 1] {
                        let k = wd[e * h + head];
                        for (o, &x) in out.iter_mut().zip(&vd[e * d + head * b..][..b]) {
                            *o += k * x;
                        }
                    }
                }
            }
        });
        Matrix::from_vec(n, d, data)
    }

    /// Gradient of [`Matrix::segment_weighted_sum`] w.r.t. the weights:
    /// `out[e, h] = ⟨g[n, block h], v[e, block h]⟩` for `e` in segment
    /// `n` (`g` is `N × d`), each dot accumulated from zero left to right.
    pub fn segment_weighted_sum_grad_weights(v: &Matrix, g: &Matrix, seg: &[usize], heads: usize) -> Matrix {
        assert_eq!(v.cols(), g.cols(), "segment_weighted_sum_grad_weights: width mismatch");
        assert_eq!(g.rows() + 1, seg.len(), "segment_weighted_sum_grad_weights: one gradient row per segment");
        check_seg("segment_weighted_sum_grad_weights", seg, v.rows());
        let (e, d) = v.shape();
        let b = block_width("segment_weighted_sum_grad_weights", d, heads);
        let mut data = pool::alloc_overwritten(e * heads);
        let (vd, gd) = (v.as_slice(), g.as_slice());
        parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerMember, heads, d, |segs, chunk| {
            let base = seg[segs.start];
            for node in segs {
                for head in 0..heads {
                    let gb = &gd[node * d + head * b..][..b];
                    for e in seg[node]..seg[node + 1] {
                        let mut dot = 0.0;
                        for (&gk, &x) in gb.iter().zip(&vd[e * d + head * b..][..b]) {
                            dot += gk * x;
                        }
                        chunk[(e - base) * heads + head] = dot;
                    }
                }
            }
        });
        Matrix::from_vec(e, heads, data)
    }

    /// Gradient of [`Matrix::segment_weighted_sum`] w.r.t. the values:
    /// `out[e, block h] = w[e, h] · g[n, block h]` for `e` in segment `n`,
    /// each added to a zeroed output (so a `−0.0` product reads `+0.0`, as
    /// in the accumulating loop this kernel replaced).
    pub fn segment_weighted_sum_grad_values(w: &Matrix, g: &Matrix, seg: &[usize]) -> Matrix {
        assert_eq!(g.rows() + 1, seg.len(), "segment_weighted_sum_grad_values: one gradient row per segment");
        check_seg("segment_weighted_sum_grad_values", seg, w.rows());
        let (e, h) = w.shape();
        let d = g.cols();
        let b = block_width("segment_weighted_sum_grad_values", d, h);
        let mut data = pool::alloc_zeroed(e * d);
        let (wd, gd) = (w.as_slice(), g.as_slice());
        parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerMember, d, d, |segs, chunk| {
            let base = seg[segs.start];
            for node in segs {
                for head in 0..h {
                    let gb = &gd[node * d + head * b..][..b];
                    for e in seg[node]..seg[node + 1] {
                        let k = wd[e * h + head];
                        for (o, &gk) in chunk[(e - base) * d + head * b..][..b].iter_mut().zip(gb) {
                            *o += k * gk;
                        }
                    }
                }
            }
        });
        Matrix::from_vec(e, d, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sign-mixed values with exact ties and zeros, so a different fold
    /// order or a lost signed zero shows up in the bits.
    fn awkward(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = ((r * 37 + c * 11 + salt) % 23) as f32 - 11.0;
            if x == 0.0 { -0.0 } else { x * 0.173_205 }
        })
    }

    fn assert_bits(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x:?} vs {y:?}");
        }
    }

    // The single-head loops, written out as plainly as possible: the
    // reference every head of a head-blocked kernel is held to.

    fn softmax_ref(x: &[f32], seg: &[usize]) -> Vec<f32> {
        let mut v = x.to_vec();
        for n in 0..seg.len() - 1 {
            let xs = &mut v[seg[n]..seg[n + 1]];
            if xs.is_empty() {
                continue;
            }
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in xs.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in xs {
                    *v /= sum;
                }
            }
        }
        v
    }

    fn softmax_grad_ref(y: &[f32], g: &[f32], seg: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0; y.len()];
        for n in 0..seg.len() - 1 {
            let (lo, hi) = (seg[n], seg[n + 1]);
            let dot: f32 = y[lo..hi].iter().zip(&g[lo..hi]).map(|(&s, &g)| s * g).sum();
            for e in lo..hi {
                out[e] = y[e] * (g[e] - dot);
            }
        }
        out
    }

    /// Returns the sum and both of its gradients for `E × 1` weights.
    fn weighted_sum_ref(w: &[f32], v: &Matrix, g: &Matrix, seg: &[usize]) -> (Matrix, Vec<f32>, Matrix) {
        let (n, d) = (seg.len() - 1, v.cols());
        let mut out = Matrix::zeros(n, d);
        let mut gw = vec![0.0; w.len()];
        let mut gv = Matrix::zeros(v.rows(), d);
        for i in 0..n {
            for e in seg[i]..seg[i + 1] {
                let mut dot = 0.0;
                for k in 0..d {
                    out.row_mut(i)[k] += w[e] * v[(e, k)];
                    dot += g[(i, k)] * v[(e, k)];
                    gv.row_mut(e)[k] += w[e] * g[(i, k)];
                }
                gw[e] = dot;
            }
        }
        (out, gw, gv)
    }

    fn column(m: &Matrix, c: usize) -> Vec<f32> {
        (0..m.rows()).map(|r| m[(r, c)]).collect()
    }

    fn from_columns(cols: &[Vec<f32>]) -> Matrix {
        Matrix::from_fn(cols[0].len(), cols.len(), |r, c| cols[c][r])
    }

    /// Segments of 3, 0, 5, 1, 0 and 3 edges: empty, single and long ones.
    const SEG: [usize; 7] = [0, 3, 3, 8, 9, 9, 12];

    #[test]
    fn every_head_is_the_single_head_loop_on_its_columns() {
        let (e, d) = (12, 6);
        for heads in [1, 2, 3] {
            let b = d / heads;
            let (logits, gy) = (awkward(e, heads, 1), awkward(e, heads, 2));
            let (v, g) = (awkward(e, d, 3), awkward(SEG.len() - 1, d, 4));

            let y = logits.segment_softmax(&SEG);
            let want_y: Vec<Vec<f32>> = (0..heads).map(|h| softmax_ref(&column(&logits, h), &SEG)).collect();
            assert_bits(&y, &from_columns(&want_y), "segment_softmax");
            let want_gy: Vec<Vec<f32>> =
                (0..heads).map(|h| softmax_grad_ref(&column(&y, h), &column(&gy, h), &SEG)).collect();
            assert_bits(&Matrix::segment_softmax_grad(&y, &gy, &SEG), &from_columns(&want_gy), "segment_softmax_grad");

            let (mut outs, mut gws, mut gvs) = (Vec::new(), Vec::new(), Vec::new());
            for h in 0..heads {
                let (vh, gh) = (v.slice_cols(h * b, (h + 1) * b), g.slice_cols(h * b, (h + 1) * b));
                let (out, gw, gv) = weighted_sum_ref(&column(&y, h), &vh, &gh, &SEG);
                outs.push(out);
                gws.push(gw);
                gvs.push(gv);
            }
            assert_bits(
                &Matrix::segment_weighted_sum(&y, &v, &SEG),
                &Matrix::concat_cols(&outs.iter().collect::<Vec<_>>()),
                "segment_weighted_sum",
            );
            assert_bits(
                &Matrix::segment_weighted_sum_grad_weights(&v, &g, &SEG, heads),
                &from_columns(&gws),
                "segment_weighted_sum_grad_weights",
            );
            assert_bits(
                &Matrix::segment_weighted_sum_grad_values(&y, &g, &SEG),
                &Matrix::concat_cols(&gvs.iter().collect::<Vec<_>>()),
                "segment_weighted_sum_grad_values",
            );

            let q = awkward(e, d, 5);
            let dots: Vec<Vec<f32>> = (0..heads)
                .map(|h| {
                    let (qh, vh) = (q.slice_cols(h * b, (h + 1) * b), v.slice_cols(h * b, (h + 1) * b));
                    (0..e).map(|r| qh.row(r).iter().zip(vh.row(r)).map(|(&x, &y)| x * y).sum()).collect()
                })
                .collect();
            assert_bits(&q.head_dots(&v, heads), &from_columns(&dots), "head_dots");
            let scaled: Vec<Matrix> = (0..heads)
                .map(|h| Matrix::from_fn(e, b, |r, c| v[(r, h * b + c)] * y[(r, h)]))
                .collect();
            assert_bits(
                &v.mul_col_broadcast(&y),
                &Matrix::concat_cols(&scaled.iter().collect::<Vec<_>>()),
                "mul_col_broadcast",
            );
        }
    }

    #[test]
    fn softmax_normalises_each_head_of_each_segment() {
        let y = awkward(12, 2, 9).segment_softmax(&SEG);
        for n in 0..SEG.len() - 1 {
            for h in 0..2 {
                let sum: f32 = (SEG[n]..SEG[n + 1]).map(|e| y[(e, h)]).sum();
                if SEG[n] < SEG[n + 1] {
                    assert!((sum - 1.0).abs() < 1e-5, "segment {n} head {h} sums to {sum}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not split into 4 heads")]
    fn ragged_heads_are_rejected() {
        let _ = Matrix::segment_weighted_sum(&Matrix::zeros(12, 4), &Matrix::zeros(12, 6), &SEG);
    }

    #[test]
    #[should_panic(expected = "does not cover all edges")]
    fn a_pointer_short_of_the_edges_is_rejected() {
        let _ = Matrix::zeros(13, 1).segment_softmax(&SEG);
    }
}
