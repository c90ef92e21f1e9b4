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
//! A row operand of [`Matrix::head_dots_via`] and the weighted segment sum
//! is an [`EdgeRows`]: per-edge rows, or a node table read through an
//! [`EdgeList`]'s destinations or sources. Each kernel has one body,
//! written over that row lookup; per-edge rows are the identity lookup.
//! Reading the table in place saves the `E × d` gather a layer would
//! otherwise copy. The gradient of a table operand is one row per table
//! row, summed from +0.0 over the edges that read it in increasing edge id:
//! per destination segment, or per source through the list's by-source
//! transpose. That is the order `scatter_add_rows` adds a gathered
//! operand's per-edge gradient in, so the table form has the bits of
//! gather → per-edge kernel → scatter.
//!
//! Work is priced for the pool's split threshold as one unit per
//! multiply-add (an `exp` counts 16), the same scale as a GEMM's FMA. At
//! the default threshold a 4-wide edge family of ~10k edges stays serial
//! and a 16-wide one (HGT's heads, DGCF's four intents) splits.

use std::rc::Rc;

use crate::parallel::{self, SegmentRows};
use crate::{pool, Csr, Matrix};

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

/// A graph's edges grouped by destination, with the by-source transpose.
///
/// Edges `seg[n]..seg[n + 1]` end at destination `n`; edge `e` starts at
/// `src[e]` and ends at `dst[e]`. The transpose lists the edges leaving
/// source `s` as `src_edges[src_seg[s]..src_seg[s + 1]]`, in increasing
/// edge id. [`EdgeList::new`] checks all of this once, when a model is
/// built; the fields stay public so the static analyzer can re-check a
/// list it is handed.
#[derive(Debug, Clone)]
pub struct EdgeList {
    /// Segment pointer over the destinations (`N + 1` entries from 0).
    pub seg: Rc<Vec<usize>>,
    /// Source node of every edge.
    pub src: Rc<Vec<usize>>,
    /// Destination node of every edge: the segment that holds it.
    pub dst: Rc<Vec<usize>>,
    /// By-source pointer (`S + 1` entries from 0) into `src_edges`.
    pub src_seg: Vec<usize>,
    /// Edge ids grouped by source, increasing within each source.
    pub src_edges: Vec<usize>,
}

impl EdgeList {
    /// Builds the list from a destination segment pointer and the edges'
    /// sources, each below `sources`.
    ///
    /// # Panics
    /// Panics if `seg` does not start at 0, decreases, or ends short of or
    /// past `src.len()`, or if a source is `sources` or more.
    pub fn new(seg: Vec<usize>, src: Vec<usize>, sources: usize) -> Self {
        check_seg("EdgeList", &seg, src.len());
        assert!(seg.windows(2).all(|w| w[0] <= w[1]), "EdgeList: segment pointer is not non-decreasing");
        assert!(src.iter().all(|&s| s < sources), "EdgeList: a source is {sources} or more");
        let dst = seg.windows(2).enumerate().flat_map(|(n, w)| std::iter::repeat_n(n, w[1] - w[0])).collect();
        // A stable counting sort by source keeps each source's edges in
        // increasing id.
        let mut src_seg = vec![0; sources + 1];
        for &s in &src {
            src_seg[s + 1] += 1;
        }
        for s in 0..sources {
            src_seg[s + 1] += src_seg[s];
        }
        let mut next = src_seg.clone();
        let mut src_edges = vec![0; src.len()];
        for (e, &s) in src.iter().enumerate() {
            src_edges[next[s]] = e;
            next[s] += 1;
        }
        Self { seg: Rc::new(seg), src: Rc::new(src), dst: Rc::new(dst), src_seg, src_edges }
    }

    /// The edges of a sparse matrix: row `r`'s entries end at `r` and start
    /// at their column.
    pub fn from_csr(csr: &Csr) -> Self {
        Self::new(csr.row_ptr().to_vec(), csr.col_idx().to_vec(), csr.cols())
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when there are no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Number of destination nodes: the rows of a table read through `dst`.
    pub fn nodes(&self) -> usize {
        self.seg.len() - 1
    }

    /// Number of source nodes: the rows of a table read through `src`.
    pub fn sources(&self) -> usize {
        self.src_seg.len() - 1
    }
}

/// Which row of an operand edge `e` reads.
#[derive(Clone, Copy, Debug)]
pub enum RowRead<'a> {
    /// Row `e`: the operand holds one row per edge.
    Edge,
    /// Row `dst[e]` of a table with one row per destination.
    Dst(&'a EdgeList),
    /// Row `src[e]` of a table with one row per source.
    Src(&'a EdgeList),
}

impl<'a> RowRead<'a> {
    /// Rows of an operand read this way over `edges` edges.
    fn rows(self, edges: usize) -> usize {
        match self {
            RowRead::Edge => edges,
            RowRead::Dst(list) => list.nodes(),
            RowRead::Src(list) => list.sources(),
        }
    }

    /// True unless every edge reads a row of its own.
    fn is_table(self) -> bool {
        !matches!(self, RowRead::Edge)
    }
}

/// A row operand of an edge kernel: a matrix and how edges read its rows.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRows<'a> {
    m: &'a Matrix,
    /// The edge → row map, `None` for the identity.
    index: Option<&'a [usize]>,
    /// A table's segment pointer, `None` for per-edge rows.
    seg: Option<&'a [usize]>,
}

impl<'a> EdgeRows<'a> {
    /// `m` read through `read`.
    ///
    /// # Panics
    /// Panics if a table read's list has a different number of rows than
    /// `m`.
    pub fn new(m: &'a Matrix, read: RowRead<'a>) -> Self {
        let (index, seg) = match read {
            RowRead::Edge => (None, None),
            RowRead::Dst(list) => (Some(list.dst.as_slice()), Some(list.seg.as_slice())),
            RowRead::Src(list) => (Some(list.src.as_slice()), Some(list.seg.as_slice())),
        };
        if read.is_table() {
            assert_eq!(m.rows(), read.rows(0), "edge rows: the table's rows do not match its edge list");
        }
        Self { m, index, seg }
    }

    /// Number of edges that read the operand.
    fn edges(&self) -> usize {
        self.index.map_or(self.m.rows(), <[usize]>::len)
    }

    /// Row width.
    fn cols(&self) -> usize {
        self.m.cols()
    }

    /// The row edge `e` reads.
    #[inline]
    fn row(&self, e: usize) -> &'a [f32] {
        let r = self.index.map_or(e, |idx| idx[e]);
        let d = self.m.cols();
        &self.m.as_slice()[r * d..(r + 1) * d]
    }
}

impl<'a> From<&'a Matrix> for EdgeRows<'a> {
    fn from(m: &'a Matrix) -> Self {
        Self::new(m, RowRead::Edge)
    }
}

/// Asserts that a table operand's list groups its edges by `seg`.
fn check_read_seg(what: &str, table_seg: Option<&[usize]>, seg: &[usize]) {
    if let Some(table_seg) = table_seg {
        assert!(std::ptr::eq(table_seg, seg) || table_seg == seg, "{what}: the table's edge list has another segment pointer");
    }
}

/// The gradient of a `d`-wide row operand read through `read` by `edges`
/// edges: one row per operand row, set to `zero` and then passed to
/// `add(row, e, n)` for every edge `e` that reads it, in increasing edge
/// id. `n` is `e`'s destination: its segment in `seg` for per-edge rows
/// (`e` itself when the op has no segments), the row for a
/// destination-read table, `dst[e]` for a source-read one. Rows are
/// partitioned over the pool; each is one fixed-order fold.
fn grad_rows(
    read: RowRead<'_>,
    edges: usize,
    seg: Option<&[usize]>,
    d: usize,
    zero: f32,
    add: impl Fn(&mut [f32], usize, usize) + Sync,
) -> Matrix {
    let rows = read.rows(edges);
    let mut data = pool::alloc_overwritten(rows * d);
    // `max(1)`: a zero-width operand has empty chunks and no rows to visit.
    let w = d.max(1);
    match (read, seg) {
        (RowRead::Edge, Some(seg)) => {
            parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerMember, d, d, |segs, chunk| {
                let base = seg[segs.start];
                for n in segs {
                    for e in seg[n]..seg[n + 1] {
                        let o = &mut chunk[(e - base) * d..][..d];
                        o.fill(zero);
                        add(o, e, n);
                    }
                }
            });
        }
        (RowRead::Edge, None) => parallel::par_row_chunks(&mut data, edges, d, d, |range, chunk| {
            for (o, e) in chunk.chunks_exact_mut(w).zip(range) {
                o.fill(zero);
                add(o, e, e);
            }
        }),
        (RowRead::Dst(list), _) => {
            let seg = list.seg.as_slice();
            parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerSegment, d, d, |nodes, chunk| {
                for (o, n) in chunk.chunks_exact_mut(w).zip(nodes) {
                    o.fill(zero);
                    for e in seg[n]..seg[n + 1] {
                        add(o, e, n);
                    }
                }
            });
        }
        (RowRead::Src(list), _) => {
            let (ptr, order, dst) = (list.src_seg.as_slice(), list.src_edges.as_slice(), list.dst.as_slice());
            parallel::par_segment_chunks(&mut data, ptr, SegmentRows::PerSegment, d, d, |sources, chunk| {
                for (o, s) in chunk.chunks_exact_mut(w).zip(sources) {
                    o.fill(zero);
                    for &e in &order[ptr[s]..ptr[s + 1]] {
                        add(o, e, dst[e]);
                    }
                }
            });
        }
    }
    Matrix::from_vec(rows, d, data)
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
        Matrix::head_dots_via(self.into(), rhs.into(), heads)
    }

    /// [`Matrix::head_dots`] over edges: `out[e, h]` dots column block `h`
    /// of the rows edge `e` reads from `a` and from `b` (`E × heads`).
    pub fn head_dots_via(a: EdgeRows<'_>, b: EdgeRows<'_>, heads: usize) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "head_dots: width mismatch");
        assert_eq!(a.edges(), b.edges(), "head_dots: edge count mismatch");
        let (rows, d) = (a.edges(), a.cols());
        let bw = block_width("head_dots", d, heads);
        let mut data = pool::alloc_overwritten(rows * heads);
        parallel::par_row_chunks(&mut data, rows, heads, d, |range, chunk| {
            for (out, r) in chunk.chunks_exact_mut(heads).zip(range) {
                let (ar, br) = (a.row(r), b.row(r));
                for (head, o) in out.iter_mut().enumerate() {
                    let block = head * bw..(head + 1) * bw;
                    *o = ar[block.clone()].iter().zip(&br[block]).map(|(&p, &q)| p * q).sum();
                }
            }
        });
        Matrix::from_vec(rows, heads, data)
    }

    /// Gradient of [`Matrix::head_dots_via`] w.r.t. the operand read
    /// through `read`, given the other operand and the upstream `E × H`
    /// gradient `g`: edge `e` adds `other(e)[block h] · g[e, h]` to the row
    /// it read. A per-edge row holds its one product as is (it starts from
    /// −0.0, the additive identity, so even a −0.0 product keeps its sign);
    /// a table row sums from +0.0, as a scatter onto a zeroed table does.
    pub fn head_dots_grad(read: RowRead<'_>, other: EdgeRows<'_>, g: &Matrix) -> Matrix {
        assert_eq!(g.rows(), other.edges(), "head_dots_grad: one gradient row per edge");
        let (heads, d) = (g.cols(), other.cols());
        let bw = block_width("head_dots_grad", d, heads);
        let gd = g.as_slice();
        let zero = if read.is_table() { 0.0 } else { -0.0 };
        grad_rows(read, g.rows(), None, d, zero, |o, e, _| {
            let x = other.row(e);
            for head in 0..heads {
                let k = gd[e * heads + head];
                for (o, &x) in o[head * bw..][..bw].iter_mut().zip(&x[head * bw..][..bw]) {
                    *o += x * k;
                }
            }
        })
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

    /// Weighted segment sum: `w` is `E × H` and `v` is `d` wide, and
    /// `out[n, block h] = Σ_{e ∈ seg(n)} w[e, h] · v(e)[block h]`, summed
    /// from zero in member order (`N × d`, `N = seg.len() − 1`), `v(e)` the
    /// row edge `e` reads. With softmax weights this is multi-head
    /// attention aggregation.
    pub fn segment_weighted_sum<'a>(w: &Matrix, v: impl Into<EdgeRows<'a>>, seg: &[usize]) -> Matrix {
        let v = v.into();
        assert_eq!(w.rows(), v.edges(), "segment_weighted_sum: weight/value mismatch");
        check_seg("segment_weighted_sum", seg, v.edges());
        check_read_seg("segment_weighted_sum", v.seg, seg);
        let (h, d) = (w.cols(), v.cols());
        let b = block_width("segment_weighted_sum", d, h);
        let n = seg.len() - 1;
        let mut data = pool::alloc_zeroed(n * d);
        let wd = w.as_slice();
        parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerSegment, d, d, |segs, chunk| {
            // Edges outermost: each edge looks its row up once, and every
            // output element still sums its edges in member order.
            for (off, node) in segs.enumerate() {
                let out = &mut chunk[off * d..][..d];
                for e in seg[node]..seg[node + 1] {
                    let x = v.row(e);
                    for head in 0..h {
                        let k = wd[e * h + head];
                        for (o, &x) in out[head * b..][..b].iter_mut().zip(&x[head * b..][..b]) {
                            *o += k * x;
                        }
                    }
                }
            }
        });
        Matrix::from_vec(n, d, data)
    }

    /// Gradient of [`Matrix::segment_weighted_sum`] w.r.t. the weights:
    /// `out[e, h] = ⟨g[n, block h], v(e)[block h]⟩` for `e` in segment
    /// `n` (`g` is `N × d`), each dot accumulated from zero left to right.
    pub fn segment_weighted_sum_grad_weights<'a>(
        v: impl Into<EdgeRows<'a>>,
        g: &Matrix,
        seg: &[usize],
        heads: usize,
    ) -> Matrix {
        let v = v.into();
        assert_eq!(v.cols(), g.cols(), "segment_weighted_sum_grad_weights: width mismatch");
        assert_eq!(g.rows() + 1, seg.len(), "segment_weighted_sum_grad_weights: one gradient row per segment");
        check_seg("segment_weighted_sum_grad_weights", seg, v.edges());
        check_read_seg("segment_weighted_sum_grad_weights", v.seg, seg);
        let (e, d) = (v.edges(), v.cols());
        let b = block_width("segment_weighted_sum_grad_weights", d, heads);
        let mut data = pool::alloc_overwritten(e * heads);
        let gd = g.as_slice();
        parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerMember, heads, d, |segs, chunk| {
            let base = seg[segs.start];
            for node in segs {
                for e in seg[node]..seg[node + 1] {
                    let x = v.row(e);
                    for head in 0..heads {
                        let mut dot = 0.0;
                        for (&gk, &x) in gd[node * d + head * b..][..b].iter().zip(&x[head * b..][..b]) {
                            dot += gk * x;
                        }
                        chunk[(e - base) * heads + head] = dot;
                    }
                }
            }
        });
        Matrix::from_vec(e, heads, data)
    }

    /// Gradient of [`Matrix::segment_weighted_sum`] w.r.t. per-edge values:
    /// [`Matrix::segment_weighted_sum_grad_rows`] with [`RowRead::Edge`].
    pub fn segment_weighted_sum_grad_values(w: &Matrix, g: &Matrix, seg: &[usize]) -> Matrix {
        Matrix::segment_weighted_sum_grad_rows(w, g, seg, RowRead::Edge)
    }

    /// Gradient of [`Matrix::segment_weighted_sum`] w.r.t. the values read
    /// through `read`: edge `e` of segment `n` adds `w[e, h] · g[n, block h]`
    /// to the row it read, every row summed from +0.0 (so a lone `−0.0`
    /// product reads `+0.0`, as in the accumulating loop the per-edge
    /// kernel replaced and as a scatter onto a zeroed table gives).
    pub fn segment_weighted_sum_grad_rows(w: &Matrix, g: &Matrix, seg: &[usize], read: RowRead<'_>) -> Matrix {
        assert_eq!(g.rows() + 1, seg.len(), "segment_weighted_sum_grad_values: one gradient row per segment");
        check_seg("segment_weighted_sum_grad_values", seg, w.rows());
        if let RowRead::Dst(list) | RowRead::Src(list) = read {
            check_read_seg("segment_weighted_sum_grad_values", Some(&list.seg), seg);
        }
        let (e, h) = w.shape();
        let d = g.cols();
        let b = block_width("segment_weighted_sum_grad_values", d, h);
        let (wd, gd) = (w.as_slice(), g.as_slice());
        grad_rows(read, e, Some(seg), d, 0.0, |o, e, n| {
            for head in 0..h {
                let k = wd[e * h + head];
                for (o, &gk) in o[head * b..][..b].iter_mut().zip(&gd[n * d + head * b..][..b]) {
                    *o += k * gk;
                }
            }
        })
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
