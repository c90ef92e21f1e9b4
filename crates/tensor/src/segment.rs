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
//! Each kernel has one body, generic over the row [`Shape`] it runs at,
//! and its entry point picks the instance once per call ([`at_shape!`]).
//! The widths the benchmarked models train at get a [`Fixed`] instance,
//! whose widths are compile-time constants: d = 16 in blocks of 16, 8 and 4
//! (one head, HGT's two heads, DGCF's four intents) and HGT's 2-head logits
//! for the softmax. There the loops unroll, a segment's row sum stays in
//! registers and is written once, an edge's per-head dots are unrolled
//! independent folds, and the softmax makes one row-major pass per step for
//! all heads. Every other width, the `quick()` configs' d = 8 among them,
//! runs the [`Runtime`] instance of the same body (see [`at_shape!`] for
//! why the other shapes get no fixed instance). Both keep every output
//! element's fold order and start value (+0.0, or −0.0 where the fold is an
//! `f32` `sum`), and Rust never contracts a multiply-add into an FMA, so the
//! instances agree bit for bit (`parallel_kernels.rs` holds each one to
//! plain loops). A body's closures read the widths from the shape, never
//! from a captured local: a captured value is a load in the closure, not a
//! constant.
//!
//! Work is priced for the pool's split threshold as one unit per
//! multiply-add (an `exp` counts 16), the same scale as a GEMM's FMA. At
//! the default threshold a 4-wide edge family of ~10k edges stays serial
//! and a 16-wide one (HGT's heads, DGCF's four intents) splits. The fixed
//! instances do a unit in less time than the runtime loops did, so a split
//! now pays off later. The price was left as it is: five traced
//! `train_hgt` runs read `tensor.pool.speedup` 0.80–1.40 on the runtime
//! loops and 0.87–1.35 on the fixed instances, no difference the measure's
//! own spread can show.

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
    assert!(
        heads > 0 && d.is_multiple_of(heads),
        "{what}: width {d} does not split into {heads} heads"
    );
    d / heads
}

/// The row layout a kernel body runs at: rows of `width` floats made of
/// `blocks` blocks of `block` floats each (a segment kernel's heads, the
/// memory bank's units). [`Fixed`] makes all three compile-time constants,
/// so a body's loops unroll and its sums stay in registers; [`Runtime`]
/// carries them as values and runs the same body as plain loops. Each
/// kernel has one body, generic over the shape, and [`at_shape!`] picks the
/// instance once per call.
pub(crate) trait Shape: Copy + Send + Sync {
    /// Where a body sums an output row before writing it once.
    type Sum;
    /// Scratch of one float per block.
    type PerBlock: AsMut<[f32]>;
    /// Floats per row.
    fn width(self) -> usize;
    /// Floats per block.
    fn block(self) -> usize;
    /// Blocks per row.
    fn blocks(self) -> usize;
    /// A row sum; bodies take one per partition, not per row.
    fn sum(self) -> Self::Sum;
    /// The floats to sum output row `out` (at most `width` long) in.
    fn summing<'a>(self, sum: &'a mut Self::Sum, out: &'a mut [f32]) -> &'a mut [f32];
    /// Writes a row summed by [`Shape::summing`] to `out`.
    fn write(self, sum: &Self::Sum, out: &mut [f32]);
    /// A zeroed per-block scratch.
    fn per_block(self) -> Self::PerBlock;
}

/// A compile-time shape: `M` blocks of `B` floats, `W = M · B`. A row sums
/// in a local array, which the unrolled loops keep in registers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fixed<const W: usize, const B: usize, const M: usize>;

impl<const W: usize, const B: usize, const M: usize> Shape for Fixed<W, B, M> {
    type Sum = [f32; W];
    type PerBlock = [f32; M];
    #[inline(always)]
    fn width(self) -> usize {
        W
    }
    #[inline(always)]
    fn block(self) -> usize {
        B
    }
    #[inline(always)]
    fn blocks(self) -> usize {
        M
    }
    #[inline(always)]
    fn sum(self) -> [f32; W] {
        [0.0; W]
    }
    #[inline(always)]
    fn summing<'a>(self, sum: &'a mut [f32; W], out: &'a mut [f32]) -> &'a mut [f32] {
        &mut sum[..out.len()]
    }
    #[inline(always)]
    fn write(self, sum: &[f32; W], out: &mut [f32]) {
        out.copy_from_slice(&sum[..out.len()]);
    }
    #[inline(always)]
    fn per_block(self) -> [f32; M] {
        [0.0; M]
    }
}

/// A shape known only at run time: every width no model trains at. A row
/// sums in place in the output; a scratch row of run-time length would
/// only add a copy per row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Runtime {
    pub(crate) width: usize,
    pub(crate) block: usize,
    pub(crate) blocks: usize,
}

impl Shape for Runtime {
    type Sum = ();
    type PerBlock = Vec<f32>;
    fn width(self) -> usize {
        self.width
    }
    fn block(self) -> usize {
        self.block
    }
    fn blocks(self) -> usize {
        self.blocks
    }
    fn sum(self) {}
    fn summing<'a>(self, _: &'a mut (), out: &'a mut [f32]) -> &'a mut [f32] {
        out
    }
    fn write(self, _: &(), _: &mut [f32]) {}
    fn per_block(self) -> Vec<f32> {
        vec![0.0; self.blocks]
    }
}

/// Evaluates `call` with `s` bound to the [`Fixed`] shape for rows of
/// `width` floats in `blocks` blocks of `block` when it is one the models
/// train at, and to the [`Runtime`] shape otherwise. Each kernel family
/// instantiates only its own shapes:
/// - `edge`: d = 16 in blocks of 16, 8 and 4 (one head, HGT's two heads,
///   DGCF's four intents);
/// - `logits`: HGT's rows of 2 heads' logits, one float per block;
/// - `bank`: the memory bank's 8 units of 16.
///
/// Other shapes run at run time: the `quick()` bank's 4 units of 8 and
/// the `-M` ablation's single unit ran slower fixed than at run time, and
/// the `quick()` configs' d = 8 and the 1- and 4-head logits were never
/// timed, so no fixed instance is kept for them.
///
/// The caller guarantees `width = blocks · block`.
macro_rules! at_shape {
    (@fixed $width:expr, $block:expr, $blocks:expr, |$s:ident| $call:expr, [$(($w:literal, $b:literal, $m:literal)),*]) => {{
        use $crate::segment::{Fixed, Runtime};
        let (width, block, blocks): (usize, usize, usize) = ($width, $block, $blocks);
        debug_assert_eq!(width, block * blocks, "at_shape: rows are not whole blocks");
        match (width, block) {
            $(($w, $b) => {
                let $s = Fixed::<$w, $b, $m>;
                $call
            })*
            _ => {
                let $s = Runtime { width, block, blocks };
                $call
            }
        }
    }};
    (edge $width:expr, $block:expr, $blocks:expr, |$s:ident| $call:expr) => {
        at_shape!(@fixed $width, $block, $blocks, |$s| $call,
            [(16, 16, 1), (16, 8, 2), (16, 4, 4)])
    };
    (logits $heads:expr, |$s:ident| $call:expr) => {{
        let heads: usize = $heads;
        at_shape!(@fixed heads, 1, heads, |$s| $call, [(2, 1, 2)])
    }};
    (bank $width:expr, $block:expr, $blocks:expr, |$s:ident| $call:expr) => {
        at_shape!(@fixed $width, $block, $blocks, |$s| $call,
            [(128, 16, 8)])
    };
}
pub(crate) use at_shape;

/// `out[m]` is `start` plus the products of block `m` of `x` and `y`,
/// folded left to right. At a fixed shape the folds of one row, and of the
/// rows on either side of it in the caller's loop, unroll into independent
/// chains the core overlaps. (Handing four rows to one call ran about half
/// as fast, whether their folds were stepped together or one by one.)
#[inline(always)]
fn fold_dots<S: Shape>(s: S, start: f32, x: &[f32], y: &[f32], out: &mut [f32]) {
    let b = s.block();
    for (blk, o) in out[..s.blocks()].iter_mut().enumerate() {
        let mut a = start;
        for (&p, &r) in x[blk * b..][..b].iter().zip(&y[blk * b..][..b]) {
            a += p * r;
        }
        *o = a;
    }
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
        assert!(
            seg.windows(2).all(|w| w[0] <= w[1]),
            "EdgeList: segment pointer is not non-decreasing"
        );
        assert!(src.iter().all(|&s| s < sources), "EdgeList: a source is {sources} or more");
        let dst = seg
            .windows(2)
            .enumerate()
            .flat_map(|(n, w)| std::iter::repeat_n(n, w[1] - w[0]))
            .collect();
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
            assert_eq!(
                m.rows(),
                read.rows(0),
                "edge rows: the table's rows do not match its edge list"
            );
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

    /// The data and the edge → row map, resolved once for a kernel body.
    fn lookup(&self) -> Lookup<'a> {
        Lookup { data: self.m.as_slice(), index: self.index }
    }
}

impl<'a> From<&'a Matrix> for EdgeRows<'a> {
    fn from(m: &'a Matrix) -> Self {
        Self::new(m, RowRead::Edge)
    }
}

/// An [`EdgeRows`] as a kernel body reads it: held by value, so the edge
/// loop reloads neither the data nor the map.
#[derive(Clone, Copy)]
struct Lookup<'a> {
    data: &'a [f32],
    index: Option<&'a [usize]>,
}

impl<'a> Lookup<'a> {
    /// The `d` floats edge `e` reads.
    #[inline(always)]
    fn row(self, e: usize, d: usize) -> &'a [f32] {
        let r = match self.index {
            Some(index) => index[e],
            None => e,
        };
        &self.data[r * d..][..d]
    }
}

/// Asserts that a table operand's list groups its edges by `seg`.
fn check_read_seg(what: &str, table_seg: Option<&[usize]>, seg: &[usize]) {
    if let Some(table_seg) = table_seg {
        assert!(
            std::ptr::eq(table_seg, seg) || table_seg == seg,
            "{what}: the table's edge list has another segment pointer"
        );
    }
}

/// The gradient of a row operand of shape `s` read through `read` by
/// `edges` edges: one row per operand row, set to `zero` and then passed to
/// `add(row, e, n)` for every edge `e` that reads it, in increasing edge
/// id. `n` is `e`'s destination: its segment in `seg` for per-edge rows
/// (`e` itself when the op has no segments), the row for a
/// destination-read table, `dst[e]` for a source-read one. Each row is
/// summed where [`Shape::summing`] puts it and written once. Rows are
/// partitioned over the pool; each is one fixed-order fold.
fn grad_rows<S: Shape>(
    s: S,
    read: RowRead<'_>,
    edges: usize,
    seg: Option<&[usize]>,
    zero: f32,
    add: impl Fn(&mut [f32], usize, usize) + Sync,
) -> Matrix {
    // Every closure below reads the widths from `s`, never from a captured
    // local: a fixed shape's are then constants the loops unroll by.
    let d = s.width();
    let rows = read.rows(edges);
    let mut data = pool::alloc_overwritten(rows * d);
    match (read, seg) {
        (RowRead::Edge, Some(seg)) => {
            parallel::par_segment_chunks(
                &mut data,
                seg,
                SegmentRows::PerMember,
                d,
                d,
                |segs, chunk| {
                    let (d, base, mut sum) = (s.width(), seg[segs.start], s.sum());
                    for n in segs {
                        for e in seg[n]..seg[n + 1] {
                            let o = &mut chunk[(e - base) * d..][..d];
                            let acc = s.summing(&mut sum, o);
                            acc.fill(zero);
                            add(acc, e, n);
                            s.write(&sum, o);
                        }
                    }
                },
            );
        }
        // `max(1)` below: a zero-width operand has empty chunks and no rows.
        (RowRead::Edge, None) => {
            parallel::par_row_chunks(&mut data, edges, d, d, |range, chunk| {
                let mut sum = s.sum();
                for (o, e) in chunk.chunks_exact_mut(s.width().max(1)).zip(range) {
                    let acc = s.summing(&mut sum, o);
                    acc.fill(zero);
                    add(acc, e, e);
                    s.write(&sum, o);
                }
            })
        }
        (RowRead::Dst(list), _) => {
            let seg = list.seg.as_slice();
            parallel::par_segment_chunks(
                &mut data,
                seg,
                SegmentRows::PerSegment,
                d,
                d,
                |nodes, chunk| {
                    let mut sum = s.sum();
                    for (o, n) in chunk.chunks_exact_mut(s.width().max(1)).zip(nodes) {
                        let acc = s.summing(&mut sum, o);
                        acc.fill(zero);
                        for e in seg[n]..seg[n + 1] {
                            add(acc, e, n);
                        }
                        s.write(&sum, o);
                    }
                },
            );
        }
        (RowRead::Src(list), _) => {
            let (ptr, order, dst) =
                (list.src_seg.as_slice(), list.src_edges.as_slice(), list.dst.as_slice());
            parallel::par_segment_chunks(
                &mut data,
                ptr,
                SegmentRows::PerSegment,
                d,
                d,
                |sources, chunk| {
                    let mut sum = s.sum();
                    for (o, src) in chunk.chunks_exact_mut(s.width().max(1)).zip(sources) {
                        let acc = s.summing(&mut sum, o);
                        acc.fill(zero);
                        for &e in &order[ptr[src]..ptr[src + 1]] {
                            add(acc, e, dst[e]);
                        }
                        s.write(&sum, o);
                    }
                },
            );
        }
    }
    Matrix::from_vec(rows, d, data)
}

/// Body of [`Matrix::head_dots_via`].
fn head_dots_at<S: Shape>(s: S, a: Lookup<'_>, b: Lookup<'_>, rows: usize) -> Matrix {
    let mut data = pool::alloc_overwritten(rows * s.blocks());
    parallel::par_row_chunks(&mut data, rows, s.blocks(), s.width(), |range, chunk| {
        let d = s.width();
        for (out, e) in chunk.chunks_exact_mut(s.blocks()).zip(range) {
            fold_dots(s, -0.0, a.row(e, d), b.row(e, d), out);
        }
    });
    Matrix::from_vec(rows, s.blocks(), data)
}

/// Body of [`Matrix::head_dots_grad`].
fn head_dots_grad_at<S: Shape>(s: S, read: RowRead<'_>, other: Lookup<'_>, g: &Matrix) -> Matrix {
    let gd = g.as_slice();
    let zero = if read.is_table() { 0.0 } else { -0.0 };
    grad_rows(s, read, g.rows(), None, zero, |o, e, _| {
        let (d, b, h) = (s.width(), s.block(), s.blocks());
        let x = other.row(e, d);
        for (head, &k) in gd[e * h..][..h].iter().enumerate() {
            for (o, &x) in o[head * b..][..b].iter_mut().zip(&x[head * b..][..b]) {
                *o += x * k;
            }
        }
    })
}

/// Body of [`Matrix::segment_softmax`] over `E × H` logits, `H = s.width()`:
/// one row-major pass per step over a segment's members serves all heads.
fn segment_softmax_at<S: Shape>(s: S, x: &Matrix, seg: &[usize]) -> Matrix {
    let (e, h) = (x.rows(), s.width());
    let x = x.as_slice();
    let mut data = pool::alloc_overwritten(e * h);
    parallel::par_segment_chunks(
        &mut data,
        seg,
        SegmentRows::PerMember,
        h,
        16 * h,
        |segs, chunk| {
            let (h, base) = (s.width(), seg[segs.start]);
            chunk.copy_from_slice(&x[base * h..seg[segs.end] * h]);
            let (mut max, mut sum) = (s.per_block(), s.per_block());
            let (max, sum) = (max.as_mut(), sum.as_mut());
            for n in segs {
                let rows = &mut chunk[(seg[n] - base) * h..(seg[n + 1] - base) * h];
                // Stable softmax per head: subtract the head's max, exponentiate,
                // divide by the sum when it is positive.
                max.fill(f32::NEG_INFINITY);
                for row in rows.chunks_exact(h.max(1)) {
                    for (m, &v) in max.iter_mut().zip(row) {
                        *m = m.max(v);
                    }
                }
                sum.fill(0.0);
                for row in rows.chunks_exact_mut(h.max(1)) {
                    for ((v, &m), t) in row.iter_mut().zip(&*max).zip(sum.iter_mut()) {
                        *v = (*v - m).exp();
                        *t += *v;
                    }
                }
                for row in rows.chunks_exact_mut(h.max(1)) {
                    for (v, &t) in row.iter_mut().zip(&*sum) {
                        if t > 0.0 {
                            *v /= t;
                        }
                    }
                }
            }
        },
    );
    Matrix::from_vec(e, h, data)
}

/// Body of [`Matrix::segment_softmax_grad`], `H = s.width()`.
fn segment_softmax_grad_at<S: Shape>(s: S, y: &Matrix, g: &Matrix, seg: &[usize]) -> Matrix {
    let (e, h) = (y.rows(), s.width());
    let mut data = pool::alloc_overwritten(e * h);
    let (yd, gd) = (y.as_slice(), g.as_slice());
    parallel::par_segment_chunks(
        &mut data,
        seg,
        SegmentRows::PerMember,
        h,
        4 * h,
        |segs, chunk| {
            let (h, base) = (s.width(), seg[segs.start]);
            let mut dot = s.per_block();
            let dot = dot.as_mut();
            for n in segs {
                let span = seg[n] * h..seg[n + 1] * h;
                let (ys, gs) = (&yd[span.clone()], &gd[span]);
                let out = &mut chunk[(seg[n] - base) * h..(seg[n + 1] - base) * h];
                // `-0.0`, the start of an `f32` `sum`: the models' bits fold from it.
                dot.fill(-0.0);
                for (yr, gr) in ys.chunks_exact(h.max(1)).zip(gs.chunks_exact(h.max(1))) {
                    for ((t, &y), &g) in dot.iter_mut().zip(yr).zip(gr) {
                        *t += y * g;
                    }
                }
                for ((o, yr), gr) in out
                    .chunks_exact_mut(h.max(1))
                    .zip(ys.chunks_exact(h.max(1)))
                    .zip(gs.chunks_exact(h.max(1)))
                {
                    for (((o, &y), &g), &t) in o.iter_mut().zip(yr).zip(gr).zip(&*dot) {
                        *o = y * (g - t);
                    }
                }
            }
        },
    );
    Matrix::from_vec(e, h, data)
}

/// Body of [`Matrix::segment_weighted_sum`]: each segment's row summed
/// where [`Shape::summing`] puts it and written once.
fn segment_weighted_sum_at<S: Shape>(s: S, w: &Matrix, v: Lookup<'_>, seg: &[usize]) -> Matrix {
    let (n, d) = (seg.len() - 1, s.width());
    let mut data = pool::alloc_overwritten(n * d);
    let wd = w.as_slice();
    parallel::par_segment_chunks(&mut data, seg, SegmentRows::PerSegment, d, d, |segs, chunk| {
        let (d, b, h) = (s.width(), s.block(), s.blocks());
        let mut sum = s.sum();
        for (o, node) in chunk.chunks_exact_mut(d.max(1)).zip(segs) {
            let acc = s.summing(&mut sum, o);
            acc.fill(0.0);
            for e in seg[node]..seg[node + 1] {
                let x = v.row(e, d);
                for (head, &k) in wd[e * h..][..h].iter().enumerate() {
                    for (a, &x) in acc[head * b..][..b].iter_mut().zip(&x[head * b..][..b]) {
                        *a += k * x;
                    }
                }
            }
            s.write(&sum, o);
        }
    });
    Matrix::from_vec(n, d, data)
}

/// Body of [`Matrix::segment_weighted_sum_grad_weights`].
fn segment_weighted_sum_grad_weights_at<S: Shape>(
    s: S,
    v: Lookup<'_>,
    g: &Matrix,
    seg: &[usize],
) -> Matrix {
    let e = seg[seg.len() - 1];
    let mut data = pool::alloc_overwritten(e * s.blocks());
    let gd = g.as_slice();
    parallel::par_segment_chunks(
        &mut data,
        seg,
        SegmentRows::PerMember,
        s.blocks(),
        s.width(),
        |segs, chunk| {
            let (d, h, base) = (s.width(), s.blocks(), seg[segs.start]);
            for n in segs {
                for e in seg[n]..seg[n + 1] {
                    fold_dots(s, 0.0, v.row(e, d), &gd[n * d..][..d], &mut chunk[(e - base) * h..]);
                }
            }
        },
    );
    Matrix::from_vec(e, s.blocks(), data)
}

/// Body of [`Matrix::segment_weighted_sum_grad_rows`].
fn segment_weighted_sum_grad_rows_at<S: Shape>(
    s: S,
    w: &Matrix,
    g: &Matrix,
    seg: &[usize],
    read: RowRead<'_>,
) -> Matrix {
    let (wd, gd) = (w.as_slice(), g.as_slice());
    grad_rows(s, read, w.rows(), Some(seg), 0.0, |o, e, n| {
        let (d, b, h) = (s.width(), s.block(), s.blocks());
        let gr = &gd[n * d..][..d];
        for (head, &k) in wd[e * h..][..h].iter().enumerate() {
            for (o, &gk) in o[head * b..][..b].iter_mut().zip(&gr[head * b..][..b]) {
                *o += k * gk;
            }
        }
    })
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
        let d = a.cols();
        let bw = block_width("head_dots", d, heads);
        at_shape!(edge d, bw, heads, |s| head_dots_at(s, a.lookup(), b.lookup(), a.edges()))
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
        at_shape!(edge d, bw, heads, |s| head_dots_grad_at(s, read, other.lookup(), g))
    }

    /// Softmax over every segment of every column: `self` is `E × H`
    /// logits, and `out[e, h]` is `exp(x[e, h] − m) / Σ exp(x[·, h] − m)`
    /// over the members of `e`'s segment, `m` their max. A segment whose
    /// sum is not positive is left exponentiated but unnormalised.
    pub fn segment_softmax(&self, seg: &[usize]) -> Matrix {
        check_seg("segment_softmax", seg, self.rows());
        at_shape!(logits self.cols(), |s| segment_softmax_at(s, self, seg))
    }

    /// Gradient of [`Matrix::segment_softmax`] given its output `y` and
    /// the upstream gradient `g` (both `E × H`): the softmax Jacobian
    /// product `y ⊙ (g − ⟨g, y⟩)`, the dot taken over each segment's
    /// members in each column.
    pub fn segment_softmax_grad(y: &Matrix, g: &Matrix, seg: &[usize]) -> Matrix {
        assert_eq!(y.shape(), g.shape(), "segment_softmax_grad: y/g shape mismatch");
        check_seg("segment_softmax_grad", seg, y.rows());
        at_shape!(logits y.cols(), |s| segment_softmax_grad_at(s, y, g, seg))
    }

    /// Weighted segment sum: `w` is `E × H` and `v` is `d` wide, and
    /// `out[n, block h] = Σ_{e ∈ seg(n)} w[e, h] · v(e)[block h]`, summed
    /// from zero in member order (`N × d`, `N = seg.len() − 1`), `v(e)` the
    /// row edge `e` reads. With softmax weights this is multi-head
    /// attention aggregation.
    pub fn segment_weighted_sum<'a>(
        w: &Matrix,
        v: impl Into<EdgeRows<'a>>,
        seg: &[usize],
    ) -> Matrix {
        let v = v.into();
        assert_eq!(w.rows(), v.edges(), "segment_weighted_sum: weight/value mismatch");
        check_seg("segment_weighted_sum", seg, v.edges());
        check_read_seg("segment_weighted_sum", v.seg, seg);
        let (h, d) = (w.cols(), v.cols());
        let b = block_width("segment_weighted_sum", d, h);
        at_shape!(edge d, b, h, |s| segment_weighted_sum_at(s, w, v.lookup(), seg))
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
        assert_eq!(
            g.rows() + 1,
            seg.len(),
            "segment_weighted_sum_grad_weights: one gradient row per segment"
        );
        check_seg("segment_weighted_sum_grad_weights", seg, v.edges());
        check_read_seg("segment_weighted_sum_grad_weights", v.seg, seg);
        let d = v.cols();
        let b = block_width("segment_weighted_sum_grad_weights", d, heads);
        at_shape!(edge d, b, heads, |s| segment_weighted_sum_grad_weights_at(s, v.lookup(), g, seg))
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
    pub fn segment_weighted_sum_grad_rows(
        w: &Matrix,
        g: &Matrix,
        seg: &[usize],
        read: RowRead<'_>,
    ) -> Matrix {
        assert_eq!(
            g.rows() + 1,
            seg.len(),
            "segment_weighted_sum_grad_values: one gradient row per segment"
        );
        check_seg("segment_weighted_sum_grad_values", seg, w.rows());
        if let RowRead::Dst(list) | RowRead::Src(list) = read {
            check_read_seg("segment_weighted_sum_grad_values", Some(&list.seg), seg);
        }
        let (h, d) = (w.cols(), g.cols());
        let b = block_width("segment_weighted_sum_grad_values", d, h);
        at_shape!(edge d, b, h, |s| segment_weighted_sum_grad_rows_at(s, w, g, seg, read))
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
            if x == 0.0 {
                -0.0
            } else {
                x * 0.173_205
            }
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
    fn weighted_sum_ref(
        w: &[f32],
        v: &Matrix,
        g: &Matrix,
        seg: &[usize],
    ) -> (Matrix, Vec<f32>, Matrix) {
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
            let want_y: Vec<Vec<f32>> =
                (0..heads).map(|h| softmax_ref(&column(&logits, h), &SEG)).collect();
            assert_bits(&y, &from_columns(&want_y), "segment_softmax");
            let want_gy: Vec<Vec<f32>> = (0..heads)
                .map(|h| softmax_grad_ref(&column(&y, h), &column(&gy, h), &SEG))
                .collect();
            assert_bits(
                &Matrix::segment_softmax_grad(&y, &gy, &SEG),
                &from_columns(&want_gy),
                "segment_softmax_grad",
            );

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
                    let (qh, vh) =
                        (q.slice_cols(h * b, (h + 1) * b), v.slice_cols(h * b, (h + 1) * b));
                    (0..e)
                        .map(|r| qh.row(r).iter().zip(vh.row(r)).map(|(&x, &y)| x * y).sum())
                        .collect()
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
