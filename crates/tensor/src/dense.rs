//! Row-major dense `f32` matrix and its kernels.

use std::fmt;
use std::ops::{Index, IndexMut, Range};

use crate::{gemm, parallel, pool, segment};

/// A row-major dense matrix of `f32`.
///
/// All shapes are checked with assertions; shape errors in a GNN are
/// programming errors, not recoverable conditions, so panicking with a
/// precise message is the right contract (it mirrors what `ndarray` and
/// `nalgebra` do for mismatched dimensions).
///
/// Storage comes from the thread's buffer pool while a
/// [`crate::PoolScope`] is open; otherwise from the heap. Either way the
/// contents a constructor produces are identical.
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: pool::alloc_copied(&self.data) }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        // With a pool installed every dropped matrix retires its storage for
        // reuse; with none installed this is an ordinary heap free.
        pool::recycle_vec(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{})", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:+.4}")).collect();
            writeln!(f, "  [{}{}]", shown.join(", "), if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: pool::alloc_zeroed(rows * cols) }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: pool::alloc_filled(rows * cols, value) }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = pool::alloc_overwritten(rows * cols);
        for r in 0..rows {
            for (c, slot) in data[r * cols..(r + 1) * cols].iter_mut().enumerate() {
                *slot = f(r, c);
            }
        }
        Self { rows, cols, data }
    }

    /// Consumes the matrix and returns its backing storage.
    pub fn into_raw_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Creates a `1 × n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an `n × 1` column vector from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols, "set_row: length mismatch");
        self.row_mut(r).copy_from_slice(src);
    }

    /// Matrix product `self · rhs`.
    ///
    /// Routed through the GEMM subsystem ([`crate::gemm`]): each pool
    /// partition runs the selected microkernel over its rows of `self` and
    /// over `rhs` where they lie; only a ragged last column panel of `rhs`
    /// is packed, once, on the dispatching thread. Every output element
    /// accumulates over `k` ascending in a fixed register lane — the same
    /// per-element reduction order for any partitioning, so the result is
    /// bit-identical to serial execution. `DGNN_GEMM=scalar` selects the
    /// legacy cache-blocked i-k-j loops instead (historical bit-exact
    /// numerics).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} · {}x{} shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let be = gemm::backend();
        gemm::count_call(be.is_packed(), self.rows, rhs.cols, self.cols);
        if !be.is_packed() {
            return self.matmul_legacy(rhs);
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        // The tile loop overwrites every element, so the output buffer
        // needs no zeroing.
        let mut out = Matrix { rows: m, cols: n, data: pool::alloc_overwritten(m * n) };
        let tail = packed_tail(rhs);
        let (a, b) = (&self.data[..], gemm::Rhs::InPlace { b: &rhs.data, tail: &tail });
        parallel::par_row_chunks(&mut out.data, m, n, k.saturating_mul(n), |rows, chunk| {
            let lhs = gemm::Lhs { data: a, lane: |r| (rows.start + r) * k, k_stride: 1 };
            gemm::tile_loop(be, &lhs, &b, k, n, rows.len(), chunk);
        });
        pool::recycle_vec(tail);
        out
    }

    /// The pre-packing scalar `matmul`: cache-blocked i-k-j loops
    /// ([`matmul_rows`]).
    fn matmul_legacy(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let (k, n) = (self.cols, rhs.cols);
        let a = &self.data;
        let b = &rhs.data;
        parallel::par_row_chunks(&mut out.data, self.rows, n, k.saturating_mul(n), |rows, chunk| {
            matmul_rows(a, b, k, n, &rows, chunk);
        });
        out
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    ///
    /// Partitioned over *output* rows (columns of `self`): every partition
    /// scans all `k` rows of the operands in ascending order, touching only
    /// its own output rows, so accumulation order per element is unchanged
    /// from the serial k-i-j loop.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: {}x{}ᵀ · {}x{} shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let be = gemm::backend();
        gemm::count_call(be.is_packed(), self.cols, rhs.cols, self.rows);
        if !be.is_packed() {
            return self.matmul_tn_legacy(rhs);
        }
        let (m, c, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix { rows: c, cols: n, data: pool::alloc_overwritten(c * n) };
        let tail = packed_tail(rhs);
        let (a, b) = (&self.data[..], gemm::Rhs::InPlace { b: &rhs.data, tail: &tail });
        // The reduction dimension here is `m` (rows of `self`).
        parallel::par_row_chunks(&mut out.data, c, n, m.saturating_mul(n), |rows, chunk| {
            let lhs = gemm::Lhs { data: a, lane: |r| rows.start + r, k_stride: c };
            gemm::tile_loop_blocked(be, &lhs, &b, m, n, rows.len(), chunk);
        });
        pool::recycle_vec(tail);
        out
    }

    /// The pre-packing scalar `matmul_tn`: serial-order k-i-j loops
    /// ([`matmul_tn_rows`]).
    fn matmul_tn_legacy(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let (m, c, n) = (self.rows, self.cols, rhs.cols);
        let a = &self.data;
        let b = &rhs.data;
        parallel::par_row_chunks(&mut out.data, c, n, m.saturating_mul(n), |rows, chunk| {
            matmul_tn_rows(a, b, m, c, n, &rows, chunk);
        });
        out
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    /// Row-partitioned: each output row is an independent set of dot
    /// products.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} · {}x{}ᵀ shape mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let be = gemm::backend();
        gemm::count_call(be.is_packed(), self.rows, rhs.rows, self.cols);
        if !be.is_packed() {
            return self.matmul_nt_legacy(rhs);
        }
        let (m, k, jn) = (self.rows, self.cols, rhs.rows);
        let mut out = Matrix { rows: m, cols: jn, data: pool::alloc_overwritten(m * jn) };
        let pb = packed_bt(rhs);
        let (a, b) = (&self.data[..], gemm::Rhs::Packed(&pb));
        parallel::par_row_chunks(&mut out.data, m, jn, k.saturating_mul(jn), |rows, chunk| {
            let lhs = gemm::Lhs { data: a, lane: |r| (rows.start + r) * k, k_stride: 1 };
            gemm::tile_loop(be, &lhs, &b, k, jn, rows.len(), chunk);
        });
        pool::recycle_vec(pb);
        out
    }

    /// The pre-packing scalar `matmul_nt`: per-row dot products
    /// ([`matmul_nt_rows`]).
    fn matmul_nt_legacy(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let (k, jn) = (self.cols, rhs.rows);
        let a = &self.data;
        let b = &rhs.data;
        parallel::par_row_chunks(&mut out.data, self.rows, jn, k.saturating_mul(jn), |rows, chunk| {
            matmul_nt_rows(a, b, k, jn, &rows, chunk);
        });
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "add", 2, |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "sub", 2, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul_elem(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "mul_elem", 2, |a, b| a * b)
    }

    /// Elementwise quotient `self ⊘ rhs`. Division by zero follows IEEE
    /// semantics (±∞/NaN); the static auditor's domain check exists to keep
    /// such divisors out of real graphs.
    pub fn div_elem(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "div_elem", 8, |a, b| a / b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        what: &'static str,
        work_per_elem: usize,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "{what}: shape mismatch {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut data = pool::alloc_overwritten(self.data.len());
        let (a, b) = (&self.data, &rhs.data);
        parallel::par_row_chunks(&mut data, a.len(), 1, work_per_elem, |range, chunk| {
            for ((o, &x), &y) in chunk.iter_mut().zip(&a[range.clone()]).zip(&b[range]) {
                *o = f(x, y);
            }
        });
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        let b = &rhs.data;
        parallel::par_row_chunks(&mut self.data, b.len(), 1, 2, |range, chunk| {
            for (a, &v) in chunk.iter_mut().zip(&b[range]) {
                *a += v;
            }
        });
    }

    /// In-place `self += k * rhs` (AXPY).
    pub fn axpy(&mut self, k: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy: shape mismatch");
        let b = &rhs.data;
        parallel::par_row_chunks(&mut self.data, b.len(), 1, 2, |range, chunk| {
            for (a, &v) in chunk.iter_mut().zip(&b[range]) {
                *a += k * v;
            }
        });
    }

    /// Scaled copy `k * self`.
    pub fn scale(&self, k: f32) -> Matrix {
        self.map(move |v| v * k)
    }

    /// In-place scaling `self *= k`.
    pub fn scale_assign(&mut self, k: f32) {
        let len = self.data.len();
        parallel::par_row_chunks(&mut self.data, len, 1, 2, |_, chunk| {
            for v in chunk {
                *v *= k;
            }
        });
    }

    /// Entry-wise map (cheap-closure cost class; use [`Matrix::map_weighted`]
    /// for transcendental per-element functions).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        self.map_weighted(4, f)
    }

    /// Entry-wise map with an explicit per-element cost weight (in ≈FMA
    /// units) for the parallel planner: expensive scalar functions (`exp`,
    /// `tanh`, …) pass a large weight so they split across workers at
    /// smaller sizes than an `add` would.
    pub fn map_weighted(&self, work_per_elem: usize, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut data = pool::alloc_overwritten(self.data.len());
        let src = &self.data;
        parallel::par_row_chunks(&mut data, src.len(), 1, work_per_elem, |range, chunk| {
            for (o, &v) in chunk.iter_mut().zip(&src[range]) {
                *o = f(v);
            }
        });
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Adds the `1 × cols` row vector `row` to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must be a row vector");
        assert_eq!(row.cols, self.cols, "add_row_broadcast: width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
        out
    }

    /// Multiplies every row elementwise by the `1 × cols` row vector `row`.
    pub fn mul_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "mul_row_broadcast: rhs must be a row vector");
        assert_eq!(row.cols, self.cols, "mul_row_broadcast: width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&row.data) {
                *o *= b;
            }
        }
        out
    }

    /// Multiplies row `i` by the scalar `col[i]` (`col` is `rows × 1`); with
    /// `H` columns in `col`, column block `h` of row `i` (of `H` equal
    /// blocks) is multiplied by `col[i, h]` instead — the per-head scaling
    /// of [`Matrix::head_dots`]'s gradient. Row-partitioned.
    pub fn mul_col_broadcast(&self, col: &Matrix) -> Matrix {
        assert_eq!(col.rows, self.rows, "mul_col_broadcast: height mismatch");
        let (heads, d) = (col.cols, self.cols);
        assert!(heads > 0 && d % heads == 0, "mul_col_broadcast: width {d} does not split into {heads} blocks");
        let b = (d / heads).max(1);
        let mut data = pool::alloc_overwritten(self.data.len());
        let (x, k) = (&self.data, &col.data);
        parallel::par_row_chunks(&mut data, self.rows, d, d, |range, chunk| {
            for ((out, x_row), k_row) in chunk
                .chunks_exact_mut(d.max(1))
                .zip(x[range.start * d..range.end * d].chunks_exact(d.max(1)))
                .zip(k[range.start * heads..range.end * heads].chunks_exact(heads))
            {
                for ((block, xb), &s) in out.chunks_exact_mut(b).zip(x_row.chunks_exact(b)).zip(k_row) {
                    for (o, &v) in block.iter_mut().zip(xb) {
                        *o = v * s;
                    }
                }
            }
        });
        Matrix { rows: self.rows, cols: d, data }
    }

    /// Fused `gather(self, idx) · rhsᵀ` without materializing the gathered
    /// matrix: output row `i` is `self.row(idx[i]) · rhsᵀ`, bit-identical to
    /// `gather_rows(idx).matmul_nt(rhs)` on every backend. Packs `rhs` and
    /// runs [`Matrix::gather_matmul_panels`]; a caller that multiplies
    /// against the same `rhs` again should keep the
    /// [`PackedPanels`](gemm::PackedPanels) instead.
    pub fn gather_matmul_nt(&self, idx: &[usize], rhs: &Matrix) -> Matrix {
        self.gather_matmul_panels(idx, &[&gemm::PackedPanels::pack(rhs)])
    }

    /// `gather(self, idx) · [shards[0]; shards[1]; …]ᵀ` against tables
    /// packed ahead of time: output row `i` is `self.row(idx[i])` dotted
    /// with every row of every shard, shard `s` filling the column range
    /// that follows shard `s - 1`'s. Each shard's block is written straight
    /// into that range (no per-shard temporary), and every element is the
    /// same ascending-`k` fold `matmul_nt` runs, whatever the batch size:
    /// bit-identical to `gather_rows(idx).matmul_nt(table)` for the stacked
    /// row-major table, on every backend — [`Backend::Scalar`] included,
    /// which is served from the same panels by the portable kernels, whose
    /// fold is the legacy scalar dot.
    ///
    /// [`Backend::Scalar`]: gemm::Backend::Scalar
    pub fn gather_matmul_panels(&self, idx: &[usize], shards: &[&gemm::PackedPanels]) -> Matrix {
        for shard in shards {
            assert_eq!(
                self.cols,
                shard.cols(),
                "gather_matmul_panels: {}x{} · {}x{}ᵀ shape mismatch",
                self.rows,
                self.cols,
                shard.rows(),
                shard.cols()
            );
        }
        for &r in idx {
            assert!(r < self.rows, "gather_matmul_panels: index {r} out of bounds ({} rows)", self.rows);
        }
        let be = gemm::backend();
        let (m, k) = (idx.len(), self.cols);
        let n: usize = shards.iter().map(|s| s.rows()).sum();
        // The shards' column ranges tile `0..n` and each dispatch overwrites
        // its range of every row, so the output buffer needs no zeroing.
        let mut out = Matrix { rows: m, cols: n, data: pool::alloc_overwritten(m * n) };
        let a = &self.data[..];
        let mut col0 = 0;
        for &shard in shards {
            let jn = shard.rows();
            gemm::count_call(be.is_packed(), m, jn, k);
            let cols = col0..col0 + jn;
            parallel::par_row_chunks_cols(&mut out.data, m, n, cols, k.saturating_mul(jn), |rows, chunk| {
                let lhs = gemm::Lhs { data: a, lane: |r| idx[rows.start + r] * k, k_stride: 1 };
                gemm::score_loop(be, &lhs, shard, rows.len(), chunk, n, col0);
            });
            col0 += jn;
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries; zero for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// `rows × 1` vector of per-row sums.
    pub fn row_sums(&self) -> Matrix {
        let mut data = pool::alloc_overwritten(self.rows);
        for (r, o) in data.iter_mut().enumerate() {
            *o = self.row(r).iter().sum();
        }
        Matrix { rows: self.rows, cols: 1, data }
    }

    /// `1 × cols` vector of per-column sums.
    pub fn col_sums(&self) -> Matrix {
        let mut data = pool::alloc_zeroed(self.cols);
        for r in 0..self.rows {
            for (acc, &v) in data.iter_mut().zip(self.row(r)) {
                *acc += v;
            }
        }
        Matrix { rows: 1, cols: self.cols, data }
    }

    /// `rows × 1` vector of per-row dot products with the matching row of
    /// `rhs` (i.e. `sum(self ⊙ rhs, axis=1)`): [`Matrix::head_dots`] with
    /// one head.
    pub fn row_dots(&self, rhs: &Matrix) -> Matrix {
        self.head_dots(rhs, 1)
    }

    /// Squared Frobenius norm `Σ v²`.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Concatenates matrices left-to-right (all must share a row count).
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols: need at least one part");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|p| p.rows == rows),
            "concat_cols: row count mismatch"
        );
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let out_row = out.row_mut(r);
            let mut off = 0;
            for p in parts {
                out_row[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Vertically stacks matrices (all must share a column count).
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows: need at least one part");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "concat_rows: column count mismatch"
        );
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = pool::alloc_overwritten(rows * cols);
        let mut off = 0;
        for p in parts {
            data[off..off + p.data.len()].copy_from_slice(&p.data);
            off += p.data.len();
        }
        Matrix { rows, cols, data }
    }

    /// Copy of the column range `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols: bad range {start}..{end}");
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// New matrix whose rows are `self.row(idx[i])` (embedding lookup).
    /// Row-partitioned: each output row is an independent copy.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        for &r in idx {
            assert!(r < self.rows, "gather_rows: index {r} out of bounds ({} rows)", self.rows);
        }
        // Every output row is copied over in full: no zeroing needed.
        let mut out = Matrix { rows: idx.len(), cols: self.cols, data: pool::alloc_overwritten(idx.len() * self.cols) };
        let cols = self.cols;
        let src = &self.data;
        parallel::par_row_chunks(&mut out.data, idx.len(), cols, cols, |range, chunk| {
            for (off, i) in range.enumerate() {
                let r = idx[i];
                chunk[off * cols..(off + 1) * cols]
                    .copy_from_slice(&src[r * cols..(r + 1) * cols]);
            }
        });
        out
    }

    /// Scatter-add: `self.row(idx[i]) += src.row(i)` for every `i`.
    /// Duplicate indices accumulate.
    ///
    /// Partitioned over *destination* rows: each partition scans the full
    /// index list in order and applies only the updates landing in its row
    /// range, so duplicates still accumulate in index order within every
    /// destination row — bit-identical to the serial pass.
    pub fn scatter_add_rows(&mut self, idx: &[usize], src: &Matrix) {
        assert_eq!(idx.len(), src.rows, "scatter_add_rows: index/src mismatch");
        assert_eq!(self.cols, src.cols, "scatter_add_rows: width mismatch");
        for &r in idx {
            assert!(r < self.rows, "scatter_add_rows: index {r} out of bounds");
        }
        let (rows, cols) = (self.rows, self.cols);
        let src_data = &src.data;
        // Per-partition cost is one idx scan plus this partition's share of
        // the row updates; estimate the latter as evenly spread.
        let work = (idx.len().saturating_mul(cols.max(1)) / rows.max(1)).max(1);
        parallel::par_row_chunks(&mut self.data, rows, cols, work, |range, chunk| {
            for (i, &r) in idx.iter().enumerate() {
                if range.contains(&r) {
                    let off = (r - range.start) * cols;
                    let dst = &mut chunk[off..off + cols];
                    for (d, &s) in dst.iter_mut().zip(&src_data[i * cols..(i + 1) * cols]) {
                        *d += s;
                    }
                }
            }
        });
    }

    /// Row-wise L2 normalization; rows with norm below `eps` are left
    /// unchanged (avoids dividing by ~0 for never-touched embeddings).
    /// [`Matrix::l2_normalize_heads`] with one block.
    pub fn l2_normalize_rows(&self, eps: f32) -> Matrix {
        self.l2_normalize_heads(eps, 1)
    }

    /// Blocked L2 normalization: every row is `heads` equal column blocks,
    /// and each block is scaled to unit norm on its own; a block with norm
    /// ≤ `eps` is left unchanged. A block's norm is the same sequential sum
    /// of squares a one-block call runs over that block's column slice, so
    /// block `h` is bit-identical to normalizing the slice alone.
    /// Row-partitioned: every row normalizes independently.
    pub fn l2_normalize_heads(&self, eps: f32, heads: usize) -> Matrix {
        let b = segment::block_width("l2_normalize_heads", self.cols, heads).max(1);
        let mut out = self.clone();
        let cols = self.cols;
        parallel::par_row_chunks(&mut out.data, self.rows, cols, 4 * cols.max(1), |_, chunk| {
            for block in chunk.chunks_exact_mut(b) {
                let norm = block.iter().map(|v| v * v).sum::<f32>().sqrt();
                if norm > eps {
                    for v in block {
                        *v /= norm;
                    }
                }
            }
        });
        out
    }

    /// Gradient of [`Matrix::l2_normalize_heads`] given the forward input
    /// `x` and the upstream gradient `g`: per block,
    /// `dx = g / ‖x‖ − x · ⟨x, g⟩ / ‖x‖³`, and `dx = g` for a block that
    /// passed through. Row-partitioned like the forward pass.
    pub fn l2_normalize_heads_grad(x: &Matrix, g: &Matrix, eps: f32, heads: usize) -> Matrix {
        assert_eq!(x.shape(), g.shape(), "l2_normalize_heads_grad: x/g shape mismatch");
        let (rows, cols) = x.shape();
        let b = segment::block_width("l2_normalize_heads_grad", cols, heads).max(1);
        let mut data = pool::alloc_overwritten(rows * cols);
        let (xd, gd) = (&x.data, &g.data);
        parallel::par_row_chunks(&mut data, rows, cols, 8 * cols.max(1), |range, chunk| {
            let span = range.start * cols..range.end * cols;
            for ((out, xb), gb) in chunk
                .chunks_exact_mut(b)
                .zip(xd[span.clone()].chunks_exact(b))
                .zip(gd[span].chunks_exact(b))
            {
                l2_normalize_grad_block(xb, gb, eps, out);
            }
        });
        Matrix { rows, cols, data }
    }

    /// Row-wise softmax. Row-partitioned: every row is an independent
    /// stable softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        let cols = self.cols;
        parallel::par_row_chunks(&mut out.data, self.rows, cols, 16 * cols.max(1), |_, chunk| {
            for row in chunk.chunks_exact_mut(cols.max(1)) {
                softmax_in_place(row);
            }
        });
        out
    }

    /// Gradient of [`Matrix::softmax_rows`] given the forward output `y`
    /// and the upstream gradient `g`: the Jacobian-vector product
    /// `dx = y ⊙ (g − ⟨g, y⟩)` of every row. Row-partitioned like the
    /// forward pass.
    pub fn softmax_rows_grad(y: &Matrix, g: &Matrix) -> Matrix {
        assert_eq!(y.shape(), g.shape(), "softmax_rows_grad: y/g shape mismatch");
        let (rows, cols) = y.shape();
        let mut data = pool::alloc_overwritten(rows * cols);
        let (yd, gd) = (&y.data, &g.data);
        parallel::par_row_chunks(&mut data, rows, cols, 4 * cols.max(1), |range, chunk| {
            let span = range.start * cols..range.end * cols;
            for ((out, s), gr) in chunk
                .chunks_exact_mut(cols.max(1))
                .zip(yd[span.clone()].chunks_exact(cols.max(1)))
                .zip(gd[span].chunks_exact(cols.max(1)))
            {
                let dot: f32 = s.iter().zip(gr).map(|(&s, &g)| s * g).sum();
                for ((o, &s), &g) in out.iter_mut().zip(s).zip(gr) {
                    *o = s * (g - dot);
                }
            }
        });
        Matrix { rows, cols, data }
    }

    /// Row-wise layer normalization `(x − mean) / √(var + eps)`.
    /// Row-partitioned: every row normalizes independently.
    pub fn layer_norm_rows(&self, eps: f32) -> Matrix {
        let mut out = self.clone();
        let cols = self.cols;
        parallel::par_row_chunks(&mut out.data, self.rows, cols, 8 * cols.max(1), |_, chunk| {
            for row in chunk.chunks_exact_mut(cols.max(1)) {
                layer_norm_in_place(row, eps);
            }
        });
        out
    }

    /// Gradient of [`Matrix::layer_norm_rows`]: standard LayerNorm
    /// backward `dx = (g − mean(g) − y·mean(g⊙y)) / σ`, where `x` is the
    /// forward input, `y` the forward output, and `g` the upstream
    /// gradient. Row-partitioned like the forward pass.
    pub fn layer_norm_rows_grad(x: &Matrix, y: &Matrix, g: &Matrix, eps: f32) -> Matrix {
        assert_eq!(x.shape(), y.shape(), "layer_norm_rows_grad: x/y shape mismatch");
        assert_eq!(x.shape(), g.shape(), "layer_norm_rows_grad: x/g shape mismatch");
        let (rows, cols) = x.shape();
        let mut out = Matrix::zeros(rows, cols);
        let (xd, yd, gd) = (&x.data, &y.data, &g.data);
        parallel::par_row_chunks(&mut out.data, rows, cols, 12 * cols.max(1), |range, chunk| {
            for (off, r) in range.enumerate() {
                let lo = r * cols;
                layer_norm_grad_row(
                    &xd[lo..lo + cols],
                    &yd[lo..lo + cols],
                    &gd[lo..lo + cols],
                    eps,
                    &mut chunk[off * cols..(off + 1) * cols],
                );
            }
        });
        out
    }

    // ---- η-weighted block reduce (the memory-bank encoder, Eq. 3) ----------
    //
    // `self` is `n × M·b`: M column blocks of width b, one per memory unit
    // (the output of one wide GEMM against `[W_1 | … | W_M]`); `eta` is
    // `n × M`. All three kernels are row-partitioned and every output
    // element is one fixed-order fold over its own row, so results are
    // bit-identical at any thread count.

    /// `out[n, :] = Σ_m eta[n, m] · self[n, m·b..(m+1)·b]`, summed in
    /// ascending `m` starting from the `m = 0` product — the exact rounding
    /// sequence of `slice_cols → mul_col_broadcast → add` per block.
    pub fn weighted_block_sum(&self, eta: &Matrix) -> Matrix {
        assert_eq!(self.rows, eta.rows, "weighted_block_sum: height mismatch");
        let (w, m) = (self.cols, eta.cols);
        assert!(
            m > 0 && w > 0 && w % m == 0,
            "weighted_block_sum: width {w} is not a positive multiple of {m} weight columns"
        );
        let b = w / m;
        let mut data = pool::alloc_overwritten(self.rows * b);
        let (t, e) = (&self.data, &eta.data);
        parallel::par_row_chunks(&mut data, self.rows, b, w, |range, chunk| {
            for ((out, t_row), e_row) in chunk
                .chunks_exact_mut(b)
                .zip(t[range.start * w..range.end * w].chunks_exact(w))
                .zip(e[range.start * m..range.end * m].chunks_exact(m))
            {
                let (first, rest) = t_row.split_at(b);
                for (o, &x) in out.iter_mut().zip(first) {
                    *o = x * e_row[0];
                }
                for (block, &k) in rest.chunks_exact(b).zip(&e_row[1..]) {
                    for (o, &x) in out.iter_mut().zip(block) {
                        *o += x * k;
                    }
                }
            }
        });
        Matrix { rows: self.rows, cols: b, data }
    }

    /// Gradient of [`Matrix::weighted_block_sum`] w.r.t. the blocks:
    /// `out[n, m·b + j] = g[n, j] · eta[n, m]` (`g` is `n × b`).
    pub fn weighted_block_sum_grad_blocks(eta: &Matrix, g: &Matrix) -> Matrix {
        assert_eq!(eta.rows, g.rows, "weighted_block_sum_grad_blocks: height mismatch");
        let (m, b) = (eta.cols, g.cols);
        assert!(m > 0 && b > 0, "weighted_block_sum_grad_blocks: empty block layout");
        let w = m * b;
        let mut data = pool::alloc_overwritten(g.rows * w);
        let (e, gd) = (&eta.data, &g.data);
        parallel::par_row_chunks(&mut data, g.rows, w, w, |range, chunk| {
            for ((out, e_row), g_row) in chunk
                .chunks_exact_mut(w)
                .zip(e[range.start * m..range.end * m].chunks_exact(m))
                .zip(gd[range.start * b..range.end * b].chunks_exact(b))
            {
                for (block, &k) in out.chunks_exact_mut(b).zip(e_row) {
                    for (o, &x) in block.iter_mut().zip(g_row) {
                        *o = x * k;
                    }
                }
            }
        });
        Matrix { rows: g.rows, cols: w, data }
    }

    /// Gradient of [`Matrix::weighted_block_sum`] w.r.t. the weights:
    /// `out[n, m] = ⟨g[n, :], t[n, m·b..(m+1)·b]⟩` (`t` is the forward
    /// block matrix, `g` is `n × b`), each dot folded left to right like
    /// [`Matrix::row_dots`].
    pub fn weighted_block_sum_grad_weights(t: &Matrix, g: &Matrix) -> Matrix {
        assert_eq!(t.rows, g.rows, "weighted_block_sum_grad_weights: height mismatch");
        let (w, b) = (t.cols, g.cols);
        assert!(
            b > 0 && w > 0 && w % b == 0,
            "weighted_block_sum_grad_weights: width {w} is not a positive multiple of {b}"
        );
        let m = w / b;
        let mut data = pool::alloc_overwritten(t.rows * m);
        let (td, gd) = (&t.data, &g.data);
        parallel::par_row_chunks(&mut data, t.rows, m, w, |range, chunk| {
            for ((out, t_row), g_row) in chunk
                .chunks_exact_mut(m)
                .zip(td[range.start * w..range.end * w].chunks_exact(w))
                .zip(gd[range.start * b..range.end * b].chunks_exact(b))
            {
                for (o, block) in out.iter_mut().zip(t_row.chunks_exact(b)) {
                    *o = g_row.iter().zip(block).map(|(&x, &y)| x * y).sum();
                }
            }
        });
        Matrix { rows: t.rows, cols: m, data }
    }

    /// Leaky ReLU `max(x, 0) + α·min(x, 0)`.
    ///
    /// Branchless on sign-random activations (the naïve `if x >= 0.0`
    /// form mispredicts ~half the time and dominated the forward profile);
    /// a NaN input yields `α·NaN = NaN` only through the `min` term when
    /// `α != 0`, and the tape's finite checks exist to catch NaN upstream.
    pub fn leaky_relu(&self, alpha: f32) -> Matrix {
        self.map_weighted(4, move |x| x.max(0.0) + alpha * x.min(0.0))
    }

    /// Gradient of [`Matrix::leaky_relu`]: `g ⊙ (x ≥ 0 ? 1 : α)` where
    /// `self` is the forward *input* `x`. Fused (no slope matrix is
    /// materialized) but multiplies in the same order as
    /// `slope.mul_elem(g)` would, so bits match the unfused form.
    pub fn leaky_relu_grad(&self, g: &Matrix, alpha: f32) -> Matrix {
        g.zip_with(self, "leaky_relu_grad", 4, move |gv, x| {
            gv * if x >= 0.0 { 1.0 } else { alpha }
        })
    }

    /// Gradient of ReLU: `g ⊙ (x > 0 ? 1 : 0)` where `self` is the
    /// forward *input* `x`.
    pub fn relu_grad(&self, g: &Matrix) -> Matrix {
        g.zip_with(self, "relu_grad", 4, |gv, x| gv * if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Gradient of tanh given the forward *output* `t = tanh(x)` as
    /// `self`: `g ⊙ (1 − t²)`.
    pub fn tanh_grad(&self, g: &Matrix) -> Matrix {
        g.zip_with(self, "tanh_grad", 4, |gv, t| gv * (1.0 - t * t))
    }

    /// Gradient of the logistic sigmoid given the forward *output*
    /// `s = σ(x)` as `self`: `g ⊙ s(1 − s)`.
    pub fn sigmoid_grad(&self, g: &Matrix) -> Matrix {
        g.zip_with(self, "sigmoid_grad", 4, |gv, s| gv * (s * (1.0 - s)))
    }

    /// Gradient of softplus given the forward *input* `x` as `self`:
    /// `g ⊙ σ(x)`.
    pub fn softplus_grad(&self, g: &Matrix) -> Matrix {
        g.zip_with(self, "softplus_grad", 32, |gv, x| gv * stable_sigmoid(x))
    }

    /// True when every entry is finite (no NaN/∞) — used as a training
    /// sanity check.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// The ragged last column panel of `rhs` (columns past the last multiple of
/// [`gemm::NR`]), packed on the dispatching thread for the in-place tile
/// loop; empty when there is none.
fn packed_tail(rhs: &Matrix) -> Vec<f32> {
    let mut tail = pool::alloc_overwritten(gemm::packed_tail_len(rhs.rows, rhs.cols));
    gemm::pack_b_tail(&rhs.data, rhs.rows, rhs.cols, &mut tail);
    tail
}

/// `rhsᵀ` packed into column panels on the dispatching thread — the one
/// right-operand layout the tile loop cannot read in place.
fn packed_bt(rhs: &Matrix) -> Vec<f32> {
    let mut pb = pool::alloc_overwritten(gemm::packed_b_len(rhs.cols, rhs.rows));
    gemm::pack_bt(&rhs.data, rhs.rows, rhs.cols, &mut pb);
    pb
}

/// Cache-blocked i-k-j GEMM microkernel over one span of output rows.
///
/// `out` covers exactly rows `rows` of the full product (row-major,
/// already zeroed). Blocking the `k` loop keeps ≲`K_BLOCK` rows of `b`
/// hot in cache while the row span streams over them; every output
/// element still accumulates over `k` strictly ascending (blocks iterate
/// in order), so the result is bit-identical to the unblocked loop. The
/// `a_ik == 0.0` skip is kept from the original kernel: it preserves
/// historical signed-zero behavior and sparse gradients are common here.
fn matmul_rows(a: &[f32], b: &[f32], k: usize, n: usize, rows: &Range<usize>, out: &mut [f32]) {
    /// Rows of `b` per cache block (`64 × n × 4` bytes ≈ L1-sized for the
    /// dims this repo trains at).
    const K_BLOCK: usize = 64;
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + K_BLOCK).min(k);
        for (off, i) in rows.clone().enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[off * n..(off + 1) * n];
            for (kk, &a_ik) in a_row[k0..k1].iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * bv;
                }
            }
        }
        k0 = k1;
    }
}

/// `aᵀ · b` microkernel over one span of output rows (columns `rows` of
/// `a`). Scans all `m` operand rows ascending — the serial loop order —
/// touching only its own output rows.
fn matmul_tn_rows(
    a: &[f32],
    b: &[f32],
    m: usize,
    c: usize,
    n: usize,
    rows: &Range<usize>,
    out: &mut [f32],
) {
    for k in 0..m {
        let a_row = &a[k * c..(k + 1) * c];
        let b_row = &b[k * n..(k + 1) * n];
        for (off, i) in rows.clone().enumerate() {
            let a_ki = a_row[i];
            if a_ki == 0.0 {
                continue;
            }
            let out_row = &mut out[off * n..(off + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ki * bv;
            }
        }
    }
}

/// `a · bᵀ` microkernel over one span of output rows: independent dot
/// products, one per output element.
fn matmul_nt_rows(
    a: &[f32],
    b: &[f32],
    k: usize,
    jn: usize,
    rows: &Range<usize>,
    out: &mut [f32],
) {
    for (off, i) in rows.clone().enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[off * jn..(off + 1) * jn];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

/// Logistic sigmoid that never overflows `exp`, shared by the tape's
/// `sigmoid` forward and [`Matrix::softplus_grad`].
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// One row of LayerNorm forward, in place.
fn layer_norm_in_place(row: &mut [f32], eps: f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv_std = 1.0 / (var + eps).sqrt();
    for v in row {
        *v = (*v - mean) * inv_std;
    }
}

/// One row of LayerNorm backward: `dx = (g − mean(g) − y·mean(g⊙y)) / σ`.
fn layer_norm_grad_row(x: &[f32], y: &[f32], g: &[f32], eps: f32, out: &mut [f32]) {
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv_std = 1.0 / (var + eps).sqrt();
    let g_mean = g.iter().sum::<f32>() / n;
    let gy_mean = g.iter().zip(y).map(|(&g, &y)| g * y).sum::<f32>() / n;
    for k in 0..x.len() {
        out[k] = (g[k] - g_mean - y[k] * gy_mean) * inv_std;
    }
}

/// One block of L2-normalization backward:
/// `dx = g / ‖x‖ − x · ⟨x, g⟩ / ‖x‖³`, or `dx = g` when `‖x‖ ≤ eps`.
fn l2_normalize_grad_block(x: &[f32], g: &[f32], eps: f32, out: &mut [f32]) {
    let norm = x.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm <= eps {
        out.copy_from_slice(g);
    } else {
        let dot: f32 = x.iter().zip(g).map(|(&x, &g)| x * g).sum();
        let n3 = norm * norm * norm;
        for k in 0..x.len() {
            out[k] = g[k] / norm - x[k] * dot / n3;
        }
    }
}

/// Numerically-stable softmax over a mutable slice.
pub(crate) fn softmax_in_place(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
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

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, vals.to_vec())
    }

    #[test]
    fn zeros_and_shape() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(a[(1, 2)], 12.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m(2, 2, &[1.5, -2.0, 0.25, 3.0]);
        assert!(approx_eq(&a.matmul(&Matrix::eye(2)), &a, 0.0));
        assert!(approx_eq(&Matrix::eye(2).matmul(&a), &a, 0.0));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[0.5, -1.0, 2.0, 0.0, 1.0, 1.0]);
        assert!(approx_eq(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-6));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &[1.0; 12]);
        assert!(approx_eq(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-6));
    }

    #[test]
    fn transpose_twice_roundtrips() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(approx_eq(&a.transpose().transpose(), &a, 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul_elem(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        a.axpy(2.0, &m(1, 2, &[3.0, -1.0]));
        assert_eq!(a.as_slice(), &[7.0, -1.0]);
    }

    #[test]
    fn broadcasts() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let row = Matrix::row_vector(&[10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&row).as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.mul_row_broadcast(&row).as_slice(), &[10.0, 40.0, 30.0, 80.0]);
        let col = Matrix::col_vector(&[2.0, -1.0]);
        assert_eq!(a.mul_col_broadcast(&col).as_slice(), &[2.0, 4.0, -3.0, -4.0]);
    }

    #[test]
    fn reductions() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
        assert_eq!(a.row_sums().as_slice(), &[6.0, 15.0]);
        assert_eq!(a.col_sums().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sq_norm(), 91.0);
    }

    #[test]
    fn row_dots_matches_manual() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.row_dots(&b).as_slice(), &[17.0, 53.0]);
    }

    #[test]
    fn concat_cols_and_slice_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[9.0, 8.0]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        assert!(approx_eq(&c.slice_cols(0, 2), &a, 0.0));
        assert!(approx_eq(&c.slice_cols(2, 3), &b, 0.0));
    }

    #[test]
    fn concat_rows_stacks() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_and_scatter_are_adjoint_on_duplicates() {
        let table = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let idx = [2, 0, 2];
        let g = table.gather_rows(&idx);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
        let mut acc = Matrix::zeros(3, 2);
        acc.scatter_add_rows(&idx, &g);
        // Row 2 was gathered twice, so it accumulates twice.
        assert_eq!(acc.row(2), &[10.0, 12.0]);
        assert_eq!(acc.row(0), &[1.0, 2.0]);
        assert_eq!(acc.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let a = m(2, 2, &[3.0, 4.0, 0.0, 0.0]);
        let n = a.l2_normalize_rows(1e-12);
        assert!((n.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((n.row(0)[1] - 0.8).abs() < 1e-6);
        // Zero row untouched, not NaN.
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn l2_normalize_heads_is_the_per_block_normalize() {
        let mut x = Matrix::from_fn(5, 8, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.37 - 1.6);
        // Row 2's second half is a zero-norm block: it passes through.
        for c in 4..8 {
            x[(2, c)] = 0.0;
        }
        let g = Matrix::from_fn(5, 8, |r, c| ((r * 5 + c) % 7) as f32 * 0.21 - 0.6);
        for heads in [1, 2, 4] {
            // The oracle: every block normalized on its own column slice.
            let b = 8 / heads;
            let block = |m: &Matrix, h: usize| m.slice_cols(h * b, (h + 1) * b);
            let concat = |parts: Vec<Matrix>| Matrix::concat_cols(&parts.iter().collect::<Vec<_>>());
            let fwd = concat((0..heads).map(|h| block(&x, h).l2_normalize_rows(1e-9)).collect());
            let bwd = concat((0..heads).map(|h| Matrix::l2_normalize_heads_grad(&block(&x, h), &block(&g, h), 1e-9, 1)).collect());
            assert_eq!(bits(&x.l2_normalize_heads(1e-9, heads)), bits(&fwd), "forward, {heads} heads");
            assert_eq!(bits(&Matrix::l2_normalize_heads_grad(&x, &g, 1e-9, heads)), bits(&bwd), "gradient, {heads} heads");
        }
        let two = x.l2_normalize_heads(1e-9, 2);
        assert_eq!(two.row(2)[4..], [0.0; 4]);
        assert_eq!(Matrix::l2_normalize_heads_grad(&x, &g, 1e-9, 2).row(2)[4..], g.row(2)[4..]);
        assert!((two.row(0)[..4].iter().map(|v| v * v).sum::<f32>() - 1.0).abs() < 1e-5);
        // An empty matrix normalizes to itself.
        let empty = Matrix::zeros(0, 8);
        assert_eq!(empty.l2_normalize_heads(1e-9, 4).shape(), (0, 8));
        assert_eq!(Matrix::l2_normalize_heads_grad(&empty, &empty, 1e-9, 4).shape(), (0, 8));
    }

    #[test]
    #[should_panic(expected = "does not split into 3 heads")]
    fn l2_normalize_heads_rejects_a_ragged_split() {
        let _ = Matrix::zeros(2, 8).l2_normalize_heads(1e-9, 3);
    }

    #[test]
    fn softmax_rows_grad_is_the_row_jacobian_product() {
        let y = m(2, 3, &[1.0, 2.0, 3.0, -1.0, 0.5, 0.0]).softmax_rows();
        let g = m(2, 3, &[0.3, -0.2, 0.9, 1.5, 0.0, -0.7]);
        let got = Matrix::softmax_rows_grad(&y, &g);
        for r in 0..2 {
            let (s, gr) = (y.row(r), g.row(r));
            let dot: f32 = s.iter().zip(gr).map(|(&s, &g)| s * g).sum();
            let want: Vec<f32> = s.iter().zip(gr).map(|(&s, &g)| s * (g - dot)).collect();
            assert_eq!(got.row(r), &want[..]);
        }
        assert_eq!(Matrix::softmax_rows_grad(&Matrix::zeros(0, 3), &Matrix::zeros(0, 3)).shape(), (0, 3));
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_shift_invariant() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[1001.0, 1002.0, 1003.0]);
        let sa = a.softmax_rows();
        let sb = b.softmax_rows();
        assert!((sa.sum() - 1.0).abs() < 1e-5);
        assert!(approx_eq(&sa, &sb, 1e-5));
        assert!(sa.all_finite());
    }

    #[test]
    fn map_and_scale() {
        let a = m(1, 3, &[-1.0, 0.0, 2.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 0.0, 2.0]);
        assert_eq!(a.scale(-2.0).as_slice(), &[2.0, 0.0, -4.0]);
    }

    #[test]
    fn leaky_relu_matches_branchy_definition() {
        let a = m(1, 5, &[-2.0, -0.5, 0.0, 0.5, 3.0]);
        let alpha = 0.2;
        let got = a.leaky_relu(alpha);
        let want = a.map(|x| if x >= 0.0 { x } else { alpha * x });
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "branchless form must match the definition");
        }
    }

    #[test]
    fn activation_grads_match_unfused_forms() {
        let x = m(2, 3, &[-1.5, -0.1, 0.0, 0.3, 2.0, -4.0]);
        let g = m(2, 3, &[1.0, -2.0, 0.5, 3.0, -0.25, 1.5]);
        let alpha = 0.1;
        let slope = x.map(|v| if v >= 0.0 { 1.0 } else { alpha });
        assert_eq!(x.leaky_relu_grad(&g, alpha), g.mul_elem(&slope));
        let t = x.map(f32::tanh);
        assert_eq!(t.tanh_grad(&g), g.mul_elem(&t.map(|t| 1.0 - t * t)));
        let sp_slope = x.map(stable_sigmoid);
        assert_eq!(x.softplus_grad(&g), g.mul_elem(&sp_slope));
        let s = x.map(stable_sigmoid);
        assert_eq!(s.sigmoid_grad(&g), g.mul_elem(&s.map(|s| s * (1.0 - s))));
        let rs = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        assert_eq!(x.relu_grad(&g), g.mul_elem(&rs));
    }

    #[test]
    fn layer_norm_rows_zero_mean_unit_var() {
        let a = m(2, 4, &[1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 2.0]);
        let y = a.layer_norm_rows(1e-5);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_grad_matches_finite_difference() {
        let eps = 1e-5;
        let x = m(1, 4, &[0.4, -1.2, 2.0, 0.1]);
        let y = x.layer_norm_rows(eps);
        let g = m(1, 4, &[1.0, -0.5, 0.25, 2.0]);
        let ga = Matrix::layer_norm_rows_grad(&x, &y, &g, eps);
        let h = 1e-3;
        for k in 0..4 {
            let mut xp = x.clone();
            xp[(0, k)] += h;
            let mut xm = x.clone();
            xm[(0, k)] -= h;
            let lp: f32 =
                xp.layer_norm_rows(eps).row(0).iter().zip(g.row(0)).map(|(&a, &b)| a * b).sum();
            let lm: f32 =
                xm.layer_norm_rows(eps).row(0).iter().zip(g.row(0)).map(|(&a, &b)| a * b).sum();
            let fd = (lp - lm) / (2.0 * h);
            assert!((ga[(0, k)] - fd).abs() < 1e-2, "k={k}: {} vs fd {fd}", ga[(0, k)]);
        }
    }

    // ---- fused kernel bit-identity ---------------------------------------

    /// Sign-mixed, denormal-adjacent values that expose any reassociation
    /// or rounding-path difference between two kernels.
    fn awkward(rows: usize, cols: usize, salt: u32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = ((r * 31 + c * 7 + salt as usize) % 97) as f32 - 48.0;
            // 0.318_309_9: one ulp above `FRAC_1_PI`, spelled as bits so
            // the fixture is not read as a mistyped constant.
            x * f32::from_bits(0x3EA2_F984) + 1.0e-7 * (c as f32)
        })
    }

    fn assert_bits(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn in_place_variants_match_out_of_place_bitwise() {
        let a = awkward(7, 4, 5);
        let mut scaled = a.clone();
        scaled.scale_assign(-1.0);
        assert_bits(&scaled, &a.scale(-1.0), "neg via scale_assign");
    }

    #[test]
    fn weighted_block_sum_matches_per_block_ops_bitwise() {
        let (n, m, b) = (7, 3, 5);
        let t = awkward(n, m * b, 61);
        let eta = awkward(n, m, 67);
        let g = awkward(n, b, 71);

        let mut fwd: Option<Matrix> = None;
        let mut d_blocks = Vec::new();
        let mut d_weights = Vec::new();
        for k in 0..m {
            let block = t.slice_cols(k * b, (k + 1) * b);
            let col = eta.slice_cols(k, k + 1);
            let weighted = block.mul_col_broadcast(&col);
            fwd = Some(match fwd {
                Some(acc) => acc.add(&weighted),
                None => weighted,
            });
            d_blocks.push(g.mul_col_broadcast(&col));
            d_weights.push(g.row_dots(&block));
        }
        assert_bits(&t.weighted_block_sum(&eta), &fwd.expect("m > 0"), "forward");
        assert_bits(
            &Matrix::weighted_block_sum_grad_blocks(&eta, &g),
            &Matrix::concat_cols(&d_blocks.iter().collect::<Vec<_>>()),
            "grad_blocks",
        );
        assert_bits(
            &Matrix::weighted_block_sum_grad_weights(&t, &g),
            &Matrix::concat_cols(&d_weights.iter().collect::<Vec<_>>()),
            "grad_weights",
        );
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn weighted_block_sum_rejects_ragged_blocks() {
        let _ = Matrix::zeros(4, 10).weighted_block_sum(&Matrix::zeros(4, 3));
    }
}
