//! Compressed-sparse-row matrices for graph propagation.

use crate::Matrix;

/// A CSR sparse matrix of `f32`.
///
/// This is the storage every adjacency matrix in the reproduction uses: one
/// `Csr` per relation type (user–item, social, item–relation), with values
/// holding the normalization weights (e.g. `1/(|N^S_u| + |N^Y_u|)` from
/// Eq. 4–6 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl Csr {
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

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row-pointer array (length `rows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, grouped by row.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values, aligned with [`Csr::col_idx`].
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// `(column, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]).map(|(&c, &v)| (c, v))
    }

    /// Column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Out-degree (stored entries) of row `r`.
    #[inline]
    pub fn degree(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// An empty `rows × cols` matrix with no stored entries.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Sparse–dense product `self · dense`.
    ///
    /// `O(nnz · d)`. The models propagate through a constant-weight
    /// `Matrix::segment_weighted_sum` over [`crate::EdgeList::from_csr`];
    /// this is the reference that sum is held to bit for bit. Partitioned over
    /// output rows on the kernel pool: each output row is accumulated by
    /// exactly one partition, scanning its stored entries in CSR order,
    /// so the result is bit-identical to the serial loop.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm: {}x{} · {}x{} shape mismatch",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let d = dense.cols();
        let mut out = Matrix::zeros(self.rows, d);
        let src = dense.as_slice();
        // Average-nnz cost estimate; row skew just shifts load balance,
        // never results.
        let work = ((self.nnz() / self.rows.max(1)).max(1)).saturating_mul(d.max(1));
        crate::parallel::par_row_chunks(out.as_mut_slice(), self.rows, d, work, |range, chunk| {
            for (off, r) in range.enumerate() {
                let out_row = &mut chunk[off * d..(off + 1) * d];
                for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                    let c = self.col_idx[i];
                    let w = self.values[i];
                    for (o, &x) in out_row.iter_mut().zip(&src[c * d..(c + 1) * d]) {
                        *o += w * x;
                    }
                }
            }
        });
        out
    }

    /// Transposed copy (CSR of `selfᵀ`), with each row's entries in
    /// increasing column.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[i];
                let pos = cursor[c];
                cursor[c] += 1;
                col_idx[pos] = r;
                values[pos] = self.values[i];
            }
        }
        Csr { rows: self.cols, cols: self.rows, row_ptr, col_idx, values }
    }

    /// Densifies into a [`Matrix`] (test/debug helper; quadratic memory).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                out[(r, c)] += v;
            }
        }
        out
    }

    /// Returns a copy whose rows are rescaled so each non-empty row sums to
    /// one (row-stochastic / mean-aggregation weights).
    pub fn row_normalized(&self) -> Csr {
        let mut out = self.clone();
        for r in 0..out.rows {
            let lo = out.row_ptr[r];
            let hi = out.row_ptr[r + 1];
            let sum: f32 = out.values[lo..hi].iter().sum();
            if sum > 0.0 {
                for v in &mut out.values[lo..hi] {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// Returns a copy with symmetric normalization `D^{-1/2} A D^{-1/2}`
    /// computed from row and column degree sums (GCN-style weighting; used
    /// by the NGCF/GCCF baselines).
    pub fn sym_normalized(&self) -> Csr {
        let mut row_deg = vec![0.0f32; self.rows];
        let mut col_deg = vec![0.0f32; self.cols];
        for (r, deg) in row_deg.iter_mut().enumerate() {
            for (c, v) in self.row(r) {
                *deg += v;
                col_deg[c] += v;
            }
        }
        let mut out = self.clone();
        for (r, &deg) in row_deg.iter().enumerate() {
            for i in out.row_ptr[r]..out.row_ptr[r + 1] {
                let c = out.col_idx[i];
                let denom = (deg * col_deg[c]).sqrt();
                if denom > 0.0 {
                    out.values[i] /= denom;
                }
            }
        }
        out
    }
}

/// Incremental builder accepting unordered `(row, col, value)` triplets.
///
/// Duplicate coordinates are *summed* at [`CsrBuilder::build`] time, which is
/// the natural semantics for accumulating multi-edges (e.g. motif counts in
/// the MHCN baseline).
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, f32)>,
}

impl CsrBuilder {
    /// Starts a builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, triplets: Vec::new() }
    }

    /// Queues one entry; duplicates accumulate.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows, "CsrBuilder: row {row} out of bounds ({})", self.rows);
        assert!(col < self.cols, "CsrBuilder: col {col} out of bounds ({})", self.cols);
        self.triplets.push((row, col, value));
    }

    /// Number of queued triplets (before duplicate merging).
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// True when no triplets were queued.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Finalizes into a [`Csr`] with sorted column indices per row and
    /// duplicates merged by summation.
    pub fn build(mut self) -> Csr {
        self.triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_counts = vec![0usize; self.rows + 1];
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(self.triplets.len());
        let mut prev: Option<(usize, usize)> = None;
        for &(r, c, v) in &self.triplets {
            if prev == Some((r, c)) {
                #[expect(clippy::expect_used, reason = "`prev` is set only after a push")]
                let last = values.last_mut().expect("values parallel to col_idx");
                *last += v;
                continue;
            }
            col_idx.push(c);
            values.push(v);
            row_counts[r + 1] += 1;
            prev = Some((r, c));
        }
        let mut row_ptr = row_counts;
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        Csr { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn small() -> Csr {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut b = CsrBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(2, 0, 3.0);
        b.push(2, 1, 4.0);
        b.build()
    }

    #[test]
    fn builder_roundtrip_dense() {
        let a = small();
        let d = a.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(0, 2)], 2.0);
        assert_eq!(d[(1, 1)], 0.0);
        assert_eq!(d[(2, 1)], 4.0);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.degree(1), 0);
    }

    #[test]
    fn builder_merges_duplicates() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(0, 1, 2.5);
        b.push(1, 0, 1.0);
        let a = b.build();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.to_dense()[(0, 1)], 3.5);
    }

    #[test]
    fn builder_sorts_unordered_input() {
        let mut b = CsrBuilder::new(2, 3);
        b.push(1, 2, 1.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        b.push(0, 0, 1.0);
        let a = b.build();
        assert_eq!(a.row_cols(0), &[0, 1]);
        assert_eq!(a.row_cols(1), &[0, 2]);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a = small();
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let sparse = a.spmm(&x);
        let dense = a.to_dense().matmul(&x);
        assert!(approx_eq(&sparse, &dense, 1e-6));
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = small();
        assert!(approx_eq(&a.transpose().to_dense(), &a.to_dense().transpose(), 0.0));
        // Double transpose roundtrips.
        assert!(approx_eq(&a.transpose().transpose().to_dense(), &a.to_dense(), 0.0));
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let n = small().row_normalized();
        let d = n.to_dense();
        assert!((d.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(d.row(1).iter().sum::<f32>(), 0.0); // empty row stays empty
        assert!((d.row(2).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sym_normalized_known_value() {
        // Single edge graph: A = [[0,1],[0,0]]; row deg 1, col deg 1 → value 1.
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        let s = b.build().sym_normalized();
        assert!((s.to_dense()[(0, 1)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_matrix_spmm_is_zero() {
        let a = Csr::empty(4, 3);
        let x = Matrix::full(3, 2, 1.0);
        let y = a.spmm(&x);
        assert_eq!(y.shape(), (4, 2));
        assert_eq!(y.sum(), 0.0);
    }
}
