//! Heap-based partial top-K selection over score rows.
//!
//! The serving tier's core ranking kernel: given a `rows × cols` score
//! matrix, return each row's `k` best `(index, score)` pairs in descending
//! order — without sorting the whole row. Selection runs an in-place
//! bounded min-heap over the output slots (`O(cols · log k)` per row, zero
//! per-row allocation), then heap-sorts the `k` survivors.
//!
//! # Determinism
//!
//! Ordering is a *total* order: higher score first, and equal scores break
//! ties toward the **lower column index** ([`f32::total_cmp`] handles the
//! degenerate NaN/−0.0 cases so even pathological inputs rank the same way
//! everywhere). Because the order is total and rows are independent, the
//! result is a pure function of the input row — independent of thread
//! count, batch composition, and `k` itself (the top-`k` list is always a
//! prefix of the top-`k+1` list, which is what lets a micro-batcher select
//! at the batch's maximum `k` and truncate per request).
//!
//! Rows are partitioned across the deterministic kernel pool
//! ([`crate::parallel`]): each partition writes a disjoint row range of the
//! two output buffers, preserving the pool's bit-identity contract.

use crate::parallel;
use crate::Matrix;

/// Per-row top-K results: `rows × k` index and score buffers, each row in
/// descending score order (ties by ascending index).
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    rows: usize,
    k: usize,
    indices: Vec<u32>,
    scores: Vec<f32>,
}

impl TopK {
    /// Number of input rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Entries retained per row.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `r`'s column indices, best first.
    #[inline]
    pub fn indices(&self, r: usize) -> &[u32] {
        &self.indices[r * self.k..(r + 1) * self.k]
    }

    /// Row `r`'s scores, aligned with [`TopK::indices`].
    #[inline]
    pub fn scores(&self, r: usize) -> &[f32] {
        &self.scores[r * self.k..(r + 1) * self.k]
    }

    /// Row `r` as `(index, score)` pairs, best first.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices(r).iter().copied().zip(self.scores(r).iter().copied())
    }
}

/// Does `(s_a, i_a)` outrank `(s_b, i_b)` under the total serving order
/// (higher score first, lower index on ties)?
#[inline]
fn beats(s_a: f32, i_a: u32, s_b: f32, i_b: u32) -> bool {
    match s_a.total_cmp(&s_b) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => i_a < i_b,
    }
}

/// Restores the min-heap ("worst at the root") property below slot `i` of
/// the first `len` entries of the parallel `(scores, indices)` arrays.
fn sift_down(sc: &mut [f32], idx: &mut [u32], mut i: usize, len: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= len {
            return;
        }
        let r = l + 1;
        // Pick the worse (= lower-ranked) child: the one the parent must
        // not outrank if the heap is to keep the worst entry at the root.
        let mut w = l;
        if r < len && beats(sc[l], idx[l], sc[r], idx[r]) {
            w = r;
        }
        if beats(sc[i], idx[i], sc[w], idx[w]) {
            sc.swap(i, w);
            idx.swap(i, w);
            i = w;
        } else {
            return;
        }
    }
}

/// Selects the top `idx_out.len()` entries of `scores` into
/// `(idx_out, score_out)`, best first, under the deterministic total order
/// (score descending, index ascending on ties). Allocation-free.
///
/// # Panics
/// Panics when the output slices disagree in length, are empty, or are
/// longer than `scores`.
pub fn top_k_row(scores: &[f32], idx_out: &mut [u32], score_out: &mut [f32]) {
    let k = idx_out.len();
    assert_eq!(k, score_out.len(), "top_k_row: output slices must have equal length");
    assert!(k >= 1, "top_k_row: k must be at least 1");
    assert!(k <= scores.len(), "top_k_row: k = {k} exceeds row length {}", scores.len());
    for (i, (o_i, o_s)) in idx_out.iter_mut().zip(score_out.iter_mut()).enumerate() {
        *o_i = i as u32;
        *o_s = scores[i];
    }
    // Min-heapify: root becomes the worst of the first k entries.
    for i in (0..k / 2).rev() {
        sift_down(score_out, idx_out, i, k);
    }
    for (j, &s) in scores.iter().enumerate().skip(k) {
        if beats(s, j as u32, score_out[0], idx_out[0]) {
            score_out[0] = s;
            idx_out[0] = j as u32;
            sift_down(score_out, idx_out, 0, k);
        }
    }
    // In-place heapsort: extracting the minimum (worst) to the back each
    // round leaves the array in descending rank order, best first.
    for end in (1..k).rev() {
        score_out.swap(0, end);
        idx_out.swap(0, end);
        sift_down(score_out, idx_out, 0, end);
    }
}

/// Sendable base pointer pair for handing each pool partition its disjoint
/// output rows (the index buffer is `u32`, so [`parallel::par_row_chunks`]'s
/// single-`f32`-buffer contract does not fit).
struct SendOut {
    idx: *mut u32,
    sc: *mut f32,
}

impl SendOut {
    fn idx(&self) -> *mut u32 {
        self.idx
    }
    fn sc(&self) -> *mut f32 {
        self.sc
    }
}

// SAFETY: the pointers are only dereferenced through non-overlapping row
// ranges — `part_range` hands each partition a disjoint slice of rows, and
// every row is written by exactly one partition (see `top_k_rows`).
unsafe impl Send for SendOut {}
// SAFETY: sharing `&SendOut` hands out only the two pointer values; each
// partition writes through them into its own disjoint rows only.
unsafe impl Sync for SendOut {}

/// Top-`k` selection for every row of `scores`, row-partitioned on the
/// deterministic kernel pool. Each output row is in descending score order
/// with ties broken toward lower column indices; the result is bit-identical
/// for every thread count.
///
/// # Panics
/// Panics when `k` is zero or exceeds the column count.
pub fn top_k_rows(scores: &Matrix, k: usize) -> TopK {
    let (rows, cols) = scores.shape();
    assert!(k >= 1, "top_k_rows: k must be at least 1");
    assert!(k <= cols, "top_k_rows: k = {k} exceeds column count {cols}");
    let mut indices = vec![0u32; rows * k];
    let mut out_scores = vec![0.0f32; rows * k];
    let src = scores.as_slice();
    // Cost estimate: one scan plus heap repairs; the scan dominates.
    let parts = parallel::planned_parts(rows, cols.max(1).saturating_mul(2));
    if parts <= 1 {
        for r in 0..rows {
            top_k_row(
                &src[r * cols..(r + 1) * cols],
                &mut indices[r * k..(r + 1) * k],
                &mut out_scores[r * k..(r + 1) * k],
            );
        }
        return TopK { rows, k, indices, scores: out_scores };
    }
    let base = SendOut { idx: indices.as_mut_ptr(), sc: out_scores.as_mut_ptr() };
    parallel::run_parts(parts, |p| {
        let range = parallel::part_range(rows, parts, p);
        for r in range {
            // SAFETY: partitions own disjoint row ranges of both output
            // buffers, which outlive the dispatch (`run_parts` blocks until
            // every partition completes) and hold `rows * k` elements, so
            // each reconstructed row slice is in-bounds and unaliased.
            let (idx_row, sc_row) = unsafe {
                (
                    std::slice::from_raw_parts_mut(base.idx().add(r * k), k),
                    std::slice::from_raw_parts_mut(base.sc().add(r * k), k),
                )
            };
            top_k_row(&src[r * cols..(r + 1) * cols], idx_row, sc_row);
        }
    });
    TopK { rows, k, indices, scores: out_scores }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-sort reference: indices ordered by (score desc, index asc).
    fn sort_ref(row: &[f32]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..row.len() as u32).collect();
        order.sort_by(|&a, &b| row[b as usize].total_cmp(&row[a as usize]).then(a.cmp(&b)));
        order
    }

    #[test]
    fn selects_and_orders_best_entries() {
        let row = [0.5, -1.0, 3.0, 2.0, 2.5];
        let mut idx = [0u32; 3];
        let mut sc = [0f32; 3];
        top_k_row(&row, &mut idx, &mut sc);
        assert_eq!(idx, [2, 4, 3]);
        assert_eq!(sc, [3.0, 2.5, 2.0]);
    }

    #[test]
    fn ties_break_toward_lower_index() {
        let row = [1.0, 2.0, 2.0, 1.0, 2.0];
        let mut idx = [0u32; 4];
        let mut sc = [0f32; 4];
        top_k_row(&row, &mut idx, &mut sc);
        assert_eq!(idx, [1, 2, 4, 0], "equal scores rank by ascending index");
    }

    #[test]
    fn k_equals_len_matches_full_sort() {
        let row = [0.0, -2.0, 7.5, 7.5, -2.0, 0.0, 1.0];
        let mut idx = vec![0u32; row.len()];
        let mut sc = vec![0f32; row.len()];
        top_k_row(&row, &mut idx, &mut sc);
        assert_eq!(idx, sort_ref(&row));
    }

    #[test]
    fn topk_is_prefix_of_larger_k() {
        let row = [0.3, 0.1, 0.3, 0.9, -0.5, 0.9, 0.0];
        let mut i5 = [0u32; 5];
        let mut s5 = [0f32; 5];
        top_k_row(&row, &mut i5, &mut s5);
        let mut i2 = [0u32; 2];
        let mut s2 = [0f32; 2];
        top_k_row(&row, &mut i2, &mut s2);
        assert_eq!(&i5[..2], &i2[..], "top-2 is a prefix of top-5");
    }

    #[test]
    fn rows_are_independent() {
        let m = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0]);
        let t = top_k_rows(&m, 2);
        assert_eq!(t.indices(0), &[3, 2]);
        assert_eq!(t.indices(1), &[0, 1]);
        assert_eq!(t.scores(0), &[4.0, 3.0]);
        assert_eq!(t.row(1).collect::<Vec<_>>(), vec![(0, 4.0), (1, 3.0)]);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let (rows, cols, k) = (37, 53, 7);
        let mut v = Vec::with_capacity(rows * cols);
        let mut s = 0x1234_5678_u64;
        for _ in 0..rows * cols {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Coarse quantization to force plenty of ties.
            v.push(((s >> 33) % 17) as f32 * 0.25 - 2.0);
        }
        let m = Matrix::from_vec(rows, cols, v);
        parallel::set_threads(1);
        let serial = top_k_rows(&m, k);
        parallel::set_threads(4);
        parallel::set_min_par_work(1);
        let pooled = top_k_rows(&m, k);
        parallel::set_threads(1);
        parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
        assert_eq!(serial, pooled, "top-K must be bit-identical across thread counts");
    }

    #[test]
    #[should_panic(expected = "exceeds column count")]
    fn oversized_k_panics() {
        top_k_rows(&Matrix::zeros(2, 3), 4);
    }
}
