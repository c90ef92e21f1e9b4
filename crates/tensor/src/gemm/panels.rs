//! A right operand packed once and kept: the resident form of a table that
//! is only ever multiplied as `rows · tableᵀ` (a served item catalog), and
//! the loop that scores row partitions against it.
//!
//! [`PackedPanels`] holds exactly what [`super::pack_bt`] produces — the
//! `NR`-column panels the `…_nt` tile loop reads — and nothing else, so a
//! caller that keeps one pays the transposing copy once instead of once per
//! product and holds the table in one layout. [`score_loop`] is the
//! partition body: it writes into a column range of a wider output (an
//! output row stride), which is how several packed shards fill one score
//! matrix without an intermediate block, and it picks its kernel and loop
//! order from the partition's row count alone:
//!
//! * at most [`ROW_VECTOR_MAX_ROWS`] rows — the **row-vector kernel**
//!   (`kernel_1x64`): one broadcast of the row's `kk`-th element against
//!   [`NV`] panels, so the eight accumulators are 64 output columns of one
//!   row instead of one live and seven dead rows of an 8×8 tile;
//! * more rows — the 8×8 tile, in **panel-major order** inside blocks of
//!   [`ROW_BLOCK`] rows: a panel, which now arrives cold from L3 rather
//!   than warm from a pack the same call just made, is read once per block
//!   and meets every row tile of the block while it is in L1.
//!
//! Neither choice can reach the arithmetic. Both kernels compute element
//! `(i, j)` as the fold over ascending `kk` of `a[i][kk] · b[j][kk]` from
//! `0.0` in one accumulator lane — one fused multiply-add per step on
//! AVX2/NEON, a rounded multiply then a rounded add on the portable kernel
//! — so the result is bitwise the `…_nt` tile loop's whatever the batch
//! size, block boundaries, partitioning or thread count. The portable
//! kernel's fold is also exactly the legacy scalar dot
//! (`acc += x * y` over ascending `kk`), which is how `DGNN_GEMM=scalar`
//! is served from the same panels with its historical bits.

use super::{generic, pack_bt, packed_b_len, Backend, Fold, Lhs, MR, NR};
use crate::{pool, Matrix};

/// Panels one row-vector kernel call covers (one accumulator each).
const NV: usize = 8;

/// Rows per block of the panel-major tile order: `32 × k` floats of the
/// left operand (8 KB at the served `k = 64`) stay in L1 beside the 2 KB
/// panel they meet.
const ROW_BLOCK: usize = 32;

/// Largest partition the row-vector kernel serves. Measured on the
/// `score/*` criterion group (AVX2, one thread): the row-vector kernel
/// costs one streaming pass plus an L1-fed pass per further row
/// (`16,384 × 64`: 160, 235, 240, 277, 315 µs for 1–5 rows; `3,500 × 48`:
/// 8, 14, 18, 23, 27 µs), an 8×8 tile pass costs the same for any live
/// row count (≈ 280 µs / ≈ 40 µs); they meet at 4 rows on the large table
/// and later on the small one.
const ROW_VECTOR_MAX_ROWS: usize = 4;

/// The transpose of a row-major `rows × cols` table, packed into the
/// zero-padded `NR`-column panels the `…_nt` kernels read: panel `p` holds
/// table rows `p·NR ..`, element `kk` of row `p·NR + j` at
/// `p·NR·cols + kk·NR + j`.
///
/// Pack once, multiply many times
/// ([`Matrix::gather_matmul_panels`](crate::Matrix::gather_matmul_panels)).
pub struct PackedPanels {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl PackedPanels {
    /// Packs `table`; the one transposing copy.
    pub fn pack(table: &Matrix) -> Self {
        let (rows, cols) = table.shape();
        let mut data = pool::alloc_overwritten(packed_b_len(cols, rows));
        pack_bt(table.as_slice(), rows, cols, &mut data);
        Self { data, rows, cols }
    }

    /// Rows of the packed table (columns of the products against it).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the packed table (the reduction length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes held, zero padding of the last panel included.
    pub fn bytes(&self) -> usize {
        self.data.len() * size_of::<f32>()
    }

    /// The packed floats, panel after panel.
    pub(crate) fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

impl Drop for PackedPanels {
    fn drop(&mut self) {
        pool::recycle_vec(std::mem::take(&mut self.data));
    }
}

/// Scores one partition: `out[r·ldc + col0 + j] = a.row(r) · b.row(j)` for
/// `r < span`, `j < b.rows()`. `out` is the partition's `span × ldc` chunk
/// of the output and only the columns `col0 .. col0 + b.rows()` of it are
/// written. See the module doc for the kernel choice and why it cannot
/// change a bit.
pub(crate) fn score_loop<F: Fn(usize) -> usize>(
    be: Backend,
    a: &Lhs<'_, F>,
    b: &PackedPanels,
    span: usize,
    out: &mut [f32],
    ldc: usize,
    col0: usize,
) {
    let (n, k) = (b.rows, b.cols);
    assert!(col0 + n <= ldc, "score loop: column range past the output row");
    assert!(out.len() >= span.saturating_mul(ldc), "score loop: output chunk too short");
    if span == 0 {
        return;
    }
    if k == 0 {
        // An empty fold is `0.0`; no kernel runs, so no operand pointer is
        // ever formed from an empty buffer.
        for row in out.chunks_exact_mut(ldc).take(span) {
            row[col0..col0 + n].fill(0.0);
        }
        return;
    }
    let cp = n.div_ceil(NR);
    let pb = b.as_slice();
    if span <= ROW_VECTOR_MAX_ROWS {
        let lanes: [usize; ROW_VECTOR_MAX_ROWS] =
            std::array::from_fn(|r| (a.lane)(r.min(span - 1)));
        for g0 in (0..cp).step_by(NV) {
            let panels = NV.min(cp - g0);
            let cols = (n - g0 * NR).min(NV * NR);
            let bg = &pb[g0 * NR * k..(g0 + panels) * NR * k];
            for (r, &l) in lanes.iter().enumerate().take(span) {
                let c0 = r * ldc + col0 + g0 * NR;
                row_vector(be, a, l, bg, k, panels, &mut out[c0..c0 + cols]);
            }
        }
        return;
    }
    for r0 in (0..span).step_by(ROW_BLOCK) {
        let rb = ROW_BLOCK.min(span - r0);
        // Dead lanes of the last tile re-read its last live row: in
        // bounds, and their products are never stored.
        let lanes: [[usize; MR]; ROW_BLOCK / MR] = std::array::from_fn(|t| {
            std::array::from_fn(|i| (a.lane)(r0 + (t * MR + i).min(rb - 1)))
        });
        for pc in 0..cp {
            let cols_live = NR.min(n - pc * NR);
            let bp = &pb[pc * NR * k..(pc + 1) * NR * k];
            for (t, tile) in lanes.iter().enumerate().take(rb.div_ceil(MR)) {
                let rows_live = MR.min(rb - t * MR);
                let c0 = (r0 + t * MR) * ldc + col0 + pc * NR;
                tile_8x8(be, a, tile, bp, k, out, c0, ldc, rows_live, cols_live);
            }
        }
    }
}

/// One 8×8 tile of lanes `tile` against the whole panel `bp` (`k >= 1` rows
/// of `NR` floats), its `rows × cols` live corner stored at `out[c0..]`
/// with row stride `ldc`.
#[expect(clippy::too_many_arguments, reason = "the kernel ABI, minus what `a` carries")]
fn tile_8x8<F: Fn(usize) -> usize>(
    be: Backend,
    a: &Lhs<'_, F>,
    tile: &[usize; MR],
    bp: &[f32],
    k: usize,
    out: &mut [f32],
    c0: usize,
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    assert!(k >= 1 && bp.len() >= k * NR, "score loop: panel too short");
    let a_last = tile.iter().copied().fold(0, usize::max) + (k - 1) * a.k_stride;
    assert!(a_last < a.data.len(), "score loop: left operand read out of bounds");
    assert!(
        rows >= 1 && c0 + (rows - 1) * ldc + cols <= out.len(),
        "score loop: tile corner outside the output"
    );
    let (ap, bp_ptr) = (a.data.as_ptr(), bp.as_ptr());
    match be {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // Avx2 is selected only after runtime checks of `avx2`+`fma`.
        // SAFETY: the three asserts above bound the `k >= 1` 8-float rows of
        // `bp`, the furthest A element (`max lane + (k-1)*k_stride`) and
        // the live corner `c0 + i*ldc + j` inside their slices.
        Backend::Avx2 => unsafe {
            let c = out.as_mut_ptr().add(c0);
            super::avx2::kernel_8x8(
                k,
                ap,
                tile,
                a.k_stride,
                bp_ptr,
                NR,
                c,
                ldc,
                rows,
                cols,
                Fold::Fresh,
            );
        },
        #[cfg(target_arch = "aarch64")]
        // Neon is selected only when `is_aarch64_feature_detected!("neon")`.
        // SAFETY: the three asserts above bound the `k >= 1` 8-float rows of
        // `bp`, the furthest A element (`max lane + (k-1)*k_stride`) and
        // the live corner `c0 + i*ldc + j` inside their slices.
        Backend::Neon => unsafe {
            let c = out.as_mut_ptr().add(c0);
            super::neon::kernel_8x8(
                k,
                ap,
                tile,
                a.k_stride,
                bp_ptr,
                NR,
                c,
                ldc,
                rows,
                cols,
                Fold::Fresh,
            );
        },
        // `Scalar` lands here too: the portable fold is the legacy scalar
        // dot (module doc).
        _ => generic::kernel_8x8(
            k,
            a.data,
            tile,
            a.k_stride,
            bp,
            NR,
            out,
            c0,
            ldc,
            rows,
            cols,
            Fold::Fresh,
        ),
    }
}

/// The row at `lane` against `panels <= NV` consecutive packed panels `bg`
/// (`k >= 1` rows each), into the `c.len()` live output columns they cover.
fn row_vector<F: Fn(usize) -> usize>(
    be: Backend,
    a: &Lhs<'_, F>,
    lane: usize,
    bg: &[f32],
    k: usize,
    panels: usize,
    c: &mut [f32],
) {
    assert!(
        k >= 1 && (1..=NV).contains(&panels) && bg.len() >= panels * k * NR,
        "score loop: panel group too short"
    );
    assert!(
        lane + (k - 1) * a.k_stride < a.data.len(),
        "score loop: left operand read out of bounds"
    );
    assert!(
        (panels - 1) * NR < c.len() && c.len() <= panels * NR,
        "score loop: columns do not match the panels"
    );
    match be {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // Avx2 is selected only after runtime checks of `avx2`+`fma`.
        // SAFETY: the three asserts above put `1 <= panels <= 8` panels of
        // `k >= 1` 8-float rows inside `bg`, `lane + (k-1)*k_stride` inside
        // `a.data`, and `(panels-1)*8 < c.len() <= panels*8`.
        Backend::Avx2 => unsafe {
            super::avx2::kernel_1x64(
                k,
                a.data.as_ptr().add(lane),
                a.k_stride,
                bg.as_ptr(),
                panels,
                c.as_mut_ptr(),
                c.len(),
            );
        },
        #[cfg(target_arch = "aarch64")]
        // Neon is selected only when `is_aarch64_feature_detected!("neon")`.
        // SAFETY: the three asserts above put `1 <= panels <= 8` panels of
        // `k >= 1` 8-float rows inside `bg`, `lane + (k-1)*k_stride` inside
        // `a.data`, and `(panels-1)*8 < c.len() <= panels*8`.
        Backend::Neon => unsafe {
            super::neon::kernel_1x64(
                k,
                a.data.as_ptr().add(lane),
                a.k_stride,
                bg.as_ptr(),
                panels,
                c.as_mut_ptr(),
                c.len(),
            );
        },
        _ => generic::kernel_1x64(k, &a.data[lane..], a.k_stride, bg, c),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_bits, mat, packed_backends, serial_and_pooled};
    use super::super::{oracle, set_backend};
    use super::*;
    use crate::parallel;
    use proptest::prelude::*;

    /// `users.gather_matmul_panels(idx, shards)` for `b` gathered rows
    /// against a `Σ shard_rows × k` table split at `shard_rows`, against
    /// `gather_rows(idx).matmul_nt(table)` on the same backend, bit for bit.
    fn check_entry_point(be: Backend, b: usize, k: usize, shard_rows: &[usize], seed: u64) {
        let n: usize = shard_rows.iter().sum();
        let table = mat(n, k, seed ^ 1);
        let users = mat(50, k, seed ^ 2);
        let idx: Vec<usize> = (0..b).map(|i| (i * 7 + seed as usize) % 50).collect();
        let mut row0 = 0;
        let shards: Vec<PackedPanels> = shard_rows
            .iter()
            .map(|&rows| {
                let block = table.as_slice()[row0 * k..(row0 + rows) * k].to_vec();
                row0 += rows;
                PackedPanels::pack(&Matrix::from_vec(rows, k, block))
            })
            .collect();
        let refs: Vec<&PackedPanels> = shards.iter().collect();
        set_backend(Some(be));
        let want = users.gather_rows(&idx).matmul_nt(&table);
        let got = users.gather_matmul_panels(&idx, &refs);
        set_backend(None);
        let what = format!("b={b} k={k} shards={shard_rows:?} on {}", be.name());
        assert_eq!(got.shape(), (b, n), "{what}: shape");
        assert_bits(&got, want.as_slice(), &what);
    }

    #[test]
    fn scorer_matches_gather_then_matmul_nt_on_every_backend() {
        let mut backends = packed_backends();
        backends.push(Backend::Scalar);
        for be in backends {
            serial_and_pooled(|| {
                for b in [1, 2, 7, 8, 9, 32] {
                    for k in [20, 48, 64] {
                        // One ragged table; shards on and off panel
                        // boundaries with a ragged last shard, so column
                        // offsets are non-zero and not multiples of NR.
                        check_entry_point(be, b, k, &[1003], 1);
                        check_entry_point(be, b, k, &[40, 40, 23], 2);
                        check_entry_point(be, b, k, &[37, 37, 37, 12], 3);
                    }
                }
            });
        }
    }

    #[test]
    fn degenerate_shapes_have_defined_results() {
        for be in packed_backends() {
            check_entry_point(be, 0, 5, &[9], 4);
            check_entry_point(be, 3, 0, &[9, 2], 5);
            check_entry_point(be, 3, 5, &[], 6);
            check_entry_point(be, 3, 5, &[0, 9], 7);
        }
    }

    /// `score_loop` over `span` rows of a `span × k` operand against `n`
    /// packed rows, into columns `col0..` of a `span × (n + 5)` buffer.
    fn score(be: Backend, a: &Matrix, b: &PackedPanels, col0: usize) -> Vec<f32> {
        let (span, k, ldc) = (a.rows(), a.cols(), b.rows() + 5);
        // 7.0 marks elements the loop must not touch.
        let mut out = vec![7.0; span * ldc];
        let lhs = Lhs { data: a.as_slice(), lane: |r| r * k, k_stride: 1 };
        score_loop(be, &lhs, b, span, &mut out, ldc, col0);
        out
    }

    /// The row-vector kernel (spans up to `ROW_VECTOR_MAX_ROWS`) and the
    /// blocked panel-major tile order (longer spans) against the oracle's
    /// row-major pass of the 8×8 tile over packed operands.
    fn check_against_tile_oracle(be: Backend, span: usize, k: usize, n: usize, seed: u64) {
        let a = mat(span, k, seed ^ 1);
        let bt = mat(n, k, seed ^ 2);
        let packed = PackedPanels::pack(&bt);
        let mut want = vec![0.0; span * n];
        let (pa, pb) =
            (oracle::pack_a(a.as_slice(), k, span), oracle::pack_bt(bt.as_slice(), n, k));
        oracle::tile_loop(be, &pa, &pb, k, n, span, &mut want);
        let got = score(be, &a, &packed, 3);
        for r in 0..span {
            let row = &got[r * (n + 5)..(r + 1) * (n + 5)];
            assert!(
                row[..3].iter().chain(&row[3 + n..]).all(|&v| v == 7.0),
                "wrote outside the column range"
            );
            for j in 0..n {
                assert_eq!(
                    row[3 + j].to_bits(),
                    want[r * n + j].to_bits(),
                    "{span}x{k}x{n} on {}: element ({r},{j})",
                    be.name()
                );
            }
        }
    }

    #[test]
    fn row_vector_and_blocked_tiles_match_the_tile_oracle() {
        for be in packed_backends() {
            for span in [
                1,
                2,
                ROW_VECTOR_MAX_ROWS,
                ROW_VECTOR_MAX_ROWS + 1,
                8,
                9,
                ROW_BLOCK,
                ROW_BLOCK + 1,
                70,
            ] {
                // Several row-vector groups with a ragged last group and
                // panel; one exact group; under one group.
                for (k, n) in [(20, 1003), (64, 128), (48, 63), (1, 1)] {
                    check_against_tile_oracle(be, span, k, n, span as u64);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_row_vector_kernel_matches_the_tile(
            span in 1usize..=ROW_VECTOR_MAX_ROWS,
            k in 1usize..40,
            n in 1usize..40,
            wide in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // `wide` adds two whole row-vector groups ahead of the ragged one.
            let n = if wide { n + 2 * NV * NR } else { n };
            for be in packed_backends() {
                check_against_tile_oracle(be, span, k, n, seed);
            }
        }
    }

    #[test]
    fn packing_recycles_into_an_installed_pool() {
        let table = mat(9, 4, 1);
        let _pool = crate::PoolScope::open();
        let bytes = PackedPanels::pack(&table).bytes();
        assert_eq!(bytes, 2 * NR * 4 * size_of::<f32>(), "two panels of four 8-float rows");
        assert_eq!(pool::held_bytes(), bytes, "the dropped panels retire into the pool");
    }

    #[test]
    fn pooled_partitions_each_pick_their_own_kernel() {
        // Four rows over three partitions: spans of 2, 1 and 1 take the
        // row-vector kernel where the serial span of 4 takes the tile.
        let (users, table) = (mat(4, 20, 8), mat(100, 20, 9));
        let packed = PackedPanels::pack(&table);
        let idx = [3, 1, 0, 2];
        let serial = users.gather_matmul_panels(&idx, &[&packed]);
        parallel::set_threads(3);
        parallel::set_min_par_work(1);
        let pooled = users.gather_matmul_panels(&idx, &[&packed]);
        parallel::set_threads(1);
        parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
        assert_bits(&pooled, serial.as_slice(), "pooled vs serial");
    }
}
