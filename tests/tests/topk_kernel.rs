//! Property tests for the heap-based partial top-K kernel: selection must
//! equal the prefix of a full argsort under the same total order (score
//! descending, index ascending on ties — the order that makes serving
//! deterministic and lets a batch select at `k_max` and truncate per
//! request), and the row-parallel path must be bit-identical to serial.

use dgnn_tensor::{parallel, top_k_row, top_k_rows, Matrix};
use proptest::prelude::*;

/// Full argsort under the kernel's total order; the reference the partial
/// select must prefix-match.
fn argsort_desc(scores: &[f32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..scores.len() as u32).collect();
    order.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]).then(a.cmp(&b)));
    order
}

fn with_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    parallel::set_threads(threads);
    parallel::set_min_par_work(if threads > 1 { 1 } else { parallel::DEFAULT_MIN_PAR_WORK });
    let out = f();
    parallel::set_threads(1);
    parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
    out
}

/// Quantized scores (4 distinct values over up to 48 entries) force heavy
/// ties, the regime where a sloppy comparator would diverge from the
/// reference order. The vendored proptest has no `i32` range strategy, so
/// quantize from `u32`.
fn tied_scores() -> impl Strategy<Value = Vec<f32>> {
    collection::vec(0u32..4, 1..48)
        .prop_map(|qs| qs.into_iter().map(|q| q as f32 * 0.25 - 0.5).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topk_equals_argsort_prefix(scores in tied_scores(), k in 1usize..60) {
        let k = k.min(scores.len());
        let mut idx = vec![0u32; k];
        let mut sel = vec![0f32; k];
        top_k_row(&scores, &mut idx, &mut sel);
        let reference = argsort_desc(&scores);
        prop_assert_eq!(&idx, &reference[..k]);
        for (i, &s) in idx.iter().zip(&sel) {
            prop_assert_eq!(scores[*i as usize].to_bits(), s.to_bits());
        }
    }

    /// Top-k is a prefix of top-(k+1): the property the micro-batcher
    /// relies on to select once at the batch's max k and truncate each
    /// request's answer.
    #[test]
    fn topk_is_prefix_of_larger_k(scores in tied_scores(), k in 1usize..40) {
        let k = k.min(scores.len() - 1).max(1);
        if k + 1 > scores.len() {
            return Ok(());
        }
        let mut idx_k = vec![0u32; k];
        let mut sel_k = vec![0f32; k];
        top_k_row(&scores, &mut idx_k, &mut sel_k);
        let mut idx_k1 = vec![0u32; k + 1];
        let mut sel_k1 = vec![0f32; k + 1];
        top_k_row(&scores, &mut idx_k1, &mut sel_k1);
        prop_assert_eq!(&idx_k[..], &idx_k1[..k]);
    }

    #[test]
    fn parallel_rowwise_selection_is_bit_identical(
        rows in 1usize..12,
        qs in collection::vec(0u32..8, 12 * 31),
        k in 1usize..31,
        threads in 2usize..6,
    ) {
        let cols = 31;
        let data: Vec<f32> = qs[..rows * cols]
            .iter()
            .map(|&q| q as f32 * 0.125 - 0.5)
            .collect();
        let m = Matrix::from_vec(rows, cols, data);
        let serial = with_pool(1, || top_k_rows(&m, k));
        let parallel_run = with_pool(threads, || top_k_rows(&m, k));
        for r in 0..rows {
            prop_assert_eq!(serial.indices(r), parallel_run.indices(r));
            let a: Vec<u32> = serial.scores(r).iter().map(|s| s.to_bits()).collect();
            let b: Vec<u32> = parallel_run.scores(r).iter().map(|s| s.to_bits()).collect();
            prop_assert_eq!(a, b);
        }
    }
}

/// Special values follow `total_cmp`'s total order (positive NaN above
/// +inf, -0.0 below +0.0) — and nothing panics.
#[test]
fn non_finite_scores_follow_total_order() {
    let scores = [f32::NAN, 1.0, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, f32::NAN];
    let mut idx = vec![0u32; scores.len()];
    let mut sel = vec![0f32; scores.len()];
    top_k_row(&scores, &mut idx, &mut sel);
    assert_eq!(idx, argsort_desc(&scores));
    // Positive NaN has the largest bit pattern: the two NaNs (indices 0
    // and 6, tie broken ascending) outrank +inf, then 0.0 > -0.0 > -inf.
    assert_eq!(idx, [0, 6, 2, 1, 5, 4, 3]);
    assert!(sel[0].is_nan() && sel[1].is_nan());
    assert_eq!(sel[2], f32::INFINITY);
}
