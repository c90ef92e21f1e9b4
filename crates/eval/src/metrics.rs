//! HR@N and NDCG@N (the paper's Eq. 12).
//!
//! Ranking runs on the serving tier's heap-based partial top-K kernel
//! ([`dgnn_tensor::top_k_row`], `O(c · log N)` per case) rather than a
//! full sort or an `O(c·N)` counting sweep per cutoff. The protocol is
//! unchanged: candidates are scored positive-first, then *reordered
//! positive-last* before selection, so the kernel's ascending-index
//! tie-break makes every tied negative outrank the positive — exactly the
//! conservative ties-against-the-positive convention (verified against a
//! counting oracle by a proptest below).

use dgnn_data::TestInstance;
use dgnn_tensor::top_k_row;

use crate::Recommender;

/// The top-N cutoffs the paper reports (Tables II–III, Figures 4–8).
pub const TOP_NS: [usize; 3] = [5, 10, 20];

/// Hit rate and NDCG at one cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankingMetrics {
    /// `HR@N`: fraction of test users whose held-out positive ranks in the
    /// top N of the 101 candidates.
    pub hr: f64,
    /// `NDCG@N`: discounted gain of the positive's rank; `IDCG = 1` for the
    /// single-positive protocol, so this is `1/log₂(rank + 1)` when hit.
    pub ndcg: f64,
}

/// Rank (1-based) of the positive (`scores[0]`) among the candidates when
/// it lands in the top `n`, else `None`.
///
/// Ties are broken *against* the positive (a tied negative outranks it),
/// the conservative convention — a model must strictly separate the
/// positive to get credit. Implemented by reordering the row positive-last
/// and running the heap-based partial top-`n` select: the kernel's total
/// order (score descending, index ascending on ties) then places every
/// tied negative ahead of the positive, so the positive's 1-based position
/// in the selected prefix *is* its conservative rank.
fn positive_rank_within(scores: &[f32], n: usize) -> Option<usize> {
    let mut row = Vec::with_capacity(scores.len());
    row.extend_from_slice(&scores[1..]);
    row.push(scores[0]);
    let k = n.min(row.len());
    let mut idx = vec![0u32; k];
    let mut sel = vec![0f32; k];
    top_k_row(&row, &mut idx, &mut sel);
    let positive = (row.len() - 1) as u32;
    idx.iter().position(|&i| i == positive).map(|p| p + 1)
}

/// Evaluates a model at one cutoff.
pub fn evaluate_at(model: &dyn Recommender, test: &[TestInstance], n: usize) -> RankingMetrics {
    assert!(n > 0, "evaluate_at: cutoff must be positive");
    assert!(!test.is_empty(), "evaluate_at: empty test set");
    let mut hits = 0.0;
    let mut gain = 0.0;
    for case in test {
        let candidates: Vec<usize> = case.candidates().map(|v| v as usize).collect();
        let scores = model.score(case.user as usize, &candidates);
        debug_assert_eq!(scores.len(), candidates.len(), "score length mismatch");
        if let Some(rank) = positive_rank_within(&scores, n) {
            hits += 1.0;
            gain += 1.0 / ((rank as f64) + 1.0).log2();
        }
    }
    let m = test.len() as f64;
    RankingMetrics { hr: hits / m, ndcg: gain / m }
}

/// Evaluates at all of the paper's cutoffs ([`TOP_NS`]) with one top-K
/// select per case (at the largest cutoff; the smaller cutoffs are
/// prefixes of the same selection because the order is total).
pub fn evaluate(model: &dyn Recommender, test: &[TestInstance]) -> [RankingMetrics; 3] {
    assert!(!test.is_empty(), "evaluate: empty test set");
    let n_max = TOP_NS[TOP_NS.len() - 1];
    let mut out = [RankingMetrics::default(); 3];
    for case in test {
        let candidates: Vec<usize> = case.candidates().map(|v| v as usize).collect();
        let scores = model.score(case.user as usize, &candidates);
        if let Some(rank) = positive_rank_within(&scores, n_max) {
            for (slot, &n) in out.iter_mut().zip(TOP_NS.iter()) {
                if rank <= n {
                    slot.hr += 1.0;
                    slot.ndcg += 1.0 / ((rank as f64) + 1.0).log2();
                }
            }
        }
    }
    let m = test.len() as f64;
    for slot in &mut out {
        slot.hr /= m;
        slot.ndcg /= m;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recommender with a fixed global item ordering: item id = score.
    struct Oracle;
    impl Recommender for Oracle {
        fn name(&self) -> &str {
            "oracle"
        }
        fn score(&self, _user: usize, items: &[usize]) -> Vec<f32> {
            items.iter().map(|&v| v as f32).collect()
        }
    }

    fn case(pos: u32, negs: &[u32]) -> TestInstance {
        TestInstance { user: 0, pos_item: pos, negatives: negs.to_vec() }
    }

    #[test]
    fn perfect_ranking_gives_ones() {
        // Positive item 100 outranks all negatives.
        let test = vec![case(100, &[1, 2, 3, 4])];
        let m = evaluate_at(&Oracle, &test, 1);
        assert_eq!(m.hr, 1.0);
        assert_eq!(m.ndcg, 1.0);
    }

    #[test]
    fn rank_two_halves_ndcg_log() {
        // One negative (200) beats the positive (100): rank 2.
        let test = vec![case(100, &[200, 1, 2])];
        let m = evaluate_at(&Oracle, &test, 5);
        assert_eq!(m.hr, 1.0);
        assert!((m.ndcg - 1.0 / 3f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn miss_outside_cutoff() {
        let test = vec![case(0, &[10, 20, 30])]; // rank 4
        let m = evaluate_at(&Oracle, &test, 3);
        assert_eq!(m.hr, 0.0);
        assert_eq!(m.ndcg, 0.0);
        let m = evaluate_at(&Oracle, &test, 4);
        assert_eq!(m.hr, 1.0);
    }

    #[test]
    fn ties_count_against_the_positive() {
        struct Flat;
        impl Recommender for Flat {
            fn name(&self) -> &str {
                "flat"
            }
            fn score(&self, _: usize, items: &[usize]) -> Vec<f32> {
                vec![0.0; items.len()]
            }
        }
        let test = vec![case(1, &[2, 3, 4, 5])]; // all tied → rank 5
        let m = evaluate_at(&Flat, &test, 4);
        assert_eq!(m.hr, 0.0);
    }

    #[test]
    fn averaged_over_users() {
        let test = vec![case(100, &[1, 2]), case(0, &[10, 20])]; // hit + miss at N=1
        let m = evaluate_at(&Oracle, &test, 1);
        assert_eq!(m.hr, 0.5);
    }

    #[test]
    fn evaluate_matches_evaluate_at_per_cutoff() {
        let test = vec![case(100, &[1, 2, 3]), case(0, &[10, 20, 30]), case(15, &[10, 20, 30])];
        let all = evaluate(&Oracle, &test);
        for (i, &n) in TOP_NS.iter().enumerate() {
            let single = evaluate_at(&Oracle, &test, n);
            assert_eq!(all[i], single, "cutoff {n}");
        }
    }

    #[test]
    fn metrics_are_monotone_in_n() {
        let test = vec![case(100, &[1, 2, 3]), case(0, &[10, 20, 30]), case(15, &[10, 20, 30])];
        let all = evaluate(&Oracle, &test);
        assert!(all[0].hr <= all[1].hr && all[1].hr <= all[2].hr);
        assert!(all[0].ndcg <= all[1].ndcg && all[1].ndcg <= all[2].ndcg);
    }

    #[test]
    #[should_panic(expected = "empty test set")]
    fn empty_test_panics() {
        evaluate_at(&Oracle, &[], 10);
    }

    /// The counting implementation the kernel-based path replaced — kept
    /// as the oracle: rank = 1 + |{negatives with score ≥ positive}|.
    fn counting_rank(scores: &[f32]) -> usize {
        let pos = scores[0];
        1 + scores[1..].iter().filter(|&&s| s >= pos).count()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn kernel_rank_matches_counting_oracle(
            raw in proptest::collection::vec(0u32..16, 2..40),
            n in 1usize..25,
        ) {
            // Quantized scores force plenty of exact ties, the case where
            // the two conventions could diverge.
            let scores: Vec<f32> = raw.iter().map(|&q| q as f32 * 0.5 - 4.0).collect();
            let oracle = counting_rank(&scores);
            let got = positive_rank_within(&scores, n);
            if oracle <= n.min(scores.len()) {
                proptest::prop_assert_eq!(got, Some(oracle));
            } else {
                proptest::prop_assert_eq!(got, None);
            }
        }
    }
}
