//! Sparsity-group evaluation (the paper's Figure 6).
//!
//! Users are ranked by an activity measure (training interactions, or
//! social degree) and partitioned into four equal-count quartiles
//! (`0–25%`, `25–50%`, `50–75%`, `75–100%`); each quartile is evaluated
//! separately.

use dgnn_data::TestInstance;

use crate::metrics::{evaluate_at, RankingMetrics};
use crate::Recommender;

/// Number of groups the paper uses.
pub const NUM_GROUPS: usize = 4;

/// Assigns each entity a quartile id in `0..NUM_GROUPS` by rank of its
/// `value` (ascending: group 0 = sparsest quartile). Ties are broken by
/// index so groups stay equal-sized.
pub fn quartile_assignment(values: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by_key(|&i| (values[i], i));
    let mut group = vec![0usize; values.len()];
    for (rank, &i) in order.iter().enumerate() {
        group[i] = (rank * NUM_GROUPS / values.len()).min(NUM_GROUPS - 1);
    }
    group
}

/// Per-group evaluation result.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Mean of the grouping value (e.g. average #interactions) per group.
    pub mean_value: [f64; NUM_GROUPS],
    /// Number of evaluated users per group.
    pub test_users: [usize; NUM_GROUPS],
    /// Metrics per group.
    pub metrics: [RankingMetrics; NUM_GROUPS],
}

/// Evaluates `model` separately on each user quartile of `values`
/// (`values[u]` is user `u`'s activity measure; indices are user ids).
pub fn evaluate_by_group(
    model: &dyn Recommender,
    test: &[TestInstance],
    values: &[usize],
    n: usize,
) -> GroupReport {
    let assignment = quartile_assignment(values);
    let mut mean_value = [0.0; NUM_GROUPS];
    let mut counts = [0usize; NUM_GROUPS];
    for (u, &v) in values.iter().enumerate() {
        mean_value[assignment[u]] += v as f64;
        counts[assignment[u]] += 1;
    }
    for g in 0..NUM_GROUPS {
        if counts[g] > 0 {
            mean_value[g] /= counts[g] as f64;
        }
    }

    let mut metrics = [RankingMetrics::default(); NUM_GROUPS];
    let mut test_users = [0usize; NUM_GROUPS];
    for g in 0..NUM_GROUPS {
        let subset: Vec<TestInstance> =
            test.iter().filter(|c| assignment[c.user as usize] == g).cloned().collect();
        test_users[g] = subset.len();
        if !subset.is_empty() {
            metrics[g] = evaluate_at(model, &subset, n);
        }
    }
    GroupReport { mean_value, test_users, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_are_equal_sized() {
        let values: Vec<usize> = (0..100).map(|i| i * 3 % 17).collect();
        let g = quartile_assignment(&values);
        for q in 0..NUM_GROUPS {
            assert_eq!(g.iter().filter(|&&x| x == q).count(), 25);
        }
    }

    #[test]
    fn quartiles_order_by_value() {
        let values = vec![10, 1, 7, 3];
        let g = quartile_assignment(&values);
        assert_eq!(g, vec![3, 0, 2, 1]);
    }

    #[test]
    fn uneven_sizes_still_cover_all_groups() {
        let values = vec![5, 1, 3, 9, 2, 8, 7];
        let g = quartile_assignment(&values);
        assert!(g.iter().all(|&x| x < NUM_GROUPS));
        // Sparsest element lands in group 0, densest in the last group.
        assert_eq!(g[1], 0);
        assert_eq!(g[3], NUM_GROUPS - 1);
    }

    #[test]
    fn group_report_partitions_test_users() {
        struct Oracle;
        impl Recommender for Oracle {
            fn name(&self) -> &str {
                "oracle"
            }
            fn score(&self, _: usize, items: &[usize]) -> Vec<f32> {
                items.iter().map(|&v| v as f32).collect()
            }
        }
        let values = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let test: Vec<TestInstance> = (0..8)
            .map(|u| TestInstance { user: u, pos_item: 100, negatives: vec![1, 2] })
            .collect();
        let report = evaluate_by_group(&Oracle, &test, &values, 1);
        assert_eq!(report.test_users.iter().sum::<usize>(), 8);
        // Oracle always ranks item 100 first.
        for g in 0..NUM_GROUPS {
            assert_eq!(report.metrics[g].hr, 1.0);
        }
        assert!(report.mean_value[0] < report.mean_value[3]);
    }
}
