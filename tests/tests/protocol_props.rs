//! Property-based tests over the evaluation protocol and dataset layer:
//! invariants that must hold for arbitrary generated worlds, not just the
//! presets.

use dgnn_data::{Dataset, TrainSampler};
use dgnn_eval::groups::{quartile_assignment, NUM_GROUPS};
use dgnn_eval::{evaluate_at, Recommender};
use dgnn_graph::HeteroGraphBuilder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary small heterogeneous graph.
fn arb_graph() -> impl Strategy<Value = dgnn_graph::HeteroGraph> {
    (
        4usize..12,    // users
        110usize..160, // items (≥ negatives pool)
        1usize..4,     // relations
        collection::vec((0usize..12, 0usize..110, 0u32..50), 20..120),
        collection::vec((0usize..12, 0usize..12), 0..30),
    )
        .prop_map(|(nu, nv, nr, interactions, ties)| {
            let mut b = HeteroGraphBuilder::new(nu, nv, nr);
            for (u, v, t) in interactions {
                b.interaction(u % nu, v % nv, t);
            }
            for (a, c) in ties {
                if a % nu != c % nu {
                    b.social_tie(a % nu, c % nu);
                }
            }
            for v in 0..nv {
                b.item_relation(v, v % nr);
            }
            b.build()
        })
}

/// A deterministic "oracle" scorer for protocol tests.
struct ByItemId;
impl Recommender for ByItemId {
    fn name(&self) -> &str {
        "by-item-id"
    }
    fn score(&self, _u: usize, items: &[usize]) -> Vec<f32> {
        items.iter().map(|&v| v as f32).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn split_never_leaks_test_items_into_training(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = Dataset::leave_one_out("p", &g, 1, 30, &mut rng);
        for case in &ds.test {
            let trained = ds.graph.items_of(case.user as usize);
            prop_assert!(
                !trained.contains(&(case.pos_item as usize)),
                "held-out item leaked into training"
            );
            // Negatives were never interacted in the FULL graph.
            for &n in &case.negatives {
                prop_assert!(!g.items_of(case.user as usize).contains(&(n as usize)));
            }
        }
    }

    #[test]
    fn metrics_stay_in_bounds(g in arb_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = Dataset::leave_one_out("p", &g, 1, 30, &mut rng);
        if ds.test.is_empty() {
            return Ok(());
        }
        for n in [1usize, 5, 10, 31] {
            let m = evaluate_at(&ByItemId, &ds.test, n);
            prop_assert!((0.0..=1.0).contains(&m.hr));
            prop_assert!((0.0..=1.0).contains(&m.ndcg));
            prop_assert!(m.ndcg <= m.hr + 1e-12, "NDCG must be ≤ HR for one positive");
        }
        // At N ≥ pool size every positive is a hit.
        let m_all = evaluate_at(&ByItemId, &ds.test, 31);
        prop_assert!(m_all.hr > 0.99);
    }

    #[test]
    fn sampler_only_emits_valid_triples(g in arb_graph(), seed in any::<u64>()) {
        if g.interactions().is_empty() {
            return Ok(());
        }
        let sampler = TrainSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        for t in sampler.batch(&mut rng, 64) {
            prop_assert!(g.items_of(t.user as usize).contains(&(t.pos as usize)));
            prop_assert!(!g.items_of(t.user as usize).contains(&(t.neg as usize)));
        }
    }

    #[test]
    fn quartiles_partition_and_order(values in collection::vec(0usize..100, 8..200)) {
        let groups = quartile_assignment(&values);
        prop_assert_eq!(groups.len(), values.len());
        // Sizes differ by at most NUM_GROUPS (integer division remainder).
        let mut counts = [0usize; NUM_GROUPS];
        for &q in &groups {
            prop_assert!(q < NUM_GROUPS);
            counts[q] += 1;
        }
        let (min, max) = (counts.iter().min().copied(), counts.iter().max().copied());
        prop_assert!(max.unwrap_or(0) - min.unwrap_or(0) <= NUM_GROUPS);
        // Ordering: any element in a lower group has value ≤ any element in
        // a strictly higher group.
        for i in 0..values.len() {
            for j in 0..values.len() {
                if groups[i] + 1 < groups[j] {
                    prop_assert!(values[i] <= values[j]);
                }
            }
        }
    }
}
