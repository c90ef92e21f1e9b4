//! Train/test split and evaluation instances.

use dgnn_graph::{HeteroGraph, HeteroGraphBuilder, Interaction};
use rand::seq::SliceRandom;
use rand::Rng;

/// One evaluation case: the paper's protocol holds out a positive item per
/// user and ranks it against 100 sampled non-interacted items
/// (Section V-A3).
#[derive(Debug, Clone)]
pub struct TestInstance {
    /// The evaluated user.
    pub user: u32,
    /// The held-out positive item.
    pub pos_item: u32,
    /// 100 (or fewer on tiny catalogs) never-interacted negatives.
    pub negatives: Vec<u32>,
}

impl TestInstance {
    /// The candidate list a model must rank: positive first, then
    /// negatives. (Order carries no information; models score, not rank,
    /// this list.)
    pub fn candidates(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.pos_item).chain(self.negatives.iter().copied())
    }
}

/// A complete experiment dataset: the training graph plus held-out
/// evaluation instances.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name (`ciao-s`, `epinions-s`, `yelp-s`, …).
    pub name: String,
    /// Training graph: all social ties and item relations, plus the
    /// training portion of the interactions.
    pub graph: HeteroGraph,
    /// Held-out test cases (one per user with enough history).
    pub test: Vec<TestInstance>,
}

impl Dataset {
    /// Builds a dataset from a *full* interaction graph using leave-one-out:
    /// for every user with at least `min_history + 1` interactions, the
    /// latest interaction becomes the test positive, the rest train. The
    /// `num_negatives` negatives are drawn uniformly from items the user
    /// never interacted with.
    pub fn leave_one_out(
        name: impl Into<String>,
        full: &HeteroGraph,
        min_history: usize,
        num_negatives: usize,
        rng: &mut impl Rng,
    ) -> Dataset {
        let num_users = full.num_users();
        let num_items = full.num_items();

        // Latest interaction per user.
        let mut latest: Vec<Option<Interaction>> = vec![None; num_users];
        let mut history: Vec<usize> = vec![0; num_users];
        for it in full.interactions() {
            history[it.user as usize] += 1;
            let slot = &mut latest[it.user as usize];
            if slot.is_none_or(|cur| it.time > cur.time) {
                *slot = Some(*it);
            }
        }

        let mut builder = HeteroGraphBuilder::new(num_users, num_items, full.num_relations());
        for &(a, b) in full.social_ties() {
            builder.social_tie(a as usize, b as usize);
        }
        for &(v, r) in full.item_relations() {
            builder.item_relation(v as usize, r as usize);
        }

        let mut test = Vec::new();
        for it in full.interactions() {
            let u = it.user as usize;
            // Match on the item, not the exact record: a duplicate
            // (user, item) pair at an earlier timestamp would otherwise
            // leak the held-out positive into the training graph.
            let held_out =
                history[u] > min_history && latest[u].is_some_and(|pos| it.item == pos.item);
            if !held_out {
                builder.interaction(u, it.item as usize, it.time);
            }
        }
        for u in 0..num_users {
            if history[u] <= min_history {
                continue;
            }
            let Some(pos) = latest[u] else { continue };
            let interacted: Vec<bool> = {
                let mut seen = vec![false; num_items];
                for it in full.interactions() {
                    if it.user as usize == u {
                        seen[it.item as usize] = true;
                    }
                }
                seen
            };
            let pool: Vec<u32> =
                (0..num_items as u32).filter(|&v| !interacted[v as usize]).collect();
            let take = num_negatives.min(pool.len());
            let negatives: Vec<u32> = pool.choose_multiple(rng, take).copied().collect();
            test.push(TestInstance { user: u as u32, pos_item: pos.item, negatives });
        }

        Dataset { name: name.into(), graph: builder.build(), test }
    }

    /// Number of training interactions.
    pub fn num_train(&self) -> usize {
        self.graph.interactions().len()
    }

    /// Number of evaluated users.
    pub fn num_test(&self) -> usize {
        self.test.len()
    }

    /// Per-user training interaction counts (for the sparsity-group
    /// analysis of the paper's Figure 6).
    pub fn train_counts_per_user(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.graph.num_users()];
        for it in self.graph.interactions() {
            counts[it.user as usize] += 1;
        }
        counts
    }

    /// Per-user social degree (for Figure 6's social-sparsity split).
    pub fn social_degree_per_user(&self) -> Vec<usize> {
        (0..self.graph.num_users()).map(|u| self.graph.friends_of(u).len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn full_graph() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new(3, 30, 2);
        // User 0: 3 interactions; latest is item 2 at t=9.
        b.interaction(0, 0, 1).interaction(0, 1, 5).interaction(0, 2, 9);
        // User 1: only 1 interaction — below min history, never tested.
        b.interaction(1, 3, 2);
        // User 2: 2 interactions; latest item 5 at t=7.
        b.interaction(2, 4, 3).interaction(2, 5, 7);
        b.social_tie(0, 1).item_relation(0, 0).item_relation(5, 1);
        b.build()
    }

    #[test]
    fn holds_out_latest_interaction() {
        let full = full_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let ds = Dataset::leave_one_out("t", &full, 1, 10, &mut rng);
        let case0 = ds.test.iter().find(|c| c.user == 0).expect("user 0 tested");
        assert_eq!(case0.pos_item, 2);
        let case2 = ds.test.iter().find(|c| c.user == 2).expect("user 2 tested");
        assert_eq!(case2.pos_item, 5);
        // User 1 has too little history.
        assert!(ds.test.iter().all(|c| c.user != 1));
        // Held-out interactions are absent from the training graph.
        assert!(!ds.graph.items_of(0).contains(&2));
        assert!(ds.graph.items_of(0).contains(&0));
        assert_eq!(ds.num_train(), 4);
    }

    #[test]
    fn duplicate_interactions_with_held_out_item_do_not_leak() {
        let mut b = HeteroGraphBuilder::new(1, 20, 1);
        // Item 4 is interacted twice; the t=9 copy becomes the test
        // positive and the t=1 copy must not survive into training.
        b.interaction(0, 4, 1).interaction(0, 3, 5).interaction(0, 4, 9);
        let full = b.build();
        let mut rng = StdRng::seed_from_u64(11);
        let ds = Dataset::leave_one_out("t", &full, 1, 10, &mut rng);
        assert_eq!(ds.test.len(), 1);
        assert_eq!(ds.test[0].pos_item, 4);
        assert!(!ds.graph.items_of(0).contains(&4));
        assert_eq!(ds.graph.items_of(0), &[3]);
    }

    #[test]
    fn negatives_never_interacted_and_exclude_positive() {
        let full = full_graph();
        let mut rng = StdRng::seed_from_u64(2);
        let ds = Dataset::leave_one_out("t", &full, 1, 10, &mut rng);
        for case in &ds.test {
            assert_eq!(case.negatives.len(), 10);
            for &n in &case.negatives {
                assert_ne!(n, case.pos_item);
                assert!(
                    !full.items_of(case.user as usize).contains(&(n as usize)),
                    "negative {n} was interacted by user {}",
                    case.user
                );
            }
        }
    }

    #[test]
    fn social_and_knowledge_edges_survive_split() {
        let full = full_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let ds = Dataset::leave_one_out("t", &full, 1, 5, &mut rng);
        assert_eq!(ds.graph.social_ties().len(), 1);
        assert_eq!(ds.graph.item_relations().len(), 2);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let full = full_graph();
        let a = Dataset::leave_one_out("t", &full, 1, 10, &mut StdRng::seed_from_u64(7));
        let b = Dataset::leave_one_out("t", &full, 1, 10, &mut StdRng::seed_from_u64(7));
        for (x, y) in a.test.iter().zip(&b.test) {
            assert_eq!(x.negatives, y.negatives);
        }
    }

    #[test]
    fn candidates_lead_with_positive() {
        let inst = TestInstance { user: 0, pos_item: 9, negatives: vec![1, 2, 3] };
        let c: Vec<u32> = inst.candidates().collect();
        assert_eq!(c, vec![9, 1, 2, 3]);
    }

    #[test]
    fn per_user_count_helpers() {
        let full = full_graph();
        let mut rng = StdRng::seed_from_u64(4);
        let ds = Dataset::leave_one_out("t", &full, 1, 5, &mut rng);
        let counts = ds.train_counts_per_user();
        assert_eq!(counts, vec![2, 1, 1]);
        let soc = ds.social_degree_per_user();
        assert_eq!(soc, vec![1, 1, 0]);
    }
}
