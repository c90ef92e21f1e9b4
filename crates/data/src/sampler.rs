//! BPR training-triple sampling.

use dgnn_graph::HeteroGraph;
use rand::Rng;

/// One BPR training triple `(i, j⁺, j⁻)` from the paper's Eq. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple {
    /// User index.
    pub user: u32,
    /// An observed (positive) item.
    pub pos: u32,
    /// A sampled unobserved (negative) item.
    pub neg: u32,
}

/// Uniform positive sampling with rejection-sampled negatives — the
/// standard BPR sampler every compared model trains with.
#[derive(Debug)]
pub struct TrainSampler {
    positives: Vec<(u32, u32)>,
    /// Per-user sorted positive item lists for O(log n) negativity checks.
    user_items: Vec<Vec<u32>>,
    num_items: usize,
}

impl TrainSampler {
    /// Builds the sampler over a training graph's interactions.
    pub fn new(graph: &HeteroGraph) -> Self {
        let mut user_items: Vec<Vec<u32>> = vec![Vec::new(); graph.num_users()];
        let mut positives = Vec::with_capacity(graph.interactions().len());
        for it in graph.interactions() {
            positives.push((it.user, it.item));
            user_items[it.user as usize].push(it.item);
        }
        for (u, items) in user_items.iter_mut().enumerate() {
            items.sort_unstable();
            items.dedup();
            // Rejection sampling must terminate: every positive user needs
            // at least one never-interacted item to draw as a negative.
            assert!(
                items.len() < graph.num_items(),
                "user {u} interacted with every item; negative sampling impossible"
            );
        }
        positives.sort_unstable();
        positives.dedup();
        Self { positives, user_items, num_items: graph.num_items() }
    }

    /// Number of distinct positive pairs.
    pub fn num_positives(&self) -> usize {
        self.positives.len()
    }

    /// Draws one triple.
    pub fn sample(&self, rng: &mut impl Rng) -> Triple {
        let (user, pos) = self.positives[rng.gen_range(0..self.positives.len())];
        let items = &self.user_items[user as usize];
        // Rejection sampling terminates fast: the data is sparse by
        // construction (interaction density well below 1%).
        let neg = loop {
            let cand = rng.gen_range(0..self.num_items) as u32;
            if items.binary_search(&cand).is_err() {
                break cand;
            }
        };
        Triple { user, pos, neg }
    }

    /// Draws a batch of triples.
    pub fn batch(&self, rng: &mut impl Rng, size: usize) -> Vec<Triple> {
        (0..size).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::HeteroGraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new(3, 20, 1);
        b.interaction(0, 0, 0).interaction(0, 1, 1).interaction(1, 5, 0).interaction(2, 9, 0);
        b.build()
    }

    #[test]
    fn negatives_are_truly_negative() {
        let g = graph();
        let s = TrainSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let t = s.sample(&mut rng);
            assert!(
                !g.items_of(t.user as usize).contains(&(t.neg as usize)),
                "sampled an interacted item as negative"
            );
            assert!(g.items_of(t.user as usize).contains(&(t.pos as usize)));
        }
    }

    #[test]
    fn covers_all_positives_eventually() {
        let g = graph();
        let s = TrainSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let t = s.sample(&mut rng);
            seen.insert((t.user, t.pos));
        }
        assert_eq!(seen.len(), s.num_positives());
    }

    #[test]
    fn batch_has_requested_size() {
        let s = TrainSampler::new(&graph());
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(s.batch(&mut rng, 37).len(), 37);
    }

    #[test]
    fn duplicate_interactions_collapse() {
        let mut b = HeteroGraphBuilder::new(1, 10, 1);
        b.interaction(0, 3, 0).interaction(0, 3, 9);
        let s = TrainSampler::new(&b.build());
        assert_eq!(s.num_positives(), 1);
    }
}
