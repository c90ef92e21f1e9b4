//! Meta-path random walks (the HERec baseline's corpus generator).

use rand::Rng;

use crate::hetero::HeteroGraph;

/// One hop of a meta-path schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaPathStep {
    /// user → item via an interaction.
    UserToItem,
    /// item → user via an interaction.
    ItemToUser,
    /// user → user via a social tie.
    UserToUser,
    /// item → relation node.
    ItemToRel,
    /// relation node → item.
    RelToItem,
}

impl HeteroGraph {
    /// Walks `schema` repeatedly (cycling) from `start` for up to `len`
    /// hops, recording *user* positions as `(NodeKind::User index)` style
    /// global ids of the [`crate::UnifiedView`]. Returns the visited
    /// global-id sequence including the start.
    ///
    /// The walk stops early if a hop has no outgoing edge — exactly what a
    /// DeepWalk-style corpus generator does on sparse graphs.
    pub fn meta_path_walk(
        &self,
        rng: &mut impl Rng,
        start_global: usize,
        schema: &[MetaPathStep],
        len: usize,
    ) -> Vec<usize> {
        assert!(!schema.is_empty(), "meta_path_walk: empty schema");
        let view = crate::UnifiedView::new(self);
        let mut seq = Vec::with_capacity(len + 1);
        seq.push(start_global);
        let mut cur = start_global;
        for hop in 0..len {
            let step = schema[hop % schema.len()];
            let (kind, local) = view.classify(cur);
            let next = match (step, kind) {
                (MetaPathStep::UserToItem, crate::NodeType::User) => {
                    pick(rng, self.items_of(local)).map(|v| view.item(v))
                }
                (MetaPathStep::ItemToUser, crate::NodeType::Item) => {
                    pick(rng, self.users_of(local)).map(|u| view.user(u))
                }
                (MetaPathStep::UserToUser, crate::NodeType::User) => {
                    pick(rng, self.friends_of(local)).map(|u| view.user(u))
                }
                (MetaPathStep::ItemToRel, crate::NodeType::Item) => {
                    pick(rng, self.ir().row_cols(local)).map(|r| view.relation(r))
                }
                (MetaPathStep::RelToItem, crate::NodeType::Relation) => {
                    pick(rng, self.ri().row_cols(local)).map(|v| view.item(v))
                }
                #[expect(
                    clippy::panic,
                    reason = "a schema/node-kind mismatch is a malformed meta-path definition, not a runtime state"
                )]
                _ => panic!(
                    "meta_path_walk: schema step {step:?} incompatible with node kind {kind:?}"
                ),
            };
            match next {
                Some(n) => {
                    seq.push(n);
                    cur = n;
                }
                None => break,
            }
        }
        seq
    }
}

fn pick(rng: &mut impl Rng, options: &[usize]) -> Option<usize> {
    if options.is_empty() {
        None
    } else {
        Some(options[rng.gen_range(0..options.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeteroGraphBuilder, UnifiedView};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> HeteroGraph {
        let mut b = HeteroGraphBuilder::new(3, 3, 1);
        b.interaction(0, 0, 0)
            .interaction(1, 0, 0)
            .interaction(1, 1, 0)
            .interaction(2, 2, 0)
            .social_tie(0, 1)
            .item_relation(0, 0)
            .item_relation(1, 0);
        b.build()
    }

    #[test]
    fn uvu_walk_alternates_kinds() {
        let g = toy();
        let view = UnifiedView::new(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let schema = [MetaPathStep::UserToItem, MetaPathStep::ItemToUser];
        let seq = g.meta_path_walk(&mut rng, view.user(0), &schema, 6);
        assert!(seq.len() >= 2, "walk should make progress: {seq:?}");
        for (i, &node) in seq.iter().enumerate() {
            let (kind, _) = view.classify(node);
            if i % 2 == 0 {
                assert_eq!(kind, crate::NodeType::User, "even positions are users");
            } else {
                assert_eq!(kind, crate::NodeType::Item, "odd positions are items");
            }
        }
    }

    #[test]
    fn walk_stops_at_dead_end() {
        let g = toy();
        let view = UnifiedView::new(&g);
        let mut rng = StdRng::seed_from_u64(0);
        // User 2 has no friends: the UU walk ends immediately.
        let seq = g.meta_path_walk(&mut rng, view.user(2), &[MetaPathStep::UserToUser], 5);
        assert_eq!(seq, vec![view.user(2)]);
    }

    #[test]
    fn walk_is_seed_deterministic() {
        let g = toy();
        let view = UnifiedView::new(&g);
        let schema = [MetaPathStep::UserToItem, MetaPathStep::ItemToUser];
        let a = g.meta_path_walk(&mut StdRng::seed_from_u64(9), view.user(1), &schema, 8);
        let b = g.meta_path_walk(&mut StdRng::seed_from_u64(9), view.user(1), &schema, 8);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn incompatible_schema_panics() {
        let g = toy();
        let view = UnifiedView::new(&g);
        let mut rng = StdRng::seed_from_u64(0);
        // Starting at a user but asking for an item step.
        g.meta_path_walk(&mut rng, view.user(0), &[MetaPathStep::ItemToUser], 3);
    }
}
