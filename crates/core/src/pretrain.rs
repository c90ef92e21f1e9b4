//! Self-supervised pretraining on the side relations — the paper's stated
//! future-work direction ("explore the heterogeneous relational data under
//! a pre-trained framework to augment the side knowledge learning",
//! Section VI), implemented as an optional stage before [`crate::Dgnn`]
//! training.
//!
//! The pretext task is link prediction on the *side* matrices only: user
//! embeddings are trained so friends outrank non-friends (`S`), and item /
//! relation-node embeddings so an item outranks a random item under its own
//! category node (`T`). No interaction data is touched, so the stage is
//! usable even before any behavioral data exists — the cold-start setting
//! the paper motivates.

use dgnn_autograd::{Adam, Optimizer, ParamSet, Recorder, Tape};
use dgnn_graph::HeteroGraph;
use dgnn_tensor::{Init, Matrix, PoolScope};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::rc::Rc;

/// Pretrained initial embeddings for [`crate::Dgnn`].
#[derive(Debug, Clone)]
pub struct PretrainedEmbeddings {
    /// `|U| × d` user table.
    pub user: Matrix,
    /// `|V| × d` item table.
    pub item: Matrix,
    /// `max(|R|, 1) × d` relation-node table.
    pub rel: Matrix,
}

/// Configuration of the pretraining stage.
#[derive(Debug, Clone)]
pub struct Pretrainer {
    /// Embedding dimensionality — must match the downstream
    /// [`crate::DgnnConfig::dim`].
    pub dim: usize,
    /// Pretraining epochs.
    pub epochs: usize,
    /// Link-prediction pairs per batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
}

impl Default for Pretrainer {
    fn default() -> Self {
        Self { dim: 16, epochs: 10, batch_size: 1024, learning_rate: 0.01 }
    }
}

impl Pretrainer {
    /// Runs the pretext tasks on the side relations of `g` and returns the
    /// warmed-up embedding tables.
    pub fn run(&self, g: &HeteroGraph, seed: u64) -> PretrainedEmbeddings {
        assert!(self.dim > 0 && self.batch_size > 0, "invalid pretrainer config");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E7A11);
        let mut params = ParamSet::new();
        let user =
            params.add("pre/user", Init::Uniform(0.1).build(g.num_users(), self.dim, &mut rng));
        let item =
            params.add("pre/item", Init::Uniform(0.1).build(g.num_items(), self.dim, &mut rng));
        let rel = params
            .add("pre/rel", Init::Uniform(0.1).build(g.num_relations().max(1), self.dim, &mut rng));
        let mut adam = Adam::new(self.learning_rate, 1e-5);

        // Flatten the side relations once.
        let mut ties: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in g.social_ties() {
            ties.push((a as usize, b as usize));
            ties.push((b as usize, a as usize));
        }
        let links: Vec<(usize, usize)> =
            g.item_relations().iter().map(|&(v, r)| (v as usize, r as usize)).collect();

        let _pool = PoolScope::open();
        for _ in 0..self.epochs {
            let mut tape = Tape::new();
            let eu = tape.param(&params, user);
            let ev = tape.param(&params, item);
            let er = tape.param(&params, rel);

            let mut losses = Vec::new();
            // Social pretext: friend vs. random user.
            if !ties.is_empty() {
                let n = self.batch_size.min(ties.len() * 4);
                let mut a = Vec::with_capacity(n);
                let mut p = Vec::with_capacity(n);
                let mut q = Vec::with_capacity(n);
                for _ in 0..n {
                    let (x, y) = ties[rng.gen_range(0..ties.len())];
                    a.push(x);
                    p.push(y);
                    q.push(rng.gen_range(0..g.num_users()));
                }
                let ae = tape.gather(eu, Rc::new(a));
                let pe = tape.gather(eu, Rc::new(p));
                let qe = tape.gather(eu, Rc::new(q));
                let ps = tape.row_dots(ae, pe);
                let ns = tape.row_dots(ae, qe);
                losses.push(tape.bpr_loss(ps, ns));
            }
            // Knowledge pretext: the category's own item vs. a random item.
            if !links.is_empty() {
                let n = self.batch_size.min(links.len() * 4);
                let mut r_idx = Vec::with_capacity(n);
                let mut p = Vec::with_capacity(n);
                let mut q = Vec::with_capacity(n);
                for _ in 0..n {
                    let (v, r) = links[rng.gen_range(0..links.len())];
                    r_idx.push(r);
                    p.push(v);
                    q.push(rng.gen_range(0..g.num_items()));
                }
                let re = tape.gather(er, Rc::new(r_idx));
                let pe = tape.gather(ev, Rc::new(p));
                let qe = tape.gather(ev, Rc::new(q));
                let ps = tape.row_dots(re, pe);
                let ns = tape.row_dots(re, qe);
                losses.push(tape.bpr_loss(ps, ns));
            }
            let Some(&first) = losses.first() else {
                break; // no side information at all: nothing to pretrain
            };
            let total = losses[1..].iter().fold(first, |acc, &l| tape.add(acc, l));
            params.zero_grads();
            tape.backward_into(total, &mut params);
            adam.step(&mut params);
        }

        PretrainedEmbeddings {
            user: params.value(user).clone(),
            item: params.value(item).clone(),
            rel: params.value(rel).clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_data::tiny;

    #[test]
    fn pretraining_embeds_social_homophily() {
        let data = tiny(42);
        let g = &data.graph;
        let pre = Pretrainer { dim: 8, epochs: 40, ..Pretrainer::default() };
        let emb = pre.run(g, 7);
        assert_eq!(emb.user.shape(), (g.num_users(), 8));
        assert_eq!(emb.item.shape(), (g.num_items(), 8));

        // Friends should now be closer (higher dot) than random pairs.
        let dot = |a: usize, b: usize| -> f32 {
            emb.user.row(a).iter().zip(emb.user.row(b)).map(|(&x, &y)| x * y).sum()
        };
        let mut friend_score = 0.0;
        for &(a, b) in g.social_ties() {
            friend_score += dot(a as usize, b as usize);
        }
        friend_score /= g.social_ties().len() as f32;
        let mut random_score = 0.0;
        let n = g.num_users();
        for a in 0..n {
            random_score += dot(a, (a + n / 2) % n);
        }
        random_score /= n as f32;
        assert!(
            friend_score > random_score,
            "friends ({friend_score:.4}) should score above random ({random_score:.4})"
        );
    }

    #[test]
    fn pretraining_is_deterministic() {
        let data = tiny(1);
        let pre = Pretrainer { dim: 4, epochs: 3, ..Pretrainer::default() };
        let a = pre.run(&data.graph, 9);
        let b = pre.run(&data.graph, 9);
        assert_eq!(a.user.as_slice(), b.user.as_slice());
        assert_eq!(a.item.as_slice(), b.item.as_slice());
    }

    #[test]
    fn graph_without_side_relations_yields_initial_tables() {
        use dgnn_graph::HeteroGraphBuilder;
        let mut b = HeteroGraphBuilder::new(3, 5, 0);
        b.interaction(0, 0, 0);
        let g = b.build();
        let pre = Pretrainer { dim: 4, epochs: 5, ..Pretrainer::default() };
        let emb = pre.run(&g, 1);
        assert_eq!(emb.user.shape(), (3, 4));
        assert!(emb.user.all_finite());
    }
}
