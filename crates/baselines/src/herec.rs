//! HERec (Shi et al., TKDE 2018): heterogeneous network embedding fused
//! into matrix factorization.
//!
//! The distinguishing mechanism is its two stages:
//!
//! 1. **Meta-path random walks + skip-gram** pre-train per-path node
//!    embeddings (DeepWalk-style, with negative sampling), one embedding
//!    table per meta-path (`U–U`, `U–V–U` for users; `V–U–V`, `V–R–V` for
//!    items).
//! 2. A **fusion MF** combines the trainable MF embeddings with linear
//!    transforms of the (frozen) path embeddings, trained with BPR.

use dgnn_autograd::{ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_graph::{HeteroGraph, MetaPathStep, UnifiedView};
use dgnn_tensor::{Init, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Walks started per node and walk length.
const WALKS_PER_NODE: usize = 4;
const WALK_LEN: usize = 12;
/// Skip-gram window and negatives.
const WINDOW: usize = 2;
const NEGATIVES: usize = 3;
const SKIPGRAM_LR: f32 = 0.05;
const SKIPGRAM_EPOCHS: usize = 2;

/// DeepWalk-style skip-gram over meta-path walks, restricted to the nodes
/// of one kind (`keep`: global-id filter + local reindex). Hand-rolled SGD:
/// this stage is *pre-training*, deliberately outside the tape, exactly as
/// HERec trains node2vec-style embeddings before fusion.
fn skipgram_embeddings(
    g: &HeteroGraph,
    schema: &[MetaPathStep],
    starts: impl Iterator<Item = usize>,
    keep: impl Fn(usize) -> Option<usize>,
    num_nodes: usize,
    dim: usize,
    rng: &mut StdRng,
) -> Matrix {
    // Corpus of local-index sequences.
    let mut corpus: Vec<Vec<usize>> = Vec::new();
    let start_list: Vec<usize> = starts.collect();
    for _ in 0..WALKS_PER_NODE {
        for &s in &start_list {
            let walk = g.meta_path_walk(rng, s, schema, WALK_LEN);
            let filtered: Vec<usize> = walk.iter().filter_map(|&n| keep(n)).collect();
            if filtered.len() >= 2 {
                corpus.push(filtered);
            }
        }
    }

    let mut emb = Init::Uniform(0.5 / dim as f32).build(num_nodes, dim, rng);
    let mut ctx = Matrix::zeros(num_nodes, dim);
    for _ in 0..SKIPGRAM_EPOCHS {
        for seq in &corpus {
            for (i, &center) in seq.iter().enumerate() {
                let lo = i.saturating_sub(WINDOW);
                let hi = (i + WINDOW + 1).min(seq.len());
                for j in lo..hi {
                    if j == i {
                        continue;
                    }
                    let pos = seq[j];
                    sgd_pair(&mut emb, &mut ctx, center, pos, 1.0, dim);
                    for _ in 0..NEGATIVES {
                        let neg = rng.gen_range(0..num_nodes);
                        if neg != pos {
                            sgd_pair(&mut emb, &mut ctx, center, neg, 0.0, dim);
                        }
                    }
                }
            }
        }
    }
    emb
}

/// One skip-gram SGD update with label ∈ {0, 1}.
fn sgd_pair(emb: &mut Matrix, ctx: &mut Matrix, center: usize, other: usize, label: f32, dim: usize) {
    let mut dot = 0.0;
    for k in 0..dim {
        dot += emb[(center, k)] * ctx[(other, k)];
    }
    let pred = 1.0 / (1.0 + (-dot).exp());
    let g = SKIPGRAM_LR * (label - pred);
    for k in 0..dim {
        let e = emb[(center, k)];
        let c = ctx[(other, k)];
        emb[(center, k)] += g * c;
        ctx[(other, k)] += g * e;
    }
}

struct State {
    e_user: ParamId,
    e_item: ParamId,
    /// Frozen path embeddings (constants on the tape).
    user_paths: Vec<Matrix>,
    item_paths: Vec<Matrix>,
    /// Trainable fusion transforms, one per path.
    user_fuse: Vec<ParamId>,
    item_fuse: Vec<ParamId>,
}

fn forward(st: &State, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let mut users = tape.param(params, st.e_user);
    for (emb, &m) in st.user_paths.iter().zip(&st.user_fuse) {
        let path = tape.constant(emb.clone());
        let w = tape.param(params, m);
        let fused = tape.matmul(path, w);
        users = tape.add(users, fused);
    }
    let mut items = tape.param(params, st.e_item);
    for (emb, &m) in st.item_paths.iter().zip(&st.item_fuse) {
        let path = tape.constant(emb.clone());
        let w = tape.param(params, m);
        let fused = tape.matmul(path, w);
        items = tape.add(items, fused);
    }
    (users, items)
}

/// The HERec recommender.
pub struct Herec {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch (fusion stage).
    pub loss_history: Vec<f32>,
}

impl Herec {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }
}

impl Recommender for Herec {
    fn name(&self) -> &str {
        "HERec"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("HERec", user, items)
    }
}

impl Trainable for Herec {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let view = UnifiedView::new(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = self.cfg.dim;

        // Stage 1: meta-path skip-gram pre-training.
        let nu = g.num_users();
        let nv = g.num_items();
        let keep_user = |n: usize| if n < nu { Some(n) } else { None };
        let keep_item = move |n: usize| {
            if (nu..nu + nv).contains(&n) {
                Some(n - nu)
            } else {
                None
            }
        };
        let uu = skipgram_embeddings(
            g,
            &[MetaPathStep::UserToUser],
            (0..nu).map(|u| view.user(u)),
            keep_user,
            nu,
            d,
            &mut rng,
        );
        let uvu = skipgram_embeddings(
            g,
            &[MetaPathStep::UserToItem, MetaPathStep::ItemToUser],
            (0..nu).map(|u| view.user(u)),
            keep_user,
            nu,
            d,
            &mut rng,
        );
        let vuv = skipgram_embeddings(
            g,
            &[MetaPathStep::ItemToUser, MetaPathStep::UserToItem],
            (0..nv).map(|v| view.item(v)),
            keep_item,
            nv,
            d,
            &mut rng,
        );
        let vrv = skipgram_embeddings(
            g,
            &[MetaPathStep::ItemToRel, MetaPathStep::RelToItem],
            (0..nv).map(|v| view.item(v)),
            keep_item,
            nv,
            d,
            &mut rng,
        );

        // Stage 2: fusion MF with BPR.
        let mut params = ParamSet::new();
        let e_user = params.add("e_user", Init::Uniform(0.1).build(nu, d, &mut rng));
        let e_item = params.add("e_item", Init::Uniform(0.1).build(nv, d, &mut rng));
        let user_fuse = (0..2)
            .map(|p| params.add(format!("uf[{p}]"), Init::XavierUniform.build(d, d, &mut rng)))
            .collect();
        let item_fuse = (0..2)
            .map(|p| params.add(format!("if[{p}]"), Init::XavierUniform.build(d, d, &mut rng)))
            .collect();
        let st = State {
            e_user,
            e_item,
            user_paths: vec![uu, uvu],
            item_paths: vec![vuv, vrv],
            user_fuse,
            item_fuse,
        };

        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, _| {
                    let (users, items) = forward(&st, tape, params);
                    bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| forward(&st, tape, &params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn herec_beats_random() {
        assert_beats_random(&mut Herec::new(quick()));
    }

    #[test]
    fn skipgram_brings_cointeracting_users_closer() {
        let data = dgnn_data::tiny(8);
        let g = &data.graph;
        let view = UnifiedView::new(g);
        let nu = g.num_users();
        let mut rng = StdRng::seed_from_u64(3);
        let emb = skipgram_embeddings(
            g,
            &[MetaPathStep::UserToItem, MetaPathStep::ItemToUser],
            (0..nu).map(|u| view.user(u)),
            |n| if n < nu { Some(n) } else { None },
            nu,
            8,
            &mut rng,
        );
        assert_eq!(emb.shape(), (nu, 8));
        assert!(emb.all_finite());
        assert!(emb.sq_norm() > 0.0);
    }
}
