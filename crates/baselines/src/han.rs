//! HAN (Wang et al., WWW 2019): hierarchical attention over meta-paths.
//!
//! The distinguishing mechanism: homogeneous graphs are derived from
//! hand-designed meta-paths (the domain-knowledge requirement the paper
//! criticizes), each gets GAT-style *node-level* attention, and a
//! *semantic-level* attention combines the per-path embeddings.
//!
//! Meta-paths used (the natural ones for this schema):
//! users — `U–U` (social) and `U–V–U` (co-interaction);
//! items — `V–U–V` (co-audience) and `V–R–V` (shared category).

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_graph::compose;
use dgnn_tensor::{Csr, Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Per-row cap when composing meta-path graphs (keeps `U–V–U` sparse).
const META_PATH_CAP: usize = 30;

struct MetaPath {
    seg: Rc<Vec<usize>>,
    src: Rc<Vec<usize>>,
    dst: Rc<Vec<usize>>,
    /// Node-level GAT parameters.
    w: ParamId,
    a_src: ParamId,
    a_dst: ParamId,
    /// Semantic-attention projection for this path.
    q: ParamId,
}

struct State {
    e_user: ParamId,
    e_item: ParamId,
    user_paths: Vec<MetaPath>,
    item_paths: Vec<MetaPath>,
}

fn edges_of(csr: &Csr) -> (Rc<Vec<usize>>, Rc<Vec<usize>>, Rc<Vec<usize>>) {
    let mut dst = Vec::with_capacity(csr.nnz());
    for r in 0..csr.rows() {
        dst.extend(std::iter::repeat(r).take(csr.degree(r)));
    }
    (Rc::new(csr.row_ptr().to_vec()), Rc::new(csr.col_idx().to_vec()), Rc::new(dst))
}

/// Node-level GAT aggregation over one meta-path graph, then the semantic
/// score for this path (`mean(tanh(Z)·q)`, a `1 × 1` variable).
fn node_level(
    tape: &mut Tape,
    params: &ParamSet,
    path: &MetaPath,
    h: Var,
    n: usize,
    d: usize,
) -> (Var, Var) {
    let w = tape.param(params, path.w);
    let hw = tape.matmul(h, w);
    let z = if path.src.is_empty() {
        tape.constant(Matrix::zeros(n, d))
    } else {
        let hs = tape.gather(hw, Rc::clone(&path.src));
        let ht = tape.gather(hw, Rc::clone(&path.dst));
        let a_s = tape.param(params, path.a_src);
        let a_t = tape.param(params, path.a_dst);
        let ls = tape.matmul(hs, a_s);
        let lt = tape.matmul(ht, a_t);
        let logits = tape.add(ls, lt);
        let logits = tape.leaky_relu(logits, 0.2);
        let alpha = tape.segment_softmax(logits, Rc::clone(&path.seg));
        tape.segment_weighted_sum(alpha, hs, Rc::clone(&path.seg))
    };
    let z = tape.add(z, hw); // self-connection
    let q = tape.param(params, path.q);
    let t = tape.tanh(z);
    let scores = tape.matmul(t, q);
    let sem = tape.mean_all(scores);
    (z, sem)
}

/// Semantic attention: softmax over per-path scalar scores, weighted sum of
/// the per-path embeddings.
fn semantic_combine(tape: &mut Tape, zs: &[Var], sems: &[Var], n: usize) -> Var {
    let cat = tape.concat_cols(sems); // 1 × P
    let beta = tape.softmax_rows(cat);
    let ones = tape.constant(Matrix::full(n, 1, 1.0));
    let mut out: Option<Var> = None;
    for (p, &z) in zs.iter().enumerate() {
        let b = tape.slice_cols(beta, p, p + 1); // 1 × 1
        let b_col = tape.matmul(ones, b); // n × 1
        let weighted = tape.mul_col(z, b_col);
        out = Some(match out {
            Some(acc) => tape.add(acc, weighted),
            None => weighted,
        });
    }
    out.expect("at least one meta-path")
}

fn forward(st: &State, d: usize, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let eu = tape.param(params, st.e_user);
    let ev = tape.param(params, st.e_item);
    let nu = tape.value(eu).rows();
    let nv = tape.value(ev).rows();

    let mut uz = Vec::new();
    let mut usem = Vec::new();
    for path in &st.user_paths {
        let (z, s) = node_level(tape, params, path, eu, nu, d);
        uz.push(z);
        usem.push(s);
    }
    let users = semantic_combine(tape, &uz, &usem, nu);

    let mut vz = Vec::new();
    let mut vsem = Vec::new();
    for path in &st.item_paths {
        let (z, s) = node_level(tape, params, path, ev, nv, d);
        vz.push(z);
        vsem.push(s);
    }
    let items = semantic_combine(tape, &vz, &vsem, nv);
    (users, items)
}

/// The HAN recommender (applied to the collaborative heterogeneous graph,
/// as the paper describes in §V-A2).
pub struct Han {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Han {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }

    /// Final `(user, item)` embeddings (after `fit`; Figure 9).
    pub fn embeddings(&self) -> (&Matrix, &Matrix) {
        (&self.scorer.user, &self.scorer.item)
    }
}

impl Recommender for Han {
    fn name(&self) -> &str {
        "HAN"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("HAN", user, items)
    }
}

impl Trainable for Han {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let d = self.cfg.dim;
        let e_user = params.add("e_user", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
        let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng));

        let mut make_path = |name: &str, csr: &Csr| -> MetaPath {
            let (seg, src, dst) = edges_of(csr);
            MetaPath {
                seg,
                src,
                dst,
                w: params.add(format!("{name}/w"), Init::XavierUniform.build(d, d, &mut rng)),
                a_src: params.add(format!("{name}/a_src"), Init::XavierUniform.build(d, 1, &mut rng)),
                a_dst: params.add(format!("{name}/a_dst"), Init::XavierUniform.build(d, 1, &mut rng)),
                q: params.add(format!("{name}/q"), Init::XavierUniform.build(d, 1, &mut rng)),
            }
        };
        let uvu = compose(g.ui(), g.iu(), META_PATH_CAP);
        let vuv = compose(g.iu(), g.ui(), META_PATH_CAP);
        let vrv = compose(g.ir(), g.ri(), META_PATH_CAP);
        let user_paths = vec![make_path("UU", g.ss()), make_path("UVU", &uvu)];
        let item_paths = vec![make_path("VUV", &vuv), make_path("VRV", &vrv)];
        let st = State { e_user, e_item, user_paths, item_paths };

        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, _| {
                    let (users, items) = forward(&st, d, tape, params);
                    bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| forward(&st, d, tape, &params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn han_beats_random() {
        assert_beats_random(&mut Han::new(quick()));
    }
}
