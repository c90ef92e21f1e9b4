//! DGRec (Song et al., WSDM 2019): session-based social recommendation
//! with dynamic user interests.
//!
//! The distinguishing mechanism: a recurrent unit (GRU) summarizes each
//! user's most recent interactions into a *dynamic* interest vector, which
//! is then fused with friends' interests through a graph-attention layer
//! over the social network.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_tensor::{Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Session length: how many recent items feed the GRU.
const SESSION_LEN: usize = 5;

struct GruParams {
    wz: ParamId,
    uz: ParamId,
    wr: ParamId,
    ur: ParamId,
    wh: ParamId,
    uh: ParamId,
}

struct State {
    e_user: ParamId,
    e_item: ParamId,
    gru: GruParams,
    /// Fusion of long-term and dynamic interest, `2d × d`.
    fuse: ParamId,
    /// Social attention.
    attn_w: ParamId,
    attn_v: ParamId,
    /// `session[t][u]` = item consumed by user `u` at session step `t`
    /// (padded by repeating the earliest item).
    session: Vec<Rc<Vec<usize>>>,
    ss_seg: Rc<Vec<usize>>,
    ss_src: Rc<Vec<usize>>,
    ss_dst: Rc<Vec<usize>>,
}

/// One GRU cell step over all users at once.
fn gru_step(tape: &mut Tape, params: &ParamSet, g: &GruParams, x: Var, h: Var) -> Var {
    let wz = tape.param(params, g.wz);
    let uz = tape.param(params, g.uz);
    let xz = tape.matmul(x, wz);
    let hz = tape.matmul(h, uz);
    let zs = tape.add(xz, hz);
    let z = tape.sigmoid(zs);

    let wr = tape.param(params, g.wr);
    let ur = tape.param(params, g.ur);
    let xr = tape.matmul(x, wr);
    let hr = tape.matmul(h, ur);
    let rs = tape.add(xr, hr);
    let r = tape.sigmoid(rs);

    let wh = tape.param(params, g.wh);
    let uh = tape.param(params, g.uh);
    let xh = tape.matmul(x, wh);
    let rh = tape.mul(r, h);
    let rhu = tape.matmul(rh, uh);
    let cand_in = tape.add(xh, rhu);
    let cand = tape.tanh(cand_in);

    // h' = (1 − z) ⊙ h + z ⊙ h̃
    let zh = tape.mul(z, cand);
    let one_minus_z = {
        let neg = tape.neg(z);
        tape.add_scalar(neg, 1.0)
    };
    let keep = tape.mul(one_minus_z, h);
    tape.add(keep, zh)
}

fn forward(st: &State, dim: usize, tape: &mut Tape, params: &ParamSet) -> (Var, Var) {
    let eu = tape.param(params, st.e_user);
    let ev = tape.param(params, st.e_item);
    let num_users = tape.value(eu).rows();

    // Dynamic interest: GRU over the session items.
    let mut h = tape.constant(Matrix::zeros(num_users, dim));
    for idx in &st.session {
        let x = tape.gather(ev, Rc::clone(idx));
        h = gru_step(tape, params, &st.gru, x, h);
    }

    // Fuse long-term and dynamic interest.
    let cat = tape.concat_cols(&[eu, h]);
    let fw = tape.param(params, st.fuse);
    let fused = tape.matmul(cat, fw);
    let dynamic = tape.tanh(fused);

    // Social graph attention over friends' dynamic interests.
    let users = if st.ss_src.is_empty() {
        dynamic
    } else {
        let s = tape.gather(dynamic, Rc::clone(&st.ss_src));
        let t = tape.gather(dynamic, Rc::clone(&st.ss_dst));
        let joint = tape.mul(s, t);
        let w = tape.param(params, st.attn_w);
        let hid = tape.matmul(joint, w);
        let hid = tape.leaky_relu(hid, 0.2);
        let v = tape.param(params, st.attn_v);
        let logits = tape.matmul(hid, v);
        let alpha = tape.segment_softmax(logits, Rc::clone(&st.ss_seg));
        let social = tape.segment_weighted_sum(alpha, s, Rc::clone(&st.ss_seg));
        tape.add(dynamic, social)
    };
    (users, ev)
}

/// The DGRec recommender.
pub struct DgRec {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl DgRec {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }
}

impl Recommender for DgRec {
    fn name(&self) -> &str {
        "DGRec"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("DGRec", user, items)
    }
}

impl Trainable for DgRec {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let d = self.cfg.dim;
        let e_user = params.add("e_user", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
        let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng));
        let w = |name: &str, r: usize, c: usize, params: &mut ParamSet, rng: &mut StdRng| {
            params.add(name, Init::XavierUniform.build(r, c, rng))
        };
        let gru = GruParams {
            wz: w("gru/wz", d, d, &mut params, &mut rng),
            uz: w("gru/uz", d, d, &mut params, &mut rng),
            wr: w("gru/wr", d, d, &mut params, &mut rng),
            ur: w("gru/ur", d, d, &mut params, &mut rng),
            wh: w("gru/wh", d, d, &mut params, &mut rng),
            uh: w("gru/uh", d, d, &mut params, &mut rng),
        };
        let fuse = w("fuse", 2 * d, d, &mut params, &mut rng);
        let attn_w = w("attn_w", d, d, &mut params, &mut rng);
        let attn_v = w("attn_v", d, 1, &mut params, &mut rng);

        // Sessions: the last SESSION_LEN training interactions per user,
        // oldest first, left-padded by repeating the oldest item. Users
        // without history point at item 0 with a zero-ish effect after the
        // GRU (their dynamic interest is learned from the fuse layer).
        let mut per_user: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.num_users()];
        for it in g.interactions() {
            per_user[it.user as usize].push((it.time, it.item));
        }
        let mut session: Vec<Vec<usize>> =
            vec![vec![0usize; g.num_users()]; SESSION_LEN];
        for (u, events) in per_user.iter_mut().enumerate() {
            events.sort_unstable();
            let recent: Vec<usize> = events
                .iter()
                .rev()
                .take(SESSION_LEN)
                .rev()
                .map(|&(_, v)| v as usize)
                .collect();
            for t in 0..SESSION_LEN {
                let idx = if recent.is_empty() {
                    0
                } else if t < SESSION_LEN - recent.len() {
                    recent[0]
                } else {
                    recent[t - (SESSION_LEN - recent.len())]
                };
                session[t][u] = idx;
            }
        }

        let ss = g.ss();
        let mut ss_dst = Vec::with_capacity(ss.nnz());
        for u in 0..g.num_users() {
            ss_dst.extend(std::iter::repeat(u).take(ss.degree(u)));
        }
        let st = State {
            e_user,
            e_item,
            gru,
            fuse,
            attn_w,
            attn_v,
            session: session.into_iter().map(Rc::new).collect(),
            ss_seg: Rc::new(ss.row_ptr().to_vec()),
            ss_src: Rc::new(ss.col_idx().to_vec()),
            ss_dst: Rc::new(ss_dst),
        };

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
    fn dgrec_beats_random() {
        assert_beats_random(&mut DgRec::new(quick()));
    }
}
