//! MHCN (Yu et al., WWW 2021): multi-channel hypergraph convolutional
//! network with self-supervised learning.
//!
//! The distinguishing mechanism: user representations are learned through
//! three motif-based *hypergraph channels* — social triangles, joint
//! social/co-interaction closure, and plain co-interaction — combined with
//! channel attention, and an auxiliary *InfoMax* objective maximizes the
//! mutual information between node embeddings and each channel's graph
//! readout (implemented, as in the reference code, as a discriminator that
//! ranks true (node, readout) pairs above row-shuffled corruptions).

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Propagation, Recorder, Var};
use dgnn_data::{Dataset, Triple};
use dgnn_eval::{Recommender, Trainable};
use dgnn_graph::compose;
use dgnn_tensor::{Csr, CsrBuilder, Init, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Weight of the self-supervised InfoMax term.
const SSL_WEIGHT: f32 = 0.1;
/// Per-row cap for motif adjacency construction.
const MOTIF_CAP: usize = 40;

struct Channel {
    adj: Propagation,
    /// Channel-attention projection, `d × 1`.
    attn: ParamId,
}

struct State {
    e_user: ParamId,
    e_item: ParamId,
    channels: Vec<Channel>,
    ui: Propagation,
    iu: Propagation,
}

/// Two-layer light convolution over one channel's user graph; returns the
/// mean of the layer outputs.
fn channel_pass<R: Recorder>(tape: &mut R, ch: &Channel, eu: Var, layers: usize) -> Var {
    let mut h = eu;
    let mut acc = h;
    for _ in 0..layers.max(1) {
        h = ch.adj.apply(tape, h);
        acc = tape.add(acc, h);
    }
    tape.scale(acc, 1.0 / (layers.max(1) + 1) as f32)
}

/// Forward pass; returns `(users, items, per-channel user embeddings)`.
fn forward<R: Recorder>(
    st: &State,
    layers: usize,
    tape: &mut R,
    params: &ParamSet,
) -> (Var, Var, Vec<Var>) {
    let eu = tape.param(params, st.e_user);
    let ev = tape.param(params, st.e_item);
    let num_users = tape.shape(eu).0;

    let mut channel_embs = Vec::with_capacity(st.channels.len());
    let mut scores = Vec::with_capacity(st.channels.len());
    for ch in &st.channels {
        let h = channel_pass(tape, ch, eu, layers);
        let a = tape.param(params, ch.attn);
        let s = tape.matmul(h, a);
        let s = tape.mean_all(s);
        scores.push(s);
        channel_embs.push(h);
    }
    // Channel attention (softmax over scalar scores).
    let cat = tape.concat_cols(&scores);
    let beta = tape.softmax_rows(cat);
    let ones = tape.constant(Matrix::full(num_users, 1, 1.0));
    let mut social: Option<Var> = None;
    for (c, &h) in channel_embs.iter().enumerate() {
        let b = tape.slice_cols(beta, c, c + 1);
        let b_col = tape.matmul(ones, b);
        let weighted = tape.mul_col(h, b_col);
        social = Some(match social {
            Some(acc) => tape.add(acc, weighted),
            None => weighted,
        });
    }
    #[expect(clippy::expect_used, reason = "build_channels makes three motif channels")]
    let social = social.expect("at least one channel");

    // Interaction history rounds out the user; items aggregate their users.
    let hist = st.ui.apply(tape, ev);
    let u_pre = tape.add(eu, social);
    let users = tape.add(u_pre, hist);
    let from_users = st.iu.apply(tape, eu);
    let items = tape.add(ev, from_users);
    (users, items, channel_embs)
}

/// InfoMax discriminator: true (node, channel-readout) pairs must outrank
/// corrupted (shuffled-node, readout) pairs.
fn ssl_loss<R: Recorder>(
    tape: &mut R,
    channel_embs: &[Var],
    shuffle: &Rc<Vec<usize>>,
) -> Option<Var> {
    let mut total: Option<Var> = None;
    for &h in channel_embs {
        let readout = tape.col_mean(h); // 1 × d
        let n = tape.shape(h).0;
        let ones = tape.constant(Matrix::full(n, 1, 1.0));
        let r_full = tape.matmul(ones, readout); // broadcast to n × d
        let pos = tape.row_dots(h, r_full);
        let h_shuf = tape.gather(h, Rc::clone(shuffle));
        let neg = tape.row_dots(h_shuf, r_full);
        let loss = tape.bpr_loss(pos, neg);
        total = Some(match total {
            Some(t) => tape.add(t, loss),
            None => loss,
        });
    }
    total
}

/// Builds the three motif channels.
///
/// * `social triangles`: each social edge weighted by its closed-triangle
///   count (+1 so plain edges survive);
/// * `joint`: social edges weighted by co-interaction strength;
/// * `co-interaction`: the `U–V–U` composition.
fn build_channels(g: &dgnn_graph::HeteroGraph) -> Vec<Csr> {
    let nu = g.num_users();

    // Triangle counts per social edge via sorted-neighbor intersection.
    let mut triangles = CsrBuilder::new(nu, nu);
    for u in 0..nu {
        let nbrs_u = g.friends_of(u);
        for &f in nbrs_u {
            let nbrs_f = g.friends_of(f);
            let common = intersect_count(nbrs_u, nbrs_f);
            triangles.push(u, f, 1.0 + common as f32);
        }
    }

    // Joint channel: social edges weighted by shared items.
    let mut joint = CsrBuilder::new(nu, nu);
    for u in 0..nu {
        let items_u = g.items_of(u);
        for &f in g.friends_of(u) {
            let shared = intersect_count(items_u, g.items_of(f));
            joint.push(u, f, 1.0 + shared as f32);
        }
    }

    let co = compose(g.ui(), g.iu(), MOTIF_CAP);

    vec![triangles.build().row_normalized(), joint.build().row_normalized(), co.row_normalized()]
}

fn intersect_count(a: &[usize], b: &[usize]) -> usize {
    // Both slices are sorted (CSR column order).
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Registers parameters and builds the motif channels — shared by
/// training and by the static-analysis trace entry.
fn build_state(cfg: &BaselineConfig, data: &Dataset, seed: u64) -> (ParamSet, State) {
    let g = &data.graph;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let d = cfg.dim;
    let e_user = params.add("e_user", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
    let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng));
    let channels = build_channels(g)
        .into_iter()
        .enumerate()
        .map(|(c, adj)| Channel {
            adj: Propagation::new(&adj),
            attn: params.add(format!("attn[{c}]"), Init::XavierUniform.build(d, 1, &mut rng)),
        })
        .collect();
    let st = State {
        e_user,
        e_item,
        channels,
        ui: Propagation::new(&g.ui().row_normalized()),
        iu: Propagation::new(&g.iu().row_normalized()),
    };
    (params, st)
}

/// The MHCN recommender.
pub struct Mhcn {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean joint loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Mhcn {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }

    /// Records one full training step — forward pass, BPR loss over
    /// `triples`, and the InfoMax term with a seed-deterministic
    /// corruption shuffle — onto `rec` without training. The
    /// static-analysis entry point; returns the registered parameters and
    /// the joint loss variable.
    pub fn trace_step<R: Recorder>(
        cfg: &BaselineConfig,
        data: &Dataset,
        triples: &[Triple],
        seed: u64,
        rec: &mut R,
    ) -> (ParamSet, Var) {
        let _span = dgnn_obs::span("MHCN/trace_step");
        let (params, st) = build_state(cfg, data, seed);
        let (users, items, channel_embs) = forward(&st, cfg.layers, rec, &params);
        let bpr = bpr_from_embeddings(rec, users, items, &BatchIdx::new(triples));
        let mut shuffle: Vec<usize> = (0..data.graph.num_users()).collect();
        shuffle.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x55F1));
        let loss = match ssl_loss(rec, &channel_embs, &Rc::new(shuffle)) {
            Some(ssl) => {
                let ssl = rec.scale(ssl, SSL_WEIGHT);
                rec.add(bpr, ssl)
            }
            None => bpr,
        };
        (params, loss)
    }
}

impl Recommender for Mhcn {
    fn name(&self) -> &str {
        "MHCN"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("MHCN", user, items)
    }
}

impl Trainable for Mhcn {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let (mut params, st) = build_state(&self.cfg, data, seed);

        let layers = self.cfg.layers;
        let num_users = g.num_users();
        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, rng| {
                    let (users, items, channel_embs) = forward(&st, layers, tape, params);
                    let rec = bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples));
                    let mut shuffle: Vec<usize> = (0..num_users).collect();
                    shuffle.shuffle(rng);
                    match ssl_loss(tape, &channel_embs, &Rc::new(shuffle)) {
                        Some(ssl) => {
                            let ssl = tape.scale(ssl, SSL_WEIGHT);
                            tape.add(rec, ssl)
                        }
                        None => rec,
                    }
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| {
            let (users, items, _) = forward(&st, layers, tape, &params);
            (users, items)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn mhcn_beats_random() {
        assert_beats_random(&mut Mhcn::new(quick()));
    }

    #[test]
    fn intersect_count_on_sorted_slices() {
        assert_eq!(intersect_count(&[1, 3, 5, 7], &[2, 3, 5, 9]), 2);
        assert_eq!(intersect_count(&[], &[1, 2]), 0);
        assert_eq!(intersect_count(&[4], &[4]), 1);
    }

    #[test]
    fn motif_channels_are_row_stochastic() {
        let data = dgnn_data::tiny(9);
        for adj in build_channels(&data.graph) {
            for r in 0..adj.rows() {
                let sum: f32 = adj.row(r).map(|(_, v)| v).sum();
                if adj.degree(r) > 0 {
                    assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
                }
            }
        }
    }
}
