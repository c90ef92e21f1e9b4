//! Disentangled recommenders: DGCF and DisenHAN.
//!
//! * **DGCF** (Wang et al., SIGIR 2020) splits embeddings into `K` intent
//!   chunks and runs an *iterative routing* over the interaction graph:
//!   per-edge intent logits are softmaxed across intents, each intent
//!   propagates with its own weighted adjacency, and the logits are updated
//!   from the affinity of the refreshed representations. The routing is the
//!   computational burden the paper's Table IV measures. Where the edge op
//!   is a table's only reader, it reads the table in place through the
//!   [`EdgeList`] instead of gathering it per edge: the refreshed
//!   destinations in the affinity, and the normalised sources in the last
//!   iteration's propagation. The first iteration's gathered sources also
//!   feed `tanh`, so that gather stays.
//! * **DisenHAN** (Wang et al., CIKM 2020) disentangles *aspects* and uses
//!   relation-level attention per aspect plus semantic attention across
//!   relation families — the closest prior art to DGNN's design, but with
//!   attention in place of DGNN's latent memory units.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Recorder, Rows, Var};
use dgnn_data::{Dataset, Triple};
use dgnn_eval::{Recommender, Trainable};
use dgnn_tensor::{Csr, EdgeList, Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Number of disentangled intents/aspects (both reference implementations
/// default to 4).
const NUM_FACTORS: usize = 4;
/// DGCF routing iterations.
const ROUTING_ITERS: usize = 2;

/// One routing direction: the edges grouped by destination, with a
/// precomputed `1/deg(dst)` normalizer per edge.
struct Routing {
    edges: Rc<EdgeList>,
    inv_deg: Matrix,
}

impl Routing {
    fn from_csr(csr: &Csr) -> Self {
        let edges = EdgeList::from_csr(csr);
        let inv: Vec<f32> = edges.dst.iter().map(|&r| 1.0 / csr.degree(r).max(1) as f32).collect();
        Self { edges: Rc::new(edges), inv_deg: Matrix::col_vector(&inv) }
    }
}

// --------------------------------------------------------------------------
// DGCF
// --------------------------------------------------------------------------

struct DgcfState {
    e_user: ParamId,
    e_item: ParamId,
    user_side: Routing, // item → user, grouped by user
    item_side: Routing, // user → item, grouped by item
}

/// One routing pass over every intent at once: intent `k` is column block
/// `k` of the `n × d` tables, so the logits are one `E × NUM_FACTORS`
/// matrix and every kernel takes all intents in one full-width call.
/// Refines `dst` from `src` and returns the refreshed destination table.
fn route<R: Recorder>(tape: &mut R, side: &Routing, dst: Var, src: Var) -> Var {
    let edges = &side.edges;
    if edges.is_empty() {
        return dst;
    }
    // Intent logits, initialised uniform (zeros).
    let mut logits = tape.constant(Matrix::zeros(edges.len(), NUM_FACTORS));
    let norm = tape.constant(side.inv_deg.clone());
    let mut out = dst;
    for it in 0..ROUTING_ITERS {
        let last = it + 1 == ROUTING_ITERS;
        let alpha = tape.softmax_rows(logits);
        let w = tape.mul_col(alpha, norm);
        let src_n = tape.l2_normalize_heads(src, 1e-9, NUM_FACTORS);
        // The last iteration's sources feed only the propagation, which
        // reads them in place; earlier ones also feed `tanh` below.
        let src_e = if last {
            Rows::src(src_n, edges)
        } else {
            Rows::Edge(tape.gather(src_n, Rc::clone(&edges.src)))
        };
        let msg = tape.segment_weighted_sum(w, src_e.clone(), Rc::clone(&edges.seg));
        let refreshed = tape.add(dst, msg);
        out = tape.l2_normalize_heads(refreshed, 1e-9, NUM_FACTORS);
        // Routing update: s += u_dst · tanh(v_src) per edge and intent.
        // The refreshed logits are consumed by the next iteration's
        // softmax, so the last iteration would only build dead tape
        // nodes: skip it.
        if !last {
            let v_t = tape.tanh(src_e.var());
            let aff = tape.head_dots(Rows::dst(out, edges), v_t, NUM_FACTORS);
            logits = tape.add(logits, aff);
        }
    }
    out
}

fn dgcf_forward<R: Recorder>(
    st: &DgcfState,
    d: usize,
    tape: &mut R,
    params: &ParamSet,
) -> (Var, Var) {
    let eu = tape.param(params, st.e_user);
    let ev = tape.param(params, st.e_item);
    // The routing reads full-width proxies of the tables, not the tables:
    // each table's routing gradient is then summed on its own before it
    // meets the residual's, the order the per-intent chunks summed it in.
    let u = tape.slice_cols(eu, 0, d);
    let v = tape.slice_cols(ev, 0, d);
    let u_new = route(tape, &st.user_side, u, v);
    let v_new = route(tape, &st.item_side, v, u);
    let users = tape.add(u_new, eu);
    let items = tape.add(v_new, ev);
    (users, items)
}

/// Registers DGCF's parameters and edge lists — shared by training and
/// the static-analysis trace entry.
fn dgcf_build_state(cfg: &BaselineConfig, data: &Dataset, seed: u64) -> (ParamSet, DgcfState) {
    let g = &data.graph;
    let mut rng_init = StdRng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let d = cfg.dim;
    let e_user = params.add("e_user", Init::Uniform(0.1).build(g.num_users(), d, &mut rng_init));
    let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng_init));
    let st = DgcfState {
        e_user,
        e_item,
        user_side: Routing::from_csr(g.ui()),
        item_side: Routing::from_csr(g.iu()),
    };
    (params, st)
}

/// The DGCF recommender.
pub struct Dgcf {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Dgcf {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        assert_eq!(cfg.dim % NUM_FACTORS, 0, "DGCF: dim must be divisible by {NUM_FACTORS}");
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }

    /// Records one full training step (forward pass + BPR loss over
    /// `triples`) onto `rec` without training — the static-analysis entry
    /// point. Returns the registered parameters and the loss variable.
    pub fn trace_step<R: Recorder>(
        cfg: &BaselineConfig,
        data: &Dataset,
        triples: &[Triple],
        seed: u64,
        rec: &mut R,
    ) -> (ParamSet, Var) {
        let _span = dgnn_obs::span("DGCF/trace_step");
        let (params, st) = dgcf_build_state(cfg, data, seed);
        let (users, items) = dgcf_forward(&st, cfg.dim, rec, &params);
        let loss = bpr_from_embeddings(rec, users, items, &BatchIdx::new(triples));
        (params, loss)
    }

    /// Trains with a per-epoch hook (drives the paper's Figure 8).
    pub fn fit_epochs(
        &mut self,
        data: &Dataset,
        seed: u64,
        mut on_epoch: impl FnMut(&Self, usize, f32),
    ) {
        let (mut params, st) = dgcf_build_state(&self.cfg, data, seed);
        let d = self.cfg.dim;
        let refresh =
            |params: &ParamSet| Scorer::from_forward(|tape| dgcf_forward(&st, d, tape, params));
        let mut trainer = self.cfg.trainer(&data.graph, seed);
        self.loss_history.clear();
        // The trainer's pool serves the per-epoch scorer refresh too.
        for epoch in 0..self.cfg.epochs {
            let mean = trainer.epoch(&mut params, |tape, params, triples, _| {
                let (users, items) = dgcf_forward(&st, d, tape, params);
                bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
            });
            self.loss_history.push(mean);
            self.scorer = refresh(&params);
            on_epoch(self, epoch, mean);
        }
        if self.cfg.epochs == 0 {
            self.scorer = refresh(&params);
        }
    }
}

impl Recommender for Dgcf {
    fn name(&self) -> &str {
        "DGCF"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("DGCF", user, items)
    }
}

impl Trainable for Dgcf {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        self.fit_epochs(data, seed, |_, _, _| {});
    }
}

// --------------------------------------------------------------------------
// DisenHAN
// --------------------------------------------------------------------------

struct Family {
    edges: EdgeList,
    /// Per-aspect source transform (`dc × dc` each).
    w: Vec<ParamId>,
    /// Semantic projection (`dc × 1`).
    q: ParamId,
}

struct DisenState {
    e_user: ParamId,
    e_item: ParamId,
    /// Families targeting users: social (src users), interaction (src items).
    user_families: Vec<(Family, bool)>, // bool: source is item table
    /// Families targeting items: interaction (src users), knowledge (src rels).
    item_families: Vec<(Family, bool)>, // bool: source is user table
    e_rel: ParamId,
}

/// Aspect-wise relation attention + semantic combination for one target
/// node family.
#[expect(
    clippy::too_many_arguments,
    reason = "the families, the target, its two source tables and their sizes"
)]
fn disen_aggregate<R: Recorder>(
    tape: &mut R,
    params: &ParamSet,
    families: &[(Family, bool)],
    target: Var,
    primary_src: Var,
    secondary_src: Var,
    n: usize,
    dc: usize,
) -> Var {
    let mut aspect_outs = Vec::with_capacity(NUM_FACTORS);
    for k in 0..NUM_FACTORS {
        let t_k = tape.slice_cols(target, k * dc, (k + 1) * dc);
        let mut zs = Vec::new();
        let mut sems = Vec::new();
        for (fam, use_secondary) in families {
            let src_tbl = if *use_secondary { secondary_src } else { primary_src };
            let z = if fam.edges.is_empty() {
                // No edges: the source transform would be dead compute that
                // never reaches the loss (the graph auditor flags exactly
                // this), so only the zero message is recorded.
                tape.constant(Matrix::zeros(n, dc))
            } else {
                let s_k = tape.slice_cols(src_tbl, k * dc, (k + 1) * dc);
                let w = tape.param(params, fam.w[k]);
                let s_w = tape.matmul(s_k, w);
                let se = tape.gather(s_w, Rc::clone(&fam.edges.src));
                let te = tape.gather(t_k, Rc::clone(&fam.edges.dst));
                let logits = tape.row_dots(te, se);
                let alpha = tape.segment_softmax(logits, Rc::clone(&fam.edges.seg));
                tape.segment_weighted_sum(alpha, se, Rc::clone(&fam.edges.seg))
            };
            let q = tape.param(params, fam.q);
            let tz = tape.tanh(z);
            let score = tape.matmul(tz, q);
            sems.push(tape.mean_all(score));
            zs.push(z);
        }
        // Semantic softmax across families.
        let cat = tape.concat_cols(&sems);
        let beta = tape.softmax_rows(cat);
        let ones = tape.constant(Matrix::full(n, 1, 1.0));
        let mut agg: Option<Var> = None;
        for (f, &z) in zs.iter().enumerate() {
            let b = tape.slice_cols(beta, f, f + 1);
            let b_col = tape.matmul(ones, b);
            let weighted = tape.mul_col(z, b_col);
            agg = Some(match agg {
                Some(a) => tape.add(a, weighted),
                None => weighted,
            });
        }
        #[expect(clippy::expect_used, reason = "each side registers two relation families")]
        let agg = agg.expect("at least one family");
        aspect_outs.push(tape.add(t_k, agg));
    }
    tape.concat_cols(&aspect_outs)
}

fn disen_forward<R: Recorder>(
    st: &DisenState,
    d: usize,
    tape: &mut R,
    params: &ParamSet,
) -> (Var, Var) {
    let dc = d / NUM_FACTORS;
    let eu = tape.param(params, st.e_user);
    let ev = tape.param(params, st.e_item);
    let er = tape.param(params, st.e_rel);
    let nu = tape.shape(eu).0;
    let nv = tape.shape(ev).0;
    let users = disen_aggregate(tape, params, &st.user_families, eu, eu, ev, nu, dc);
    let items = disen_aggregate(tape, params, &st.item_families, ev, eu, er, nv, dc);
    (users, items)
}

/// Registers DisenHAN's parameters and relation families — shared by
/// training and the static-analysis trace entry.
fn disen_build_state(cfg: &BaselineConfig, data: &Dataset, seed: u64) -> (ParamSet, DisenState) {
    let g = &data.graph;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let d = cfg.dim;
    let dc = d / NUM_FACTORS;
    let e_user = params.add("e_user", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
    let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng));
    let e_rel =
        params.add("e_rel", Init::Uniform(0.1).build(g.num_relations().max(1), d, &mut rng));
    let mut make_family = |name: &str, csr: &Csr| -> Family {
        Family {
            edges: EdgeList::from_csr(csr),
            w: (0..NUM_FACTORS)
                .map(|k| {
                    params
                        .add(format!("{name}/w[{k}]"), Init::XavierUniform.build(dc, dc, &mut rng))
                })
                .collect(),
            q: params.add(format!("{name}/q"), Init::XavierUniform.build(dc, 1, &mut rng)),
        }
    };
    let user_families =
        vec![(make_family("social", g.ss()), false), (make_family("interact_u", g.ui()), true)];
    let item_families =
        vec![(make_family("interact_v", g.iu()), false), (make_family("knowledge", g.ir()), true)];
    let st = DisenState { e_user, e_item, e_rel, user_families, item_families };
    (params, st)
}

/// The DisenHAN recommender.
pub struct DisenHan {
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl DisenHan {
    /// Creates an untrained model.
    pub fn new(cfg: BaselineConfig) -> Self {
        assert_eq!(cfg.dim % NUM_FACTORS, 0, "DisenHAN: dim must be divisible by {NUM_FACTORS}");
        Self { cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }

    /// Records one full training step (forward pass + BPR loss over
    /// `triples`) onto `rec` without training — the static-analysis entry
    /// point. Returns the registered parameters and the loss variable.
    pub fn trace_step<R: Recorder>(
        cfg: &BaselineConfig,
        data: &Dataset,
        triples: &[Triple],
        seed: u64,
        rec: &mut R,
    ) -> (ParamSet, Var) {
        let _span = dgnn_obs::span("DisenHAN/trace_step");
        let (params, st) = disen_build_state(cfg, data, seed);
        let (users, items) = disen_forward(&st, cfg.dim, rec, &params);
        let loss = bpr_from_embeddings(rec, users, items, &BatchIdx::new(triples));
        (params, loss)
    }
}

impl Recommender for DisenHan {
    fn name(&self) -> &str {
        "DisenHAN"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score("DisenHAN", user, items)
    }
}

impl Trainable for DisenHan {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let (mut params, st) = disen_build_state(&self.cfg, data, seed);
        let d = self.cfg.dim;

        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, _| {
                    let (users, items) = disen_forward(&st, d, tape, params);
                    bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples))
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| disen_forward(&st, d, tape, &params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};
    use dgnn_autograd::Tape;
    use dgnn_data::TrainSampler;

    #[test]
    fn dgcf_beats_random() {
        assert_beats_random(&mut Dgcf::new(quick()));
    }

    #[test]
    fn disenhan_beats_random() {
        assert_beats_random(&mut DisenHan::new(quick()));
    }

    #[test]
    fn dgcf_fit_epochs_hook() {
        let data = dgnn_data::tiny(6);
        let mut m = Dgcf::new(BaselineConfig { epochs: 2, ..quick() });
        let mut n = 0;
        m.fit_epochs(&data, 1, |_, _, _| n += 1);
        assert_eq!(n, 2);
    }

    /// The routing as it was written before the intent-blocked kernels:
    /// every intent a column chunk of its own, routed chunk by chunk.
    fn route_per_intent(
        tape: &mut Tape,
        side: &Routing,
        dst_chunks: &[Var],
        src_chunks: &[Var],
    ) -> Vec<Var> {
        let edges = &side.edges;
        if edges.is_empty() {
            return dst_chunks.to_vec();
        }
        let e = edges.src.len();
        let mut logits: Vec<Var> =
            (0..NUM_FACTORS).map(|_| tape.constant(Matrix::zeros(e, 1))).collect();
        let mut out = dst_chunks.to_vec();
        for it in 0..ROUTING_ITERS {
            let cat = tape.concat_cols(&logits);
            let alpha = tape.softmax_rows(cat);
            let mut new_logits = Vec::with_capacity(NUM_FACTORS);
            for k in 0..NUM_FACTORS {
                let a_k = tape.slice_cols(alpha, k, k + 1);
                let norm = tape.constant(side.inv_deg.clone());
                let w = tape.mul(a_k, norm);
                let src_n = tape.l2_normalize_rows(src_chunks[k], 1e-9);
                let src_e = tape.gather(src_n, Rc::clone(&edges.src));
                let msg = tape.segment_weighted_sum(w, src_e, Rc::clone(&edges.seg));
                let refreshed = tape.add(dst_chunks[k], msg);
                let refreshed = tape.l2_normalize_rows(refreshed, 1e-9);
                out[k] = refreshed;
                if it + 1 < ROUTING_ITERS {
                    let u_e = tape.gather(refreshed, Rc::clone(&edges.dst));
                    let v_t = tape.tanh(src_e);
                    let aff = tape.row_dots(u_e, v_t);
                    new_logits.push(tape.add(logits[k], aff));
                }
            }
            if it + 1 < ROUTING_ITERS {
                logits = new_logits;
            }
        }
        out
    }

    fn dgcf_forward_per_intent(
        st: &DgcfState,
        d: usize,
        tape: &mut Tape,
        params: &ParamSet,
    ) -> (Var, Var) {
        let dc = d / NUM_FACTORS;
        let eu = tape.param(params, st.e_user);
        let ev = tape.param(params, st.e_item);
        let u_chunks: Vec<Var> =
            (0..NUM_FACTORS).map(|k| tape.slice_cols(eu, k * dc, (k + 1) * dc)).collect();
        let v_chunks: Vec<Var> =
            (0..NUM_FACTORS).map(|k| tape.slice_cols(ev, k * dc, (k + 1) * dc)).collect();
        let u_new = route_per_intent(tape, &st.user_side, &u_chunks, &v_chunks);
        let v_new = route_per_intent(tape, &st.item_side, &v_chunks, &u_chunks);
        let u_cat = tape.concat_cols(&u_new);
        let v_cat = tape.concat_cols(&v_new);
        (tape.add(u_cat, eu), tape.add(v_cat, ev))
    }

    #[test]
    fn intent_blocked_step_has_the_bits_of_the_per_intent_step() {
        use dgnn_tensor::parallel;
        let data = dgnn_data::tiny(4);
        let triples = TrainSampler::new(&data.graph).batch(&mut StdRng::seed_from_u64(3), 256);
        let idx = BatchIdx::new(&triples);
        // dim 8 gives 2-wide intents, dim 16 the default config's 4-wide ones.
        for dim in [8, 16] {
            let cfg = BaselineConfig { dim, ..quick() };
            let step = |blocked: bool, threads: usize| {
                parallel::set_threads(threads);
                parallel::set_min_par_work(if threads > 1 {
                    1
                } else {
                    parallel::DEFAULT_MIN_PAR_WORK
                });
                let (mut params, st) = dgcf_build_state(&cfg, &data, 5);
                let mut tape = Tape::new();
                let (users, items) = if blocked {
                    dgcf_forward(&st, dim, &mut tape, &params)
                } else {
                    dgcf_forward_per_intent(&st, dim, &mut tape, &params)
                };
                let loss = bpr_from_embeddings(&mut tape, users, items, &idx);
                params.zero_grads();
                let loss = tape.backward_into(loss, &mut params);
                parallel::set_threads(1);
                parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
                let grads: Vec<u32> = params
                    .ids()
                    .flat_map(|id| params.grad(id).as_slice().to_vec())
                    .map(f32::to_bits)
                    .collect();
                (loss.to_bits(), grads)
            };
            let oracle = step(false, 1);
            for threads in 1..=4 {
                for blocked in [true, false] {
                    let got = step(blocked, threads);
                    assert_eq!(
                        got.0, oracle.0,
                        "dim {dim}, {threads} thread(s), blocked {blocked}: loss bits differ"
                    );
                    assert!(got.1 == oracle.1, "dim {dim}, {threads} thread(s), blocked {blocked}: a parameter gradient differs in its bits");
                }
            }
        }
    }
}
