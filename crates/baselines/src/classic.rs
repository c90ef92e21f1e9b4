//! Classic reference models from the paper's related-work lineage —
//! useful anchors for downstream users even though Table II omits them:
//!
//! * **BPR-MF** — plain matrix factorization with BPR (the substrate every
//!   compared model builds on);
//! * **SoRec** (Ma et al., CIKM 2008) — joint factorization of the
//!   interaction and social matrices with shared user factors;
//! * **TrustMF** (Yang et al., TPAMI 2016) — truster/trustee factor spaces
//!   bridged through the social links;
//! * **LightGCN** (He et al., SIGIR 2020, cited as [16]) — embedding
//!   propagation with no transforms or nonlinearities, layer-averaged.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamSet, Propagation, Recorder, Tape, Var};
use dgnn_data::Dataset;
use dgnn_eval::{Recommender, Trainable};
use dgnn_tensor::Init;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::common::{bpr_from_embeddings, BaselineConfig, BatchIdx, Scorer};

/// Which classic variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassicKind {
    /// Plain BPR matrix factorization.
    BprMf,
    /// SoRec: shared user factors jointly reconstruct `Y` and `S`.
    SoRec,
    /// TrustMF: separate truster/trustee spaces tied by social links.
    TrustMf,
    /// LightGCN: parameter-free propagation, layer-averaged embeddings.
    LightGcn,
}

impl ClassicKind {
    fn name(self) -> &'static str {
        match self {
            ClassicKind::BprMf => "BPR-MF",
            ClassicKind::SoRec => "SoRec",
            ClassicKind::TrustMf => "TrustMF",
            ClassicKind::LightGcn => "LightGCN",
        }
    }
}

struct State {
    e_user: ParamId,
    e_item: ParamId,
    /// Trustee factors (TrustMF) — unused otherwise.
    e_trustee: ParamId,
    /// LightGCN's user ← item and item ← user propagations.
    adj: Option<(Propagation, Propagation)>,
    ties: Vec<(u32, u32)>,
    friends: Vec<Vec<u32>>,
}

fn forward(
    st: &State,
    kind: ClassicKind,
    layers: usize,
    tape: &mut Tape,
    params: &ParamSet,
) -> (Var, Var) {
    match kind {
        ClassicKind::BprMf | ClassicKind::SoRec => {
            (tape.param(params, st.e_user), tape.param(params, st.e_item))
        }
        ClassicKind::TrustMf => {
            // Item-domain user factors are the truster factors.
            (tape.param(params, st.e_user), tape.param(params, st.e_item))
        }
        ClassicKind::LightGcn => {
            // Bipartite light propagation: u ← Â v, v ← Âᵀ u, alternating,
            // with layer-averaged outputs and no transforms — LightGCN's
            // whole point.
            #[expect(
                clippy::expect_used,
                reason = "fit builds the adjacency whenever the kind is LightGCN"
            )]
            let (to_users, to_items) = st.adj.as_ref().expect("LightGCN builds an adjacency");
            let mut hu = tape.param(params, st.e_user);
            let mut hv = tape.param(params, st.e_item);
            let mut acc_u = hu;
            let mut acc_v = hv;
            for _ in 0..layers.max(1) {
                let new_u = to_users.apply(tape, hv);
                let new_v = to_items.apply(tape, hu);
                hu = new_u;
                hv = new_v;
                acc_u = tape.add(acc_u, hu);
                acc_v = tape.add(acc_v, hv);
            }
            let k = 1.0 / (layers.max(1) + 1) as f32;
            let users = tape.scale(acc_u, k);
            let items = tape.scale(acc_v, k);
            (users, items)
        }
    }
}

/// Auxiliary social reconstruction loss (SoRec / TrustMF): friends should
/// outrank random non-friends under the model's social factor spaces.
fn social_aux(
    st: &State,
    kind: ClassicKind,
    tape: &mut Tape,
    params: &ParamSet,
    rng: &mut StdRng,
    n: usize,
) -> Option<Var> {
    if st.ties.is_empty() {
        return None;
    }
    let num_users = st.friends.len();
    let mut a_idx = Vec::with_capacity(n);
    let mut pos_idx = Vec::with_capacity(n);
    let mut neg_idx = Vec::with_capacity(n);
    for _ in 0..n {
        let &(a, b) = &st.ties[rng.gen_range(0..st.ties.len())];
        let neg = loop {
            let c = rng.gen_range(0..num_users) as u32;
            if c != a && st.friends[a as usize].binary_search(&c).is_err() {
                break c;
            }
        };
        a_idx.push(a as usize);
        pos_idx.push(b as usize);
        neg_idx.push(neg as usize);
    }
    let truster = tape.param(params, st.e_user);
    // SoRec shares the user table on both sides; TrustMF uses the separate
    // trustee table — its distinguishing mechanism.
    let trustee = match kind {
        ClassicKind::TrustMf => tape.param(params, st.e_trustee),
        _ => truster,
    };
    let ae = tape.gather(truster, Rc::new(a_idx));
    let pe = tape.gather(trustee, Rc::new(pos_idx));
    let ne = tape.gather(trustee, Rc::new(neg_idx));
    let ps = tape.row_dots(ae, pe);
    let ns = tape.row_dots(ae, ne);
    Some(tape.bpr_loss(ps, ns))
}

/// A classic reference recommender (see [`ClassicKind`]).
pub struct Classic {
    kind: ClassicKind,
    cfg: BaselineConfig,
    scorer: Scorer,
    /// Mean loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Classic {
    /// Creates an untrained model of the given kind.
    pub fn new(kind: ClassicKind, cfg: BaselineConfig) -> Self {
        Self { kind, cfg, scorer: Scorer::default(), loss_history: Vec::new() }
    }
}

impl Recommender for Classic {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.scorer.score(self.kind.name(), user, items)
    }
}

impl Trainable for Classic {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        let g = &data.graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let d = self.cfg.dim;
        let e_user = params.add("e_user", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));
        let e_item = params.add("e_item", Init::Uniform(0.1).build(g.num_items(), d, &mut rng));
        let e_trustee =
            params.add("e_trustee", Init::Uniform(0.1).build(g.num_users(), d, &mut rng));

        let adj = (self.kind == ClassicKind::LightGcn).then(|| {
            let ui = g.ui().sym_normalized();
            (Propagation::new(&ui), Propagation::new(&ui.transpose()))
        });
        let mut ties = Vec::new();
        let mut friends: Vec<Vec<u32>> = vec![Vec::new(); g.num_users()];
        for &(a, b) in g.social_ties() {
            ties.push((a, b));
            ties.push((b, a));
            friends[a as usize].push(b);
            friends[b as usize].push(a);
        }
        for f in &mut friends {
            f.sort_unstable();
        }
        let st = State { e_user, e_item, e_trustee, adj, ties, friends };

        let kind = self.kind;
        let layers = self.cfg.layers;
        let batch = self.cfg.batch_size;
        let mut trainer = self.cfg.trainer(g, seed);
        self.loss_history = (0..self.cfg.epochs)
            .map(|_| {
                trainer.epoch(&mut params, |tape, params, triples, rng| {
                    let (users, items) = forward(&st, kind, layers, tape, params);
                    let main = bpr_from_embeddings(tape, users, items, &BatchIdx::new(triples));
                    let needs_social = matches!(kind, ClassicKind::SoRec | ClassicKind::TrustMf);
                    if needs_social {
                        if let Some(aux) = social_aux(&st, kind, tape, params, rng, batch.min(512))
                        {
                            let aux = tape.scale(aux, 0.5);
                            return tape.add(main, aux);
                        }
                    }
                    main
                })
            })
            .collect();
        self.scorer = Scorer::from_forward(|tape| forward(&st, kind, layers, tape, &params));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{assert_beats_random, quick};

    #[test]
    fn bpr_mf_beats_random() {
        assert_beats_random(&mut Classic::new(ClassicKind::BprMf, quick()));
    }

    #[test]
    fn sorec_beats_random() {
        assert_beats_random(&mut Classic::new(ClassicKind::SoRec, quick()));
    }

    #[test]
    fn trustmf_beats_random() {
        assert_beats_random(&mut Classic::new(ClassicKind::TrustMf, quick()));
    }

    #[test]
    fn lightgcn_beats_random() {
        assert_beats_random(&mut Classic::new(ClassicKind::LightGcn, quick()));
    }

    #[test]
    fn names_are_distinct() {
        let kinds =
            [ClassicKind::BprMf, ClassicKind::SoRec, ClassicKind::TrustMf, ClassicKind::LightGcn];
        let names: std::collections::HashSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
