//! The DGNN model: memory-augmented heterogeneous message passing.

use std::rc::Rc;

use dgnn_autograd::{Adam, ParamId, ParamSet, Propagation, Recorder, Tape, Var};
use dgnn_data::{Dataset, Triple};
use dgnn_eval::{Recommender, Trainable};
use dgnn_graph::HeteroGraph;
use dgnn_tensor::{CsrBuilder, Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::DgnnConfig;
use crate::training::{BprTrainer, TrainLoop, SAMPLING_SALT};

/// The memory banks of the relation heterogeneity encoder: one per
/// directed relation family plus one self-loop bank per node type
/// ("non-sharing hyperparameter space", Section IV-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryBankKind {
    /// user ← user (social influence messages).
    SocialToUser,
    /// user ← item (interaction messages, item side).
    ItemToUser,
    /// item ← user (interaction messages, user side).
    UserToItem,
    /// item ← relation node (knowledge messages).
    RelToItem,
    /// relation node ← item.
    ItemToRel,
    /// user self-propagation (Eq. 7's `φ(H[v])` term).
    SelfUser,
    /// item self-propagation.
    SelfItem,
    /// relation-node self-propagation.
    SelfRel,
}

impl MemoryBankKind {
    /// All banks, index-aligned with the internal storage.
    pub const ALL: [MemoryBankKind; 8] = [
        MemoryBankKind::SocialToUser,
        MemoryBankKind::ItemToUser,
        MemoryBankKind::UserToItem,
        MemoryBankKind::RelToItem,
        MemoryBankKind::ItemToRel,
        MemoryBankKind::SelfUser,
        MemoryBankKind::SelfItem,
        MemoryBankKind::SelfRel,
    ];

    #[expect(clippy::expect_used, reason = "`ALL` lists every variant")]
    fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("bank kind is in ALL")
    }
}

/// One memory bank: the `|M|` transformation matrices `W¹_m ∈ R^{d×d}`
/// stored side by side as one `d × |M|·d` parameter `[W¹_1 | … | W¹_M]`,
/// plus the attention projection `W² ∈ R^{d×|M|}` and bias `b ∈ R^{1×|M|}`
/// of Eq. 3.
struct Bank {
    w1: ParamId,
    w2: ParamId,
    bias: ParamId,
}

/// Per-layer, per-node-type LayerNorm affine terms (ω₁, ω₂ of Eq. 7).
struct LnAffine {
    scale: ParamId,
    bias: ParamId,
}

/// The normalized propagations of Eq. 4–6 and τ, one per direction.
struct Adjacencies {
    /// user ← user, rows jointly normalized by `1/(|N^S_u| + |N^Y_u|)`.
    uu: Propagation,
    /// user ← item, same row normalizer.
    uv: Propagation,
    /// item ← user, rows normalized by `1/(|N^Y_v| + |N^T_v|)`.
    vu: Propagation,
    /// item ← relation node, same row normalizer.
    vr: Propagation,
    /// relation ← item, rows normalized by `1/|N_r|`.
    rv: Propagation,
    /// The recalibration operator τ: social averaging with a self loop,
    /// `1/(|N^S_u| + 1)` (Eq. 9).
    tau: Propagation,
}

struct Handles {
    e_user: ParamId,
    e_item: ParamId,
    e_rel: ParamId,
    banks: Vec<Bank>,
    /// Indexed `layer * 2 + node_type` (0=user, 1=item).
    ln: Vec<LnAffine>,
    /// One per layer that updates relation nodes (the final layer never
    /// does: relation embeddings only feed the *next* layer's item
    /// aggregation, so its update would be dead compute).
    ln_rel: Vec<LnAffine>,
    adj: Adjacencies,
    num_rels: usize,
}

/// The trained DGNN recommender.
///
/// Construct with [`Dgnn::new`], train with [`Trainable::fit`] (or
/// [`Dgnn::fit_epochs`] for per-epoch hooks), then score through the
/// [`Recommender`] trait.
pub struct Dgnn {
    cfg: DgnnConfig,
    params: ParamSet,
    handles: Option<Handles>,
    pretrained: Option<crate::pretrain::PretrainedEmbeddings>,
    /// `H*[u] + τ(H*[u])` rows used in the prediction dot product (Eq. 10).
    user_scoring: Matrix,
    /// `H*[u]` without recalibration (embedding visualization, Fig. 9).
    user_final: Matrix,
    /// `H*[v]`.
    item_final: Matrix,
    /// Per-user memory attention over the social bank at the last layer
    /// (Fig. 10's "user-user memory weights").
    attn_social: Matrix,
    /// Per-user memory attention over the interaction bank (Fig. 10's
    /// "user-item memory weights").
    attn_interaction: Matrix,
    /// Mean BPR loss per epoch.
    pub loss_history: Vec<f32>,
}

impl Dgnn {
    /// Creates an untrained model.
    pub fn new(cfg: DgnnConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            params: ParamSet::new(),
            handles: None,
            pretrained: None,
            user_scoring: Matrix::zeros(0, 0),
            user_final: Matrix::zeros(0, 0),
            item_final: Matrix::zeros(0, 0),
            attn_social: Matrix::zeros(0, 0),
            attn_interaction: Matrix::zeros(0, 0),
            loss_history: Vec::new(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DgnnConfig {
        &self.cfg
    }

    /// Warm-starts the embedding tables from a
    /// [`crate::pretrain::Pretrainer`] run (the paper's future-work
    /// "pre-trained framework" extension). Must be called before `fit`;
    /// shapes are validated at fit time.
    pub fn with_pretrained(mut self, emb: crate::pretrain::PretrainedEmbeddings) -> Self {
        assert_eq!(
            emb.user.cols(),
            self.cfg.dim,
            "pretrained dimensionality must match DgnnConfig::dim"
        );
        self.pretrained = Some(emb);
        self
    }

    /// Final user embeddings `H*[u]` (available after training).
    pub fn user_embeddings(&self) -> &Matrix {
        &self.user_final
    }

    /// Final item embeddings `H*[v]`.
    pub fn item_embeddings(&self) -> &Matrix {
        &self.item_final
    }

    /// Per-user memory-attention vectors for the social or interaction
    /// bank (the quantity visualized in the paper's Figure 10).
    ///
    /// # Panics
    /// Panics for bank kinds other than `SocialToUser` / `UserToItem`, or
    /// before training.
    pub fn memory_attention(&self, kind: MemoryBankKind) -> &Matrix {
        assert!(!self.user_scoring.is_empty(), "model not trained yet");
        match kind {
            MemoryBankKind::SocialToUser => &self.attn_social,
            MemoryBankKind::UserToItem => &self.attn_interaction,
            #[expect(
                clippy::panic,
                reason = "item-side banks are never dumped; asking for one is a caller bug"
            )]
            other => panic!("memory_attention: only user-side banks are dumped, got {other:?}"),
        }
    }

    /// Trains with a per-epoch hook: after every epoch the final embeddings
    /// are refreshed and `on_epoch(self, epoch, mean_loss)` fires with the
    /// parameters *as of that epoch* — the driver for the paper's
    /// accuracy-vs-epoch study (Figure 8).
    pub fn fit_epochs(
        &mut self,
        data: &Dataset,
        seed: u64,
        mut on_epoch: impl FnMut(&Self, usize, f32),
    ) {
        let g = &data.graph;
        self.init_params(g, seed);
        let mut trainer = BprTrainer::new(
            g,
            TrainLoop { batch_size: self.cfg.batch_size, ..TrainLoop::default() },
            self.cfg.threads,
            Adam::new(self.cfg.learning_rate, self.cfg.weight_decay),
            StdRng::seed_from_u64(seed ^ SAMPLING_SALT),
        );
        self.loss_history.clear();
        // The trainer's pool serves the per-epoch `finalize` forward too.
        for epoch in 0..self.cfg.epochs {
            #[expect(clippy::expect_used, reason = "init_params above always sets the handles")]
            let (cfg, handles) = (&self.cfg, self.handles.as_ref().expect("initialized above"));
            let mean = trainer.epoch(&mut self.params, |tape, params, triples, _| {
                bpr_step(tape, params, handles, cfg, triples)
            });
            self.loss_history.push(mean);
            self.finalize();
            on_epoch(self, epoch, mean);
        }
        if self.cfg.epochs == 0 {
            self.finalize();
        }
    }

    /// Registers parameters and builds the adjacency bundle without
    /// running any training step.
    ///
    /// This is the entry point for static analysis: after `prepare`, the
    /// model can [`Dgnn::record_step`] onto *any* [`Recorder`] — a
    /// [`Tape`] for real training, or an abstract tracer that verifies the
    /// compute graph before the first gradient is ever computed.
    pub fn prepare(&mut self, g: &HeteroGraph, seed: u64) {
        self.init_params(g, seed);
    }

    /// The model's parameter set (registered by [`Dgnn::prepare`] /
    /// [`Trainable::fit`]).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Records one full training step — forward pass plus BPR loss over
    /// `triples` — onto `rec` and returns the loss variable.
    ///
    /// Exactly this graph is what [`Trainable::fit`] differentiates each
    /// step, so auditing it covers the trained model, not a replica.
    ///
    /// # Panics
    /// Panics if called before [`Dgnn::prepare`] (or `fit`).
    pub fn record_step<R: Recorder>(&self, rec: &mut R, triples: &[Triple]) -> Var {
        #[expect(clippy::expect_used, reason = "documented: callers run prepare or fit first")]
        let handles = self.handles.as_ref().expect("record_step before prepare");
        bpr_step(rec, &self.params, handles, &self.cfg, triples)
    }

    fn init_params(&mut self, g: &HeteroGraph, seed: u64) {
        let cfg = &self.cfg;
        let d = cfg.dim;
        let m = cfg.effective_memory_units();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();

        let (init_user, init_item, init_rel) = match &self.pretrained {
            Some(pre) => {
                assert_eq!(pre.user.shape(), (g.num_users(), d), "pretrained user table shape");
                assert_eq!(pre.item.shape(), (g.num_items(), d), "pretrained item table shape");
                // Burn the same number of RNG draws so downstream init
                // (banks, LN) matches the non-pretrained seeding exactly.
                let _ = Init::Uniform(0.1).build(g.num_users(), d, &mut rng);
                let _ = Init::Uniform(0.1).build(g.num_items(), d, &mut rng);
                let _ = Init::Uniform(0.1).build(g.num_relations().max(1), d, &mut rng);
                (pre.user.clone(), pre.item.clone(), pre.rel.clone())
            }
            None => (
                Init::Uniform(0.1).build(g.num_users(), d, &mut rng),
                Init::Uniform(0.1).build(g.num_items(), d, &mut rng),
                Init::Uniform(0.1).build(g.num_relations().max(1), d, &mut rng),
            ),
        };
        let e_user = params.add("e_user", init_user);
        let e_item = params.add("e_item", init_item);
        let e_rel = params.add("e_rel", init_rel);

        let mut banks = Vec::with_capacity(MemoryBankKind::ALL.len());
        for kind in MemoryBankKind::ALL {
            // One Xavier draw per d×d unit, not one over d×|M|·d: the fan-out
            // of each W¹_m is d, and a single wide draw would shrink every
            // unit's scale by sqrt(2 / (|M| + 1)).
            let units: Vec<Matrix> =
                (0..m).map(|_| Init::XavierUniform.build(d, d, &mut rng)).collect();
            let w1 = params.add(
                format!("{kind:?}/w1"),
                Matrix::concat_cols(&units.iter().collect::<Vec<_>>()),
            );
            let w2 = params.add(format!("{kind:?}/w2"), Init::XavierUniform.build(d, m, &mut rng));
            let bias = params.add(format!("{kind:?}/b"), Matrix::zeros(1, m));
            banks.push(Bank { w1, w2, bias });
        }

        let has_knowledge = cfg.use_knowledge && g.num_relations() > 0;
        let mut ln = Vec::new();
        let mut ln_rel = Vec::new();
        for layer in 0..cfg.layers {
            for ty in ["user", "item"] {
                let scale = params.add(format!("ln/{ty}/{layer}/scale"), Matrix::full(1, d, 1.0));
                let bias = params.add(format!("ln/{ty}/{layer}/bias"), Matrix::zeros(1, d));
                ln.push(LnAffine { scale, bias });
            }
            // The final layer never updates relation nodes (their only
            // consumer is the next layer's item aggregation), so its
            // affine would be a parameter with no gradient path.
            if has_knowledge && layer + 1 < cfg.layers {
                let scale = params.add(format!("ln/rel/{layer}/scale"), Matrix::full(1, d, 1.0));
                let bias = params.add(format!("ln/rel/{layer}/bias"), Matrix::zeros(1, d));
                ln_rel.push(LnAffine { scale, bias });
            }
        }

        let adj = build_adjacencies(g, cfg);
        self.handles = Some(Handles {
            e_user,
            e_item,
            e_rel,
            banks,
            ln,
            ln_rel,
            adj,
            num_rels: g.num_relations(),
        });
        self.params = params;
    }

    /// Serializes the trained model — every parameter, the final
    /// propagated embeddings and the per-user seen-item lists — into a
    /// [`Checkpoint`].
    ///
    /// A serving [`dgnn_serve::Engine`] built from this checkpoint scores
    /// `final/user_scoring`, the table [`Recommender::score`] dots (the
    /// Eq. 9–10 recalibration already applied when it is on), with the
    /// same sequential dot product, so served scores are bit-identical to
    /// [`Recommender::score`] on this model.
    ///
    /// [`Checkpoint`]: dgnn_serve::Checkpoint
    ///
    /// # Panics
    /// Panics if the model has not been trained.
    pub fn export_checkpoint(&self, dataset: &str) -> dgnn_serve::Checkpoint {
        assert!(!self.user_scoring.is_empty(), "export_checkpoint before fit");
        #[expect(
            clippy::expect_used,
            reason = "user_scoring is set only by finalize, after init_params"
        )]
        let handles = self.handles.as_ref().expect("trained model has handles");
        let mut ckpt = dgnn_serve::Checkpoint::new();
        ckpt.set_meta("model", self.name());
        ckpt.set_meta("dataset", dataset);
        for (k, v) in self.cfg.to_meta() {
            ckpt.set_meta(&k, &v);
        }
        for id in self.params.ids() {
            ckpt.push_matrix(&format!("param/{}", self.params.name(id)), self.params.value(id));
        }
        ckpt.push_matrix("final/user", &self.user_final);
        ckpt.push_matrix("final/user_scoring", &self.user_scoring);
        ckpt.push_matrix("final/item", &self.item_final);
        ckpt.push_matrix("final/attn_social", &self.attn_social);
        ckpt.push_matrix("final/attn_interaction", &self.attn_interaction);
        // Seen lists come from the user←item edges: the sources of user u's
        // segment are exactly u's training interactions.
        let uv = handles.adj.uv.edges();
        let indptr = uv.seg.iter().map(|&p| p as u32).collect();
        let items = uv.src.iter().map(|&v| v as u32).collect();
        ckpt.push_u32("seen/indptr", indptr);
        ckpt.push_u32("seen/items", items);
        ckpt
    }

    /// [`Dgnn::export_checkpoint`] + write to `path`.
    ///
    /// # Panics
    /// Panics if the model has not been trained.
    pub fn save_checkpoint(
        &self,
        dataset: &str,
        path: &std::path::Path,
    ) -> Result<(), dgnn_serve::CheckpointError> {
        self.export_checkpoint(dataset).save(path)
    }

    /// Restores a model from a checkpoint written by
    /// [`Dgnn::save_checkpoint`]: the configuration, every parameter (in
    /// registration order, under their original names), and the cached
    /// final embeddings — [`Recommender::score`] answers immediately and
    /// bit-identically to the saved model.
    ///
    /// The graph handles are *not* restored (they derive from a dataset,
    /// not from parameters); refitting re-initializes from the dataset as
    /// usual.
    pub fn load_checkpoint(path: &std::path::Path) -> Result<Self, dgnn_serve::CheckpointError> {
        use dgnn_serve::CheckpointError;
        let ckpt = dgnn_serve::Checkpoint::load(path)?;
        match ckpt.meta("model") {
            Some("DGNN") => {}
            other => {
                return Err(CheckpointError::MetaMismatch(format!(
                    "expected model=DGNN, found {other:?}"
                )))
            }
        }
        let cfg = DgnnConfig::from_meta(&|k| ckpt.meta(k).map(str::to_string))
            .map_err(CheckpointError::MetaMismatch)?;
        let mut model = Dgnn::new(cfg);
        for t in ckpt.tensors() {
            if let Some(name) = t.name.strip_prefix("param/") {
                model.params.add(name, ckpt.matrix(&t.name)?);
            }
        }
        model.user_final = ckpt.matrix("final/user")?;
        model.user_scoring = ckpt.matrix("final/user_scoring")?;
        model.item_final = ckpt.matrix("final/item")?;
        model.attn_social = ckpt.matrix("final/attn_social")?;
        model.attn_interaction = ckpt.matrix("final/attn_interaction")?;
        // The scorer dots user_scoring rows against item_final rows, so the
        // two caches must agree on width (the *concatenated* final dim —
        // wider than cfg/dim, which is the per-layer width).
        if model.user_scoring.cols() != model.item_final.cols() || model.user_scoring.is_empty() {
            return Err(CheckpointError::BadShape(format!(
                "scoring dims disagree: user {} vs item {}",
                model.user_scoring.cols(),
                model.item_final.cols()
            )));
        }
        Ok(model)
    }

    /// Recomputes and caches the final embeddings and attention dumps from
    /// the current parameters.
    fn finalize(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "fit_epochs, the only caller, runs init_params first"
        )]
        let handles = self.handles.as_ref().expect("finalize after init");
        let mut tape = Tape::new();
        let fwd = forward(&mut tape, &self.params, handles, &self.cfg);
        self.user_scoring = tape.value(fwd.user_scoring).clone();
        self.user_final = tape.value(fwd.user_final).clone();
        self.item_final = tape.value(fwd.item_final).clone();
        self.attn_social = tape.value(fwd.attn_social).clone();
        self.attn_interaction = tape.value(fwd.attn_interaction).clone();
    }
}

impl Recommender for Dgnn {
    fn name(&self) -> &str {
        "DGNN"
    }

    fn score(&self, user: usize, items: &[usize]) -> Vec<f32> {
        assert!(!self.user_scoring.is_empty(), "Dgnn::score called before fit");
        // Routed through the GEMM entry points (not a hand-rolled dot
        // loop) so the fold order matches the serving engine's on every
        // `DGNN_GEMM` backend: a checkpointed model must serve these
        // exact bits.
        let u = self.user_scoring.gather_rows(&[user]);
        u.matmul_nt(&self.item_final.gather_rows(items)).as_slice().to_vec()
    }
}

impl Trainable for Dgnn {
    fn fit(&mut self, data: &Dataset, seed: u64) {
        self.fit_epochs(data, seed, |_, _, _| {});
    }
}

/// One training step's graph — the forward pass plus BPR loss over
/// `triples` — behind both [`Dgnn::record_step`] and the step `fit_epochs`
/// differentiates.
fn bpr_step<R: Recorder>(
    rec: &mut R,
    params: &ParamSet,
    handles: &Handles,
    cfg: &DgnnConfig,
    triples: &[Triple],
) -> Var {
    let _span = dgnn_obs::span("dgnn/record_step");
    let fwd = forward(rec, params, handles, cfg);
    let users: Rc<Vec<usize>> = Rc::new(triples.iter().map(|t| t.user as usize).collect());
    let pos: Rc<Vec<usize>> = Rc::new(triples.iter().map(|t| t.pos as usize).collect());
    let neg: Rc<Vec<usize>> = Rc::new(triples.iter().map(|t| t.neg as usize).collect());
    let ue = rec.gather(fwd.user_scoring, users);
    let pe = rec.gather(fwd.item_final, pos);
    let ne = rec.gather(fwd.item_final, neg);
    let ps = rec.row_dots(ue, pe);
    let ns = rec.row_dots(ue, ne);
    rec.bpr_loss(ps, ns)
}

/// Forward-pass outputs (tape variables).
struct Forward {
    user_scoring: Var,
    user_final: Var,
    item_final: Var,
    attn_social: Var,
    attn_interaction: Var,
}

/// Memory-augmented encoding of a node family's features (Eq. 3): returns
/// `(Σ_m η_m ⊙ (H·W¹_m), η)`, computed as one GEMM against the bank's
/// `[W¹_1 | … | W¹_M]` followed by the η-weighted block reduce. With
/// `use_memory` off (`-M` ablation) the bank holds a single `d × d` unit
/// and the encoding is the plain transform `H·W¹`.
fn encode<R: Recorder>(
    tape: &mut R,
    params: &ParamSet,
    bank: &Bank,
    h: Var,
    cfg: &DgnnConfig,
) -> (Var, Var) {
    let w2 = tape.param(params, bank.w2);
    let b = tape.param(params, bank.bias);
    let logits = tape.matmul(h, w2);
    let logits = tape.add_row(logits, b);
    let eta = tape.leaky_relu(logits, cfg.leaky_slope);
    let w1 = tape.param(params, bank.w1);
    let transformed = tape.matmul(h, w1);
    if !cfg.use_memory {
        return (transformed, eta);
    }
    (tape.weighted_block_sum(transformed, eta), eta)
}

/// Eq. 7: LayerNorm (with learned affine ω₁/ω₂) + activation + encoded
/// self-propagation.
fn layer_update<R: Recorder>(
    tape: &mut R,
    params: &ParamSet,
    cfg: &DgnnConfig,
    agg: Var,
    h_prev: Var,
    self_bank: &Bank,
    ln: &LnAffine,
) -> Var {
    let normed = if cfg.use_layer_norm {
        let n = tape.layer_norm_rows(agg, 1e-5);
        let scale = tape.param(params, ln.scale);
        let bias = tape.param(params, ln.bias);
        let n = tape.mul_row(n, scale);
        tape.add_row(n, bias)
    } else {
        agg
    };
    let activated = tape.leaky_relu(normed, cfg.leaky_slope);
    let (self_msg, _) = encode(tape, params, self_bank, h_prev, cfg);
    tape.add(activated, self_msg)
}

/// Full DGNN forward pass (Alg. 1 lines 4–19).
fn forward<R: Recorder>(tape: &mut R, params: &ParamSet, h: &Handles, cfg: &DgnnConfig) -> Forward {
    let bank = |k: MemoryBankKind| &h.banks[k.index()];
    let has_knowledge = cfg.use_knowledge && h.num_rels > 0;

    let mut hu = tape.param(params, h.e_user);
    let mut hv = tape.param(params, h.e_item);
    let mut hr = tape.param(params, h.e_rel);

    let mut layers_u = vec![hu];
    let mut layers_v = vec![hv];
    let mut last_attn_social = None;
    let mut last_attn_interaction = None;

    for layer in 0..cfg.layers {
        // -- per-source transformed messages (the factored Eq. 3) --------
        let (msg_social, attn_social) =
            encode(tape, params, bank(MemoryBankKind::SocialToUser), hu, cfg);
        let (msg_item_to_user, _) = encode(tape, params, bank(MemoryBankKind::ItemToUser), hv, cfg);
        let (msg_user_to_item, attn_interaction) =
            encode(tape, params, bank(MemoryBankKind::UserToItem), hu, cfg);
        last_attn_social = Some(attn_social);
        last_attn_interaction = Some(attn_interaction);

        // -- user aggregation (Eq. 4) -------------------------------------
        let from_items = h.adj.uv.apply(tape, msg_item_to_user);
        let agg_u = if cfg.use_social {
            let from_social = h.adj.uu.apply(tape, msg_social);
            tape.add(from_social, from_items)
        } else {
            from_items
        };

        // -- item aggregation (Eq. 5) --------------------------------------
        let from_users = h.adj.vu.apply(tape, msg_user_to_item);
        let agg_v = if has_knowledge {
            let (msg_rel_to_item, _) =
                encode(tape, params, bank(MemoryBankKind::RelToItem), hr, cfg);
            let from_rels = h.adj.vr.apply(tape, msg_rel_to_item);
            tape.add(from_users, from_rels)
        } else {
            from_users
        };

        // -- relation-node aggregation (Eq. 6) ------------------------------
        // Updated relation embeddings are only read by the *next* layer's
        // item aggregation; at the final layer the update would be dead
        // compute (and its LN affine a gradient-free parameter), so skip it.
        let agg_r = if has_knowledge && layer + 1 < cfg.layers {
            let (msg_item_to_rel, _) =
                encode(tape, params, bank(MemoryBankKind::ItemToRel), hv, cfg);
            Some(h.adj.rv.apply(tape, msg_item_to_rel))
        } else {
            None
        };

        // -- Eq. 7 per node type --------------------------------------------
        let ln_base = layer * 2;
        hu = layer_update(
            tape,
            params,
            cfg,
            agg_u,
            hu,
            bank(MemoryBankKind::SelfUser),
            &h.ln[ln_base],
        );
        hv = layer_update(
            tape,
            params,
            cfg,
            agg_v,
            hv,
            bank(MemoryBankKind::SelfItem),
            &h.ln[ln_base + 1],
        );
        if let Some(agg_r) = agg_r {
            hr = layer_update(
                tape,
                params,
                cfg,
                agg_r,
                hr,
                bank(MemoryBankKind::SelfRel),
                &h.ln_rel[layer],
            );
        }

        layers_u.push(hu);
        layers_v.push(hv);
    }

    // -- Eq. 8: cross-layer aggregation ------------------------------------
    let cat_u = tape.concat_cols(&layers_u);
    let cat_v = tape.concat_cols(&layers_v);
    let user_final = tape.layer_norm_rows(cat_u, 1e-5);
    let item_final = tape.layer_norm_rows(cat_v, 1e-5);

    // -- Eq. 9–10: social recalibration τ -----------------------------------
    let user_scoring = if cfg.use_recalibration {
        let tau = h.adj.tau.apply(tape, user_final);
        tape.add(user_final, tau)
    } else {
        user_final
    };

    // Attention dumps come from the last layer's encoders; with L = 0 no
    // encoder ran, so compute them from the input embeddings directly.
    let (attn_social, attn_interaction) = match (last_attn_social, last_attn_interaction) {
        (Some(s), Some(i)) => (s, i),
        _ => {
            let (_, s) = encode(tape, params, bank(MemoryBankKind::SocialToUser), hu, cfg);
            let (_, i) = encode(tape, params, bank(MemoryBankKind::UserToItem), hu, cfg);
            (s, i)
        }
    };

    Forward { user_scoring, user_final, item_final, attn_social, attn_interaction }
}

/// Builds the jointly-normalized adjacency bundle of Eq. 4–6 and the τ
/// operator of Eq. 9.
fn build_adjacencies(g: &HeteroGraph, cfg: &DgnnConfig) -> Adjacencies {
    let nu = g.num_users();
    let nv = g.num_items();
    let nr = g.num_relations().max(1);

    // User rows: joint normalizer over social + interaction neighborhoods.
    let mut uu = CsrBuilder::new(nu, nu);
    let mut uv = CsrBuilder::new(nu, nv);
    for u in 0..nu {
        let deg_s = if cfg.use_social { g.friends_of(u).len() } else { 0 };
        let deg_y = g.items_of(u).len();
        let norm = 1.0 / (deg_s + deg_y).max(1) as f32;
        if cfg.use_social {
            for &f in g.friends_of(u) {
                uu.push(u, f, norm);
            }
        }
        for &v in g.items_of(u) {
            uv.push(u, v, norm);
        }
    }

    // Item rows: joint normalizer over interaction + knowledge.
    let has_knowledge = cfg.use_knowledge && g.num_relations() > 0;
    let mut vu = CsrBuilder::new(nv, nu);
    let mut vr = CsrBuilder::new(nv, nr);
    for v in 0..nv {
        let deg_y = g.users_of(v).len();
        let deg_t = if has_knowledge { g.ir().row_cols(v).len() } else { 0 };
        let norm = 1.0 / (deg_y + deg_t).max(1) as f32;
        for &u in g.users_of(v) {
            vu.push(v, u, norm);
        }
        if has_knowledge {
            for &r in g.ir().row_cols(v) {
                vr.push(v, r, norm);
            }
        }
    }

    // Relation rows: plain mean.
    let mut rv = CsrBuilder::new(nr, nv);
    if has_knowledge {
        for r in 0..g.num_relations() {
            let items = g.ri().row_cols(r);
            let norm = 1.0 / items.len().max(1) as f32;
            for &v in items {
                rv.push(r, v, norm);
            }
        }
    }

    // τ: social mean including self (Eq. 9). Without social edges it
    // degrades to the identity, matching the formula with |N^S| = 0.
    let mut tau = CsrBuilder::new(nu, nu);
    for u in 0..nu {
        let friends: &[usize] = if cfg.use_social { g.friends_of(u) } else { &[] };
        let norm = 1.0 / (friends.len() + 1) as f32;
        tau.push(u, u, norm);
        for &f in friends {
            tau.push(u, f, norm);
        }
    }

    let p = |b: CsrBuilder| Propagation::new(&b.build());
    Adjacencies { uu: p(uu), uv: p(uv), vu: p(vu), vr: p(vr), rv: p(rv), tau: p(tau) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_data::tiny;
    use dgnn_eval::evaluate_at;

    fn quick_cfg() -> DgnnConfig {
        DgnnConfig {
            dim: 8,
            layers: 2,
            memory_units: 4,
            epochs: 5,
            batch_size: 256,
            ..DgnnConfig::default()
        }
    }

    #[test]
    fn trains_and_beats_random_ranking() {
        let data = tiny(42);
        let mut model = Dgnn::new(quick_cfg());
        model.fit(&data, 7);
        let m = evaluate_at(&model, &data.test, 10);
        // Random ranking over 101 candidates gives HR@10 ≈ 0.099.
        assert!(m.hr > 0.15, "HR@10 {} not better than random", m.hr);
        assert!(model.loss_history.first() > model.loss_history.last());
    }

    #[test]
    fn embeddings_have_cross_layer_width() {
        let data = tiny(42);
        let cfg = quick_cfg();
        let width = (cfg.layers + 1) * cfg.dim;
        let mut model = Dgnn::new(cfg);
        model.fit(&data, 7);
        assert_eq!(model.user_embeddings().cols(), width);
        assert_eq!(model.item_embeddings().cols(), width);
        assert_eq!(model.user_embeddings().rows(), data.graph.num_users());
    }

    #[test]
    fn attention_dumps_have_memory_width() {
        let data = tiny(42);
        let cfg = quick_cfg();
        let m_units = cfg.memory_units;
        let mut model = Dgnn::new(cfg);
        model.fit(&data, 7);
        let a = model.memory_attention(MemoryBankKind::SocialToUser);
        assert_eq!(a.shape(), (data.graph.num_users(), m_units));
        let b = model.memory_attention(MemoryBankKind::UserToItem);
        assert_eq!(b.shape(), (data.graph.num_users(), m_units));
    }

    #[test]
    fn zero_layers_still_works() {
        let data = tiny(42);
        let mut model = Dgnn::new(DgnnConfig { layers: 0, ..quick_cfg() });
        model.fit(&data, 7);
        let m = evaluate_at(&model, &data.test, 10);
        assert!(m.hr > 0.0);
    }

    #[test]
    fn all_ablations_train() {
        let data = tiny(42);
        let base = DgnnConfig { epochs: 2, ..quick_cfg() };
        let variants = [
            base.clone().without_memory(),
            base.clone().without_recalibration(),
            base.clone().without_layer_norm(),
            base.clone().without_social(),
            base.clone().without_knowledge(),
            base.clone().without_social_and_knowledge(),
        ];
        for cfg in variants {
            let mut model = Dgnn::new(cfg.clone());
            model.fit(&data, 7);
            let m = evaluate_at(&model, &data.test, 10);
            assert!(m.hr.is_finite(), "{cfg:?} produced NaN metrics");
        }
    }

    #[test]
    fn fit_epochs_hook_sees_training_progress() {
        let data = tiny(42);
        let mut model = Dgnn::new(DgnnConfig { epochs: 3, ..quick_cfg() });
        let mut seen = Vec::new();
        model.fit_epochs(&data, 7, |m, epoch, loss| {
            // Model is scoreable inside the hook.
            let metrics = evaluate_at(m, &data.test, 10);
            seen.push((epoch, loss, metrics.hr));
        });
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|(_, l, _)| l.is_finite()));
    }

    #[test]
    fn training_is_seed_deterministic() {
        let data = tiny(42);
        let mut a = Dgnn::new(DgnnConfig { epochs: 2, ..quick_cfg() });
        let mut b = Dgnn::new(DgnnConfig { epochs: 2, ..quick_cfg() });
        a.fit(&data, 3);
        b.fit(&data, 3);
        assert_eq!(a.loss_history, b.loss_history);
        assert_eq!(a.user_embeddings().as_slice(), b.user_embeddings().as_slice());
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn scoring_untrained_model_panics() {
        let model = Dgnn::new(quick_cfg());
        model.score(0, &[1, 2]);
    }
}
