//! Every model in the Table II roster trains and evaluates sanely on the
//! tiny dataset — the smoke version of the full experiment grid — and the
//! DGNN variant grid (every ablation, `L ∈ {0, 1, 2}`) holds the fused
//! memory-bank encoder to the per-unit formulation it replaced.

use std::rc::Rc;

use dgnn_analysis::{audit, DiagnosticKind, ShapeTracer};
use dgnn_autograd::{ParamId, ParamSet, Recorder, Rows, Tape, Var};
use dgnn_baselines::all_models;
use dgnn_core::{Dgnn, DgnnConfig, MemoryBankKind};
use dgnn_data::tiny;
use dgnn_eval::{evaluate_at, Recommender, Trainable};
use dgnn_integration_tests::{quick_baseline, quick_dgnn, sample_triples};
use dgnn_tensor::{Init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn all_fifteen_models_produce_finite_metrics() {
    let data = tiny(42);
    let mut models = all_models(&quick_baseline());
    for model in &mut models {
        model.fit(&data, 7);
        let m = evaluate_at(model.as_ref(), &data.test, 10);
        assert!(m.hr.is_finite() && m.ndcg.is_finite(), "{} produced NaN", model.name());
        assert!((0.0..=1.0).contains(&m.hr), "{} HR out of range", model.name());
        assert!(m.ndcg <= m.hr + 1e-12, "{} NDCG exceeds HR bound", model.name());
    }
    let mut dgnn = Dgnn::new(quick_dgnn());
    dgnn.fit(&data, 7);
    let m = evaluate_at(&dgnn, &data.test, 10);
    assert!(m.hr.is_finite());
}

#[test]
fn model_names_are_unique() {
    let models = all_models(&quick_baseline());
    let mut names: Vec<&str> = models.iter().map(|m| m.name()).collect();
    names.push("DGNN");
    let mut deduped = names.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), names.len(), "duplicate model names: {names:?}");
}

#[test]
fn refitting_resets_state() {
    // Fitting the same model twice on different data must not leak state:
    // metrics are those of the second fit.
    let data_a = tiny(42);
    let data_b = tiny(43);
    let mut once = Dgnn::new(quick_dgnn());
    once.fit(&data_b, 7);
    let mut twice = Dgnn::new(quick_dgnn());
    twice.fit(&data_a, 7);
    twice.fit(&data_b, 7);
    let m_once = evaluate_at(&once, &data_b.test, 10);
    let m_twice = evaluate_at(&twice, &data_b.test, 10);
    assert_eq!(m_once.hr, m_twice.hr, "second fit must fully reset the model");
}

// ---------------------------------------------------------------------------
// Fused memory-bank encoder vs the per-unit formulation (Eq. 3).
// ---------------------------------------------------------------------------

/// Every ablation switch plus the layer sweep, on the quick preset.
fn dgnn_variants() -> Vec<(&'static str, DgnnConfig)> {
    let base = quick_dgnn();
    vec![
        ("full", base.clone()),
        ("-M", base.clone().without_memory()),
        ("-tau", base.clone().without_recalibration()),
        ("-LN", base.clone().without_layer_norm()),
        ("-S", base.clone().without_social()),
        ("-T", base.clone().without_knowledge()),
        ("-ST", base.clone().without_social_and_knowledge()),
        ("L=0", DgnnConfig { layers: 0, ..base.clone() }),
        ("L=1", DgnnConfig { layers: 1, ..base }),
    ]
}

/// The reference the fused op is held to: a recorder that forwards every op
/// to a [`Tape`] unchanged, except that `weighted_block_sum` is expanded
/// into the per-memory-unit `slice_cols → mul_col → add` chain the encoder
/// recorded before the op existed.
struct PerUnitOracle(Tape);

macro_rules! forward_to_tape {
    ($(fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*);)*) => {
        $(fn $name(&mut self $(, $arg: $ty)*) -> Var {
            self.0.$name($($arg),*)
        })*
    };
}

impl Recorder for PerUnitOracle {
    fn weighted_block_sum(&mut self, t: Var, eta: Var) -> Var {
        let units = self.0.shape(eta).1;
        let b = self.0.shape(t).1 / units;
        let mut acc: Option<Var> = None;
        for m in 0..units {
            let block = self.0.slice_cols(t, m * b, (m + 1) * b);
            let eta_m = self.0.slice_cols(eta, m, m + 1);
            let weighted = self.0.mul_col(block, eta_m);
            acc = Some(match acc {
                Some(a) => self.0.add(a, weighted),
                None => weighted,
            });
        }
        acc.expect("at least one memory unit")
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.0.shape(v)
    }

    fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        self.0.param(params, id)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        self.0.concat_cols(parts)
    }

    forward_to_tape! {
        fn constant(&mut self, value: Matrix);
        fn add(&mut self, a: Var, b: Var);
        fn sub(&mut self, a: Var, b: Var);
        fn mul(&mut self, a: Var, b: Var);
        fn neg(&mut self, a: Var);
        fn scale(&mut self, a: Var, k: f32);
        fn add_scalar(&mut self, a: Var, k: f32);
        fn matmul(&mut self, a: Var, b: Var);
        fn transpose(&mut self, a: Var);
        fn sigmoid(&mut self, a: Var);
        fn tanh(&mut self, a: Var);
        fn leaky_relu(&mut self, a: Var, alpha: f32);
        fn relu(&mut self, a: Var);
        fn exp(&mut self, a: Var);
        fn softplus(&mut self, a: Var);
        fn ln(&mut self, a: Var);
        fn div(&mut self, a: Var, b: Var);
        fn sqrt(&mut self, a: Var);
        fn add_row(&mut self, a: Var, row: Var);
        fn mul_row(&mut self, a: Var, row: Var);
        fn mul_col(&mut self, a: Var, col: Var);
        fn sum_all(&mut self, a: Var);
        fn mean_all(&mut self, a: Var);
        fn row_sum(&mut self, a: Var);
        fn col_mean(&mut self, a: Var);
        fn slice_cols(&mut self, a: Var, start: usize, end: usize);
        fn gather(&mut self, a: Var, idx: Rc<Vec<usize>>);
        fn layer_norm_rows(&mut self, a: Var, eps: f32);
        fn l2_normalize_rows(&mut self, a: Var, eps: f32);
        fn l2_normalize_heads(&mut self, a: Var, eps: f32, heads: usize);
        fn row_dots(&mut self, a: Var, b: Var);
        fn head_dots(&mut self, a: impl Into<Rows>, b: impl Into<Rows>, heads: usize);
        fn softmax_rows(&mut self, a: Var);
        fn segment_softmax(&mut self, logits: Var, seg: Rc<Vec<usize>>);
        fn segment_weighted_sum(&mut self, w: Var, v: impl Into<Rows>, seg: Rc<Vec<usize>>);
        fn dropout_mask(&mut self, a: Var, mask: Matrix);
    }
}

/// A second `ParamSet` with the model's values under the same ids, to
/// receive gradients (`Dgnn::params` is read-only).
fn shadow_params(model: &Dgnn) -> ParamSet {
    let mut shadow = ParamSet::new();
    for id in model.params().ids() {
        shadow.add(model.params().name(id), model.params().value(id).clone());
    }
    shadow
}

#[test]
fn bank_init_is_one_xavier_draw_per_unit_in_rng_order() {
    // The d × M·d bank parameter must hold exactly the M d×d Xavier draws
    // the per-unit layout made, in the same RNG order — a single Xavier draw
    // over (d, M·d) would silently shrink every unit.
    let data = tiny(42);
    let g = &data.graph;
    let cfg = quick_dgnn();
    let (d, m) = (cfg.dim, cfg.memory_units);
    let mut model = Dgnn::new(cfg);
    model.prepare(g, 7);
    let params = model.params();
    let by_name = |name: &str| {
        let id = params.ids().find(|&id| params.name(id) == name);
        params.value(id.unwrap_or_else(|| panic!("no parameter named {name}")))
    };

    let mut rng = StdRng::seed_from_u64(7);
    for rows in [g.num_users(), g.num_items(), g.num_relations().max(1)] {
        let _ = Init::Uniform(0.1).build(rows, d, &mut rng);
    }
    for kind in MemoryBankKind::ALL {
        let w1 = by_name(&format!("{kind:?}/w1"));
        assert_eq!(w1.shape(), (d, m * d), "{kind:?}/w1 shape");
        for unit in 0..m {
            let want = Init::XavierUniform.build(d, d, &mut rng);
            assert_eq!(
                w1.slice_cols(unit * d, (unit + 1) * d).as_slice(),
                want.as_slice(),
                "{kind:?}/w1 block {unit}"
            );
        }
        let want_w2 = Init::XavierUniform.build(d, m, &mut rng);
        assert_eq!(by_name(&format!("{kind:?}/w2")).as_slice(), want_w2.as_slice());
    }
}

#[test]
fn first_step_matches_the_per_unit_oracle() {
    let data = tiny(42);
    let triples = sample_triples(&data);
    for (name, cfg) in dgnn_variants() {
        let mut model = Dgnn::new(cfg);
        model.prepare(&data.graph, 7);

        let mut fused_params = shadow_params(&model);
        let mut fused = Tape::new();
        let loss = model.record_step(&mut fused, &triples);
        let fused_loss = fused.backward_into(loss, &mut fused_params);

        let mut oracle_params = shadow_params(&model);
        let mut oracle = PerUnitOracle(Tape::new());
        let loss = model.record_step(&mut oracle, &triples);
        let oracle_loss = oracle.0.backward_into(loss, &mut oracle_params);

        assert!(
            (fused_loss - oracle_loss).abs() <= 1e-6,
            "{name}: first-step loss {fused_loss} vs per-unit oracle {oracle_loss}"
        );
        for id in fused_params.ids() {
            let (got, want) = (fused_params.grad(id), oracle_params.grad(id));
            let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (x - y).abs() <= 1e-5 * scale,
                    "{name}: gradient of {} differs from the per-unit oracle: {x} vs {y}",
                    fused_params.name(id)
                );
            }
        }
    }
}

#[test]
fn every_dgnn_variant_trains_audits_and_round_trips() {
    let data = tiny(42);
    let triples = sample_triples(&data);
    let items: Vec<usize> = (0..data.graph.num_items()).collect();
    for (name, cfg) in dgnn_variants() {
        let uses_memory = cfg.use_memory;
        let mut model = Dgnn::new(cfg);

        // Static audit of the exact training graph. Ablations leave the
        // parameters of the pathway they remove unused (as before the
        // fusion); what the bank layout must not add is a shape or domain
        // finding, or a `w1` that is dead while its own bank's attention
        // projection `w2` is live (or the reverse).
        model.prepare(&data.graph, 7);
        let mut tr = ShapeTracer::new();
        let loss = model.record_step(&mut tr, &triples);
        let report = audit(&tr, loss, &[], model.params());
        for kind in [
            DiagnosticKind::ShapeMismatch,
            DiagnosticKind::IndexRange,
            DiagnosticKind::UnstableDomain,
        ] {
            assert!(!report.has(kind), "{name}: {kind:?} in the training graph:\n{report}");
        }
        if matches!(name, "full" | "-tau") {
            assert!(report.is_clean(), "{name}: training graph is not clean:\n{report}");
        }
        if uses_memory {
            let unused = |suffix: &str| {
                report
                    .diagnostics()
                    .iter()
                    .filter(|d| d.kind == DiagnosticKind::UnusedParam)
                    .filter(|d| d.message.contains(suffix))
                    .count()
            };
            assert_eq!(unused("/w1`"), unused("/w2`"), "{name}: half-dead bank:\n{report}");
        }

        model.fit(&data, 7);
        let m = evaluate_at(&model, &data.test, 10);
        assert!(m.hr.is_finite() && m.ndcg.is_finite(), "{name} produced NaN metrics");
        assert!(model.loss_history.iter().all(|l| l.is_finite()), "{name}: non-finite loss");

        let path = std::env::temp_dir().join(format!(
            "dgnn-grid-{}-{}.ckpt",
            std::process::id(),
            name.replace('=', "")
        ));
        model.save_checkpoint(&data.name, &path).expect("checkpoint saves");
        let restored = Dgnn::load_checkpoint(&path).expect("checkpoint loads");
        std::fs::remove_file(&path).ok();
        for user in [0, data.graph.num_users() / 2, data.graph.num_users() - 1] {
            let (a, b) = (model.score(user, &items), restored.score(user, &items));
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: restored scores differ for user {user}"
            );
        }
    }
}
