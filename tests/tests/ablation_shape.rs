//! Shape tests for the paper's core claims at miniature scale: the
//! heterogeneous context must genuinely help, and the disentangled
//! machinery must expose it.

use dgnn_core::Dgnn;
use dgnn_data::tiny;
use dgnn_eval::{evaluate_at, Trainable};
use dgnn_integration_tests::quick_dgnn;

/// Averages HR@10 over a few seeds to damp single-seed noise.
fn mean_hr(cfg: dgnn_core::DgnnConfig, seeds: &[u64]) -> f64 {
    let data = tiny(42);
    seeds
        .iter()
        .map(|&s| {
            let mut m = Dgnn::new(cfg.clone());
            m.fit(&data, s);
            evaluate_at(&m, &data.test, 10).hr
        })
        .sum::<f64>()
        / seeds.len() as f64
}

#[test]
fn removing_all_context_hurts() {
    // Figure 5's strongest claim, miniature: -ST must not beat the full
    // model by a meaningful margin (and usually loses). The synthetic
    // world plants social homophily and category structure, so this tests
    // that DGNN actually extracts them.
    let seeds = [1, 2, 3];
    let full = mean_hr(quick_dgnn(), &seeds);
    let stripped = mean_hr(quick_dgnn().without_social_and_knowledge(), &seeds);
    assert!(
        full >= stripped - 0.02,
        "full model ({full:.4}) lost to -ST ({stripped:.4})"
    );
}

#[test]
fn propagation_beats_no_propagation() {
    // Figure 7's L-sweep claim, miniature: L = 2 beats L = 0.
    let seeds = [1, 2, 3];
    let l2 = mean_hr(quick_dgnn(), &seeds);
    let l0 = mean_hr(dgnn_core::DgnnConfig { layers: 0, ..quick_dgnn() }, &seeds);
    assert!(
        l2 > l0 - 0.02,
        "propagation (L=2, {l2:.4}) should not lose to embeddings-only (L=0, {l0:.4})"
    );
}

#[test]
fn attention_vectors_differ_between_banks() {
    // Figure 10's premise: the social and interaction banks learn
    // *different* attention patterns (otherwise disentanglement is a
    // no-op).
    let data = tiny(42);
    let mut model = Dgnn::new(quick_dgnn());
    model.fit(&data, 7);
    let social = model.memory_attention(dgnn_core::MemoryBankKind::SocialToUser);
    let inter = model.memory_attention(dgnn_core::MemoryBankKind::UserToItem);
    let diff = social.sub(inter).sq_norm();
    assert!(diff > 1e-4, "banks collapsed to identical attention ({diff})");
}

// ---------------------------------------------------------------------------
// Static analysis: the ShapeTracer abstract-interprets the *identical*
// graph-building code the trainer runs (both go through `R: Recorder`), so
// these checks hold for the real training step — and they run before a
// single FLOP of training.
// ---------------------------------------------------------------------------

mod static_analysis {
    use std::rc::Rc;

    use dgnn_analysis::{audit, DiagnosticKind, ShapeTracer};
    use dgnn_autograd::{ParamSet, Recorder, Rows};
    use dgnn_baselines::{Dgcf, DisenHan, Hgt, Mhcn, Ngcf};
    use dgnn_core::Dgnn;
    use dgnn_data::tiny;
    use dgnn_integration_tests::{quick_baseline, quick_dgnn, sample_triples};
    use dgnn_tensor::{EdgeList, Init, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // --- positive: the paper's model and every traced baseline are clean ---

    #[test]
    fn dgnn_training_graph_audits_clean() {
        let data = tiny(42);
        let triples = sample_triples(&data);
        let mut model = Dgnn::new(quick_dgnn());
        model.prepare(&data.graph, 7);
        let mut tr = ShapeTracer::new();
        let loss = model.record_step(&mut tr, &triples);
        let report = audit(&tr, loss, &[], model.params());
        assert!(report.is_clean(), "DGNN training graph is not clean:\n{report}");
        assert!(tr.num_nodes() > 50, "suspiciously small trace: {}", tr.num_nodes());
    }

    #[test]
    fn traced_baselines_audit_clean() {
        let data = tiny(42);
        let triples = sample_triples(&data);
        let checks: Vec<(&str, Box<dyn Fn(&mut ShapeTracer) -> (ParamSet, _)>)> = vec![
            ("NGCF", Box::new(|tr: &mut ShapeTracer| {
                Ngcf::trace_step(&quick_baseline(), &data, &triples, 7, tr)
            })),
            ("MHCN", Box::new(|tr: &mut ShapeTracer| {
                Mhcn::trace_step(&quick_baseline(), &data, &triples, 7, tr)
            })),
            ("DGCF", Box::new(|tr: &mut ShapeTracer| {
                Dgcf::trace_step(&quick_baseline(), &data, &triples, 7, tr)
            })),
            ("DisenHAN", Box::new(|tr: &mut ShapeTracer| {
                DisenHan::trace_step(&quick_baseline(), &data, &triples, 7, tr)
            })),
            ("HGT", Box::new(|tr: &mut ShapeTracer| {
                Hgt::trace_step(&quick_baseline(), &data, &triples, 7, tr)
            })),
        ];
        for (name, trace) in checks {
            let mut tr = ShapeTracer::new();
            let (params, loss) = trace(&mut tr);
            let report = audit(&tr, loss, &[], &params);
            assert!(report.is_clean(), "{name} training graph is not clean:\n{report}");
        }
    }

    // --- negative: every diagnostic class fires on a deliberately broken
    //     graph, caught at trace time — before any training step ---

    fn leaf(params: &mut ParamSet, name: &str, r: usize, c: usize) -> dgnn_autograd::ParamId {
        params.add(name, Init::XavierUniform.build(r, c, &mut StdRng::seed_from_u64(1)))
    }

    #[test]
    fn detects_shape_mismatch() {
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 5, 3); // wrong: x is n×4, w must be 4×d
        let mut tr = ShapeTracer::new();
        let x = tr.constant(Matrix::zeros(8, 4));
        let wv = tr.param(&params, w);
        let h = tr.matmul(x, wv);
        let loss = tr.mean_all(h);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::ShapeMismatch), "no mismatch reported:\n{report}");
    }

    #[test]
    fn detects_ragged_memory_blocks() {
        // 10 columns do not split into 3 equal memory-unit blocks: a
        // trace-time diagnostic, where the tape would panic mid-step.
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w_stack", 4, 10);
        let mut tr = ShapeTracer::new();
        let x = tr.constant(Matrix::zeros(8, 4));
        let eta = tr.constant(Matrix::zeros(8, 3));
        let wv = tr.param(&params, w);
        let blocks = tr.matmul(x, wv);
        let out = tr.weighted_block_sum(blocks, eta);
        let loss = tr.mean_all(out);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::ShapeMismatch), "no mismatch reported:\n{report}");
    }

    #[test]
    fn detects_ragged_intent_blocks() {
        // 10 columns do not split into DGCF's 4 intent blocks.
        let mut params = ParamSet::new();
        let emb = leaf(&mut params, "emb", 8, 10);
        let mut tr = ShapeTracer::new();
        let table = tr.param(&params, emb);
        let normed = tr.l2_normalize_heads(table, 1e-9, 4);
        let loss = tr.mean_all(normed);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::ShapeMismatch), "no mismatch reported:\n{report}");
    }

    #[test]
    fn detects_index_range_violation() {
        let mut params = ParamSet::new();
        let emb = leaf(&mut params, "emb", 10, 4);
        let mut tr = ShapeTracer::new();
        let table = tr.param(&params, emb);
        // Index 10 is one past the declared 10-row table.
        let rows = tr.gather(table, Rc::new(vec![0, 3, 10]));
        let loss = tr.mean_all(rows);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::IndexRange), "no index violation reported:\n{report}");
    }

    #[test]
    fn detects_out_of_range_edge_source() {
        // Two destinations, three sources; the list is then handed a source
        // the 3-row table does not have (its transpose goes stale too).
        let mut edges = EdgeList::new(vec![0, 2, 3], vec![0, 2, 1], 3);
        edges.src = Rc::new(vec![0, 3, 1]);
        let edges = Rc::new(edges);
        let mut params = ParamSet::new();
        let (q, k) = (leaf(&mut params, "q", 2, 4), leaf(&mut params, "k", 3, 4));
        let mut tr = ShapeTracer::new();
        let (qv, kv) = (tr.param(&params, q), tr.param(&params, k));
        let logits = tr.head_dots(Rows::dst(qv, &edges), Rows::src(kv, &edges), 2);
        let loss = tr.mean_all(logits);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::IndexRange), "no index violation reported:\n{report}");
        let messages: Vec<&str> = tr.diagnostics().iter().map(|d| d.message.as_str()).collect();
        assert!(messages.iter().any(|m| m.contains("src index 3 out of range")), "{messages:?}");
        assert!(messages.iter().any(|m| m.contains("transpose")), "{messages:?}");
    }

    #[test]
    fn table_reads_drop_hgt_and_dgcf_edge_gathers() {
        // Node counts per traced step of the gathered forms: HGT gathered
        // q, k and v for each of 5 edge families in 2 layers, DGCF two
        // tables per routing side that only one edge op reads.
        const HGT_GATHERED: usize = 159;
        const DGCF_GATHERED: usize = 55;
        let data = tiny(42);
        let triples = sample_triples(&data);
        let mut tr = ShapeTracer::new();
        let (params, loss) = Hgt::trace_step(&quick_baseline(), &data, &triples, 7, &mut tr);
        assert!(audit(&tr, loss, &[], &params).is_clean());
        assert_eq!(tr.num_nodes(), HGT_GATHERED - 30, "HGT records 30 gathers fewer per step");
        let mut tr = ShapeTracer::new();
        let (params, loss) = Dgcf::trace_step(&quick_baseline(), &data, &triples, 7, &mut tr);
        assert!(audit(&tr, loss, &[], &params).is_clean());
        assert_eq!(tr.num_nodes(), DGCF_GATHERED - 4, "DGCF records 4 gathers fewer per step");
    }

    #[test]
    fn detects_unused_param() {
        let mut params = ParamSet::new();
        let used = leaf(&mut params, "used", 4, 4);
        let _orphan = leaf(&mut params, "orphan", 4, 4);
        let mut tr = ShapeTracer::new();
        let x = tr.constant(Matrix::zeros(4, 4));
        let wv = tr.param(&params, used);
        let h = tr.matmul(x, wv);
        let loss = tr.mean_all(h);
        let report = audit(&tr, loss, &[], &params);
        assert_eq!(report.count(DiagnosticKind::UnusedParam), 1, "{report}");
    }

    #[test]
    fn detects_dead_subgraph() {
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 4, 4);
        let mut tr = ShapeTracer::new();
        let x = tr.constant(Matrix::zeros(4, 4));
        let wv = tr.param(&params, w);
        let h = tr.matmul(x, wv);
        // Recorded but never consumed: backward can never reach it.
        let dead = tr.sigmoid(h);
        let _ = dead;
        let loss = tr.mean_all(h);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::DeadSubgraph), "no dead subgraph reported:\n{report}");
    }

    #[test]
    fn detects_unstable_exp() {
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "logits", 4, 4);
        let mut tr = ShapeTracer::new();
        let wv = tr.param(&params, w);
        // exp of a raw parameter: overflows once the logits drift.
        let e = tr.exp(wv);
        let loss = tr.mean_all(e);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::UnstableDomain), "no stability hazard reported:\n{report}");
    }

    #[test]
    fn detects_unstable_ln() {
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 4, 4);
        let mut tr = ShapeTracer::new();
        let wv = tr.param(&params, w);
        // sigmoid is non-negative but underflows to exact 0.0, so ln of it
        // is not provably safe without the +ε idiom.
        let s = tr.sigmoid(wv);
        let l = tr.ln(s);
        let loss = tr.mean_all(l);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::UnstableDomain), "no ln-domain hazard reported:\n{report}");
    }

    #[test]
    fn ln_with_epsilon_is_accepted() {
        // The fix: ln(x + ε) with x ≥ 0 and ε > 0 is bounded away from zero.
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 4, 4);
        let mut tr = ShapeTracer::new();
        let wv = tr.param(&params, w);
        let s = tr.sigmoid(wv);
        let safe = tr.add_scalar(s, 1e-8);
        let l = tr.ln(safe);
        let loss = tr.mean_all(l);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.is_clean(), "ln(x + eps) should be clean:\n{report}");
    }

    #[test]
    fn detects_unstable_div() {
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 4, 4);
        let mut tr = ShapeTracer::new();
        let wv = tr.param(&params, w);
        let num = tr.sigmoid(wv);
        // Dividing by a softmax: rows underflow to exact zeros under drift.
        let den = tr.softmax_rows(wv);
        let q = tr.div(num, den);
        let loss = tr.mean_all(q);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::UnstableDomain), "no div-domain hazard reported:\n{report}");
    }

    #[test]
    fn div_by_shifted_denominator_is_accepted() {
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 4, 4);
        let mut tr = ShapeTracer::new();
        let wv = tr.param(&params, w);
        let num = tr.sigmoid(wv);
        let den_raw = tr.softmax_rows(wv);
        let den = tr.add_scalar(den_raw, 1e-8);
        let q = tr.div(num, den);
        let loss = tr.mean_all(q);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.is_clean(), "div by (x + eps) should be clean:\n{report}");
    }

    #[test]
    fn detects_unstable_sqrt() {
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 4, 4);
        let mut tr = ShapeTracer::new();
        // sqrt of a raw parameter: NaN for any negative entry.
        let wv = tr.param(&params, w);
        let r = tr.sqrt(wv);
        let loss = tr.mean_all(r);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.has(DiagnosticKind::UnstableDomain), "no sqrt-domain hazard reported:\n{report}");
    }

    #[test]
    fn sqrt_of_nonneg_is_accepted() {
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 4, 4);
        let mut tr = ShapeTracer::new();
        let wv = tr.param(&params, w);
        let sq = tr.mul(wv, wv);
        let r = tr.sqrt(sq);
        let loss = tr.mean_all(r);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.is_clean(), "sqrt of a square should be clean:\n{report}");
    }

    #[test]
    fn bounded_exp_is_accepted() {
        // The fix for the case above: squash before exponentiating.
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "logits", 4, 4);
        let mut tr = ShapeTracer::new();
        let wv = tr.param(&params, w);
        let t = tr.tanh(wv);
        let e = tr.exp(t);
        let loss = tr.mean_all(e);
        let report = audit(&tr, loss, &[], &params);
        assert!(report.is_clean(), "bounded exp should be clean:\n{report}");
    }

    #[test]
    fn declared_outputs_are_not_dead() {
        // Embeddings cached for inference are legitimate non-loss roots.
        let mut params = ParamSet::new();
        let w = leaf(&mut params, "w", 4, 4);
        let mut tr = ShapeTracer::new();
        let x = tr.constant(Matrix::zeros(4, 4));
        let wv = tr.param(&params, w);
        let h = tr.matmul(x, wv);
        let cached = tr.l2_normalize_rows(h, 1e-9);
        let loss = tr.mean_all(h);
        let with_decl = audit(&tr, loss, &[cached], &params);
        assert!(with_decl.is_clean(), "declared output flagged:\n{with_decl}");
        let without = audit(&tr, loss, &[], &params);
        assert!(without.has(DiagnosticKind::DeadSubgraph), "undeclared sink not flagged");
    }
}
