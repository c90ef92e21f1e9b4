//! Memory-plan integration tests: the golden bit-identity guarantee
//! (planned execution computes *exactly* the same floats as unplanned),
//! the independent safety proof over every traced model, the measured
//! allocation reduction the plan buys, and a property test that random
//! valid compute graphs always receive overlap-free plans.

use dgnn_analysis::{check_plan, plan, FreePoint, ShapeTracer};
use dgnn_baselines::{BaselineConfig, Dgcf, DisenHan, Gccf, Mhcn, Ngcf};
use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{tiny, TrainSampler};
use dgnn_eval::Trainable;
use dgnn_tensor::{alloc_counters, reset_alloc_counters, Matrix};
use dgnn_autograd::{ParamSet, Recorder, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 11;

fn quick_baseline() -> BaselineConfig {
    BaselineConfig { dim: 8, layers: 2, epochs: 3, batch_size: 256, ..Default::default() }
}

fn quick_dgnn() -> DgnnConfig {
    DgnnConfig {
        dim: 8,
        layers: 2,
        memory_units: 4,
        epochs: 3,
        batch_size: 256,
        ..Default::default()
    }
}

/// Bitwise equality for f32 slices — `==` would paper over `-0.0` and NaN
/// differences, and the golden guarantee is *bit* identity.
fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x:?} vs {y:?}"
        );
    }
}

/// Scores every test user against a fixed item slate — a dense probe of
/// the fitted model's observable state.
fn score_probe(model: &dyn dgnn_eval::Recommender, num_users: usize, num_items: usize) -> Vec<f32> {
    let items: Vec<usize> = (0..num_items).collect();
    (0..num_users).flat_map(|u| model.score(u, &items)).collect()
}

// ---------------------------------------------------------------------------
// Golden tests: planned execution is bit-identical to unplanned.
// ---------------------------------------------------------------------------

macro_rules! golden_baseline {
    ($test:ident, $ty:ident) => {
        #[test]
        fn $test() {
            let data = tiny(SEED);
            let (nu, nv) = (data.graph.num_users(), data.graph.num_items());

            let mut off = $ty::new(quick_baseline());
            off.fit(&data, SEED);
            let mut on = $ty::new(quick_baseline().with_memory_plan());
            on.fit(&data, SEED);

            assert_bits_eq(&loss_of(&off), &loss_of(&on), "loss history");
            assert_bits_eq(
                &score_probe(&off, nu, nv),
                &score_probe(&on, nu, nv),
                "scores",
            );
        }
    };
}

/// Uniform access to each baseline's per-epoch loss history.
trait LossHistory {
    fn history(&self) -> &[f32];
}
impl LossHistory for Ngcf {
    fn history(&self) -> &[f32] {
        self.loss_history()
    }
}
impl LossHistory for Gccf {
    fn history(&self) -> &[f32] {
        self.loss_history()
    }
}
impl LossHistory for Dgcf {
    fn history(&self) -> &[f32] {
        &self.loss_history
    }
}
impl LossHistory for Mhcn {
    fn history(&self) -> &[f32] {
        &self.loss_history
    }
}
impl LossHistory for DisenHan {
    fn history(&self) -> &[f32] {
        &self.loss_history
    }
}

fn loss_of(m: &impl LossHistory) -> Vec<f32> {
    m.history().to_vec()
}

golden_baseline!(ngcf_planned_is_bit_identical, Ngcf);
golden_baseline!(gccf_planned_is_bit_identical, Gccf);
golden_baseline!(dgcf_planned_is_bit_identical, Dgcf);
golden_baseline!(mhcn_planned_is_bit_identical, Mhcn);
golden_baseline!(disenhan_planned_is_bit_identical, DisenHan);

#[test]
fn dgnn_planned_is_bit_identical() {
    let data = tiny(SEED);
    let (nu, nv) = (data.graph.num_users(), data.graph.num_items());

    let mut off = Dgnn::new(quick_dgnn());
    off.fit(&data, SEED);
    let mut on = Dgnn::new(quick_dgnn().with_memory_plan());
    on.fit(&data, SEED);

    assert_bits_eq(&off.loss_history, &on.loss_history, "DGNN loss history");
    assert_bits_eq(
        off.user_embeddings().as_slice(),
        on.user_embeddings().as_slice(),
        "DGNN user embeddings",
    );
    assert_bits_eq(
        off.item_embeddings().as_slice(),
        on.item_embeddings().as_slice(),
        "DGNN item embeddings",
    );
    assert_bits_eq(&score_probe(&off, nu, nv), &score_probe(&on, nu, nv), "DGNN scores");
}

// ---------------------------------------------------------------------------
// Safety proof over every traced model.
// ---------------------------------------------------------------------------

#[test]
fn checker_proves_every_traced_model() {
    let data = tiny(SEED);
    let bcfg = quick_baseline();
    let probe = TrainSampler::new(&data.graph)
        .batch(&mut StdRng::seed_from_u64(SEED ^ 0x9E37_79B9), bcfg.batch_size);

    let mut traces: Vec<(&str, ShapeTracer, Var)> = Vec::new();

    let mut m = Dgnn::new(quick_dgnn());
    m.prepare(&data.graph, SEED);
    let mut tr = ShapeTracer::new();
    let loss = m.record_step(&mut tr, &probe);
    traces.push(("DGNN", tr, loss));

    macro_rules! trace_of {
        ($name:literal, $ty:ident) => {{
            let mut tr = ShapeTracer::new();
            let (_, loss) = $ty::trace_step(&bcfg, &data, &probe, SEED, &mut tr);
            traces.push(($name, tr, loss));
        }};
    }
    trace_of!("NGCF", Ngcf);
    trace_of!("GCCF", Gccf);
    trace_of!("DGCF", Dgcf);
    trace_of!("MHCN", Mhcn);
    trace_of!("DisenHAN", DisenHan);

    for (name, tracer, loss) in &traces {
        let mplan = plan(tracer, *loss, &[]);
        let proof = check_plan(tracer, *loss, &[], &mplan)
            .unwrap_or_else(|v| panic!("{name}: plan failed its safety proof: {v}"));
        assert!(proof.nodes > 0, "{name}: empty proof");
        assert!(
            mplan.num_frees() > 0,
            "{name}: plan frees nothing — planning is vacuous"
        );
        assert!(
            mplan.peak_live_bytes() < mplan.total_value_bytes(),
            "{name}: peak-live bytes did not improve on keep-everything"
        );
    }
}

// ---------------------------------------------------------------------------
// Measured allocation reduction.
// ---------------------------------------------------------------------------

#[test]
fn dgnn_plan_halves_step_allocations() {
    let data = tiny(SEED);

    reset_alloc_counters();
    Dgnn::new(quick_dgnn()).fit(&data, SEED);
    let (fresh_off, _) = alloc_counters();

    reset_alloc_counters();
    Dgnn::new(quick_dgnn().with_memory_plan()).fit(&data, SEED);
    let (fresh_on, hits) = alloc_counters();

    assert!(hits > 0, "planned run never recycled a buffer");
    assert!(
        fresh_off >= 2 * fresh_on,
        "plan must cut fresh allocations at least 2x: {fresh_off} unplanned vs {fresh_on} planned"
    );
}

// ---------------------------------------------------------------------------
// Property: random valid graphs always get overlap-free, provable plans.
// ---------------------------------------------------------------------------

/// Builds a random but shape-valid compute graph on the tracer: a chain
/// over `n × d` activations with random unary ops, random binary merges
/// with earlier nodes, and square-matrix projections, closed by a scalar
/// readout. Returns the loss variable.
fn random_graph(tr: &mut ShapeTracer, x: Var, w: Var, ops: &[(u8, usize)]) -> Var {
    let mut vars = vec![x];
    for &(op, pick) in ops {
        let prev = *vars.last().expect("non-empty");
        let other = vars[pick % vars.len()];
        let next = match op {
            0 => tr.sigmoid(prev),
            1 => tr.tanh(prev),
            2 => tr.leaky_relu(prev, 0.2),
            3 => tr.softplus(prev),
            4 => tr.scale(prev, 0.7),
            5 => tr.add(prev, other),
            6 => tr.mul(prev, other),
            7 => tr.matmul(prev, w),
            _ => {
                let ln = tr.layer_norm_rows(prev, 1e-5);
                tr.add(ln, other)
            }
        };
        vars.push(next);
    }
    let last = *vars.last().expect("non-empty");
    tr.mean_all(last)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_graphs_get_provable_plans(
        ops in collection::vec((0u8..9, any::<usize>()), 1..32),
        pin_last in any::<bool>(),
    ) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let xid = params.add("x", dgnn_tensor::Init::Uniform(0.5).build(6, 4, &mut rng));
        let wid = params.add("w", dgnn_tensor::Init::Uniform(0.5).build(4, 4, &mut rng));

        let mut tr = ShapeTracer::new();
        let x = tr.param(&params, xid);
        let w = tr.param(&params, wid);
        let loss = random_graph(&mut tr, x, w, &ops);

        // Optionally pin an interior node as a declared output — the plan
        // must keep it live forever.
        let outputs: Vec<Var> = if pin_last { vec![x] } else { vec![] };

        let mplan = plan(&tr, loss, &outputs);
        let proof = check_plan(&tr, loss, &outputs, &mplan);
        prop_assert!(proof.is_ok(), "checker rejected the plan: {:?}", proof.err());

        for out in &outputs {
            prop_assert!(
                matches!(mplan.nodes()[out.index()].free, FreePoint::Never),
                "declared output was scheduled for freeing"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pool value-transparency spot check (the mechanism bit-identity rests on).
// ---------------------------------------------------------------------------

#[test]
fn recycled_buffers_never_leak_stale_values() {
    dgnn_tensor::BufferPool::new().install();
    dgnn_tensor::recycle(Matrix::full(3, 3, f32::NAN));
    let fresh = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
    let _ = dgnn_tensor::BufferPool::uninstall();
    let expect: Vec<f32> = (0..9).map(|i| i as f32).collect();
    assert_bits_eq(fresh.as_slice(), &expect, "recycled from_fn");
}
