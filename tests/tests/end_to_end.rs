//! End-to-end pipeline tests: data generation → persistence → split →
//! training → evaluation, across crate boundaries.

use dgnn_baselines::{BaselineConfig, Dgcf, Hgt, Ngcf};
use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{io, tiny, Dataset};
use dgnn_eval::{evaluate, evaluate_at, Trainable};
use dgnn_integration_tests::{quick_baseline, quick_dgnn, RANDOM_HR10};
use dgnn_tensor::{alloc_counters, reset_alloc_counters};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn dgnn_full_pipeline_beats_random() {
    let data = tiny(42);
    let mut model = Dgnn::new(quick_dgnn());
    model.fit(&data, 7);
    let m = evaluate_at(&model, &data.test, 10);
    assert!(
        m.hr > RANDOM_HR10 * 1.3,
        "HR@10 {:.4} should clearly beat random {:.4}",
        m.hr,
        RANDOM_HR10
    );
    // NDCG is bounded by HR (single positive, gain ≤ 1 per hit).
    assert!(m.ndcg <= m.hr + 1e-12);
}

#[test]
fn pipeline_survives_disk_roundtrip() {
    // Generate a world, persist it, reload, and train on the reloaded copy:
    // results must be identical to training on the original.
    let spec = dgnn_data::WorldSpec {
        name: "roundtrip",
        num_users: 50,
        num_items: 140,
        num_categories: 4,
        num_communities: 4,
        factor_dim: 6,
        target_interactions: 500,
        target_social_ties: 150,
        beta: 3.0,
        item_noise: 0.3,
        user_noise: 0.3,
        second_category_prob: 0.1,
    };
    let mut rng = StdRng::seed_from_u64(5);
    let original = spec.generate(&mut rng);
    let text = io::write_graph(&original);
    let reloaded = io::read_graph(&text).expect("roundtrip parse");

    let mut rng_a = StdRng::seed_from_u64(1);
    let mut rng_b = StdRng::seed_from_u64(1);
    let data_a = Dataset::leave_one_out("a", &original, 2, 50, &mut rng_a);
    let data_b = Dataset::leave_one_out("b", &reloaded, 2, 50, &mut rng_b);

    let mut model_a = Dgnn::new(quick_dgnn());
    let mut model_b = Dgnn::new(quick_dgnn());
    model_a.fit(&data_a, 3);
    model_b.fit(&data_b, 3);
    assert_eq!(model_a.loss_history, model_b.loss_history);
    assert_eq!(model_a.user_embeddings().as_slice(), model_b.user_embeddings().as_slice());
}

#[test]
fn evaluation_is_pure() {
    // Scoring twice gives identical metrics (no hidden state mutation).
    let data = tiny(11);
    let mut model = Dgnn::new(quick_dgnn());
    model.fit(&data, 7);
    let a = evaluate(&model, &data.test);
    let b = evaluate(&model, &data.test);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.hr, y.hr);
        assert_eq!(x.ndcg, y.ndcg);
    }
}

#[test]
fn more_training_does_not_hurt_badly() {
    // 1 epoch vs 6 epochs: the longer run should not be (much) worse —
    // a training-dynamics smoke test across the full stack.
    let data = tiny(13);
    let mut short = Dgnn::new(DgnnConfig { epochs: 1, ..quick_dgnn() });
    let mut long = Dgnn::new(DgnnConfig { epochs: 6, ..quick_dgnn() });
    short.fit(&data, 7);
    long.fit(&data, 7);
    let hr_short = evaluate_at(&short, &data.test, 10).hr;
    let hr_long = evaluate_at(&long, &data.test, 10).hr;
    assert!(hr_long >= hr_short * 0.8, "long {hr_long:.4} collapsed vs short {hr_short:.4}");
}

#[test]
fn steady_state_training_steps_allocate_nothing_fresh() {
    // Every fit recycles through one buffer pool and a step has the shapes
    // of the step before it, so once the first epoch has filled the pool
    // no later epoch allocates: six epochs cost as many fresh buffers as
    // three. NGCF stands for every model trained by the shared loop.
    type Build = fn(usize) -> Box<dyn Trainable>;
    let models: [(&str, Build); 4] = [
        ("DGNN", |epochs| Box::new(Dgnn::new(DgnnConfig { epochs, ..quick_dgnn() }))),
        ("NGCF", |epochs| Box::new(Ngcf::new(BaselineConfig { epochs, ..quick_baseline() }))),
        ("DGCF", |epochs| Box::new(Dgcf::new(BaselineConfig { epochs, ..quick_baseline() }))),
        ("HGT", |epochs| Box::new(Hgt::new(BaselineConfig { epochs, ..quick_baseline() }))),
    ];
    let data = tiny(11);
    for (name, build) in models {
        let [long, short] = [6, 3].map(|epochs| {
            let mut model = build(epochs);
            reset_alloc_counters();
            model.fit(&data, 7);
            alloc_counters().0
        });
        assert_eq!(long, short, "{name}: fresh allocations of a 6-epoch vs a 3-epoch fit");
    }
}
