//! Checkpoint round-trip, corruption, and serving-determinism tests.
//!
//! The contract under test: a checkpoint is a *bit-exact* snapshot of a
//! trained model's scoring function. Saving, loading, and serving through
//! `dgnn-serve` must reproduce the in-memory model's scores and top-K
//! lists to the last bit, at any kernel-pool thread count — and feeding
//! the loader damaged bytes must produce a typed error, never a panic.

use std::path::PathBuf;

use dgnn_core::Dgnn;
use dgnn_data::tiny;
use dgnn_eval::{Recommender, Trainable};
use dgnn_integration_tests::quick_dgnn;
use dgnn_serve::{save_segmented, Checkpoint, CheckpointError, Engine, Query};
use dgnn_tensor::{parallel, top_k_row, Matrix};

const SEED: u64 = 2023;

/// Unique scratch path (tests in one binary run concurrently).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgnn-serve-roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.ckpt", std::process::id()))
}

fn assert_score_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit mismatch at {i}: {x:?} vs {y:?}");
    }
}

// ---------------------------------------------------------------- golden

#[test]
fn dgnn_roundtrip_scores_bit_identical() {
    let data = tiny(SEED);
    let mut model = Dgnn::new(quick_dgnn());
    model.fit(&data, SEED);
    let path = tmp("dgnn-golden");
    model.save_checkpoint(&data.name, &path).unwrap();

    let restored = Dgnn::load_checkpoint(&path).unwrap();
    for case in &data.test {
        let candidates: Vec<usize> = case.candidates().map(|v| v as usize).collect();
        let want = model.score(case.user as usize, &candidates);
        let got = restored.score(case.user as usize, &candidates);
        assert_score_bits_eq(&want, &got, "DGNN user score");
    }
    std::fs::remove_file(&path).ok();
}

// ------------------------------------------------------------ corruption

/// A small hand-built checkpoint — corruption tests don't need training.
fn sample_checkpoint() -> Checkpoint {
    let mut ckpt = Checkpoint::new();
    ckpt.set_meta("model", "sample");
    ckpt.set_meta("dim", "3");
    ckpt.push_matrix(
        "final/user_scoring",
        &Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    );
    ckpt.push_matrix("final/item", &Matrix::from_vec(4, 3, (0..12).map(|i| i as f32).collect()));
    ckpt.push_u32("seen/indptr", vec![0, 1, 2]);
    ckpt.push_u32("seen/items", vec![3, 0]);
    ckpt
}

#[test]
fn every_truncation_errors_without_panicking() {
    let bytes = sample_checkpoint().to_bytes();
    assert!(Checkpoint::from_bytes(&bytes).is_ok(), "untouched bytes must load");
    for len in 0..bytes.len() {
        let got = Checkpoint::from_bytes(&bytes[..len]);
        assert!(got.is_err(), "prefix of {len}/{} bytes decoded successfully", bytes.len());
    }
    // Trailing garbage is corruption too, not ignorable padding.
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(matches!(Checkpoint::from_bytes(&extended), Err(CheckpointError::Corrupt(_))));
}

#[test]
fn single_byte_flips_never_panic_and_targeted_flips_are_typed() {
    let bytes = sample_checkpoint().to_bytes();
    // Sweep: no single-byte flip may panic (errors are fine; a flip in a
    // tensor *name* is not integrity-checked and may legitimately load).
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        let _ = Checkpoint::from_bytes(&bad);
    }
    // Magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(Checkpoint::from_bytes(&bad), Err(CheckpointError::BadMagic)));
    // Version field (bytes 4..8, little-endian).
    let mut bad = bytes.clone();
    bad[4] = 99;
    assert!(matches!(Checkpoint::from_bytes(&bad), Err(CheckpointError::UnsupportedVersion(99))));
    // Meta byte: digest mismatch.
    let meta_pos = bytes
        .windows(b"model=sample".len())
        .position(|w| w == b"model=sample")
        .expect("meta text present");
    let mut bad = bytes.clone();
    bad[meta_pos] ^= 0x01;
    assert!(matches!(Checkpoint::from_bytes(&bad), Err(CheckpointError::DigestMismatch)));
    // Payload byte: the f32 1.0 (0x3f800000 LE) only occurs in tensor data.
    let payload_pos =
        bytes.windows(4).position(|w| w == 1.0f32.to_le_bytes()).expect("payload float present");
    let mut bad = bytes.clone();
    bad[payload_pos] ^= 0x01;
    assert!(matches!(Checkpoint::from_bytes(&bad), Err(CheckpointError::ChecksumMismatch { .. })));
}

#[test]
fn io_and_missing_tensor_errors_are_typed() {
    let missing = Engine::load(std::path::Path::new("/nonexistent/dgnn.ckpt"));
    assert!(matches!(missing, Err(CheckpointError::Io(_))));
    // An engine needs final embeddings; a meta-only checkpoint must say so.
    let mut ckpt = Checkpoint::new();
    ckpt.set_meta("model", "empty");
    let got = Engine::from_checkpoint(&Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap());
    assert!(matches!(got, Err(CheckpointError::MissingTensor(_))));
}

#[test]
fn only_the_scoring_table_is_served() {
    // Bare `final/user` is not a serving table: a typed error, no panic.
    let mut ckpt = Checkpoint::new();
    ckpt.push_matrix("final/user", &Matrix::from_vec(2, 1, vec![1.0, 2.0]));
    ckpt.push_matrix("final/item", &Matrix::from_vec(1, 1, vec![1.0]));
    let got = Engine::from_checkpoint(&Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap());
    assert!(
        matches!(got, Err(CheckpointError::MissingTensor(name)) if name == "final/user_scoring")
    );
    // Checkpoints used to carry τ as a CSR triple beside the recalibrated
    // table; such a file serves its `final/user_scoring` as stored.
    ckpt.push_matrix("final/user_scoring", &Matrix::from_vec(2, 1, vec![3.0, 5.0]));
    ckpt.push_u32("tau/indptr", vec![0, 1, 1]);
    ckpt.push_u32("tau/cols", vec![1]);
    ckpt.push_f32("tau/values", 1, 1, vec![0.5]);
    let engine =
        Engine::from_checkpoint(&Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap()).unwrap();
    assert_eq!(engine.scores_for(0).unwrap(), vec![3.0]);
    assert_eq!(engine.scores_for(1).unwrap(), vec![5.0]);
}

// ---------------------------------------------------- serving determinism

/// The acceptance-criteria proof: train → save → load → the served top-K
/// list equals the in-memory model's, for every test user, with the
/// kernel pool at 1 and at 4 threads — from the monolithic checkpoint and
/// from the same trained model saved segmented (4 user × 2 item shards)
/// and opened as a lazily-loaded sharded engine.
#[test]
fn served_topk_matches_in_memory_model_at_any_thread_count() {
    let data = tiny(SEED);
    let mut model = Dgnn::new(quick_dgnn());
    model.fit(&data, SEED);
    let path = tmp("dgnn-e2e");
    model.save_checkpoint(&data.name, &path).unwrap();
    let engine = Engine::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let seg_dir = path.with_extension("segments");
    let (num_users, num_items) = (data.graph.num_users(), data.graph.num_items());
    let ckpt = model.export_checkpoint(&data.name);
    save_segmented(&ckpt, &seg_dir, num_users.div_ceil(4), num_items.div_ceil(2)).unwrap();
    let sharded = Engine::open_segmented(&seg_dir).unwrap();
    assert_eq!(sharded.shard_stats().unwrap().user_total, 4);

    let all_items: Vec<usize> = (0..num_items).collect();
    const K: usize = 10;

    let mut users: Vec<u32> = data.test.iter().map(|c| c.user).collect();
    users.sort_unstable();
    users.dedup();

    let mut per_thread_lists: Vec<Vec<(Vec<u32>, Vec<u32>)>> = Vec::new();
    for threads in [1usize, 4] {
        parallel::set_threads(threads);
        if threads > 1 {
            parallel::set_min_par_work(1);
        }
        let mut lists = Vec::new();
        for &user in &users {
            // In-memory reference: score every item, select with the same
            // total order (score desc, index asc) the server uses.
            let scores = model.score(user as usize, &all_items);
            let mut idx = vec![0u32; K];
            let mut sel = vec![0f32; K];
            top_k_row(&scores, &mut idx, &mut sel);

            let served = engine.recommend(Query { user, k: K, exclude_seen: false }).unwrap();
            let served_items: Vec<u32> = served.iter().map(|s| s.item).collect();
            assert_eq!(served_items, idx, "user {user}: served top-{K} diverges in memory");
            let served_bits: Vec<u32> = served.iter().map(|s| s.score.to_bits()).collect();
            let want_bits: Vec<u32> = sel.iter().map(|s| s.to_bits()).collect();
            assert_eq!(served_bits, want_bits, "user {user}: served scores diverge");

            let from_shards = sharded.recommend(Query { user, k: K, exclude_seen: false }).unwrap();
            let shard_items: Vec<u32> = from_shards.iter().map(|s| s.item).collect();
            let shard_bits: Vec<u32> = from_shards.iter().map(|s| s.score.to_bits()).collect();
            assert_eq!(shard_items, idx, "user {user}: sharded top-{K} diverges from memory");
            assert_eq!(shard_bits, want_bits, "user {user}: sharded scores diverge");
            lists.push((served_items, served_bits));
        }
        parallel::set_threads(1);
        parallel::set_min_par_work(parallel::DEFAULT_MIN_PAR_WORK);
        per_thread_lists.push(lists);
    }
    assert_eq!(
        per_thread_lists[0], per_thread_lists[1],
        "top-K lists changed with the kernel-pool thread count"
    );
    std::fs::remove_dir_all(&seg_dir).ok();
}
