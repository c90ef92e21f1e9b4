//! Segmented-checkpoint and sharded-store contracts, end to end:
//!
//! * dense ↔ segmented round-trip is **bit-identical** (every tensor,
//!   every seen list, the carried metadata);
//! * the sharded engine answers bit-identically to the dense engine for
//!   every user, at kernel thread counts 1 and 4;
//! * an engine loaded whole reports no shard stats, a segmented one the
//!   manifest's shard counts;
//! * every corruption of every file — truncation at any prefix, byte
//!   flips anywhere, a missing or stray segment — surfaces as a typed
//!   [`CheckpointError`], never a panic and never silently-wrong data;
//! * lazy loading is observable (residency counts move only on first
//!   touch) and load failures are **sticky**: a corrupt shard yields the
//!   same `ShardUnavailable` on every query that needs it while healthy
//!   shards keep serving;
//! * a streamed scale world served over HTTP under skewed load answers
//!   like its dense reassembly while only the touched shards load.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dgnn_data::scale_tiny;
use dgnn_serve::{
    save_segmented, Checkpoint, CheckpointError, Engine, Query, QueryError, SegmentedCheckpoint,
    SegmentedWriter, ServeConfig, Server,
};
use dgnn_tensor::{parallel, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: usize = 41; // deliberately not a multiple of the shard size
const ITEMS: usize = 23;
const DIM: usize = 8;
const USER_SHARD_ROWS: usize = 12; // 4 shards: 12+12+12+5
const ITEM_SHARD_ROWS: usize = 9; // 3 shards: 9+9+5

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgnn-sharded-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating test dir");
    dir
}

/// A synthetic but structurally faithful checkpoint: random embeddings,
/// a valid CSR seen-list, and the metadata a trained export carries.
fn synth_checkpoint(seed: u64) -> Checkpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fill =
        |rows: usize| (0..rows * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<f32>>();
    let user = Matrix::from_vec(USERS, DIM, fill(USERS));
    let item = Matrix::from_vec(ITEMS, DIM, fill(ITEMS));
    let mut indptr = vec![0u32];
    let mut items = Vec::new();
    for u in 0..USERS {
        for j in 0..(u % 4) {
            items.push(((u * 7 + j * 3) % ITEMS) as u32);
        }
        indptr.push(items.len() as u32);
    }
    let mut c = Checkpoint::new();
    c.set_meta("model", "synthetic");
    c.set_meta("dataset", "sharded-store-test");
    c.push_matrix("final/user_scoring", &user);
    c.push_matrix("final/item", &item);
    c.push_u32("seen/indptr", indptr);
    c.push_u32("seen/items", items);
    c
}

fn save_fixture(name: &str) -> (Checkpoint, PathBuf) {
    let dir = fresh_dir(name);
    let ckpt = synth_checkpoint(2023);
    save_segmented(&ckpt, &dir, USER_SHARD_ROWS, ITEM_SHARD_ROWS).expect("segmented save");
    (ckpt, dir)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn segmented_roundtrip_reassembles_bit_identical() {
    let (ckpt, dir) = save_fixture("roundtrip");
    let seg = SegmentedCheckpoint::open(&dir).expect("open");
    let back = seg.reassemble().expect("every digest verifies and the shards stitch");
    for name in ["final/user_scoring", "final/item"] {
        assert_eq!(
            bits(&ckpt.matrix(name).expect("source tensor")),
            bits(&back.matrix(name).expect("round-tripped tensor")),
            "{name} not bit-identical through the segmented format"
        );
    }
    for name in ["seen/indptr", "seen/items"] {
        assert_eq!(
            ckpt.u32s(name).expect("source list"),
            back.u32s(name).expect("round-tripped list"),
            "{name} not identical through the segmented format"
        );
    }
    assert_eq!(back.meta("model"), Some("synthetic"));
    assert_eq!(back.meta("dataset"), Some("sharded-store-test"));
}

#[test]
fn sharded_engine_is_bit_identical_to_dense_at_both_thread_counts() {
    let (ckpt, dir) = save_fixture("bitident");
    let dense = Engine::from_checkpoint(&ckpt).expect("dense engine");
    let saved = parallel::current_threads();
    let sharded = Engine::open_segmented(&dir).expect("sharded engine");
    for threads in [1usize, 4] {
        parallel::set_threads(threads);
        for exclude_seen in [false, true] {
            let queries: Vec<Query> =
                (0..USERS).map(|u| Query { user: u as u32, k: 5, exclude_seen }).collect();
            let a = dense.recommend_batch(&queries);
            let b = sharded.recommend_batch(&queries);
            for (u, (ra, rb)) in a.iter().zip(&b).enumerate() {
                let (xs, ys) = (
                    ra.as_ref().expect("dense answers every valid user"),
                    rb.as_ref().expect("sharded answers every valid user"),
                );
                assert_eq!(xs.len(), ys.len());
                for (x, y) in xs.iter().zip(ys) {
                    assert_eq!(
                        (x.item, x.score.to_bits()),
                        (y.item, y.score.to_bits()),
                        "user {u} diverges (threads={threads}, exclude_seen={exclude_seen})"
                    );
                }
            }
        }
    }
    parallel::set_threads(saved);
}

/// What the benchmark's request-stream choice and lazy-residency check
/// read: `None` for an engine loaded whole (even though it holds its tables
/// as one resident shard each), the manifest's shard counts for a
/// segmented one.
#[test]
fn only_segmented_engines_report_shard_stats() {
    let (ckpt, dir) = save_fixture("stats");
    let whole = Engine::from_checkpoint(&ckpt).expect("dense engine");
    assert_eq!(whole.shard_stats(), None, "an engine loaded whole has no shards to report");
    whole.recommend(Query { user: 0, k: 5, exclude_seen: true }).expect("healthy query");
    assert_eq!(whole.shard_stats(), None, "queries do not turn a whole engine into a sharded one");

    let stats = Engine::open_segmented(&dir)
        .expect("sharded engine")
        .shard_stats()
        .expect("segmented stats");
    let seg = SegmentedCheckpoint::open(&dir).expect("manifest");
    assert_eq!(
        (stats.user_total, stats.item_total),
        (seg.user_spec().num_shards(), seg.item_spec().num_shards()),
        "{stats:?}"
    );
    assert_eq!((stats.user_total, stats.item_total), (4, 3), "{stats:?}");
    assert_eq!((stats.user_resident, stats.item_resident), (0, 0), "{stats:?}");
}

/// Opening plus reassembly (which loads and verifies every segment) must
/// yield a typed error for a damaged directory — and must never panic.
fn open_all(dir: &Path) -> Result<(), CheckpointError> {
    SegmentedCheckpoint::open(dir)?.reassemble().map(|_| ())
}

#[test]
fn every_truncation_of_every_file_is_a_typed_error() {
    let (_, dir) = save_fixture("truncate");
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("listing fixture")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1 + 4 + 3, "manifest + 4 user + 3 item segments");
    for file in &files {
        let original = std::fs::read(file).expect("reading fixture file");
        for keep in [0usize, 1, 4, original.len() / 2, original.len() - 1] {
            std::fs::write(file, &original[..keep]).expect("truncating");
            let err = open_all(&dir)
                .expect_err(&format!("{} truncated to {keep} bytes must fail", file.display()));
            // Any typed variant is acceptable; reaching here already proves
            // no panic. Exercise Display for coverage of the error path.
            let _ = err.to_string();
        }
        std::fs::write(file, &original).expect("restoring");
    }
    open_all(&dir).expect("fixture restored to a valid state");
}

#[test]
fn every_byte_flip_region_of_every_file_is_a_typed_error() {
    let (_, dir) = save_fixture("byteflip");
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("listing fixture")
        .map(|e| e.expect("dir entry").path())
        .collect();
    for file in &files {
        let original = std::fs::read(file).expect("reading fixture file");
        let n = original.len();
        for offset in [0usize, n / 3, 2 * n / 3, n - 1] {
            let mut mutated = original.clone();
            mutated[offset] ^= 0xA5;
            std::fs::write(file, &mutated).expect("writing flip");
            let err = open_all(&dir)
                .expect_err(&format!("{} with byte {offset} flipped must fail", file.display()));
            let _ = err.to_string();
        }
        std::fs::write(file, &original).expect("restoring");
    }
    open_all(&dir).expect("fixture restored to a valid state");
}

#[test]
fn missing_and_stray_segments_are_detected_by_name() {
    let (_, dir) = save_fixture("inventory");

    // A stray segment the manifest does not know about.
    std::fs::write(dir.join("user-00099.seg"), b"not a segment").expect("planting stray");
    match open_all(&dir) {
        Err(CheckpointError::ExtraSegment(name)) => assert!(name.contains("user-00099.seg")),
        other => panic!("stray segment must be ExtraSegment, got {other:?}"),
    }
    std::fs::remove_file(dir.join("user-00099.seg")).expect("removing stray");

    // A manifest-listed segment that is gone.
    let victim = dir.join("item-00001.seg");
    let bytes = std::fs::read(&victim).expect("reading victim");
    std::fs::remove_file(&victim).expect("deleting victim");
    match open_all(&dir) {
        Err(CheckpointError::MissingSegment(name)) => assert!(name.contains("item-00001.seg")),
        other => panic!("deleted segment must be MissingSegment, got {other:?}"),
    }
    std::fs::write(&victim, &bytes).expect("restoring victim");
    open_all(&dir).expect("fixture restored to a valid state");

    // A digest mismatch names the exact segment. Flip a byte in the middle
    // of the payload (headers would fail parse first; the digest check runs
    // before parsing, so any offset reports the same way).
    let mut mutated = bytes.clone();
    let mid = mutated.len() / 2;
    mutated[mid] ^= 0xFF;
    std::fs::write(&victim, &mutated).expect("corrupting victim");
    let seg = SegmentedCheckpoint::open(&dir).expect("manifest still valid");
    match seg.load_item_shard(1) {
        Err(CheckpointError::SegmentDigestMismatch { segment, .. }) => {
            assert!(segment.contains("item-00001.seg"));
        }
        other => panic!("digest mismatch must be typed, got {other:?}"),
    }
    std::fs::write(&victim, &bytes).expect("restoring victim");
}

#[test]
fn lazy_loading_is_observable_and_shard_failures_are_sticky() {
    let (_, dir) = save_fixture("lazy");
    let engine = Engine::open_segmented(&dir).expect("sharded engine");
    let stats0 = engine.shard_stats().expect("sharded engines report stats");
    assert_eq!(stats0.user_resident, 0, "nothing resident before first touch");
    assert_eq!(stats0.user_total, 4);
    assert_eq!(stats0.user_table_bytes, (USERS * DIM * 4) as u64);

    // First touch loads exactly the shard of user 0.
    engine.recommend(Query { user: 0, k: 5, exclude_seen: false }).expect("healthy query");
    let stats1 = engine.shard_stats().expect("stats after touch");
    assert_eq!(stats1.user_resident, 1);
    assert_eq!(stats1.user_resident_bytes, (USER_SHARD_ROWS * DIM * 4) as u64);

    // Repeat touch keeps residency flat — no reload.
    engine.recommend(Query { user: 1, k: 5, exclude_seen: true }).expect("same-shard query");
    assert_eq!(engine.shard_stats().expect("stats").user_resident, 1);

    // Corrupt the *last* user shard on disk after open: its first touch
    // must fail with a typed 503-mapped error, the failure must be sticky
    // (no reread), and healthy shards must keep answering.
    let victim = dir.join("user-00003.seg");
    let bytes = std::fs::read(&victim).expect("reading victim");
    let mut mutated = bytes.clone();
    let mid = mutated.len() / 2;
    mutated[mid] ^= 0xFF;
    std::fs::write(&victim, &mutated).expect("corrupting victim");

    let last = (USERS - 1) as u32;
    let first_err = engine
        .recommend(Query { user: last, k: 5, exclude_seen: false })
        .expect_err("corrupt shard must not serve");
    match &first_err {
        QueryError::ShardUnavailable { shard, .. } => assert_eq!(*shard, 3),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }

    // Healing the file on disk must NOT heal the engine: the failure was
    // latched at first touch, so responses stay deterministic.
    std::fs::write(&victim, &bytes).expect("restoring victim");
    let second_err = engine
        .recommend(Query { user: last, k: 5, exclude_seen: false })
        .expect_err("shard failure must be sticky");
    assert_eq!(first_err, second_err, "degraded responses must be deterministic");

    // Healthy shards are unaffected throughout.
    engine.recommend(Query { user: 0, k: 5, exclude_seen: false }).expect("healthy shard");

    // A fresh open sees the healed file and serves everything.
    let healed = Engine::open_segmented(&dir).expect("reopen");
    healed.recommend(Query { user: last, k: 5, exclude_seen: false }).expect("healed query");
}

/// One request/response exchange; returns (status, body).
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connecting to the server");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("setting a read timeout");
    s.write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()).expect("sending");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("reading the response");
    let status = raw.split_whitespace().nth(1).and_then(|t| t.parse().ok()).unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// The architecture a sharded server exists for, checked end to end: a
/// world streamed shard by shard through [`SegmentedWriter`] is served
/// lazily over HTTP while concurrent clients query users from only two of
/// its four user shards. Every served list equals the dense engine over
/// the reassembled checkpoint; the loader's own accounting shows only the
/// touched shards resident; `/metrics` carries the residency series.
#[test]
fn sharded_server_under_skewed_load_matches_dense_and_stays_lazy() {
    const SEED: u64 = 2023;
    const K: usize = 10;
    let spec = scale_tiny();
    assert_eq!(spec.num_user_shards(), 4);
    let dir = fresh_dir("served-scale");
    let mut w = SegmentedWriter::create(&dir).expect("segment writer");
    for shard in spec.user_shards(SEED) {
        w.push_user_shard(&shard.emb, &shard.seen_indptr, &shard.seen_items).expect("user shard");
    }
    for shard in spec.item_shards(SEED) {
        w.push_item_shard(&shard.emb).expect("item shard");
    }
    w.finish().expect("manifest");

    let whole =
        SegmentedCheckpoint::open(&dir).and_then(|seg| seg.reassemble()).expect("reassemble");
    let dense = Engine::from_checkpoint(&whole).expect("dense engine");
    let served = Arc::new(Engine::open_segmented(&dir).expect("sharded engine"));
    let server = Server::start(Arc::clone(&served), ServeConfig::default()).expect("server");
    let addr = server.addr();

    // Four clients × sixteen requests, every user from shard 0 or shard 2:
    // the traffic is skewed onto half the user table.
    let per_shard = spec.users_per_shard as u32;
    #[expect(clippy::disallowed_methods, reason = "concurrent HTTP clients, not kernel work")]
    std::thread::scope(|scope| {
        for c in 0..4u32 {
            let dense = &dense;
            scope.spawn(move || {
                for r in 0..16u32 {
                    let user = (c + r) % 2 * 2 * per_shard + (c * 131 + r * 37) % per_shard;
                    let q = Query { user, k: K, exclude_seen: r % 3 == 0 };
                    let target =
                        format!("/recommend?user={user}&k={K}&exclude_seen={}", q.exclude_seen);
                    let (status, body) = get(addr, &target);
                    assert_eq!(status, 200, "user {user}: {body:?}");
                    let want: Vec<String> = dense
                        .recommend(q)
                        .expect("dense answer")
                        .iter()
                        .map(|s| s.item.to_string())
                        .collect();
                    let needle = format!("\"items\":[{}]", want.join(","));
                    assert!(body.contains(&needle), "user {user}: served {body:?}, dense {needle}");
                }
            });
        }
    });

    // Loader ground truth, not process RSS: two of four user shards.
    let stats = served.shard_stats().expect("sharded engines report stats");
    assert_eq!((stats.user_resident, stats.user_total), (2, 4), "{stats:?}");
    assert!(stats.user_resident_bytes as f64 <= 0.75 * stats.user_table_bytes as f64, "{stats:?}");

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "metrics scrape failed: {body:?}");
    let samples = dgnn_obs::export::parse_prometheus_text(&body).expect("valid /metrics");
    let mut series =
        vec!["serve_shard_user_resident", "serve_shard_loads", "serve_engine_item_panel_bytes"];
    if dgnn_obs::procstat::rss_bytes().is_some() {
        series.push("proc_rss_bytes");
    }
    for name in series {
        let value = samples.iter().find(|s| s.name == name).map_or(0.0, |s| s.value);
        assert!(value > 0.0, "/metrics lacks a positive {name}");
    }
    server.shutdown();
}
