//! **Scale serving tier**: million-user-shaped load against the lazy
//! sharded store, measured end to end into `BENCH_scale.json`.
//!
//! Two phases, both driven by `loadgen --scale`:
//!
//! 1. **Bit-identity** — trains a quick DGNN on the tiny dataset, saves it
//!    both as a monolithic checkpoint and as a segmented one (4 user
//!    shards), and asserts the sharded engine returns *bit-identical*
//!    top-K (items and score bits) to the dense engine for **every** user,
//!    with and without seen-filtering, at kernel thread counts 1 and 4,
//!    in both `pread` and map modes, plus one served-over-HTTP
//!    cross-check. This is the correctness license for phase 2: once the
//!    sharded path is provably the same function, its numbers measure the
//!    *storage architecture*, not a different model.
//! 2. **Scale load** — streams the [`dgnn_data::scale_bench`] preset
//!    (2¹⁷ users, 128 user shards) through [`SegmentedWriter`] without
//!    ever materializing the full table, opens it lazily, and drives 64
//!    closed-loop clients drawing users from Zipf(θ=1.4) — head-heavy
//!    traffic that touches a strict subset of shards. The artifact records
//!    qps, latency percentiles, startup-time-to-first-answer, RSS growth
//!    (`/proc/self/statm` via `dgnn-obs`), and shard residency.
//!
//! `--check` gates (beyond the serve tier's zero-ok and qps-regression
//! checks): every probed user bit-identical, `/metrics` scrapes cleanly
//! with the process RSS gauges present, **lazy residency held** — shards
//! touched strictly below the shard count, resident user bytes at most
//! [`RESIDENCY_CEILING`] of the full user table, and process RSS growth
//! across open+serve below the full table size. The residency gates run
//! in *every* mode (they assert architecture, not machine speed); only
//! the qps comparison needs a baseline file.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{scale_bench, tiny, ScaleSpec};
use dgnn_eval::Trainable;
use dgnn_obs::export::snapshot_to_json;
use dgnn_obs::procstat;
use dgnn_serve::{Engine, MapMode, Query, SegmentedWriter, ServeConfig, Server};
use dgnn_tensor::parallel;

use crate::zipf::Zipf;
use crate::SEED;

/// Closed-loop client threads of the scale phase.
pub const CLIENTS: usize = 64;
/// Requests each scale client fires.
const REQUESTS_PER_CLIENT: usize = 20;
/// Zipf exponent of the request distribution. At θ=1.4 over 2¹⁷ users,
/// ~1.3k draws concentrate on the head: far fewer than all 128 shards
/// get touched, which is what the residency gates need to observe.
const ZIPF_THETA: f64 = 1.4;
/// Allowed relative qps drop before `--check` fails (serve-tier budget).
const REGRESSION_BUDGET: f64 = 0.25;
/// Resident user bytes must stay at or below this fraction of the full
/// user table under Zipf load.
const RESIDENCY_CEILING: f64 = 0.75;
/// Kernel thread counts the bit-identity probe pins.
const PROBE_THREADS: [usize; 2] = [1, 4];
/// Top-K compared per probed user.
const PROBE_K: usize = 10;

fn quick_dgnn() -> DgnnConfig {
    DgnnConfig { dim: 8, layers: 2, memory_units: 4, epochs: 4, batch_size: 256, ..Default::default() }
}

/// One blocking HTTP exchange; returns (status, body).
fn http_get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(format!("GET {target} HTTP/1.1\r\nHost: scale\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_string();
    Ok((status, body))
}

/// Compares every user's top-K between the dense and sharded engines at
/// one pinned kernel thread count: same items, same score **bits**, with
/// and without seen-filtering. Returns the number of diverging users.
fn probe_bit_identity(dense: &Engine, sharded: &Engine, threads: usize, tag: &str) -> usize {
    let saved = parallel::current_threads();
    parallel::set_threads(threads);
    let mut failures = 0;
    for exclude in [false, true] {
        let queries: Vec<Query> = (0..dense.num_users())
            .map(|u| Query { user: u as u32, k: PROBE_K, exclude_seen: exclude })
            .collect();
        let a = dense.recommend_batch(&queries);
        let b = sharded.recommend_batch(&queries);
        for (u, (ra, rb)) in a.iter().zip(&b).enumerate() {
            let same = match (ra, rb) {
                (Ok(xs), Ok(ys)) => {
                    xs.len() == ys.len()
                        && xs.iter().zip(ys).all(|(x, y)| {
                            x.item == y.item && x.score.to_bits() == y.score.to_bits()
                        })
                }
                _ => false,
            };
            if !same {
                eprintln!(
                    "bit-identity[{tag}]: user {u} diverges \
                     (threads={threads}, exclude_seen={exclude})"
                );
                failures += 1;
            }
        }
    }
    parallel::set_threads(saved);
    failures
}

/// Phase 1: dense vs. sharded equivalence on a real trained model.
/// Returns the bit-identity failure count.
fn bit_identity_phase(dir: &Path) -> Result<usize, String> {
    println!("--- phase 1: dense vs sharded bit-identity (tiny dataset) ---");
    let data = tiny(SEED);
    let mut model = Dgnn::new(quick_dgnn());
    model.fit(&data, SEED);

    let dense_path = dir.join("dense.ckpt");
    model
        .save_checkpoint(&data.name, &dense_path)
        .map_err(|e| format!("scale: dense checkpoint: {e}"))?;
    let seg_dir = dir.join("segments");
    let num_users = data.graph.num_users();
    let user_shard_rows = num_users.div_ceil(4); // exactly 4 user shards
    let item_shard_rows = data.graph.num_items().div_ceil(2);
    let summary = model
        .save_checkpoint_segmented(&data.name, &seg_dir, user_shard_rows, item_shard_rows)
        .map_err(|e| format!("scale: segmented checkpoint: {e}"))?;
    println!(
        "segmented save: {} user + {} item segments, {} bytes",
        summary.user_segments, summary.item_segments, summary.total_bytes
    );

    let dense = Engine::load(&dense_path).map_err(|e| format!("scale: dense engine: {e}"))?;
    let mut failures = 0;
    let mut modes = vec![("pread", MapMode::Off)];
    if MapMode::Auto.resolves_to_map() {
        modes.push(("map", MapMode::On));
    } else {
        println!("map mode unsupported on this target; probing pread only");
    }
    for (tag, mode) in modes {
        let sharded = Engine::open_segmented_with(&seg_dir, mode)
            .map_err(|e| format!("scale: sharded engine ({tag}): {e}"))?;
        for threads in PROBE_THREADS {
            let f = probe_bit_identity(&dense, &sharded, threads, tag);
            println!(
                "probe[{tag}] threads={threads}: {num_users} users x2 seen-modes -> {f} failure(s)"
            );
            failures += f;
        }
    }

    // Served-over-HTTP cross-check: the sharded server must emit the dense
    // engine's exact item list.
    let sharded = Engine::open_segmented(&seg_dir).map_err(|e| format!("scale: http engine: {e}"))?;
    let server =
        Server::start(sharded, ServeConfig::default()).map_err(|e| format!("scale: server: {e}"))?;
    let reference = dense
        .recommend(Query { user: 1, k: PROBE_K, exclude_seen: true })
        .map_err(|e| format!("scale: reference query: {e}"))?;
    match http_get(server.addr(), &format!("/recommend?user=1&k={PROBE_K}&exclude_seen=true")) {
        Ok((200, body)) => {
            let items: Vec<String> = reference.iter().map(|s| s.item.to_string()).collect();
            let needle = format!("\"items\":[{}]", items.join(","));
            if !body.contains(&needle) {
                eprintln!("bit-identity[http]: served {body:?} does not contain {needle:?}");
                failures += 1;
            }
        }
        other => {
            eprintln!("bit-identity[http]: request failed: {other:?}");
            failures += 1;
        }
    }
    server.shutdown();
    Ok(failures)
}

/// Streams the scale preset to disk shard-by-shard; the full table is
/// never resident. Returns (total bytes, generation seconds).
fn build_scale_world(spec: &ScaleSpec, dir: &Path) -> Result<(u64, f64), String> {
    let t0 = Instant::now();
    let mut w = SegmentedWriter::create(dir).map_err(|e| format!("scale: writer: {e}"))?;
    w.set_meta("model", "scale-world");
    w.set_meta("dataset", spec.name);
    w.set_meta("seed", &SEED.to_string());
    for shard in spec.user_shards(SEED) {
        w.push_user_shard(&shard.emb, &shard.seen_indptr, &shard.seen_items)
            .map_err(|e| format!("scale: user shard {}: {e}", shard.index))?;
    }
    for shard in spec.item_shards(SEED) {
        w.push_item_shard(&shard.emb).map_err(|e| format!("scale: item shard {}: {e}", shard.index))?;
    }
    let summary = w.finish().map_err(|e| format!("scale: manifest: {e}"))?;
    Ok((summary.total_bytes, t0.elapsed().as_secs_f64()))
}

/// Zipf closed-loop load; returns (ok, err, elapsed_secs).
fn drive_zipf_load(addr: SocketAddr, zipf: &Zipf) -> (u64, u64, f64) {
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let mut z = zipf.fork(c as u64);
        // PAR: benchmark client threads generating socket load against the
        // server under test — not kernel work.
        handles.push(std::thread::spawn(move || {
            let (mut ok, mut err) = (0u64, 0u64);
            for _ in 0..REQUESTS_PER_CLIENT {
                let user = z.sample();
                match http_get(addr, &format!("/recommend?user={user}&k={PROBE_K}")) {
                    Ok((200, _)) => ok += 1,
                    _ => err += 1,
                }
            }
            (ok, err)
        }));
    }
    let (mut ok, mut err) = (0u64, 0u64);
    for h in handles {
        match h.join() {
            Ok((o, e)) => {
                ok += o;
                err += e;
            }
            Err(_) => err += REQUESTS_PER_CLIENT as u64,
        }
    }
    (ok, err, started.elapsed().as_secs_f64())
}

/// Validates the live `/metrics` scrape under the scale engine: parses as
/// Prometheus text and carries the process-RSS and shard-residency
/// series. Returns the number of failed expectations.
fn validate_scale_scrape(addr: SocketAddr) -> usize {
    let mut failures = 0;
    match http_get(addr, "/metrics") {
        Ok((200, body)) => match dgnn_obs::export::parse_prometheus_text(&body) {
            Ok(samples) => {
                let value = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
                for name in ["proc_rss_bytes", "proc_peak_rss_bytes"] {
                    if value(name).is_none_or(|v| v <= 0.0) {
                        eprintln!("scrape: /metrics missing a positive {name}");
                        failures += 1;
                    }
                }
                for name in ["serve_shard_user_resident", "serve_shard_loads", "serve_engine_item_panel_bytes"] {
                    if value(name).is_none_or(|v| v <= 0.0) {
                        eprintln!("scrape: /metrics missing a positive {name}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("scrape: /metrics does not parse: {e}");
                failures += 1;
            }
        },
        other => {
            eprintln!("scrape: /metrics -> {other:?}");
            failures += 1;
        }
    }
    failures
}

/// Pulls the `scale/qps` gauge out of a baseline snapshot file (same
/// targeted scan as the serve tier's baseline reader).
fn baseline_qps(json: &str) -> Option<f64> {
    let key = "\"scale/qps\"";
    let tail = &json[json.find(key)? + key.len()..];
    let number: String = tail
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number.parse().ok()
}

/// Runs the scale tier. `check_path` switches artifact writing off and the
/// regression gates on. Returns `Err` with a human-readable reason on any
/// gate failure.
pub fn run(check_path: Option<&str>) -> Result<(), String> {
    println!("=== Scale serving tier (sharded store, lazy load, Zipf clients) ===");
    let work = Path::new("results/scale");
    std::fs::create_dir_all(work).map_err(|e| format!("scale: results dir: {e}"))?;

    let bit_identity_failures = bit_identity_phase(work)?;

    println!("--- phase 2: scale preset under Zipf load ---");
    let spec = scale_bench();
    let world = work.join("world");
    let (world_bytes, gen_secs) = build_scale_world(&spec, &world)?;
    let user_shards_total = spec.num_user_shards();
    let user_table_bytes = (spec.num_users * spec.dim * 4) as u64;
    let item_table_bytes = (spec.num_items * spec.dim * 4) as u64;
    println!(
        "generated {} ({} users, {} user shards, {world_bytes} bytes) in {gen_secs:.1}s",
        spec.name, spec.num_users, user_shards_total
    );

    // Build the request distribution *before* the RSS baseline so its
    // table (shared across clients) cannot masquerade as engine growth.
    let zipf = Zipf::new(spec.num_users, ZIPF_THETA, SEED);
    dgnn_obs::set_live_telemetry(true);

    let rss_before = procstat::rss_bytes().unwrap_or(0);
    let t_start = Instant::now();
    let engine = Engine::open_segmented(&world).map_err(|e| format!("scale: opening world: {e}"))?;
    let mapped = engine.shard_stats().is_some_and(|s| s.mapped);
    let server =
        Server::start(engine, ServeConfig::default()).map_err(|e| format!("scale: server: {e}"))?;
    let addr = server.addr();
    match http_get(addr, &format!("/recommend?user=0&k={PROBE_K}")) {
        Ok((200, _)) => {}
        other => return Err(format!("scale: first answer failed: {other:?}")),
    }
    let startup_ms = t_start.elapsed().as_secs_f64() * 1e3;
    println!("startup to first answer: {startup_ms:.0} ms (mapped: {mapped})");

    let (ok, err, elapsed) = drive_zipf_load(addr, &zipf);
    let qps = (ok + err) as f64 / elapsed.max(1e-9);
    println!(
        "load: {CLIENTS} Zipf(θ={ZIPF_THETA}) clients x {REQUESTS_PER_CLIENT} requests -> \
         {ok} ok / {err} err in {elapsed:.2}s ({qps:.0} qps)"
    );

    let rss_after = procstat::rss_bytes().unwrap_or(0);
    let peak_rss = procstat::peak_rss_bytes().unwrap_or(0);
    let rss_growth = rss_after.saturating_sub(rss_before);
    let scrape_failures = validate_scale_scrape(addr);

    // Residency comes from the shared gauges the lazy store publishes on
    // every first-touch load — the same series `/metrics` exports.
    let shared = dgnn_obs::shared::snapshot();
    let g = |name: &str| shared.gauges.get(name).copied().unwrap_or(0.0);
    let shards_touched = g("serve/shard/user_resident") as u64;
    let resident_user_bytes = g("serve/shard/user_resident_bytes") as u64;
    println!(
        "residency: {shards_touched}/{user_shards_total} user shards resident, \
         {resident_user_bytes}/{user_table_bytes} user-table bytes, \
         rss {rss_before} -> {rss_after} (+{rss_growth})"
    );

    let stats = server.stats();
    server.shutdown();

    // Gates that assert architecture run in every mode.
    let mut gate_failures = Vec::new();
    if bit_identity_failures > 0 {
        gate_failures.push(format!("{bit_identity_failures} bit-identity failure(s)"));
    }
    if scrape_failures > 0 {
        gate_failures.push(format!("{scrape_failures} telemetry scrape failure(s)"));
    }
    if ok == 0 {
        gate_failures.push("zero successful requests".to_string());
    }
    if shards_touched == 0 || shards_touched >= user_shards_total as u64 {
        gate_failures.push(format!(
            "laziness not observed: {shards_touched}/{user_shards_total} user shards resident"
        ));
    }
    if resident_user_bytes as f64 > RESIDENCY_CEILING * user_table_bytes as f64 {
        gate_failures.push(format!(
            "resident user bytes {resident_user_bytes} exceed {RESIDENCY_CEILING} x table \
             ({user_table_bytes})"
        ));
    }
    if rss_growth >= user_table_bytes + item_table_bytes {
        gate_failures.push(format!(
            "RSS grew by {rss_growth} bytes — not bounded below full-table residency \
             ({} bytes)",
            user_table_bytes + item_table_bytes
        ));
    }
    if !gate_failures.is_empty() {
        return Err(format!("REGRESSION scale: {}", gate_failures.join("; ")));
    }

    if let Some(path) = check_path {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("scale: reading baseline {path}: {e}"))?;
        let base = baseline_qps(&json)
            .ok_or_else(|| format!("scale: scale/qps missing from baseline {path}"))?;
        let floor = base * (1.0 - REGRESSION_BUDGET);
        if qps < floor {
            return Err(format!(
                "REGRESSION scale: {qps:.0} qps is more than {:.0}% below baseline {base:.0} \
                 (floor {floor:.0})",
                100.0 * REGRESSION_BUDGET
            ));
        }
        println!("qps check passed against {path} ({qps:.0} vs baseline {base:.0})");
        return Ok(());
    }

    // Fold everything into one snapshot and write the artifact.
    dgnn_obs::reset();
    dgnn_obs::enable();
    let summary = stats.publish(elapsed);
    dgnn_obs::gauge_set("scale/qps", qps);
    dgnn_obs::gauge_set("scale/latency_ms_p50", summary.latency_ms.0);
    dgnn_obs::gauge_set("scale/latency_ms_p99", summary.latency_ms.2);
    dgnn_obs::gauge_set("scale/startup_to_first_answer_ms", startup_ms);
    dgnn_obs::gauge_set("scale/gen_secs", gen_secs);
    dgnn_obs::gauge_set("scale/users", spec.num_users as f64);
    dgnn_obs::gauge_set("scale/items", spec.num_items as f64);
    dgnn_obs::gauge_set("scale/dim", spec.dim as f64);
    dgnn_obs::gauge_set("scale/clients", CLIENTS as f64);
    dgnn_obs::gauge_set("scale/requests_per_client", REQUESTS_PER_CLIENT as f64);
    dgnn_obs::gauge_set("scale/zipf_theta", ZIPF_THETA);
    dgnn_obs::gauge_set("scale/checkpoint_bytes", world_bytes as f64);
    dgnn_obs::gauge_set("scale/user_shards_total", user_shards_total as f64);
    dgnn_obs::gauge_set("scale/user_shards_touched", shards_touched as f64);
    dgnn_obs::gauge_set("scale/resident_user_bytes", resident_user_bytes as f64);
    dgnn_obs::gauge_set("scale/user_table_bytes", user_table_bytes as f64);
    dgnn_obs::gauge_set("scale/rss_before_bytes", rss_before as f64);
    dgnn_obs::gauge_set("scale/rss_after_bytes", rss_after as f64);
    dgnn_obs::gauge_set("scale/rss_growth_bytes", rss_growth as f64);
    dgnn_obs::gauge_set("scale/peak_rss_bytes", peak_rss as f64);
    dgnn_obs::gauge_set("scale/mapped", f64::from(u8::from(mapped)));
    dgnn_obs::counter_add("scale/ok", ok);
    dgnn_obs::counter_add("scale/err", err);
    dgnn_obs::counter_add("scale/bit_identity_failures", bit_identity_failures as u64);
    dgnn_obs::counter_add("scale/scrape_failures", scrape_failures as u64);
    let snapshot = dgnn_obs::snapshot();
    dgnn_obs::disable();
    dgnn_obs::reset();

    let mut out = String::from("{\n  \"models\": {\n");
    out.push_str(&format!("    \"DGNN-scale\": {}\n", snapshot_to_json(&snapshot, 4).trim_start()));
    out.push_str("  }\n}\n");
    std::fs::write("BENCH_scale.json", out).map_err(|e| format!("scale: writing artifact: {e}"))?;
    println!("\nwrote BENCH_scale.json and results/scale/");
    Ok(())
}
