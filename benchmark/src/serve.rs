//! The two serving workloads: a trained DGNN behind the dense store
//! (`serve_small`) and the streamed `scale_bench` world behind the lazy
//! sharded store (`serve_scale`), both through `Server::start` with
//! `ServeConfig::default()`.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dgnn_core::{Dgnn, DgnnConfig};
use dgnn_data::{epinions_small, scale_bench};
use dgnn_eval::Trainable as _;
use dgnn_serve::{
    Checkpoint, Engine, Query, SegmentedCheckpoint, SegmentedWriter, ServeConfig, Server,
};
use dgnn_tensor::{parallel, top_k_rows, Matrix};

use crate::http;
use crate::kernels;
use crate::load::{self, Mix, Sample, Tally};
use crate::report::{out_dir, RunResult};
use crate::spec::Workload;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::zipf::{Rng, Zipf};

/// Set-ups per run (median reported) and cold start cycles.
const SETUPS: usize = 3;
const COLD_STARTS: usize = 31;
/// Epochs `serve_small` trains before checkpointing.
const SMALL_EPOCHS: usize = 5;
/// Open loop: offered rate, split over `SENDERS` threads. Well under the
/// closed-loop capacity of either workload, so no backlog grows.
const OPEN_RATE: f64 = 200.0;
const SENDERS: usize = 2;
/// Closed loop: clients that each wait for their reply.
const CLIENTS: usize = 2;
/// Shares of `--seconds` the two loops get.
const OPEN_SHARE: f64 = 0.6;
const CLOSED_SHARE: f64 = 0.4;
/// The gated tail and throughput are medians over windows of this length
/// (200 open-loop requests, so a p95 with ten samples beyond it; ~400
/// closed-loop replies): what a host freeze delays stays in the windows it
/// hit instead of deciding the whole run's number.
const OPEN_WINDOW: Duration = Duration::from_secs(1);
const CLOSED_WINDOW: Duration = Duration::from_millis(500);
/// Streams [`typical_stream`] chooses among, the forks of a stream the two
/// loops draw from, and the draws per second it expects of one closed-loop
/// client (a faster commit draws more, and reaches a shard or two more).
const STREAM_CANDIDATES: u64 = 31;
const OPEN_STREAM: u64 = 102;
const CLOSED_STREAM: u64 = 103;
const CLOSED_DRAWS_PER_SECOND: f64 = 250.0;
/// Untimed requests after start-up, before the open loop.
const WARMUP_REQUESTS: usize = 20;
/// Traced replay: queries per second of `--seconds`, and the batch size of
/// the batched engine replay.
const REPLAY_PER_SECOND: usize = 150;
const BATCH: usize = 32;

/// Scratch directory under `benchmark/out/`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload) -> Self {
        let dir = out_dir().join(format!("work-{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).expect("creating the scratch directory");
        Self(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What set-up leaves on disk.
enum Store {
    /// `serve_small`: a monolithic checkpoint file.
    Dense(PathBuf),
    /// `serve_scale`: a segmented checkpoint directory.
    Segmented(PathBuf),
}

impl Store {
    fn open(&self) -> Engine {
        match self {
            Store::Dense(path) => Engine::load(path).expect("loading the checkpoint"),
            Store::Segmented(dir) => {
                Engine::open_segmented(dir).expect("opening the segmented checkpoint")
            }
        }
    }
}

/// Generates the data from `seed` (see [`data_seed`]), builds the model and
/// writes what the server loads, each layer call under its own span.
fn set_up(workload: Workload, seed: u64, work: &Path, tracer: &mut Tracer) -> Store {
    match workload {
        Workload::ServeSmall => {
            let data = tracer.span("data.gen", 0, |_| epinions_small(seed));
            let mut model = Dgnn::new(DgnnConfig {
                epochs: SMALL_EPOCHS,
                ..DgnnConfig::default()
            });
            tracer.span("core.fit", 0, |_| model.fit(&data, seed));
            let path = work.join("dgnn.ckpt");
            tracer.span("serve.checkpoint.save", 0, |_| {
                model
                    .save_checkpoint(&data.name, &path)
                    .expect("saving the checkpoint");
            });
            Store::Dense(path)
        }
        Workload::ServeScale => {
            let spec = scale_bench();
            let dir = work.join("world");
            let mut writer = SegmentedWriter::create(&dir).expect("creating the segment directory");
            writer.set_meta("model", "scale-world");
            writer.set_meta("dataset", spec.name);
            for s in 0..spec.num_user_shards() {
                let shard = tracer.span("data.gen", s as u64, |_| spec.user_shard(seed, s));
                tracer.span("serve.segment.write", s as u64, |_| {
                    writer
                        .push_user_shard(&shard.emb, &shard.seen_indptr, &shard.seen_items)
                        .expect("user shard");
                });
            }
            for s in 0..spec.num_item_shards() {
                let shard = tracer.span("data.gen", s as u64, |_| spec.item_shard(seed, s));
                tracer.span("serve.segment.write", s as u64, |_| {
                    writer.push_item_shard(&shard.emb).expect("item shard")
                });
            }
            tracer.span("serve.segment.write", 0, |_| {
                writer.finish().expect("writing the manifest")
            });
            Store::Segmented(dir)
        }
        _ => unreachable!("not a serving workload"),
    }
}

/// The seed set-up generates its data from: for `serve_small` the
/// `epinions_small` seed of the size-stable world `seed` picks (finding it
/// is input selection, not set-up), for `serve_scale` the seed itself.
fn data_seed(workload: Workload, seed: u64) -> u64 {
    match workload {
        Workload::ServeSmall => crate::world::epinions(seed).1,
        _ => seed,
    }
}

/// The request mix of a workload over an engine with `num_users` users.
fn mix_for(workload: Workload, num_users: usize) -> Mix {
    match workload {
        Workload::ServeSmall => Mix {
            zipf: Zipf::new(num_users, 1.1),
            ks: &[5, 10, 15],
            exclude_seen_half: true,
        },
        _ => Mix {
            zipf: Zipf::new(num_users, 1.4),
            ks: &[10],
            exclude_seen_half: false,
        },
    }
}

/// The generator of a run's request stream. Behind the sharded store every
/// user shard a stream reaches stays resident (≈ 0.28 MB of `peak_rss_mb`
/// apiece) and the Zipf(1.4) streams of different seeds reach 40 to 59 of
/// the 128, which alone spread `peak_rss_mb` by 10%. So, like the
/// size-stable worlds, the stream is the one of [`STREAM_CANDIDATES`]
/// seed-derived candidates that reaches the median number of shards: its
/// working set is the typical one. The dense store has no shards and takes
/// the first candidate.
fn typical_stream(rng: &Rng, engine: &Engine, mix: &Mix, seconds: u64) -> Rng {
    let candidate = |i: u64| rng.fork(200 + i);
    let Some(stats) = engine.shard_stats() else {
        return candidate(0);
    };
    let per_shard = engine.num_users().div_ceil(stats.user_total);
    let closed_n = (CLOSED_SHARE * seconds as f64 * CLOSED_DRAWS_PER_SECOND) as usize;
    let reach = |stream: &Rng| {
        let closed = stream.fork(CLOSED_STREAM);
        let mut draws = vec![(stream.fork(OPEN_STREAM), open_requests(seconds))];
        draws.extend((0..CLIENTS as u64).map(|c| (closed.fork(c), closed_n)));
        let mut shards = BTreeSet::new();
        for (mut rng, n) in draws {
            shards.extend((0..n).map(|_| mix.draw(&mut rng).user as usize / per_shard));
        }
        shards.len()
    };
    let mut by_reach: Vec<(usize, u64)> = (0..STREAM_CANDIDATES)
        .map(|i| (reach(&candidate(i)), i))
        .collect();
    by_reach.sort_unstable();
    candidate(by_reach[by_reach.len() / 2].1)
}

fn open_requests(seconds: u64) -> usize {
    (OPEN_RATE * OPEN_SHARE * seconds as f64) as usize
}

/// One cold cycle: open/load, `Server::start`, first answered request.
/// Returns the time to that first 200 and whether it was one.
fn cold_start(store: &Store, first: &Query) -> (f64, bool) {
    let started = Instant::now();
    let server = Server::start(store.open(), ServeConfig::default()).expect("starting the server");
    let reply = http::get(server.addr(), &load::target(first));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    (ms, matches!(reply, Ok((200, _))))
}

fn expected_from(engine: &Engine) -> impl Fn(&Query) -> Option<Vec<u32>> + '_ {
    |q| {
        engine
            .recommend(*q)
            .ok()
            .map(|items| items.iter().map(|s| s.item).collect())
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let mut out = RunResult::new(workload, seed, seconds, false);
    let work = WorkDir::new(workload);
    let rng = Rng::new(seed);

    let data_seed = data_seed(workload, seed);
    let mut setup_s = Vec::new();
    let mut store = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        store = Some(set_up(workload, data_seed, &work.0, &mut Tracer::off()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let store = store.expect("SETUPS > 0");
    out.metric("setup_s", median(&setup_s));

    // The direct engine every sampled answer is checked against, after the
    // timed window; until then it only sizes the request mix.
    let reference = store.open();
    let mix = mix_for(workload, reference.num_users());
    let rng = typical_stream(&rng, &reference, &mix, seconds);

    let server = Server::start(store.open(), ServeConfig::default()).expect("starting the server");
    let addr = server.addr();
    let mut warm_rng = rng.fork(101);
    for _ in 0..WARMUP_REQUESTS {
        let _ = http::get(addr, &load::target(&mix.draw(&mut warm_rng)));
    }

    let schedule = load::open_schedule(
        open_requests(seconds),
        OPEN_RATE,
        &mix,
        &mut rng.fork(OPEN_STREAM),
    );
    let open = load::run_open(addr, &schedule, SENDERS);
    let closed_for = Duration::from_secs_f64(CLOSED_SHARE * seconds as f64);
    let (closed, closed_s) =
        load::run_closed(addr, CLIENTS, closed_for, &mix, &rng.fork(CLOSED_STREAM));
    out.metric("peak_rss_mb", crate::sysinfo::peak_rss_mb());
    server.shutdown();

    // Cold cycles come after the RSS reading: dozens of generations of server
    // threads leave freed memory spread over malloc arenas in a different
    // pattern every run, which would otherwise be most of the peak.
    let first = mix.draw(&mut rng.fork(100));
    let cold: Vec<(f64, bool)> = (0..COLD_STARTS)
        .map(|_| cold_start(&store, &first))
        .collect();
    out.metric(
        "startup_ms_p50",
        median(&cold.iter().map(|c| c.0).collect::<Vec<_>>()),
    );
    let cold_failed = cold.iter().filter(|c| !c.1).count() as u64;

    let open_tally = load::tally(&open, expected_from(&reference));
    let closed_tally = load::tally(&closed, expected_from(&reference));
    let total = open_tally + closed_tally;

    let open_latency: Vec<f64> = open.iter().map(Sample::latency_ms).collect();
    out.metric("latency_ms_p50", median(&open_latency));
    let window_p95 = load::window_percentiles(&open, OPEN_WINDOW, 0.95);
    out.metric("latency_ms_tail", median(&window_p95));
    let window_rps = load::window_rates(&closed, CLOSED_WINDOW, closed_for);
    out.metric("throughput_per_s", median(&window_rps));

    out.attempted = COLD_STARTS as u64 + total.sent;
    out.failed = cold_failed + total.failed;
    out.check("sampled answers were verified", total.verified > 0);
    if let Some(stats) = reference.shard_stats() {
        out.check(
            "user shards stay lazily resident",
            stats.user_resident < stats.user_total,
        );
        // What `typical_stream` steadies, as the run saw it.
        let per_shard = reference.num_users().div_ceil(stats.user_total);
        let touched: BTreeSet<usize> = open
            .iter()
            .chain(&closed)
            .map(|s| s.query.user as usize / per_shard)
            .collect();
        out.extra
            .set("loadgen.user_shards_touched", "count", touched.len() as f64);
    }

    let lateness: Vec<f64> = open.iter().map(Sample::lateness_ms).collect();
    for (name, unit, value) in [
        ("throughput_rps", "req/s", closed_tally.ok as f64 / closed_s),
        ("latency_ms_p95", "ms", percentile(&open_latency, 0.95)),
        ("loadgen.sent", "count", total.sent as f64),
        ("loadgen.ok", "count", total.ok as f64),
        ("loadgen.failed", "count", total.failed as f64),
        ("loadgen.verified", "count", total.verified as f64),
        (
            "loadgen.late_share",
            "ratio",
            open_tally.late as f64 / open_tally.sent.max(1) as f64,
        ),
        ("loadgen.lateness_ms_p99", "ms", percentile(&lateness, 0.99)),
        (
            "loadgen.latency_ms_p99",
            "ms",
            percentile(&open_latency, 0.99),
        ),
        ("samples.setups", "count", SETUPS as f64),
        ("samples.cold_starts", "count", COLD_STARTS as f64),
        ("samples.open_loop", "count", open_tally.sent as f64),
        ("samples.open_windows", "count", window_p95.len() as f64),
        ("samples.closed_loop", "count", closed_tally.sent as f64),
        ("samples.closed_windows", "count", window_rps.len() as f64),
        ("open_loop.rate", "req/s", OPEN_RATE),
        ("closed_loop.clients", "count", CLIENTS as f64),
    ] {
        out.extra.set(name, unit, value);
    }
    out
}

/// The tables the engine scores against, loaded the way it loads them, for
/// replaying its kernels directly.
struct Tables {
    /// User rows to gather from (the whole table, or the first shard).
    users: Matrix,
    /// The item table, or each item shard.
    items: Vec<Matrix>,
    num_items: usize,
}

impl Tables {
    fn load(store: &Store) -> Self {
        match store {
            Store::Dense(path) => {
                let ckpt = Checkpoint::load(path).expect("loading the checkpoint");
                let item = ckpt.matrix("final/item").expect("final/item");
                let users = ckpt.matrix("final/user").expect("final/user");
                Self {
                    users,
                    num_items: item.rows(),
                    items: vec![item],
                }
            }
            Store::Segmented(dir) => {
                let seg = SegmentedCheckpoint::open(dir).expect("opening the manifest");
                let items: Vec<Matrix> = (0..seg.item_spec().num_shards())
                    .map(|s| seg.load_item_shard(s).expect("item shard"))
                    .collect();
                let users = seg.load_user_shard(0).expect("user shard 0").emb;
                Self {
                    users,
                    num_items: items.iter().map(Matrix::rows).sum(),
                    items,
                }
            }
        }
    }

    /// The GEMMs `Engine::recommend_batch` issues for `queries`: one
    /// gathered `matmul_nt` per item table or shard.
    fn score(&self, queries: &[Query]) {
        let rows: Vec<usize> = queries
            .iter()
            .map(|q| q.user as usize % self.users.rows())
            .collect();
        for block in &self.items {
            std::hint::black_box(self.users.gather_matmul_nt(&rows, block));
        }
    }

    fn score_flops(&self, batch: usize) -> f64 {
        2.0 * (batch * self.users.cols() * self.num_items) as f64
    }
}

/// The traced run: per-layer metrics from a single-threaded replay of the
/// open-loop schedule's first queries, four ways (HTTP `/recommend`, HTTP
/// `/health`, the engine directly, the kernels the engine calls), each
/// under a span carrying the query's index so layers subtract cleanly.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64) -> (RunResult, Tracer) {
    let mut out = RunResult::new(workload, seed, seconds, true);
    let mut tracer = Tracer::new();
    let traced_from = Instant::now();
    let work = WorkDir::new(workload);
    let rng = Rng::new(seed);
    let ambient_threads = parallel::current_threads();

    kernels::machine(&mut out, &mut tracer);

    let store = set_up(workload, data_seed(workload, seed), &work.0, &mut tracer);
    let total_ms = |tracer: &Tracer, name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    out.metric("data.gen_ms", total_ms(&tracer, "data.gen"));
    match &store {
        Store::Dense(path) => {
            out.metric(
                "serve.checkpoint.save_ms",
                total_ms(&tracer, "serve.checkpoint.save"),
            );
            out.metric(
                "serve.checkpoint.bytes",
                std::fs::metadata(path).map_or(0.0, |m| m.len() as f64),
            );
            for i in 0..5 {
                tracer.span("serve.checkpoint.load", i, |_| {
                    Checkpoint::load(path).expect("loading the checkpoint")
                });
            }
            out.metric(
                "serve.checkpoint.load_ms",
                median(&tracer.durations_ms("serve.checkpoint.load")),
            );
        }
        Store::Segmented(dir) => {
            let bytes: u64 = std::fs::read_dir(dir)
                .expect("listing the segment directory")
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum();
            out.metric(
                "serve.segment.write_mbps",
                bytes as f64 / 1e6 / (total_ms(&tracer, "serve.segment.write") / 1e3),
            );
            for i in 0..5 {
                tracer.span("serve.segment.open", i, |_| {
                    Engine::open_segmented(dir).expect("opening the segments")
                });
            }
            out.metric(
                "serve.segment.open_ms",
                median(&tracer.durations_ms("serve.segment.open")),
            );
            out.metric(
                "serve.shard.first_touch_ms_p50",
                first_touch_ms(&store, &mut tracer),
            );
        }
    }

    let engine = store.open();
    let mix = mix_for(workload, engine.num_users());
    let rng = typical_stream(&rng, &engine, &mix, seconds);
    let n = REPLAY_PER_SECOND * seconds as usize;
    let schedule = load::open_schedule(n, OPEN_RATE, &mix, &mut rng.fork(OPEN_STREAM));
    let queries: Vec<Query> = schedule.iter().map(|s| s.query).collect();

    let server = Server::start(store.open(), ServeConfig::default()).expect("starting the server");
    let tally = replay_http(server.addr(), &queries, &engine, &mut tracer);
    server.shutdown();
    out.attempted = tally.sent;
    out.failed = tally.failed;
    out.check("sampled answers were verified", tally.verified > 0);
    out.metric("loadgen.replayed", queries.len() as f64);
    out.metric("loadgen.ok", tally.ok as f64);
    out.metric("loadgen.failed", tally.failed as f64);
    out.metric("loadgen.verified", tally.verified as f64);

    for (i, q) in queries.iter().enumerate() {
        tracer.span("serve.engine.batch1", i as u64, |_| {
            std::hint::black_box(engine.recommend_batch(&[*q]))
        });
    }
    for (i, chunk) in queries.chunks_exact(BATCH).enumerate() {
        tracer.span("serve.engine.batch32", (i * BATCH) as u64, |_| {
            std::hint::black_box(engine.recommend_batch(chunk))
        });
    }
    if let Some(stats) = engine.shard_stats() {
        out.check(
            "user shards stay lazily resident",
            stats.user_resident < stats.user_total,
        );
        out.metric(
            "serve.shard.user_resident_share",
            stats.user_resident as f64 / stats.user_total as f64,
        );
    }

    let tables = Tables::load(&store);
    let mut score_rng = rng.fork(104);
    let scores1 = Matrix::from_fn(1, tables.num_items, |_, _| score_rng.next_f64() as f32);
    for (i, q) in queries.iter().enumerate() {
        tracer.span("serve.kernels", i as u64, |tracer| {
            tracer.span("tensor.gemm.score_b1", i as u64, |_| {
                tables.score(std::slice::from_ref(q))
            });
            tracer.span("tensor.topk", i as u64, |_| {
                std::hint::black_box(top_k_rows(&scores1, q.k))
            });
        });
    }
    for (i, chunk) in queries.chunks_exact(BATCH).enumerate() {
        tracer.span("tensor.gemm.score_b32", (i * BATCH) as u64, |_| {
            tables.score(chunk)
        });
    }

    // The single-worker baseline: batched scoring with the kernel pool
    // pinned to one thread against the ambient width.
    let pool_probe = |threads: usize| {
        parallel::set_threads(threads);
        let secs = kernels::sample_secs(Duration::from_millis(25 * seconds), || {
            std::hint::black_box(engine.recommend_batch(&queries[..BATCH]));
        });
        median(&secs)
    };
    let serial = pool_probe(1);
    let pooled = pool_probe(ambient_threads);
    out.metric("tensor.pool.threads", ambient_threads as f64);
    out.metric("tensor.pool.speedup", serial / pooled);

    let p50 = |tracer: &Tracer, name: &str| median(&tracer.durations_ms(name));
    let (recommend, health, batch1) = (
        p50(&tracer, "serve.http.recommend"),
        p50(&tracer, "serve.http.health"),
        p50(&tracer, "serve.engine.batch1"),
    );
    out.metric("serve.http.recommend_rtt_ms_p50", recommend);
    out.metric("serve.http.health_rtt_ms_p50", health);
    out.metric("serve.http.batch_wait_ms_p50", recommend - health - batch1);
    out.metric("serve.engine.batch1_ms_p50", batch1);
    out.metric(
        "serve.engine.batch32_ms_p50",
        p50(&tracer, "serve.engine.batch32"),
    );
    out.metric(
        "serve.engine.kernel_share",
        p50(&tracer, "serve.kernels") / batch1,
    );
    out.metric(
        "tensor.gemm.score_b1_gflops",
        tables.score_flops(1) / (p50(&tracer, "tensor.gemm.score_b1") / 1e3) / 1e9,
    );
    out.metric(
        "tensor.gemm.score_b32_gflops",
        tables.score_flops(BATCH) / (p50(&tracer, "tensor.gemm.score_b32") / 1e3) / 1e9,
    );
    out.metric("tensor.topk.us_p50", p50(&tracer, "tensor.topk") * 1e3);

    out.metric("trace.spans", tracer.spans().len() as f64);
    out.metric(
        "trace.overhead_share",
        tracer.overhead_share(traced_from.elapsed()),
    );
    for (name, value) in [
        ("samples.replay_queries", queries.len()),
        ("shape.num_items", tables.num_items),
        ("shape.dim", tables.users.cols()),
        ("shape.item_blocks", tables.items.len()),
    ] {
        out.extra.set(name, "count", value as f64);
    }
    (out, tracer)
}

/// Replays `queries` over HTTP one at a time (`/recommend`, then the same
/// number of `/health` round trips, which skip the batcher), checking every
/// [`load::VERIFY_EVERY`]-th answer against `engine`.
fn replay_http(addr: SocketAddr, queries: &[Query], engine: &Engine, tracer: &mut Tracer) -> Tally {
    let origin = Instant::now();
    let samples: Vec<Sample> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let keep = i % load::VERIFY_EVERY == 0;
            tracer.span("serve.http.recommend", i as u64, |_| {
                load::fire(addr, origin, origin.elapsed(), *q, keep)
            })
        })
        .collect();
    let mut tally = load::tally(&samples, expected_from(engine));
    for i in 0..queries.len() as u64 {
        let reply = tracer.span("serve.http.health", i, |_| http::get(addr, "/health"));
        tally.sent += 1;
        if matches!(reply, Ok((200, _))) {
            tally.ok += 1;
        } else {
            tally.failed += 1;
        }
    }
    tally
}

/// Median time of the first query into an untouched user shard of a fresh
/// engine (after one priming query has loaded the item shards).
fn first_touch_ms(store: &Store, tracer: &mut Tracer) -> f64 {
    let engine = store.open();
    let spec = scale_bench();
    let query = |shard: usize| Query {
        user: (shard * spec.users_per_shard) as u32,
        k: 10,
        exclude_seen: false,
    };
    engine.recommend(query(0)).expect("priming query");
    for shard in 1..=16.min(spec.num_user_shards() - 1) {
        tracer.span("serve.shard.first_touch", shard as u64, |_| {
            engine.recommend(query(shard)).expect("first touch")
        });
    }
    median(&tracer.durations_ms("serve.shard.first_touch"))
}
