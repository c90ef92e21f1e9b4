//! Std-only HTTP/1.1 front end with micro-batched query execution.
//!
//! Three thread groups cooperate over channels:
//!
//! ```text
//! acceptor ──streams──▶ worker pool ──jobs──▶ micro-batcher
//!                        │    ▲                   │
//!                        │    └── per-job reply ──┘
//!                        └──▶ response bytes to the socket
//! ```
//!
//! Workers parse requests and block on a per-job reply channel; the
//! batcher takes the first pending job, drains more until `batch_tick`
//! elapses or `batch_max` is reached, and answers the whole batch with one
//! gathered matmul + one top-K select ([`Engine::recommend_batch`]).
//! Batching is a pure latency/throughput trade: per-query results are
//! bit-identical regardless of which requests happen to share a tick.
//!
//! Request handling *fails soft*: malformed requests, unknown routes,
//! unknown users and bad parameters produce well-formed JSON 4xx/5xx
//! responses — never a panic. Handlers emit `dgnn-obs` spans (active when
//! the handling thread has obs enabled).
//!
//! # Live telemetry
//!
//! Every request carries a [`RequestTrace`]: phase timings (parse,
//! queue-wait, batch-assembly, engine, write) recorded live into the
//! process-shared histograms — the server's one stats path — scrapeable
//! while the server runs:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4);
//! * `GET /stats` — the same snapshot as JSON;
//! * `GET /health` — enriched with uptime, requests answered (the
//!   process-wide `serve/requests_{ok,err}` counters), readiness;
//! * `GET /debug/flight` — the flight-recorder ring as JSONL.
//!
//! Worker and batcher threads hold a [`FlightDumpOnPanic`] guard: if one
//! panics, the flight recorder's last ~512 events are dumped as JSONL to
//! [`ServeConfig::flight_dump`] before the thread dies. A deliberate
//! crash for drills lives at `GET /debug/panic`, off unless
//! [`ServeConfig::debug_panic`] opts in.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dgnn_obs::{flight_record, now_ns, FlightKind};

use crate::engine::{Engine, Query, QueryError, ScoredItem};
use crate::trace::{telemetry, PhaseBreakdown, RequestTrace};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads parsing requests and writing responses.
    pub workers: usize,
    /// Maximum queries coalesced into one engine dispatch.
    pub batch_max: usize,
    /// How long the batcher waits for ride-along queries after the first.
    pub batch_tick: Duration,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// `k` used when a request does not specify one.
    pub default_k: usize,
    /// Where a panicking worker/batcher dumps the flight recorder (JSONL).
    /// `None` disables the dump file; `/debug/flight` still serves the
    /// ring.
    pub flight_dump: Option<PathBuf>,
    /// Enables `GET /debug/panic` (crash-drill injection). Off by default;
    /// only test/benchmark harnesses opt in.
    pub debug_panic: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            batch_max: 64,
            batch_tick: Duration::from_millis(2),
            read_timeout: Duration::from_secs(5),
            default_k: 10,
            flight_dump: None,
            debug_panic: false,
        }
    }
}

struct Job {
    query: Query,
    /// [`now_ns`] at enqueue; the batcher derives queue-wait from it.
    enqueued_ns: u64,
    reply: mpsc::Sender<(Result<Vec<ScoredItem>, QueryError>, PhaseBreakdown)>,
}

/// Dumps the flight recorder to a file if the owning thread unwinds.
/// Workers and the batcher hold one for their whole loop; the `Drop` runs
/// during unwinding, after the panic payload is built but before the
/// thread dies, so the dump always captures the `panic` event.
struct FlightDumpOnPanic {
    path: Option<PathBuf>,
}

impl Drop for FlightDumpOnPanic {
    fn drop(&mut self) {
        if !thread::panicking() {
            return;
        }
        flight_record(FlightKind::Panic, 0, 0);
        if let Some(path) = &self.path {
            // Best effort: a failed dump must not double-panic the thread.
            let _ = std::fs::write(path, dgnn_obs::flight_dump_jsonl());
        }
    }
}

/// A running server; dropping (or [`Server::shutdown`]) stops every thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor, worker pool, and micro-batcher, and
    /// returns once the socket is listening. Passing an `Arc<Engine>`
    /// keeps a handle on the served engine (e.g. for
    /// [`Engine::shard_stats`] while it serves).
    pub fn start(engine: impl Into<Arc<Engine>>, cfg: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let engine = engine.into();
        let started = Instant::now();
        let mut threads = Vec::new();

        let (job_tx, job_rx) = mpsc::channel::<Job>();
        {
            let engine = Arc::clone(&engine);
            let (batch_max, tick) = (cfg.batch_max.max(1), cfg.batch_tick);
            let dump = cfg.flight_dump.clone();
            // The engine's kernels still run on the pool.
            #[expect(
                clippy::disallowed_methods,
                reason = "request coalescing, not a compute kernel"
            )]
            let t = thread::Builder::new()
                .name("dgnn-serve-batcher".to_string())
                .spawn(move || batcher_loop(&engine, &job_rx, batch_max, tick, dump))?;
            threads.push(t);
        }

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        for w in 0..cfg.workers.max(1) {
            let conn_rx = Arc::clone(&conn_rx);
            let job_tx = job_tx.clone();
            let engine = Arc::clone(&engine);
            let cfg = cfg.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "socket I/O and parsing, not a compute kernel"
            )]
            let t = thread::Builder::new()
                .name(format!("dgnn-serve-worker-{w}"))
                .spawn(move || worker_loop(&conn_rx, &job_tx, &engine, &cfg, started))?;
            threads.push(t);
        }
        drop(job_tx);

        {
            let stop = Arc::clone(&stop);
            #[expect(clippy::disallowed_methods, reason = "the accept loop, not a compute kernel")]
            let t =
                thread::Builder::new().name("dgnn-serve-accept".to_string()).spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(s) = stream {
                            if conn_tx.send(s).is_err() {
                                break;
                            }
                        }
                    }
                })?;
            threads.push(t);
        }

        Ok(Self { addr, stop, threads })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the thread pool, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn batcher_loop(
    engine: &Engine,
    rx: &mpsc::Receiver<Job>,
    batch_max: usize,
    tick: Duration,
    flight_dump: Option<PathBuf>,
) {
    let _dump_guard = FlightDumpOnPanic { path: flight_dump };
    let mut batch_id = 0u64;
    // Runs until every worker (job sender) has exited.
    while let Ok(first) = rx.recv() {
        let _g = dgnn_obs::span("serve/batch");
        // Per-job dequeue timestamps: queue-wait ends (and batch assembly
        // begins) the moment the batcher takes a job off the channel.
        let mut dequeued_ns = vec![now_ns()];
        let mut jobs = vec![first];
        let deadline = Instant::now() + tick;
        while jobs.len() < batch_max {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(j) => {
                    dequeued_ns.push(now_ns());
                    jobs.push(j);
                }
                Err(_) => break,
            }
        }
        batch_id += 1;
        telemetry().batch_size.record(jobs.len() as f64);
        flight_record(FlightKind::BatchStart, batch_id, jobs.len() as u64);
        let queries: Vec<Query> = jobs.iter().map(|j| j.query).collect();
        let t_engine0 = now_ns();
        let results = engine.recommend_batch(&queries);
        let engine_us = now_ns().saturating_sub(t_engine0) / 1000;
        flight_record(FlightKind::BatchDone, batch_id, engine_us);
        let batch_size = jobs.len() as u32;
        for ((job, result), deq_ns) in jobs.into_iter().zip(results).zip(dequeued_ns) {
            let phases = PhaseBreakdown {
                queue_wait_us: deq_ns.saturating_sub(job.enqueued_ns) / 1000,
                batch_assembly_us: t_engine0.saturating_sub(deq_ns) / 1000,
                engine_us,
                batch_size,
            };
            // A dropped reply receiver just means the client went away.
            let _ = job.reply.send((result, phases));
        }
    }
}

fn worker_loop(
    conn_rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    job_tx: &mpsc::Sender<Job>,
    engine: &Engine,
    cfg: &ServeConfig,
    server_started: Instant,
) {
    let _dump_guard = FlightDumpOnPanic { path: cfg.flight_dump.clone() };
    loop {
        // Take the lock only to pop the next connection; a poisoned lock
        // (a peer worker panicked mid-pop) leaves the queue usable.
        let next = conn_rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
        match next {
            Ok(stream) => handle_connection(stream, job_tx, engine, cfg, server_started),
            Err(_) => return,
        }
    }
}

/// One HTTP exchange; all failures degrade to an error response (or a
/// dropped connection when even writing fails).
fn handle_connection(
    stream: TcpStream,
    job_tx: &mpsc::Sender<Job>,
    engine: &Engine,
    cfg: &ServeConfig,
    server_started: Instant,
) {
    let _g = dgnn_obs::span("serve/request");
    let mut trace = RequestTrace::begin();
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let mut reader = BufReader::new(stream);
    let parsed = read_request(&mut reader);
    trace.parse_us = trace.elapsed_us();
    let ctx = RouteCtx { engine, cfg, server_started };
    let response = match parsed {
        Ok(target) => route(&target, job_tx, &ctx, &mut trace),
        Err(msg) => Response::error(400, &msg),
    };
    let mut stream = reader.into_inner();
    let t_write0 = now_ns();
    let _ = stream.write_all(response.to_http().as_bytes());
    let _ = stream.flush();
    trace.write_us = now_ns().saturating_sub(t_write0) / 1000;
    trace.finish(response.status);
}

/// Read-only state every route handler may need.
struct RouteCtx<'a> {
    engine: &'a Engine,
    cfg: &'a ServeConfig,
    server_started: Instant,
}

/// Reads the request line and drains headers. Returns the request target
/// (path + query string) of a well-formed `GET`.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    const MAX_LINE: usize = 8192;
    const MAX_HEADERS: usize = 100;
    let mut line = String::new();
    read_crlf_line(reader, &mut line, MAX_LINE)?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(format!("malformed request line {:?}", line.trim_end())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    if method != "GET" {
        return Err(format!("unsupported method {method:?} (only GET)"));
    }
    let target = target.to_string();
    // Drain headers up to the blank line; their contents are irrelevant.
    for _ in 0..MAX_HEADERS {
        let mut h = String::new();
        read_crlf_line(reader, &mut h, MAX_LINE)?;
        if h == "\r\n" || h == "\n" || h.is_empty() {
            return Ok(target);
        }
    }
    Err("too many headers".to_string())
}

fn read_crlf_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
    max: usize,
) -> Result<(), String> {
    buf.clear();
    let mut bytes = Vec::new();
    loop {
        let available = reader.fill_buf().map_err(|e| format!("read failed: {e}"))?;
        if available.is_empty() {
            break;
        }
        let nl = available.iter().position(|&b| b == b'\n');
        let take = nl.map_or(available.len(), |i| i + 1);
        bytes.extend_from_slice(&available[..take]);
        reader.consume(take);
        if nl.is_some() {
            break;
        }
        if bytes.len() > max {
            return Err("request line too long".to_string());
        }
    }
    match String::from_utf8(bytes) {
        Ok(s) => {
            *buf = s;
            Ok(())
        }
        Err(_) => Err("request is not valid UTF-8".to_string()),
    }
}

fn route(
    target: &str,
    job_tx: &mpsc::Sender<Job>,
    ctx: &RouteCtx<'_>,
    trace: &mut RequestTrace,
) -> Response {
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        // `requests` counts every finished response in this process: the
        // same `serve/requests_{ok,err}` counters `/metrics` exports.
        "/health" => Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"users\":{},\"items\":{},\"dim\":{},\
                 \"uptime_secs\":{},\"requests\":{},\"ready\":true}}",
                ctx.engine.num_users(),
                ctx.engine.num_items(),
                ctx.engine.dim(),
                dgnn_obs::export::json_number(ctx.server_started.elapsed().as_secs_f64()),
                telemetry().requests_ok.get() + telemetry().requests_err.get(),
            ),
        ),
        "/recommend" => recommend_route(query_string, job_tx, ctx.cfg, trace),
        "/metrics" => {
            // Refresh the process RSS gauges so every scrape carries
            // current residency next to the serve counters.
            dgnn_obs::procstat::publish_rss();
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: dgnn_obs::export::prometheus_text(
                    &dgnn_obs::shared::snapshot(),
                    &dgnn_obs::shared::hist_snapshots(),
                ),
            }
        }
        "/stats" => Response::json(
            200,
            dgnn_obs::export::snapshot_to_json(&dgnn_obs::shared::snapshot(), 0),
        ),
        "/debug/flight" => Response {
            status: 200,
            content_type: "application/x-ndjson",
            body: dgnn_obs::flight_dump_jsonl(),
        },
        // The worker's FlightDumpOnPanic guard turns this panic into a
        // flight-recorder dump on the way down.
        #[expect(
            clippy::panic,
            reason = "a deliberate crash drill, off unless cfg.debug_panic, that exercises the flight dump"
        )]
        "/debug/panic" if ctx.cfg.debug_panic => {
            flight_record(FlightKind::Panic, trace.id, 0);
            panic!("panic injected via /debug/panic (request {})", trace.id);
        }
        _ => Response::error(404, &format!("no route for {path:?}")),
    }
}

fn recommend_route(
    query_string: &str,
    job_tx: &mpsc::Sender<Job>,
    cfg: &ServeConfig,
    trace: &mut RequestTrace,
) -> Response {
    let query = match parse_query(query_string, cfg.default_k) {
        Ok(q) => q,
        Err(msg) => return Response::error(400, &msg),
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job { query, enqueued_ns: now_ns(), reply: reply_tx };
    if job_tx.send(job).is_err() {
        return Response::error(503, "server is shutting down");
    }
    match reply_rx.recv_timeout(Duration::from_secs(30)) {
        Ok((result, phases)) => {
            trace.phases = Some(phases);
            match result {
                Ok(items) => Response::json(200, recommendation_body(&query, &items)),
                Err(e @ QueryError::UnknownUser { .. }) => Response::error(404, &e.to_string()),
                Err(e @ QueryError::BadK { .. }) => Response::error(400, &e.to_string()),
                // Valid query, degraded backend (unloadable shard): 503.
                Err(e @ QueryError::ShardUnavailable { .. }) => {
                    Response::error(503, &e.to_string())
                }
            }
        }
        Err(_) => Response::error(503, "query timed out"),
    }
}

/// Parses `user=…&k=…&exclude_seen=…`. `user` is required; `k` defaults to
/// the server's `default_k`; `exclude_seen` defaults to `false` (serve the
/// raw model ranking).
fn parse_query(query_string: &str, default_k: usize) -> Result<Query, String> {
    let mut user: Option<u32> = None;
    let mut k = default_k;
    let mut exclude_seen = false;
    for pair in query_string.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "user" => {
                user =
                    Some(value.parse::<u32>().map_err(|_| {
                        format!("user must be a non-negative integer, got {value:?}")
                    })?);
            }
            "k" => {
                k = value
                    .parse::<usize>()
                    .map_err(|_| format!("k must be a positive integer, got {value:?}"))?;
            }
            "exclude_seen" => {
                exclude_seen = match value {
                    "true" | "1" => true,
                    "false" | "0" => false,
                    other => return Err(format!("exclude_seen must be true/false, got {other:?}")),
                };
            }
            other => return Err(format!("unknown parameter {other:?}")),
        }
    }
    let user = user.ok_or_else(|| "missing required parameter 'user'".to_string())?;
    Ok(Query { user, k, exclude_seen })
}

fn recommendation_body(q: &Query, items: &[ScoredItem]) -> String {
    let mut body = format!("{{\"user\":{},\"k\":{},\"items\":[", q.user, q.k);
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&s.item.to_string());
    }
    body.push_str("],\"scores\":[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&dgnn_obs::export::json_number(f64::from(s.score)));
    }
    body.push_str("]}");
    body
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self { status, content_type: "application/json", body }
    }

    fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!("{{\"error\":{},\"status\":{status}}}", dgnn_obs::export::json_string(message)),
        )
    }

    fn to_http(&self) -> String {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            self.body
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_accepts_and_defaults() {
        let q = parse_query("user=7", 10).unwrap();
        assert_eq!(q, Query { user: 7, k: 10, exclude_seen: false });
        let q = parse_query("user=7&k=3&exclude_seen=true", 10).unwrap();
        assert_eq!(q, Query { user: 7, k: 3, exclude_seen: true });
    }

    #[test]
    fn query_parsing_rejects_garbage() {
        assert!(parse_query("", 10).is_err(), "user is required");
        assert!(parse_query("user=-1", 10).is_err());
        assert!(parse_query("user=7&k=abc", 10).is_err());
        assert!(parse_query("user=7&exclude_seen=maybe", 10).is_err());
        assert!(parse_query("user=7&frobnicate=1", 10).is_err());
    }

    #[test]
    fn error_responses_are_well_formed_json() {
        let r = Response::error(400, "bad \"thing\"\n");
        assert!(r.body.starts_with("{\"error\":\"bad \\\"thing\\\"\\n\""));
        let http = r.to_http();
        assert!(http.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        assert!(http.contains(&format!("Content-Length: {}", r.body.len())));
    }

    #[test]
    fn recommendation_body_lists_items_and_scores() {
        let q = Query { user: 3, k: 2, exclude_seen: false };
        let body = recommendation_body(
            &q,
            &[ScoredItem { item: 9, score: 1.5 }, ScoredItem { item: 4, score: 0.5 }],
        );
        assert_eq!(body, "{\"user\":3,\"k\":2,\"items\":[9,4],\"scores\":[1.5,0.5]}");
    }
}
