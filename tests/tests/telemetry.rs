//! Telemetry gate: the observability layer's quantile math and Prometheus
//! exposition are proptested against oracles, and a live server is scraped
//! to prove `/metrics`, `/stats`, `/health`, and `/debug/flight` answer
//! with valid, internally consistent payloads — including the crash drill:
//! a worker panic must leave a flight-recorder dump on disk and the pool
//! must keep serving.
//!
//! The shared registry is process-global and tests in this binary run
//! concurrently, so every assertion on a `serve/*` series uses `>=` and
//! every synthetic series gets a name no other test touches. Nothing here
//! calls `dgnn_obs::shared::reset()` — it would race the live-server tests.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dgnn_obs::export::{
    escape_label_value, parse_prometheus_text, prometheus_text, sanitize_metric_name,
};
use dgnn_obs::percentile::percentile_sorted;
use dgnn_obs::{HistStat, Snapshot, StreamHist};
use dgnn_serve::{Checkpoint, Engine, ServeConfig, Server};
use dgnn_tensor::Matrix;
use proptest::prelude::*;

// ---------------------------------------------------------------- oracles

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The workspace percentile definition against an independently coded
    /// sorted-vector oracle: nearest rank, `round(q·(n−1))`, zero-based.
    #[test]
    fn percentile_matches_sorted_vector_oracle(
        mut v in collection::vec(1e-3f64..1e6, 1..400),
        q in 0.0f64..=1.0,
    ) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
        prop_assert_eq!(percentile_sorted(&v, q), v[idx]);
    }

    /// The streaming histogram's quantile estimate stays within one
    /// geometric half-bucket of the true nearest-rank sample: buckets are
    /// `2^e·(1+s/8)` wide, worst ratio 9/8, so the midpoint estimate is
    /// off by at most `sqrt(9/8) ≈ 1.0607` in either direction for values
    /// inside the honest bucket range.
    #[test]
    fn streamhist_quantile_has_bounded_relative_error(
        mut v in collection::vec(1e-3f64..1e6, 1..400),
        q in 0.0f64..=1.0,
    ) {
        let mut h = StreamHist::new();
        for &x in &v {
            h.record(x);
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let truth = percentile_sorted(&v, q);
        let est = h.quantile(q);
        let ratio = est / truth;
        prop_assert!(
            (0.94..=1.062).contains(&ratio),
            "estimate {est} vs true {truth} (ratio {ratio}) escaped the bucket bound"
        );
    }

    /// Render → parse round-trip over arbitrary registry contents: every
    /// series comes back, histogram bucket counts are cumulative and end
    /// at `+Inf == _count`, and `_sum` survives exactly.
    #[test]
    fn prometheus_exposition_round_trips_through_the_parser(
        counter in 0u64..1_000_000,
        gauge in -1e9f64..1e9,
        samples in collection::vec(1e-3f64..1e6, 1..200),
    ) {
        let mut h = StreamHist::new();
        for &x in &samples {
            h.record(x);
        }
        let mut snap = Snapshot::default();
        snap.counters.insert("telemetry_prop/c".to_string(), counter);
        snap.gauges.insert("telemetry_prop/g".to_string(), gauge);
        snap.histograms.insert("telemetry_prop/h".to_string(), h.stat());
        let mut hists = BTreeMap::new();
        hists.insert("telemetry_prop/h".to_string(), h.clone());

        let text = prometheus_text(&snap, &hists);
        let parsed = parse_prometheus_text(&text).unwrap();
        let find = |name: &str| -> Vec<&dgnn_obs::export::PromSample> {
            parsed.iter().filter(|s| s.name == name).collect()
        };

        prop_assert_eq!(find("telemetry_prop_c")[0].value, counter as f64);
        prop_assert_eq!(find("telemetry_prop_g")[0].value, gauge);
        prop_assert_eq!(find("telemetry_prop_h_count")[0].value, samples.len() as f64);
        let sum = find("telemetry_prop_h_sum")[0].value;
        prop_assert!((sum - h.stat().sum).abs() <= 1e-9 * h.stat().sum.abs().max(1.0));

        let buckets = find("telemetry_prop_h_bucket");
        prop_assert!(!buckets.is_empty(), "histogram exported no buckets");
        let mut prev = 0.0;
        for b in &buckets {
            prop_assert!(b.label("le").is_some(), "bucket without le label");
            prop_assert!(b.value >= prev, "bucket counts must be cumulative");
            prev = b.value;
        }
        prop_assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
        prop_assert_eq!(buckets.last().unwrap().value, samples.len() as f64);
    }
}

#[test]
fn exposition_helpers_sanitize_and_escape() {
    assert_eq!(sanitize_metric_name("serve/latency_ms"), "serve_latency_ms");
    assert_eq!(sanitize_metric_name("9lives"), "_9lives");
    assert_eq!(sanitize_metric_name("grad norm/pre-clip"), "grad_norm_pre_clip");
    assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

    // A HistStat with no full StreamHist exports as a summary, not a
    // histogram — the parser must still accept it.
    let mut snap = Snapshot::default();
    snap.histograms.insert(
        "telemetry_prop/stat_only".to_string(),
        HistStat { count: 3, sum: 6.0, min: 1.0, max: 3.0 },
    );
    let text = prometheus_text(&snap, &BTreeMap::new());
    assert!(text.contains("# TYPE telemetry_prop_stat_only summary"), "{text}");
    let parsed = parse_prometheus_text(&text).unwrap();
    assert!(parsed.iter().any(|s| s.name == "telemetry_prop_stat_only_count" && s.value == 3.0));
}

// ------------------------------------------------------------ live server

/// 4 users × 6 items — the same hand-made checkpoint the HTTP tests use.
fn test_engine() -> Engine {
    let mut ckpt = Checkpoint::new();
    ckpt.set_meta("model", "telemetry-test");
    let user = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.5]);
    let item =
        Matrix::from_vec(6, 2, vec![0.9, 0.1, 0.1, 0.9, 0.5, 0.5, 0.2, 0.3, 0.8, 0.2, 0.0, 0.0]);
    ckpt.push_matrix("final/user", &user);
    ckpt.push_matrix("final/item", &item);
    Engine::from_checkpoint(&ckpt).unwrap()
}

/// One exchange that tolerates the server dying mid-response (the crash
/// drill closes the socket without answering).
fn raw_get(addr: SocketAddr, target: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()).ok();
    s.shutdown(std::net::Shutdown::Write).ok();
    let mut raw = String::new();
    s.read_to_string(&mut raw).ok();
    raw
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let raw = raw_get(addr, target);
    let status = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn live_scrape_endpoints_are_valid_and_consistent() {
    let server = Server::start(test_engine(), ServeConfig::default()).unwrap();
    let addr = server.addr();
    let n = 20;
    for r in 0..n {
        let (status, _) = get(addr, &format!("/recommend?user={}&k=3", r % 4));
        assert_eq!(status, 200);
    }

    // /metrics: parses as Prometheus text; the request phases recorded by
    // this test are visible; bucket counts are cumulative.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "metrics scrape failed: {body:?}");
    let parsed = parse_prometheus_text(&body).unwrap_or_else(|e| panic!("invalid /metrics: {e}"));
    let value = |name: &str| parsed.iter().find(|s| s.name == name).map(|s| s.value);
    assert!(value("serve_latency_ms_count").unwrap_or(0.0) >= n as f64, "latency count low");
    for phase in ["parse", "queue_wait", "batch_assembly", "engine", "write"] {
        let name = format!("serve_phase_{phase}_ms_count");
        assert!(value(&name).unwrap_or(0.0) >= n as f64, "missing phase series {name}");
    }
    // The one-off item pack at engine build is visible: its cost, and the
    // bytes of the one layout item embeddings are resident in.
    assert!(value("serve_engine_item_pack_ms_count").unwrap_or(0.0) >= 1.0, "item pack not recorded");
    assert!(value("serve_engine_item_panel_bytes").unwrap_or(0.0) > 0.0, "item panel bytes not exported");
    let buckets: Vec<f64> = parsed
        .iter()
        .filter(|s| s.name == "serve_latency_ms_bucket")
        .map(|s| s.value)
        .collect();
    assert!(!buckets.is_empty(), "no latency buckets exported");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets not cumulative: {buckets:?}");

    // /stats: the JSON snapshot carries the same histogram names.
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    for key in ["\"histograms\"", "serve/latency_ms", "serve/phase/engine_ms"] {
        assert!(body.contains(key), "/stats missing {key}: {body:?}");
    }

    // /health: enriched liveness fields.
    let (status, body) = get(addr, "/health");
    assert_eq!(status, 200);
    for key in ["\"uptime_secs\":", "\"requests\":", "\"ready\":true"] {
        assert!(body.contains(key), "/health missing {key}: {body:?}");
    }

    // /debug/flight: JSONL, one well-formed event per line, and the
    // request traffic above left request/batch events in the ring.
    let (status, body) = get(addr, "/debug/flight");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "flight ring empty after traffic");
    for l in &lines {
        assert!(l.starts_with("{\"t_ns\":") && l.contains("\"kind\":"), "bad flight line {l:?}");
    }
    assert!(lines.iter().any(|l| l.contains("\"kind\":\"request_done\"")), "no request events");

    server.shutdown();
}

#[test]
fn worker_panic_dumps_the_flight_recorder_and_pool_survives() {
    let dump = std::env::temp_dir().join(format!("dgnn_flight_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let cfg = ServeConfig {
        debug_panic: true,
        flight_dump: Some(dump.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(test_engine(), cfg).unwrap();
    let addr = server.addr();

    let (status, _) = get(addr, "/recommend?user=1&k=2");
    assert_eq!(status, 200);

    // The drill route panics the worker mid-request: no response comes
    // back, and the Drop guard writes the dump on the way down.
    let raw = raw_get(addr, "/debug/panic");
    assert!(raw.is_empty() || !raw.starts_with("HTTP/1.1 200"), "drill answered 200: {raw:?}");

    let mut contents = String::new();
    for _ in 0..100 {
        if let Ok(c) = std::fs::read_to_string(&dump) {
            if !c.is_empty() {
                contents = c;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(!contents.is_empty(), "no flight dump appeared at {}", dump.display());
    for l in contents.lines() {
        assert!(l.starts_with("{\"t_ns\":"), "bad dump line {l:?}");
    }
    assert!(contents.contains("\"kind\":\"panic\""), "dump lacks the panic event: {contents}");
    let _ = std::fs::remove_file(&dump);

    // Three of the four workers remain; the pool keeps answering.
    let (status, _) = get(addr, "/health");
    assert_eq!(status, 200, "pool died with the panicking worker");
    let (status, _) = get(addr, "/recommend?user=0&k=1");
    assert_eq!(status, 200, "recommendations broken after the crash drill");

    server.shutdown();
}

#[test]
fn debug_panic_route_is_off_by_default() {
    let server = Server::start(test_engine(), ServeConfig::default()).unwrap();
    let addr = server.addr();
    let (status, body) = get(addr, "/debug/panic");
    assert_eq!(status, 404, "drill route must be gated off by default: {body:?}");
    let (status, _) = get(addr, "/health");
    assert_eq!(status, 200);
    server.shutdown();
}
