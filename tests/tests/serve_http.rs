//! HTTP serving tests: the server must answer well-formed queries with
//! recommendation JSON and *every* malformed or abusive request with a
//! well-formed JSON error — correct 4xx status, an `"error"` key, and a
//! worker pool that stays alive for the next connection. No training:
//! the engine is built from a hand-made checkpoint.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dgnn_serve::{Checkpoint, Engine, ServeConfig, Server};
use dgnn_tensor::Matrix;

/// 4 users × 6 items, user u's embedding picks out distinct favorites.
fn test_engine() -> Engine {
    let mut ckpt = Checkpoint::new();
    ckpt.set_meta("model", "http-test");
    let user = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.5]);
    let item =
        Matrix::from_vec(6, 2, vec![0.9, 0.1, 0.1, 0.9, 0.5, 0.5, 0.2, 0.3, 0.8, 0.2, 0.0, 0.0]);
    ckpt.push_matrix("final/user_scoring", &user);
    ckpt.push_matrix("final/item", &item);
    // User 0 has seen items 0 and 4; others have seen nothing.
    ckpt.push_u32("seen/indptr", vec![0, 2, 2, 2, 2]);
    ckpt.push_u32("seen/items", vec![0, 4]);
    Engine::from_checkpoint(&ckpt).unwrap()
}

fn start() -> Server {
    Server::start(test_engine(), ServeConfig::default()).unwrap()
}

/// One request/response exchange; returns (status, body).
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let raw = exchange(addr, format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
    let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn exchange(addr: SocketAddr, payload: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Tolerate a broken pipe: the server may reject and close before the
    // whole payload (e.g. the oversized-line probe) is written.
    s.write_all(payload).ok();
    s.shutdown(std::net::Shutdown::Write).ok();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    raw
}

/// Minimal well-formedness check for an error payload: a JSON object with
/// an `"error"` string — what a client-side handler keys on.
fn assert_json_error(status: u16, body: &str, want: u16, what: &str) {
    assert_eq!(status, want, "{what}: wrong status ({body:?})");
    assert!(
        body.trim_start().starts_with('{') && body.trim_end().ends_with('}'),
        "{what}: body is not a JSON object: {body:?}"
    );
    assert!(body.contains("\"error\""), "{what}: missing error key: {body:?}");
}

#[test]
fn health_and_recommendation_roundtrip() {
    let server = start();
    let addr = server.addr();

    let (status, body) = get(addr, "/health");
    assert_eq!(status, 200, "health: {body:?}");

    let (status, body) = get(addr, "/recommend?user=0&k=3");
    assert_eq!(status, 200, "recommend: {body:?}");
    for key in ["\"user\":0", "\"k\":3", "\"items\":[", "\"scores\":["] {
        assert!(body.contains(key), "recommend body missing {key}: {body:?}");
    }

    // exclude_seen drops user 0's training items (0 and 4) from the list.
    let (status, body) = get(addr, "/recommend?user=0&k=6&exclude_seen=true");
    assert_eq!(status, 200);
    let items = body.split("\"items\":[").nth(1).unwrap().split(']').next().unwrap();
    let ids: Vec<u32> = items.split(',').map(|s| s.trim().parse().unwrap()).collect();
    assert!(!ids.contains(&0) && !ids.contains(&4), "seen items served: {ids:?}");
    assert_eq!(ids.len(), 4, "6 items minus 2 seen: {ids:?}");

    server.shutdown();
}

#[test]
fn malformed_requests_get_json_errors_and_server_survives() {
    let server = start();
    let addr = server.addr();

    for (target, want, what) in [
        ("/recommend", 400, "missing user"),
        ("/recommend?user=", 400, "empty user"),
        ("/recommend?user=abc", 400, "non-numeric user"),
        ("/recommend?user=0&k=0", 400, "zero k"),
        ("/recommend?user=0&k=-3", 400, "negative k"),
        ("/recommend?user=0&k=abc", 400, "non-numeric k"),
        ("/recommend?user=0&exclude_seen=maybe", 400, "bad flag"),
        ("/recommend?user=0&frobnicate=1", 400, "unknown parameter"),
        ("/recommend?user=4", 404, "user out of range"),
        ("/recommend?user=4294967295", 404, "u32::MAX user"),
        ("/nope", 404, "unknown route"),
        ("/", 404, "root route"),
    ] {
        let (status, body) = get(addr, target);
        assert_json_error(status, &body, want, what);
    }

    // Protocol-level abuse: each must come back as a 400 JSON error.
    for (payload, what) in [
        (&b"\x00\x01\xfe garbage\r\n\r\n"[..], "binary garbage"),
        (&b"POST /recommend HTTP/1.1\r\n\r\n"[..], "unsupported method"),
        (&b"GET /health SPEAK/9.9\r\n\r\n"[..], "unknown protocol"),
        (&b"GET\r\n\r\n"[..], "request line too short"),
    ] {
        let raw = exchange(addr, payload);
        assert!(raw.starts_with("HTTP/1.1 400"), "{what}: {raw:?}");
        assert!(raw.contains("\"error\""), "{what}: no JSON error body: {raw:?}");
    }

    // An over-long request line must be rejected, not buffered forever.
    let long = format!("GET /recommend?user={} HTTP/1.1\r\n\r\n", "9".repeat(10_000));
    let raw = exchange(addr, long.as_bytes());
    assert!(raw.starts_with("HTTP/1.1 400"), "oversized line: {raw:?}");

    // A client that connects and hangs up sends nothing; the worker just
    // moves on.
    drop(TcpStream::connect(addr).unwrap());

    // After all of the abuse, the pool still answers.
    let (status, _) = get(addr, "/health");
    assert_eq!(status, 200, "server died under malformed traffic");
    let (status, body) = get(addr, "/recommend?user=1&k=2");
    assert_eq!(status, 200, "recommendations broken after abuse: {body:?}");

    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_answers() {
    let server = start();
    let addr = server.addr();
    let mut handles = Vec::new();
    for c in 0..8u32 {
        #[expect(clippy::disallowed_methods, reason = "concurrent HTTP clients, not kernel work")]
        handles.push(std::thread::spawn(move || {
            let mut ok = 0;
            for r in 0..25u32 {
                let (status, _) = get(addr, &format!("/recommend?user={}&k=3", (c + r) % 4));
                if status == 200 {
                    ok += 1;
                }
            }
            ok
        }));
    }
    let ok: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(ok, 8 * 25, "some concurrent requests failed");
    server.shutdown();
}
