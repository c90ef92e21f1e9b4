//! Minimal blocking HTTP/1.1 client: one connection per request.
//!
//! The reply is read by `Content-Length`, not to end-of-stream, so the
//! client is indifferent to whether the server closes the connection after
//! answering.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// `GET target`; returns the status code and the body.
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A server that never answers must fail the request, not hang the run.
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    (&stream).write_all(format!("GET {target} HTTP/1.1\r\nHost: benchmark\r\n\r\n").as_bytes())?;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let mut length: Option<usize> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("headers cut short"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok();
            }
        }
    }
    let length = length.ok_or_else(|| bad("no Content-Length"))?;
    if length > 1 << 24 {
        return Err(bad("unreasonable Content-Length"));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| bad("body is not UTF-8"))
}

/// The `"items":[…]` list of a `/recommend` reply.
pub fn items_of(body: &str) -> Option<Vec<u32>> {
    let tail = body.split_once("\"items\":[")?.1;
    let list = tail.split_once(']')?.0;
    if list.trim().is_empty() {
        return Some(Vec::new());
    }
    list.split(',').map(|s| s.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_parsed_from_a_reply_body() {
        let body = "{\"user\":3,\"k\":2,\"items\":[9,4],\"scores\":[1.5,0.5]}";
        assert_eq!(items_of(body), Some(vec![9, 4]));
        assert_eq!(items_of("{\"items\":[]}"), Some(vec![]));
        assert_eq!(items_of("{\"error\":\"nope\"}"), None);
        assert_eq!(items_of("{\"items\":[1,x]}"), None);
    }
}
