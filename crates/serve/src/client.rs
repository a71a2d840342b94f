//! A deliberately small *blocking* HTTP/1.1 client: enough to forward a
//! job to a peer shard, poll its result, and drive the `repro sweep` /
//! `repro connscale` client paths — std-only, `Connection: close` per
//! request, with both `Content-Length` and chunked response bodies
//! understood (the sweep stream is chunked).
//!
//! This is intentionally not a general client: one request per
//! connection, bounded by a wall-clock deadline, no TLS, no redirects.
//! It runs on worker-pool threads and in CLI processes — never on the
//! reactor thread, which must not block.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One response: the status line's code and the decoded body.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
}

/// Performs one blocking HTTP/1.1 request against `addr` (host:port).
/// The connection is closed after the response; `timeout` bounds the
/// connect and each socket read/write.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<HttpResponse, String> {
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket timeouts on {addr}: {e}"))?;

    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if !body.is_empty() {
        req.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    req.push_str("\r\n");
    req.push_str(body);
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    parse_response(&raw).map_err(|e| format!("response from {addr}: {e}"))
}

/// Splits a complete `Connection: close` response into status and
/// decoded body (de-chunking when the peer streamed).
fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("truncated response head")?;
    let head =
        std::str::from_utf8(&raw[..head_end]).map_err(|_| "non-UTF-8 response head".to_string())?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let chunked = head.lines().any(|l| {
        l.split_once(':').is_some_and(|(n, v)| {
            n.trim().eq_ignore_ascii_case("transfer-encoding")
                && v.trim().eq_ignore_ascii_case("chunked")
        })
    });
    let payload = &raw[head_end + 4..];
    let body = if chunked {
        dechunk(payload)?
    } else {
        payload.to_vec()
    };
    String::from_utf8(body)
        .map(|body| HttpResponse { status, body })
        .map_err(|_| "non-UTF-8 response body".to_string())
}

/// Decodes a chunked body: `size-hex\r\n data \r\n`*, terminated by a
/// zero-length chunk. A missing terminator is an error (truncation).
fn dechunk(mut rest: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size")?;
        let size_txt = std::str::from_utf8(&rest[..line_end])
            .ok()
            .map(|s| s.trim())
            .ok_or("bad chunk size")?;
        let size = usize::from_str_radix(size_txt, 16)
            .map_err(|_| format!("bad chunk size `{size_txt}`"))?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        // The size is the peer's: it may be anything up to `usize::MAX`.
        let end = size
            .checked_add(2)
            .ok_or_else(|| format!("chunk size `{size_txt}` overflows"))?;
        if rest.len() < end {
            return Err("truncated chunk body".into());
        }
        out.extend_from_slice(&rest[..size]);
        rest = &rest[end..];
    }
}

/// True when `addr` answers `GET /healthz` with `200` within `timeout`.
pub fn healthy(addr: &str, timeout: Duration) -> bool {
    matches!(http_request(addr, "GET", "/healthz", "", timeout), Ok(r) if r.status == 200)
}

/// Extracts the raw serialised stats object from a job body (the bytes
/// after `"stats":`, balanced to the closing brace) — kept verbatim so a
/// forwarded result stays byte-identical to the peer's serialisation.
pub fn extract_stats(body: &str) -> Option<&str> {
    let at = body.find("\"stats\":")?;
    let obj = &body[at + "\"stats\":".len()..];
    let bytes = obj.as_bytes();
    if bytes.first() != Some(&b'{') {
        return None;
    }
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&obj[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Runs one job on a peer shard: POST the spec, then — if the job was
/// queued rather than answered from cache — poll `GET /v1/jobs/<id>`
/// until it lands or `deadline` passes. Returns the peer's serialised
/// stats object, byte-identical to a local serialisation of the same
/// deterministic simulation.
pub fn run_on_peer(
    addr: &str,
    spec_json: &str,
    job_id: &str,
    deadline: Duration,
) -> Result<String, String> {
    let started = Instant::now();
    let step = Duration::from_secs(10).min(deadline);
    let posted = http_request(addr, "POST", "/v1/run", spec_json, step)?;
    match posted.status {
        200 => {
            return extract_stats(&posted.body)
                .map(str::to_string)
                .ok_or_else(|| "peer answered 200 without stats".to_string());
        }
        202 | 429 => {}
        s => return Err(format!("peer rejected job: {s} {}", posted.body.trim_end())),
    }
    let path = format!("/v1/jobs/{job_id}");
    loop {
        if started.elapsed() > deadline {
            return Err(format!("peer did not finish {job_id} within {deadline:?}"));
        }
        std::thread::sleep(Duration::from_millis(25));
        let polled = http_request(addr, "GET", &path, "", step)?;
        match polled.status {
            200 if polled.body.contains("\"status\":\"done\"") => {
                return extract_stats(&polled.body)
                    .map(str::to_string)
                    .ok_or_else(|| "peer answered done without stats".to_string());
            }
            200 if polled.body.contains("\"status\":\"error\"") => {
                return Err(format!("peer job failed: {}", polled.body.trim_end()));
            }
            200 | 404 => {} // queued/running, or a 429-deferred POST: retry
            s => return Err(format!("peer poll failed: {s} {}", polled.body.trim_end())),
        }
        // A 429 on the initial POST means the peer's queue was full; the
        // job never enqueued, so re-POST (idempotent by content address).
        if posted.status == 429 && polled.status == 404 {
            let reposted = http_request(addr, "POST", "/v1/run", spec_json, step)?;
            if reposted.status == 200 {
                return extract_stats(&reposted.body)
                    .map(str::to_string)
                    .ok_or_else(|| "peer answered 200 without stats".to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_content_length_and_chunked_bodies() {
        let plain =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse_response(plain).unwrap();
        assert_eq!((r.status, r.body.as_str()), (200, "{}"));
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                        4\r\nab\r\n\r\n3\r\ncd\n\r\n0\r\n\r\n";
        let r = parse_response(chunked).unwrap();
        assert_eq!((r.status, r.body.as_str()), (200, "ab\r\ncd\n"));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r").is_err());
        let truncated = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nab";
        assert!(parse_response(truncated).is_err());
        // A chunk size at `usize::MAX` is an error, not an overflow.
        let huge = b"ffffffffffffffff\r\nab\r\n0\r\n\r\n";
        assert!(dechunk(huge).unwrap_err().contains("overflows"));
        let mut resp = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        resp.extend_from_slice(huge);
        assert!(parse_response(&resp).is_err());
    }

    #[test]
    fn stats_extraction_is_balanced_and_verbatim() {
        let body = r#"{"job":"x","status":"done","stats":{"a":{"b":1},"s":"}{"},"requestId":"r"}"#;
        assert_eq!(extract_stats(body), Some(r#"{"a":{"b":1},"s":"}{"}"#));
        assert_eq!(extract_stats(r#"{"status":"queued"}"#), None);
        assert_eq!(extract_stats(r#"{"stats":{"unbalanced":true"#), None);
    }
}
