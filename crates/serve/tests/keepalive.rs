//! Keep-alive, pipelining and versioned-API behavior of the reactor:
//! N sequential requests down one connection are byte-identical to N
//! fresh-connection runs, pipelined requests come back in order, the
//! retired unversioned API paths answer the `404` envelope, and the
//! structured error envelope carries stable codes.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hidisc_serve::{ServeConfig, Service};

fn start() -> Service {
    Service::start(ServeConfig::builder().workers(1).build().expect("config"))
        .expect("service start")
}

/// Splits a raw byte stream into complete HTTP responses (status line +
/// headers + `Content-Length` body each).
fn split_responses(mut raw: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    while !raw.is_empty() {
        let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
            break;
        };
        let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (n, v) = l.split_once(':')?;
                n.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .expect("Content-Length");
        let total = head_end + 4 + len;
        assert!(raw.len() >= total, "truncated response in stream");
        out.push(String::from_utf8(raw[..total].to_vec()).expect("UTF-8 response"));
        raw = &raw[total..];
    }
    out
}

/// Reads until `n` complete responses have arrived (or the read times
/// out), returning the raw bytes.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut raw = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut chunk = [0u8; 4096];
    while split_responses(&raw).len() < n && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => raw.extend_from_slice(&chunk[..got]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
    raw
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")
}

/// Strips the parts that legitimately differ across requests: the
/// per-request `X-Request-Id` header, the `Content-Length` (the healthz
/// body's `uptimeMs` digit count can change mid-test) and the `uptimeMs`
/// value itself. Everything else must match byte for byte.
fn normalize(resp: &str) -> String {
    let (head, body) = resp.split_once("\r\n\r\n").expect("head/body split");
    let head: String = head
        .lines()
        .filter(|l| {
            let name = l.split(':').next().unwrap_or("");
            !name.eq_ignore_ascii_case("x-request-id")
                && !name.eq_ignore_ascii_case("content-length")
        })
        .map(|l| format!("{l}\r\n"))
        .collect();
    let mut body = body.to_string();
    if let Some(at) = body.find("\"uptimeMs\":") {
        let digits_from = at + "\"uptimeMs\":".len();
        let digits = body[digits_from..]
            .bytes()
            .take_while(|b| b.is_ascii_digit())
            .count();
        body.replace_range(digits_from..digits_from + digits, "N");
    }
    format!("{head}\r\n{body}")
}

/// Extracts the value of a response header (case-insensitive name).
fn header<'a>(resp: &'a str, name: &str) -> Option<&'a str> {
    resp.split("\r\n\r\n").next()?.lines().find_map(|l| {
        let (n, v) = l.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

#[test]
fn sequential_keep_alive_matches_fresh_connections_byte_for_byte() {
    let svc = start();
    let addr = svc.addr();
    const N: usize = 8;

    // N requests down one keep-alive connection, awaiting each response
    // before sending the next.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut kept = Vec::new();
    for _ in 0..N {
        stream.write_all(get("/healthz").as_bytes()).expect("write");
        let raw = read_responses(&mut stream, 1);
        let resp = split_responses(&raw);
        assert_eq!(resp.len(), 1, "expected one response, got: {raw:?}");
        kept.push(normalize(&resp[0]));
    }
    drop(stream);

    // The same N requests, each on a fresh connection.
    let mut fresh = Vec::new();
    for _ in 0..N {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(get("/healthz").as_bytes()).expect("write");
        let raw = read_responses(&mut s, 1);
        let resp = split_responses(&raw);
        assert_eq!(resp.len(), 1);
        fresh.push(normalize(&resp[0]));
    }

    assert_eq!(kept, fresh, "keep-alive responses diverge from fresh ones");
    for r in &kept {
        assert!(r.contains("Connection: keep-alive\r\n"), "{r}");
        assert!(r.starts_with("HTTP/1.1 200 "), "{r}");
    }
    svc.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let svc = start();
    let addr = svc.addr();
    const N: usize = 16;

    let mut stream = TcpStream::connect(addr).expect("connect");
    // All N requests in one write, before reading anything.
    let mut burst = String::new();
    for i in 0..N {
        // Alternate paths so in-order delivery is observable.
        burst.push_str(&get(if i % 2 == 0 {
            "/healthz"
        } else {
            "/v1/jobs/zzz"
        }));
    }
    stream.write_all(burst.as_bytes()).expect("write burst");
    let raw = read_responses(&mut stream, N);
    let resp = split_responses(&raw);
    assert_eq!(resp.len(), N, "missing pipelined responses");
    for (i, r) in resp.iter().enumerate() {
        if i % 2 == 0 {
            assert!(r.starts_with("HTTP/1.1 200 "), "response {i}: {r}");
            assert!(r.contains("\"status\":\"ok\""), "response {i}: {r}");
        } else {
            assert!(r.starts_with("HTTP/1.1 404 "), "response {i}: {r}");
            assert!(r.contains("\"code\":\"not_found\""), "response {i}: {r}");
        }
    }
    svc.shutdown();
}

#[test]
fn legacy_unversioned_paths_are_not_found() {
    let svc = start();
    let addr = svc.addr();

    for path in ["/run", "/jobs/abc", "/sweep", "/shutdown"] {
        let mut s = TcpStream::connect(addr).expect("connect");
        let req = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
        );
        s.write_all(req.as_bytes()).expect("write");
        let raw = read_responses(&mut s, 1);
        let resp = split_responses(&raw);
        assert_eq!(resp.len(), 1, "{path}");
        let r = &resp[0];
        assert!(r.starts_with("HTTP/1.1 404 "), "{path}: {r}");
        assert!(r.contains("\"code\":\"not_found\""), "{path}: {r}");
        assert!(!r.contains("Location:"), "{path}: {r}");
    }
    // The probes stay unversioned.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(get("/healthz").as_bytes()).expect("write");
    let raw = read_responses(&mut s, 1);
    assert!(split_responses(&raw)[0].starts_with("HTTP/1.1 200 "));
    svc.shutdown();
}

#[test]
fn sweep_endpoint_is_live_and_validates_its_body() {
    let svc = start();
    let addr = svc.addr();
    // An empty body is a 400 with the parse diagnostic — not the old
    // 501 "reserved" answer: the route is live.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(
        b"POST /v1/sweep HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    )
    .expect("write");
    let raw = read_responses(&mut s, 1);
    let r = &split_responses(&raw)[0];
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    assert!(r.contains("\"code\":\"bad_request\""), "{r}");
    // A bad grid gets the planner's diagnostic.
    let mut s = TcpStream::connect(addr).expect("connect");
    let body = r#"{"workloads":["no-such-workload"]}"#;
    let req = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("write");
    let raw = read_responses(&mut s, 1);
    let r = &split_responses(&raw)[0];
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    assert!(r.contains("unknown workload"), "{r}");
    svc.shutdown();
}

#[test]
fn parse_errors_answer_the_envelope_and_close() {
    let svc = start();
    let addr = svc.addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(b"NOT-HTTP\r\n\r\n").expect("write");
    let raw = read_responses(&mut s, 1);
    let resp = split_responses(&raw);
    assert_eq!(resp.len(), 1);
    let r = &resp[0];
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    assert!(r.contains("\"code\":\"bad_request\""), "{r}");
    assert!(r.contains("Connection: close\r\n"), "{r}");
    // The envelope and the response header agree on the request id.
    let rid = header(r, "x-request-id").expect("X-Request-Id header");
    assert!(!rid.is_empty(), "{r}");
    assert!(
        r.contains(&format!("\"request_id\":\"{rid}\"")),
        "envelope request_id should match the X-Request-Id header: {r}"
    );
    // The server closes after the error: the next read sees EOF.
    let mut sink = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match s.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                assert!(Instant::now() < deadline, "connection never closed");
            }
            Err(_) => break,
        }
    }
    svc.shutdown();
}

#[test]
fn invalid_serve_configs_are_typed_errors() {
    use hidisc_serve::ServeConfigError;

    let err = ServeConfig::builder().addr("nonsense").build().unwrap_err();
    assert_eq!(err.code(), "SRV001");
    assert!(err.to_string().contains("host:port"), "{err}");

    let err = ServeConfig::builder().workers(0).build().unwrap_err();
    assert_eq!(err.code(), "SRV002");
    assert_eq!(err, ServeConfigError::Zero { what: "workers" });

    let err = ServeConfig::builder().queue_depth(0).build().unwrap_err();
    assert_eq!(err.code(), "SRV002");

    let err = ServeConfig::builder().cache_bytes(0).build().unwrap_err();
    assert_eq!(err.code(), "SRV002");

    let err = ServeConfig::builder()
        .idle_timeout_ms(0)
        .build()
        .unwrap_err();
    assert_eq!(err.code(), "SRV003");
    assert!(err.to_string().contains("idle_timeout_ms"), "{err}");

    // The happy path resolves workers and keeps what was set.
    let cfg = ServeConfig::builder()
        .queue_depth(7)
        .cache_bytes(1 << 20)
        .max_connections(33)
        .idle_timeout_ms(1_234)
        .build()
        .expect("valid");
    assert!(cfg.workers() >= 1);
    assert_eq!(cfg.queue_depth(), 7);
    assert_eq!(cfg.cache_bytes(), 1 << 20);
    assert_eq!(cfg.max_connections(), 33);
    assert_eq!(cfg.idle_timeout(), Duration::from_millis(1_234));
}

/// Drives a ramp through the public benchmark API against a live
/// service: every connection established, every response received.
#[test]
fn connection_ramp_holds_keep_alive_connections_without_drops() {
    let svc = Service::start(
        ServeConfig::builder()
            .workers(1)
            .max_connections(256)
            .build()
            .expect("config"),
    )
    .expect("service start");
    let addr: SocketAddr = svc.addr();

    let mut cfg = hidisc_serve::scale::RampConfig::new(addr);
    cfg.conns = 128;
    cfg.rounds = 2;
    let report = hidisc_serve::scale::ramp(&cfg).expect("ramp");
    assert_eq!(report.established, 128, "{report:?}");
    assert_eq!(report.dropped, 0, "{report:?}");
    assert_eq!(report.responses_ok, 256, "{report:?}");
    assert_eq!(report.responses_err, 0, "{report:?}");
    assert_eq!(report.missing_request_id, 0, "{report:?}");
    assert_eq!(report.sweep_points, 8, "{report:?}");
    assert!(report.sweep_points_per_sec() > 0.0, "{report:?}");
    let json = report.to_json();
    assert!(json.contains("\"bench\":\"serve_conn_ramp\""), "{json}");
    assert!(json.contains("\"missingRequestId\":0"), "{json}");
    assert!(json.contains("\"sweepPoints\":8"), "{json}");
    svc.shutdown();
}
