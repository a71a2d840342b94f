//! Connection-ramp benchmark: opens a wall of keep-alive connections
//! against a running service and drives request rounds over all of them,
//! measuring how far the reactor scales (the `repro connscale`
//! subcommand; CI runs it at 512 connections, the perf table at 10k+).
//!
//! The client side is itself reactor-shaped — non-blocking sockets on an
//! `epoll-shim` poller — because a thread per probe connection would hit
//! the same wall the server-side rewrite removed.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use epoll_shim::{Event, Interest, Poller};

use crate::json::Json;

/// How the ramp is driven.
#[derive(Debug, Clone)]
pub struct RampConfig {
    /// Address of a running service.
    pub addr: SocketAddr,
    /// Connections to establish and hold for the whole run.
    pub conns: usize,
    /// Keep-alive request rounds over every connection (each round is one
    /// `GET /healthz` per connection, awaiting every response).
    pub rounds: usize,
    /// Connections opened per connect burst — bounded so the ramp does
    /// not outrun the listener backlog.
    pub connect_batch: usize,
    /// Per-round (and per connect-burst) deadline before the remaining
    /// connections count as dropped.
    pub timeout: Duration,
    /// Drive a small batch sweep (`POST /v1/sweep`, 8 points) while the
    /// connection wall is still held, measuring sweep throughput under
    /// keep-alive pressure. Best-effort: a failed sweep reports 0 points
    /// and never fails the ramp.
    pub sweep: bool,
}

impl RampConfig {
    /// Defaults: 512 connections, 3 rounds, bursts of 128, 30 s deadline,
    /// held-wall sweep on.
    pub fn new(addr: SocketAddr) -> RampConfig {
        RampConfig {
            addr,
            conns: 512,
            rounds: 3,
            connect_batch: 128,
            timeout: Duration::from_secs(30),
            sweep: true,
        }
    }
}

/// What the ramp observed; serialised into `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct RampReport {
    /// Connections the ramp was asked to hold.
    pub conns: usize,
    /// Connections actually established.
    pub established: usize,
    /// Connections that errored, hung up or timed out mid-run.
    pub dropped: usize,
    /// Request rounds driven.
    pub rounds: usize,
    /// Requests written.
    pub requests_sent: u64,
    /// `200` responses fully received.
    pub responses_ok: u64,
    /// Responses with any other status.
    pub responses_err: u64,
    /// Responses whose head carried no `X-Request-Id` header — always 0
    /// against a healthy service; `repro connscale` fails when it is not.
    pub missing_request_id: u64,
    /// Wall-clock of the whole ramp (connect + all rounds).
    pub wall_ms: u64,
    /// Wall-clock of each request round.
    pub round_ms: Vec<u64>,
    /// Points completed by the held-wall sweep (0 when disabled or the
    /// sweep failed).
    pub sweep_points: usize,
    /// Wall-clock of the held-wall sweep, submit to done.
    pub sweep_wall_ms: u64,
}

impl RampReport {
    /// Completed responses per second over the request rounds. The
    /// connect ramp is deliberately excluded — it measures TCP setup
    /// (and, in-process, fd pressure), not the reactor's serving rate;
    /// `wall_ms` still covers the whole run for anyone who wants it.
    pub fn rps(&self) -> f64 {
        let total = self.responses_ok + self.responses_err;
        let round_ms: u64 = self.round_ms.iter().sum();
        if round_ms == 0 {
            return total as f64 * 1000.0;
        }
        total as f64 * 1000.0 / round_ms as f64
    }

    /// Sweep points completed per second while the wall was held (0.0
    /// when the sweep was disabled or failed).
    pub fn sweep_points_per_sec(&self) -> f64 {
        if self.sweep_wall_ms == 0 {
            return 0.0;
        }
        self.sweep_points as f64 * 1000.0 / self.sweep_wall_ms as f64
    }

    /// The `BENCH_serve.json` payload.
    pub fn to_json(&self) -> String {
        let rounds: Vec<String> = self.round_ms.iter().map(u64::to_string).collect();
        format!(
            "{{\"bench\":\"serve_conn_ramp\",\"conns\":{},\"established\":{},\
             \"dropped\":{},\"rounds\":{},\"requestsSent\":{},\"responsesOk\":{},\
             \"responsesErr\":{},\"missingRequestId\":{},\"wallMs\":{},\
             \"roundMs\":[{}],\"sweepPoints\":{},\"sweepWallMs\":{},\
             \"sweepPointsPerSec\":{:.1},\"rps\":{:.1}}}\n",
            self.conns,
            self.established,
            self.dropped,
            self.rounds,
            self.requests_sent,
            self.responses_ok,
            self.responses_err,
            self.missing_request_id,
            self.wall_ms,
            rounds.join(","),
            self.sweep_points,
            self.sweep_wall_ms,
            self.sweep_points_per_sec(),
            self.rps(),
        )
    }
}

const REQUEST: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: ramp\r\n\r\n";

/// The held-wall sweep grid: two workloads x four models = 8 points at
/// the default test scale.
const SWEEP_BODY: &str = "{\"workloads\":[\"dm\",\"pointer\"],\"stream\":false}";

/// POSTs [`SWEEP_BODY`] and polls the sweep to completion, returning
/// `(points, wall_ms)`; `None` on any refusal, failure or timeout.
fn drive_sweep(addr: SocketAddr, timeout: Duration) -> Option<(usize, u64)> {
    let addr = addr.to_string();
    let started = Instant::now();
    let resp = crate::client::http_request(&addr, "POST", "/v1/sweep", SWEEP_BODY, timeout).ok()?;
    if resp.status != 200 && resp.status != 202 {
        return None;
    }
    let id = Json::parse(&resp.body)
        .ok()?
        .get("sweep")?
        .as_str()?
        .to_string();
    let deadline = started + timeout;
    loop {
        let r = crate::client::http_request(&addr, "GET", &format!("/v1/sweeps/{id}"), "", timeout)
            .ok()?;
        let done = Json::parse(&r.body)
            .ok()
            .filter(|v| v.get("status").and_then(Json::as_str) == Some("done"));
        if let Some(v) = done {
            if v.get("failed")?.as_u64()? != 0 {
                return None;
            }
            let points = v.get("total")?.as_u64()? as usize;
            return Some((points, started.elapsed().as_millis() as u64));
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

struct Probe {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Unwritten suffix of the current round's request.
    pending: &'static [u8],
    /// Complete responses received this round.
    got: bool,
    dead: bool,
}

impl Probe {
    /// Writes whatever the socket accepts of the pending request.
    fn flush(&mut self) {
        while !self.pending.is_empty() {
            match self.stream.write(self.pending) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.pending = &self.pending[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Reads available bytes and scans for one complete response.
    /// Returns `Some((status, has_request_id))` when a full response
    /// arrived.
    fn pump(&mut self) -> Option<(u16, bool)> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        match scan_response(&self.buf) {
            Some((status, consumed, has_rid)) => {
                self.buf.drain(..consumed);
                self.got = true;
                Some((status, has_rid))
            }
            None => None,
        }
    }
}

/// Scans one complete HTTP response (status line + headers +
/// `Content-Length` body) from the front of `buf`, returning its status,
/// total length, and whether the head carried an `X-Request-Id` header.
fn scan_response(buf: &[u8]) -> Option<(u16, usize, bool)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut has_rid = false;
    for l in head.lines() {
        let Some((name, value)) = l.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok()?;
        } else if name.eq_ignore_ascii_case("x-request-id") && !value.trim().is_empty() {
            has_rid = true;
        }
    }
    // The length is the peer's: an overflowing one never completes.
    let total = (head_end + 4).checked_add(content_length)?;
    (buf.len() >= total).then_some((status, total, has_rid))
}

/// Runs the ramp: batched connects, then `rounds` lock-step keep-alive
/// request rounds over every surviving connection.
pub fn ramp(cfg: &RampConfig) -> std::io::Result<RampReport> {
    // Sockets beyond the default 1024-fd soft limit need headroom for the
    // poller, stdio and the test harness — and when the target service
    // runs in this same process (`repro connscale` without `--addr`),
    // every connection costs two fds, one per end.
    let _ = epoll_shim::raise_nofile_limit(cfg.conns as u64 * 2 + 512);
    let started = Instant::now();
    let poller = Poller::new()?;
    let mut probes: Vec<Probe> = Vec::with_capacity(cfg.conns);

    // Connect in bursts: the listener backlog is finite, and the server
    // accepts between bursts.
    while probes.len() < cfg.conns {
        let burst = cfg.connect_batch.min(cfg.conns - probes.len());
        let deadline = Instant::now() + cfg.timeout;
        let mut opened = 0;
        while opened < burst && Instant::now() < deadline {
            match TcpStream::connect(cfg.addr) {
                Ok(stream) => {
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    let token = probes.len() as u64;
                    poller.add(stream.as_raw_fd(), token, Interest::READ)?;
                    probes.push(Probe {
                        stream,
                        buf: Vec::new(),
                        pending: &[],
                        got: false,
                        dead: false,
                    });
                    opened += 1;
                }
                // Transient accept-queue pressure: give the reactor a beat.
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        if opened < burst {
            break; // ramp stalled; report what was established
        }
        // Give the acceptor a scheduling slot to drain the backlog: a
        // burst that lands on a full accept queue costs a dropped SYN
        // and a ~1 s retransmit, far more than this pause.
        std::thread::sleep(Duration::from_millis(2));
    }
    let established = probes.len();

    let mut requests_sent = 0u64;
    let mut responses_ok = 0u64;
    let mut responses_err = 0u64;
    let mut missing_request_id = 0u64;
    let mut round_ms = Vec::with_capacity(cfg.rounds);
    let mut events: Vec<Event> = Vec::new();

    for _ in 0..cfg.rounds {
        let round_start = Instant::now();
        let deadline = round_start + cfg.timeout;
        let mut awaiting = 0usize;
        for (i, p) in probes.iter_mut().enumerate().filter(|(_, p)| !p.dead) {
            p.pending = REQUEST;
            p.got = false;
            requests_sent += 1;
            awaiting += 1;
            p.flush();
            if !p.pending.is_empty() {
                // Socket buffer full mid-request: watch for writability.
                let _ = poller.modify(p.stream.as_raw_fd(), i as u64, Interest::READ_WRITE);
            }
        }
        while awaiting > 0 && Instant::now() < deadline {
            poller.wait(&mut events, 100)?;
            for ev in events.drain(..) {
                let Some(p) = probes.get_mut(ev.token as usize) else {
                    continue;
                };
                if p.dead || p.got {
                    continue;
                }
                if ev.writable && !p.pending.is_empty() {
                    p.flush();
                    if p.pending.is_empty() {
                        let _ = poller.modify(p.stream.as_raw_fd(), ev.token, Interest::READ);
                    }
                }
                if ev.readable || ev.hangup || ev.error {
                    if let Some((status, has_rid)) = p.pump() {
                        if status == 200 {
                            responses_ok += 1;
                        } else {
                            responses_err += 1;
                        }
                        if !has_rid {
                            missing_request_id += 1;
                        }
                    }
                }
                if p.got || p.dead {
                    awaiting -= 1;
                }
            }
        }
        round_ms.push(round_start.elapsed().as_millis() as u64);
    }

    // The sweep runs while every probe connection is still open and
    // held: it measures orchestration throughput under keep-alive
    // pressure, not on an idle reactor.
    let (sweep_points, sweep_wall_ms) = if cfg.sweep {
        drive_sweep(cfg.addr, cfg.timeout).unwrap_or((0, 0))
    } else {
        (0, 0)
    };

    let dropped = cfg.conns - established
        + probes
            .iter()
            .filter(|p| p.dead || (cfg.rounds > 0 && !p.got))
            .count();
    for p in &probes {
        let _ = poller.delete(p.stream.as_raw_fd());
    }
    Ok(RampReport {
        conns: cfg.conns,
        established,
        dropped,
        rounds: cfg.rounds,
        requests_sent,
        responses_ok,
        responses_err,
        missing_request_id,
        wall_ms: started.elapsed().as_millis() as u64,
        round_ms,
        sweep_points,
        sweep_wall_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_scanner_handles_partials_and_lengths() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..full.len() {
            assert!(scan_response(&full[..cut]).is_none(), "cut {cut}");
        }
        assert_eq!(scan_response(full), Some((200, full.len(), false)));
        let no_body = b"HTTP/1.1 503 Service Unavailable\r\n\r\nrest";
        assert_eq!(
            scan_response(no_body),
            Some((503, no_body.len() - 4, false))
        );
        let with_rid = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Request-Id: ab12\r\n\r\n{}";
        assert_eq!(scan_response(with_rid), Some((200, with_rid.len(), true)));
        let empty_rid = b"HTTP/1.1 200 OK\r\nX-Request-Id:\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(
            scan_response(empty_rid),
            Some((200, empty_rid.len(), false))
        );
        let huge = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n{}";
        assert_eq!(scan_response(huge), None);
    }

    #[test]
    fn report_serialises_to_bench_json() {
        let r = RampReport {
            conns: 512,
            established: 512,
            dropped: 0,
            rounds: 2,
            requests_sent: 1024,
            responses_ok: 1024,
            responses_err: 0,
            missing_request_id: 0,
            wall_ms: 100,
            round_ms: vec![40, 35],
            sweep_points: 8,
            sweep_wall_ms: 400,
        };
        let j = r.to_json();
        assert!(j.contains("\"bench\":\"serve_conn_ramp\""), "{j}");
        assert!(j.contains("\"dropped\":0"), "{j}");
        assert!(j.contains("\"missingRequestId\":0"), "{j}");
        assert!(j.contains("\"roundMs\":[40,35]"), "{j}");
        assert!(j.contains("\"sweepPoints\":8"), "{j}");
        assert!(j.contains("\"sweepWallMs\":400"), "{j}");
        assert!(j.contains("\"sweepPointsPerSec\":20.0"), "{j}");
        // Over the 75 ms of request rounds, not the 100 ms wall clock.
        assert!((r.rps() - 1024.0 * 1000.0 / 75.0).abs() < 1e-6);
    }
}
