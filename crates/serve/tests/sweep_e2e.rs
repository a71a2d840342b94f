//! End-to-end exercises of the sweep orchestrator over real sockets:
//! overlapping grids reuse the content-addressed cache (exactly one
//! simulation per unique point), queued jobs coalesce across `/v1/run`
//! and `/v1/sweep` in both directions, the NDJSON stream carries one
//! line per point, a two-shard farm renders figure CSV byte-identical to a
//! single node (and to a direct in-process computation), and a dead
//! shard degrades to local fallback instead of failing the sweep.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hidisc_bench::{fig8, run_suite, Fig8Report, Report};
use hidisc_serve::client::http_request;
use hidisc_serve::{JobSpec, ServeConfig, Service};
use hidisc_workloads::Scale;

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let r = http_request(
        &addr.to_string(),
        method,
        path,
        body,
        Duration::from_secs(60),
    )
    .expect("request");
    (r.status, r.body)
}

fn json_str(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = body.find(&pat)? + pat.len();
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_string())
}

fn json_num(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let end = body[start..]
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(body.len() - start)
        + start;
    body[start..end].parse().ok()
}

/// Polls `GET /v1/sweeps/<id>` until the sweep reports `done`.
fn poll_sweep(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/v1/sweeps/{id}"), "");
        assert_eq!(status, 200, "poll failed: {body}");
        if json_str(&body, "status").as_deref() == Some("done") {
            return body;
        }
        assert!(Instant::now() < deadline, "sweep {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    body.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{body}"))
}

fn start_plain() -> Service {
    let cfg = ServeConfig::builder()
        .workers(2)
        .queue_depth(64)
        .build()
        .expect("valid serve config");
    Service::start(cfg).expect("service start")
}

/// The fig8 sweep body: the full 7-benchmark suite at test scale with
/// the paper seed, rendered as fig8.
fn fig8_grid() -> String {
    let names: Vec<String> = hidisc_workloads::suite(Scale::Test, 0)
        .into_iter()
        .map(|w| format!("\"{}\"", w.name))
        .collect();
    format!(
        "{{\"workloads\":[{}],\"scales\":[\"test\"],\"seeds\":[2003],\
         \"render\":\"fig8\",\"stream\":false}}",
        names.join(",")
    )
}

#[test]
fn overlapping_grids_simulate_each_unique_point_exactly_once() {
    let svc = start_plain();
    let addr = svc.addr();

    // Seed the cache through the plain run endpoint first.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","model":"superscalar"}"#,
    );
    assert!(status == 200 || status == 202, "{status} {body}");
    let job = json_str(&body, "job").expect("job id");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, b) = request(addr, "GET", &format!("/v1/jobs/{job}"), "");
        if json_str(&b, "status").as_deref() == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "seed job never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 1);

    // Sweep over dm (4 models): the superscalar point must come from
    // the cache; only the other 3 simulate.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workloads":["dm"],"stream":false}"#,
    );
    assert_eq!(status, 202, "{body}");
    let sweep = json_str(&body, "sweep").expect("sweep id");
    let done = poll_sweep(addr, &sweep);
    assert_eq!(json_num(&done, "total"), Some(4), "{done}");
    assert_eq!(json_num(&done, "cached"), Some(1), "{done}");
    assert_eq!(json_num(&done, "simulated"), Some(3), "{done}");
    assert_eq!(json_num(&done, "failed"), Some(0), "{done}");
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 4);

    // An overlapping grid: every dm point is already cached, only the
    // 4 pointer points simulate. Exactly one simulation per unique
    // point, across endpoints and sweeps.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workloads":["dm","pointer"],"stream":false}"#,
    );
    assert_eq!(status, 202, "{body}");
    let sweep2 = json_str(&body, "sweep").expect("sweep id");
    assert_ne!(sweep, sweep2, "different grids get different ids");
    let done = poll_sweep(addr, &sweep2);
    assert_eq!(json_num(&done, "total"), Some(8), "{done}");
    assert_eq!(json_num(&done, "cached"), Some(4), "{done}");
    assert_eq!(json_num(&done, "simulated"), Some(4), "{done}");
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 8);

    // Re-POSTing an equivalent grid (axis order shuffled) coalesces
    // onto the finished sweep: same id, nothing re-simulated.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workloads":["pointer","dm"],"stream":false}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_str(&body, "sweep").as_deref(), Some(sweep2.as_str()));
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 8);
    svc.shutdown();
}

#[test]
fn the_stream_carries_one_line_per_point_with_request_ids() {
    let svc = start_plain();
    let addr = svc.addr();
    // Default stream:true — the response is chunked NDJSON that keeps
    // flowing until the sweep finishes (http_request de-chunks).
    let (status, body) = request(addr, "POST", "/v1/sweep", r#"{"workloads":["tc"]}"#);
    assert_eq!(status, 200, "{body}");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(
        lines.len(),
        1 + 4 + 1,
        "header + 4 points + summary:\n{body}"
    );
    assert!(lines[0].contains("\"status\":\"accepted\""), "{}", lines[0]);
    assert_eq!(json_num(lines[0], "total"), Some(4), "{}", lines[0]);
    for line in &lines[1..5] {
        assert!(json_str(line, "point").is_some(), "{line}");
        assert!(json_str(line, "requestId").is_some(), "{line}");
        assert_eq!(json_str(line, "status").as_deref(), Some("done"), "{line}");
    }
    assert!(lines[5].contains("\"status\":\"done\""), "{}", lines[5]);
    assert_eq!(json_num(lines[5], "failed"), Some(0), "{}", lines[5]);

    // A replayed POST of the same grid returns the identical history.
    let (status, replay) = request(addr, "POST", "/v1/sweep", r#"{"workloads":["tc"]}"#);
    assert_eq!(status, 200);
    assert_eq!(replay, body, "replay must be byte-identical");
    svc.shutdown();
}

#[test]
fn a_two_shard_farm_renders_fig8_byte_identical_to_a_single_node() {
    // Shard 1 is a plain backend: it needs no shard config of its own
    // because forwarded points arrive as ordinary `POST /v1/run`s.
    let backend = start_plain();
    let front_cfg = ServeConfig::builder()
        .workers(2)
        .queue_depth(64)
        .shard_of(0, 2)
        .peers(vec!["127.0.0.1:1".to_string(), backend.addr().to_string()])
        .build()
        .expect("valid shard config");
    let front = Service::start(front_cfg).expect("front start");
    let addr = front.addr();

    let (status, body) = request(addr, "POST", "/v1/sweep", &fig8_grid());
    assert_eq!(status, 202, "{body}");
    let sweep = json_str(&body, "sweep").expect("sweep id");
    let done = poll_sweep(addr, &sweep);
    assert_eq!(json_num(&done, "total"), Some(28), "{done}");
    assert_eq!(json_num(&done, "failed"), Some(0), "{done}");
    let forwarded = json_num(&done, "forwarded").expect("forwarded count");
    assert!(forwarded > 0, "no points were forwarded: {done}");
    assert!(
        metric(backend.addr(), "hidisc_serve_sim_runs_total") > 0,
        "the backend shard never simulated"
    );

    let (status, farm_csv) = request(addr, "GET", &format!("/v1/sweeps/{sweep}/render"), "");
    assert_eq!(status, 200, "{farm_csv}");

    // Single node, same grid.
    let single = start_plain();
    let (status, body) = request(single.addr(), "POST", "/v1/sweep", &fig8_grid());
    assert_eq!(status, 202, "{body}");
    let sweep1 = json_str(&body, "sweep").expect("sweep id");
    assert_eq!(sweep1, sweep, "the sweep id is topology-independent");
    poll_sweep(single.addr(), &sweep1);
    let (status, single_csv) = request(
        single.addr(),
        "GET",
        &format!("/v1/sweeps/{sweep1}/render"),
        "",
    );
    assert_eq!(status, 200, "{single_csv}");
    assert_eq!(farm_csv, single_csv, "farm and single-node CSV must match");

    // ... and both match a direct in-process fig8 computation.
    let cfg = JobSpec::default().config().expect("paper config");
    let direct = Fig8Report(fig8(&run_suite(Scale::Test, 2003, cfg))).render_csv();
    assert_eq!(farm_csv, direct, "service CSV must match the direct run");

    front.shutdown();
    single.shutdown();
    backend.shutdown();
}

#[test]
fn a_dead_shard_degrades_to_local_fallback_without_failing_the_sweep() {
    // Reserve a port, then free it: connections to it are refused.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let front_cfg = ServeConfig::builder()
        .workers(2)
        .queue_depth(64)
        .shard_of(0, 2)
        .peers(vec!["127.0.0.1:1".to_string(), dead])
        .build()
        .expect("valid shard config");
    let front = Service::start(front_cfg).expect("front start");
    let addr = front.addr();

    let (status, body) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workloads":["dm","pointer"],"stream":false}"#,
    );
    assert_eq!(status, 202, "{body}");
    let sweep = json_str(&body, "sweep").expect("sweep id");
    let done = poll_sweep(addr, &sweep);
    assert_eq!(json_num(&done, "total"), Some(8), "{done}");
    assert_eq!(json_num(&done, "failed"), Some(0), "{done}");
    assert_eq!(
        json_num(&done, "forwarded"),
        Some(0),
        "nothing can be forwarded to a dead peer: {done}"
    );
    assert!(
        metric(addr, "hidisc_serve_shard_fallbacks_total") > 0,
        "the dead shard's points must fall back locally"
    );
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("hidisc_serve_shard_healthy{shard=\"1\"} 0"),
        "shard 1 must be marked unhealthy:\n{metrics}"
    );
    front.shutdown();
}

#[test]
fn runs_and_sweeps_coalesce_onto_each_others_queued_jobs() {
    // One worker, held busy by a long job that ends on its wall-clock
    // budget: every job submitted after it stays queued meanwhile.
    let cfg = ServeConfig::builder()
        .workers(1)
        .queue_depth(8)
        .build()
        .expect("valid serve config");
    let svc = Service::start(cfg).expect("service start");
    let addr = svc.addr();
    let (status, body) = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","scale":"large","seed":1,"timeout_ms":1500}"#,
    );
    assert_eq!(status, 202, "{body}");

    // A /v1/run job queues behind it...
    let (status, body) = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","model":"superscalar"}"#,
    );
    assert_eq!(status, 202, "{body}");
    assert_eq!(
        json_str(&body, "status").as_deref(),
        Some("queued"),
        "{body}"
    );

    // ...and a sweep containing its point coalesces onto it, queueing
    // only the other three.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workloads":["dm"],"stream":false}"#,
    );
    assert_eq!(status, 202, "{body}");
    let sweep = json_str(&body, "sweep").expect("sweep id");
    assert_eq!(metric(addr, "hidisc_serve_coalesced_total"), 1);

    // A /v1/run for one of the sweep's queued points coalesces onto it.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","model":"hidisc"}"#,
    );
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"coalesced\":true"), "{body}");
    assert_eq!(
        json_str(&body, "status").as_deref(),
        Some("queued"),
        "{body}"
    );
    assert_eq!(metric(addr, "hidisc_serve_coalesced_total"), 2);

    let done = poll_sweep(addr, &sweep);
    assert_eq!(json_num(&done, "total"), Some(4), "{done}");
    assert_eq!(json_num(&done, "cached"), Some(1), "{done}");
    assert_eq!(json_num(&done, "simulated"), Some(3), "{done}");
    assert_eq!(json_num(&done, "failed"), Some(0), "{done}");
    // One simulation per unique point: the busy job plus dm's 4 models.
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 5);
    svc.shutdown();
}
