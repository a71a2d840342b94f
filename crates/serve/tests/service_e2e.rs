//! End-to-end exercises of the simulation service over real sockets:
//! duplicate coalescing (N identical POSTs → one simulation, results
//! byte-identical to a direct `Machine::run`), bounded-queue
//! backpressure (429 + Retry-After), wall-clock timeout mapping,
//! typed 400s for bad requests, and disk-cache persistence across a
//! service restart (a torn cache file is simulated again).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hidisc_serve::{JobSpec, ServeConfig, Service};
use hidisc_slicer::{compile, CompilerConfig};

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // `Connection: close` because this helper reads to EOF; the
    // keep-alive path is covered by tests/keepalive.rs.
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Response {
        status,
        headers,
        body: body.to_string(),
    }
}

fn json_str(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = body.find(&pat)? + pat.len();
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_string())
}

/// The raw `"stats"` object of a job body (it is always the last field).
fn stats_of(body: &str) -> &str {
    let idx = body.find(",\"stats\":").expect("body has stats") + ",\"stats\":".len();
    let end = body.trim_end().len() - 1; // strip the closing `}` of the envelope
    &body[idx..end]
}

fn poll_job(addr: SocketAddr, id: &str) -> Response {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(r.status, 200, "poll failed: {}", r.body);
        let status = json_str(&r.body, "status").expect("status field");
        if status == "done" || status == "error" {
            return r;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let r = request(addr, "GET", "/metrics", "");
    assert_eq!(r.status, 200);
    r.body
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{}", r.body))
}

fn start(workers: usize, queue_depth: usize, cache_dir: Option<std::path::PathBuf>) -> Service {
    let mut b = ServeConfig::builder()
        .workers(workers)
        .queue_depth(queue_depth);
    if let Some(dir) = cache_dir {
        b = b.cache_dir(dir);
    }
    Service::start(b.build().expect("valid serve config")).expect("service start")
}

/// Runs the same job the service would, directly, and returns the stats
/// JSON the service caches.
fn direct_stats(body: &str) -> String {
    let spec = JobSpec::from_json(body.as_bytes()).expect("spec");
    let cfg = spec.config().expect("config");
    let w = hidisc_workloads::by_name(&spec.workload, spec.scale, spec.seed).expect("workload");
    let env = hidisc_bench::env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).expect("compile");
    let mut m = hidisc::Machine::new(spec.model, &compiled, &env, cfg);
    m.run(compiled.profile.dyn_instrs).expect("run").to_json()
}

#[test]
fn concurrent_duplicates_run_once_and_match_a_direct_run() {
    let svc = start(2, 8, None);
    let addr = svc.addr();
    let body = r#"{"workload":"dm","scale":"test","seed":2003,"model":"hidisc"}"#;

    let posts: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| s.spawn(move || request(addr, "POST", "/v1/run", body)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let id = posts
        .iter()
        .find_map(|r| json_str(&r.body, "job"))
        .expect("a job id");
    for r in &posts {
        assert!(
            r.status == 200 || r.status == 202,
            "unexpected status {}: {}",
            r.status,
            r.body
        );
        assert_eq!(json_str(&r.body, "job").as_deref(), Some(id.as_str()));
    }

    let done = poll_job(addr, &id);
    assert_eq!(json_str(&done.body, "status").as_deref(), Some("done"));
    assert_eq!(json_str(&done.body, "workload").as_deref(), Some("dm"));

    // Exactly one simulation ran, no matter how many submissions raced.
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 1);

    // The cached stats are byte-identical to a direct Machine::run.
    assert_eq!(stats_of(&done.body), direct_stats(body));

    // A repeat submission is a cache hit and carries the same bytes.
    let again = request(addr, "POST", "/v1/run", body);
    assert_eq!(again.status, 200, "{}", again.body);
    assert!(again.body.contains("\"cached\":true"), "{}", again.body);
    assert_eq!(stats_of(&again.body), direct_stats(body));
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 1);
    assert!(metric(addr, "hidisc_serve_cache_hits_total") >= 1);

    svc.shutdown();
}

#[test]
fn full_queue_answers_429_and_deadlines_map_to_timeouts() {
    // One worker, queue depth one: the first (long) job occupies the
    // worker, the second fills the queue, the third must bounce. The
    // occupant must outlast its deadline on any host: tc@large on HiDISC
    // simulates for 9.8 s in a release build on a 2-vCPU x86-64 host,
    // 24x the 400 ms budget (dm@large took 1.2 s there, too close).
    let svc = start(1, 1, None);
    let addr = svc.addr();

    let long = r#"{"workload":"tc","scale":"large","seed":1,"timeout_ms":400}"#;
    let r1 = request(addr, "POST", "/v1/run", long);
    assert_eq!(r1.status, 202, "{}", r1.body);
    let id1 = json_str(&r1.body, "job").unwrap();

    let r2 = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","scale":"test","seed":11}"#,
    );
    assert_eq!(r2.status, 202, "{}", r2.body);
    let id2 = json_str(&r2.body, "job").unwrap();

    let r3 = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","scale":"test","seed":12}"#,
    );
    assert_eq!(r3.status, 429, "{}", r3.body);
    assert!(r3.header("retry-after").is_some(), "Retry-After missing");
    assert!(metric(addr, "hidisc_serve_rejected_total") >= 1);

    // The long job blows its wall-clock budget and reports it as such.
    let done1 = poll_job(addr, &id1);
    assert_eq!(json_str(&done1.body, "status").as_deref(), Some("error"));
    let err = json_str(&done1.body, "error").unwrap();
    assert!(err.contains("wall-clock timeout"), "error was: {err}");

    // The queued job still completes once the worker frees up.
    let done2 = poll_job(addr, &id2);
    assert_eq!(json_str(&done2.body, "status").as_deref(), Some("done"));

    svc.shutdown();
}

#[test]
fn bad_requests_get_typed_400s() {
    let svc = start(1, 4, None);
    let addr = svc.addr();

    let r = request(addr, "POST", "/v1/run", "this is not json");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("malformed request body"), "{}", r.body);

    let r = request(addr, "POST", "/v1/run", r#"{"workload":"no-such-kernel"}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown workload"), "{}", r.body);

    for body in [
        r#"{"workload":"dm","typo_field":1}"#,
        r#"{"workload":"dm","scheduler":"scan"}"#,
    ] {
        let r = request(addr, "POST", "/v1/run", body);
        assert_eq!(r.status, 400, "{body}");
        assert!(r.body.contains("unknown field"), "{}", r.body);
    }

    // Config validation surfaces the same typed ConfigError message the
    // CLI prints before exiting with code 2, with its stable code as the
    // envelope code.
    let r = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","scq_depth":0}"#,
    );
    assert_eq!(r.status, 400);
    assert!(r.body.contains("\"code\":\"CFG001\""), "{}", r.body);
    assert!(
        r.body
            .contains("invalid machine config: queues.scq must be at least 1"),
        "{}",
        r.body
    );
    // The same config as a sweep grid answers with the same code and
    // message.
    let r = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workloads":["dm"],"scq_depths":[0]}"#,
    );
    assert_eq!(r.status, 400);
    assert!(r.body.contains("\"code\":\"CFG001\""), "{}", r.body);
    assert!(
        r.body
            .contains("invalid machine config: queues.scq must be at least 1"),
        "{}",
        r.body
    );
    // A latency that parses as u32 but cannot finish under the deadlock
    // watchdog is a config error too, on both endpoints.
    for (path, body) in [
        ("/v1/run", r#"{"workload":"dm","l2_lat":4294967295}"#),
        (
            "/v1/sweep",
            r#"{"workloads":["dm"],"latencies":[[4294967295,120]]}"#,
        ),
    ] {
        let r = request(addr, "POST", path, body);
        assert_eq!(r.status, 400, "{path}: {}", r.body);
        assert!(r.body.contains("\"code\":\"CFG003\""), "{path}: {}", r.body);
        assert!(r.body.contains("deadlock_cycles"), "{path}: {}", r.body);
    }

    let r = request(addr, "GET", "/no-such-endpoint", "");
    assert_eq!(r.status, 404);
    let r = request(addr, "DELETE", "/v1/run", "");
    assert_eq!(r.status, 405);
    let r = request(addr, "GET", "/v1/jobs/ffffffffffffffff", "");
    assert_eq!(r.status, 404);

    assert!(metric(addr, "hidisc_serve_bad_requests_total") >= 4);

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""));

    svc.shutdown();
}

/// Past `max_connections`, accepts are answered `503` inline instead of
/// spawning handler threads without bound; slots free once a handler
/// finishes.
#[test]
fn connection_cap_answers_503_inline() {
    let svc = Service::start(
        ServeConfig::builder()
            .max_connections(1)
            .build()
            .expect("valid serve config"),
    )
    .expect("service start");
    let addr = svc.addr();

    // Occupy the single reactor slot with an idle keep-alive connection.
    let held = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200)); // let the reactor register it

    let r = request(addr, "GET", "/healthz", "");
    assert_eq!(r.status, 503, "{}", r.body);
    assert!(r.header("retry-after").is_some(), "Retry-After missing");
    assert!(r.body.contains("too many connections"), "{}", r.body);

    // Freeing the slot lets requests through again.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = request(addr, "GET", "/healthz", "");
        if r.status == 200 {
            assert!(metric(addr, "hidisc_serve_connections_rejected_total") >= 1);
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    svc.shutdown();
}

/// Terminal (done/failed) job entries are evicted oldest-first past the
/// cache capacity, so a long-lived service does not leak one entry per
/// distinct submission.
#[test]
fn terminal_job_entries_are_bounded() {
    let svc = Service::start(
        ServeConfig::builder()
            .max_jobs(2)
            .build()
            .expect("valid serve config"),
    )
    .expect("service start");
    let addr = svc.addr();

    for seed in 0..5 {
        let body = format!(r#"{{"workload":"dm","scale":"test","seed":{seed}}}"#);
        let r = request(addr, "POST", "/v1/run", &body);
        assert!(r.status == 200 || r.status == 202, "{}", r.body);
        let id = json_str(&r.body, "job").expect("job id");
        let done = poll_job(addr, &id);
        assert_eq!(json_str(&done.body, "status").as_deref(), Some("done"));
    }

    // Five distinct jobs ran, but only max_jobs terminal entries
    // remain registered.
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 5);
    assert!(metric(addr, "hidisc_serve_job_entries") <= 2);
    svc.shutdown();
}

#[test]
fn disk_cache_survives_a_service_restart() {
    let dir = std::env::temp_dir().join(format!("hidisc-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body = r#"{"workload":"tc","scale":"test","seed":5}"#;

    let first_stats;
    {
        let svc = start(1, 4, Some(dir.clone()));
        let addr = svc.addr();
        let r = request(addr, "POST", "/v1/run", body);
        assert_eq!(r.status, 202, "{}", r.body);
        let id = json_str(&r.body, "job").unwrap();
        let done = poll_job(addr, &id);
        first_stats = stats_of(&done.body).to_string();

        // Graceful shutdown over HTTP; wait() returns once torn down.
        let r = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(r.status, 200);
        svc.wait();
    }

    // A fresh instance sees the persisted result: cache hit, no run.
    let svc = start(1, 4, Some(dir.clone()));
    let addr = svc.addr();
    let r = request(addr, "POST", "/v1/run", body);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cached\":true"), "{}", r.body);
    assert_eq!(stats_of(&r.body), first_stats);
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 0);
    svc.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn disk-cache file is a miss, not a result: a fresh instance
/// simulates the job again, answers the same stats and rewrites the file.
#[test]
fn torn_disk_cache_file_is_simulated_again() {
    let dir = std::env::temp_dir().join(format!("hidisc-serve-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body = r#"{"workload":"dm","scale":"test","seed":9}"#;

    let svc = start(1, 4, Some(dir.clone()));
    let r = request(svc.addr(), "POST", "/v1/run", body);
    assert_eq!(r.status, 202, "{}", r.body);
    let id = json_str(&r.body, "job").unwrap();
    let first_stats = stats_of(&poll_job(svc.addr(), &id).body).to_string();
    svc.shutdown();

    let file = dir.join(format!("{id}.json"));
    let good = std::fs::read(&file).expect("result file written");
    std::fs::write(&file, &good[..good.len() / 2]).unwrap();

    let svc = start(1, 4, Some(dir.clone()));
    let addr = svc.addr();
    let r = request(addr, "POST", "/v1/run", body);
    assert_eq!(r.status, 202, "torn file answered as a hit: {}", r.body);
    assert_eq!(stats_of(&poll_job(addr, &id).body), first_stats);
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 1);
    svc.shutdown();
    assert_eq!(std::fs::read(&file).unwrap(), good, "file not rewritten");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A custom program that fails static verification answers 400 with the
/// verifier's located diagnostic; a clean one slices, runs and caches
/// like any named workload.
#[test]
fn verifier_rejected_program_answers_400_with_the_diagnostic() {
    let svc = start(1, 4, None);
    let addr = svc.addr();

    // `send LDQ, r1` operates on an architectural queue from the
    // sequential source program: QB004 at orig@1.
    let bad = r#"{"program":"li r1, 1\nsend LDQ, r1\nhalt"}"#;
    let r = request(addr, "POST", "/v1/run", bad);
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("\"code\":\"QB004\""), "{}", r.body);
    assert!(r.body.contains("orig@1"), "{}", r.body);
    assert!(metric(addr, "hidisc_serve_bad_requests_total") >= 1);

    // The clean variant is admitted, simulated and content-addressed.
    let good = r#"{"program":"li r1, 64\nsd r1, 0(r1)\nld r2, 0(r1)\nhalt"}"#;
    let r = request(addr, "POST", "/v1/run", good);
    assert!(r.status == 200 || r.status == 202, "{}", r.body);
    let id = json_str(&r.body, "job").expect("job id");
    let done = poll_job(addr, &id);
    assert_eq!(
        json_str(&done.body, "status").as_deref(),
        Some("done"),
        "{}",
        done.body
    );
    assert_eq!(json_str(&done.body, "workload").as_deref(), Some("custom"));

    // Resubmission is a cache hit (the program text is in the job key).
    let r = request(addr, "POST", "/v1/run", good);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cached\":true"), "{}", r.body);
    svc.shutdown();
}
