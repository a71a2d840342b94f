//! `repro` — regenerates every table and figure of the HiDISC paper,
//! serves the simulator as an HTTP service (`repro serve`, optionally as
//! one shard of a farm via `--shard-of k/N --peers ...`), and drives
//! batch sweeps against a running service (`repro sweep fig8`).
//!
//! ```text
//! repro [params|fig8|table2|fig9|fig10|check|ablate|all|serve]
//!       [--format text|csv] [--scale test|paper|large] [--seed N]
//!       [--threads N] [--l2-lat N] [--mem-lat N] [--scq-depth N]
//! ```
//!
//! Every artifact goes through the [`bench::Report`] trait, so `--format
//! csv` works for each of them. The machine configuration is assembled
//! with [`MachineConfig::builder`]; an invalid sweep (`--scq-depth 0`)
//! exits 2 with the typed [`ConfigError`](hidisc::ConfigError) message.

use hidisc::telemetry::log::{Level, LogFormat};
use hidisc::telemetry::TraceConfig;
use hidisc::{MachineConfig, Model};
use hidisc_bench::{self as bench, Report};
use hidisc_serve::json::Json;
use hidisc_serve::{JobSpec, ServeConfig, Service};
use hidisc_workloads::Scale;

struct Args {
    cmd: String,
    arg: Option<String>,
    scale: Scale,
    seed: u64,
    /// `--format csv` (default is the aligned text tables).
    csv: bool,
    l2_lat: Option<u32>,
    mem_lat: Option<u32>,
    scq_depth: Option<usize>,
    /// `--trace <path>`: write the Chrome-trace JSON here.
    trace_path: Option<String>,
    /// `--trace-filter <cats>`: comma list of categories (or `all`).
    trace_filter: TraceConfig,
    /// `--metrics-interval <cycles>`: interval-metrics sampling (0 off).
    metrics_interval: u64,
    /// `--event-cap <n>`: telemetry buffer cap (the trace drains at half
    /// of it; events past it drop).
    event_cap: Option<usize>,
    /// `serve --addr <host:port>` (default 127.0.0.1:8080).
    addr: Option<String>,
    /// `serve --workers <n>` (0 = one per host core).
    workers: usize,
    /// `serve --queue-depth <n>`: bounded job queue (429 past it).
    queue_depth: usize,
    /// `serve --cache-dir <dir>`: persist results here.
    cache_dir: Option<String>,
    /// `serve --max-conns <n>`: concurrent-connection cap (503 past it).
    max_conns: usize,
    /// `serve --cache-bytes <n>`: in-memory result-cache budget.
    cache_bytes: Option<usize>,
    /// `serve --idle-timeout-ms <n>`: idle keep-alive connection timeout.
    idle_timeout_ms: Option<u64>,
    /// `--log-level off|error|warn|info|debug`: outer `None` = flag
    /// absent (`repro serve` then defaults to `info`, `repro connscale`'s
    /// in-process target to off).
    log_level: Option<Option<Level>>,
    /// `--log-format text|json` (default text/logfmt).
    log_format: Option<LogFormat>,
    /// `--log-file <path>`: log destination (stderr when absent).
    log_file: Option<String>,
    /// `--slow-request-ms <n>`: WARN threshold (0 disables).
    slow_request_ms: Option<u64>,
    /// `serve --shard-of <k/N>`: run as shard k of an N-shard farm.
    shard_of: Option<(u32, u32)>,
    /// `serve --peers <a,b,c>`: the farm's shard addresses, in order.
    peers: Vec<String>,
    /// `connscale --conns <n>`: connections to ramp and hold.
    conns: usize,
    /// `connscale --rounds <n>`: keep-alive request rounds.
    rounds: usize,
    /// `--sample <detail>:<skip>`: run in SMARTS-style sampling mode.
    sample: Option<(u64, u64)>,
    /// `bisect --a <l2>:<mem>`: configuration A latencies.
    cfg_a: Option<(u32, u32)>,
    /// `bisect --b <l2>:<mem>`: configuration B latencies.
    cfg_b: Option<(u32, u32)>,
    /// `check --speculation --format json`: emit the analysis as JSON.
    json: bool,
    /// `check --speculation`: run the advisory run-ahead/alias analysis
    /// instead of the safety verifier.
    speculation: bool,
    /// `check --deny-warnings`: exit 1 on warnings, not just errors.
    deny_warnings: bool,
}

fn parse_args() -> Args {
    let mut cmd = "all".to_string();
    let mut explicit_cmd = false;
    let mut arg: Option<String> = None;
    let mut scale = Scale::Paper;
    let mut seed = 2003; // the paper's publication year
    let mut csv = false;
    let mut l2_lat = None;
    let mut mem_lat = None;
    let mut scq_depth = None;
    let mut trace_path: Option<String> = None;
    let mut trace_filter = TraceConfig::ALL_EVENTS;
    let mut metrics_interval = 0;
    let mut event_cap = None;
    let mut addr = None;
    let mut workers = 0;
    let mut queue_depth = 32;
    let mut cache_dir = None;
    let mut max_conns = 10_240; // ServeConfig::builder's default cap
    let mut cache_bytes = None;
    let mut idle_timeout_ms = None;
    let mut log_level = None;
    let mut log_format = None;
    let mut log_file = None;
    let mut slow_request_ms = None;
    let mut shard_of = None;
    let mut peers: Vec<String> = Vec::new();
    let mut conns = 512;
    let mut rounds = 3;
    let mut sample = None;
    let mut cfg_a = None;
    let mut cfg_b = None;
    let mut json = false;
    let mut speculation = false;
    let mut deny_warnings = false;
    let mut it = std::env::args().skip(1);
    let num = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a number");
                std::process::exit(2);
            })
    };
    // A colon-separated pair of numbers, e.g. `--sample 2000:20000`.
    let pair = |it: &mut dyn Iterator<Item = String>, flag: &str, what: &str| -> (u64, u64) {
        let v = it.next().unwrap_or_default();
        v.split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .unwrap_or_else(|| {
                eprintln!("{flag} needs <{what}> (two numbers separated by `:`)");
                std::process::exit(2);
            })
    };
    // A latency in cycles: a number that fits the simulator's u32.
    let lat = |v: u64, flag: &str| {
        u32::try_from(v).unwrap_or_else(|_| {
            eprintln!("{flag}: latency {v} is out of range (at most {})", u32::MAX);
            std::process::exit(2);
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = Scale::parse(&it.next().unwrap_or_default()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--format" => {
                let v = it.next().unwrap_or_default();
                match v.as_str() {
                    "text" => (csv, json) = (false, false),
                    "csv" => (csv, json) = (true, false),
                    "json" => (csv, json) = (false, true),
                    other => {
                        eprintln!("unknown format `{other}` (use text|csv|json)");
                        std::process::exit(2);
                    }
                };
            }
            "--trace" => {
                trace_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--trace needs an output path");
                    std::process::exit(2);
                }));
            }
            "--trace-filter" => {
                let v = it.next().unwrap_or_default();
                trace_filter = TraceConfig::parse_filter(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--metrics-interval" => metrics_interval = num(&mut it, "--metrics-interval"),
            "--event-cap" => event_cap = Some(num(&mut it, "--event-cap") as usize),
            "--seed" => seed = num(&mut it, "--seed"),
            "--l2-lat" => l2_lat = Some(lat(num(&mut it, "--l2-lat"), "--l2-lat")),
            "--mem-lat" => mem_lat = Some(lat(num(&mut it, "--mem-lat"), "--mem-lat")),
            "--scq-depth" => scq_depth = Some(num(&mut it, "--scq-depth") as usize),
            "--threads" => {
                // 0 = one worker per host core (the default).
                bench::pool::set_threads(num(&mut it, "--threads") as usize);
            }
            "--addr" => {
                addr = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--addr needs a host:port");
                    std::process::exit(2);
                }));
            }
            "--sample" => sample = Some(pair(&mut it, "--sample", "detail:skip")),
            "--a" => {
                let (l2, mem) = pair(&mut it, "--a", "l2-lat:mem-lat");
                cfg_a = Some((lat(l2, "--a"), lat(mem, "--a")));
            }
            "--b" => {
                let (l2, mem) = pair(&mut it, "--b", "l2-lat:mem-lat");
                cfg_b = Some((lat(l2, "--b"), lat(mem, "--b")));
            }
            "--workers" => workers = num(&mut it, "--workers") as usize,
            "--queue-depth" => queue_depth = num(&mut it, "--queue-depth") as usize,
            "--max-conns" => max_conns = num(&mut it, "--max-conns") as usize,
            "--cache-bytes" => cache_bytes = Some(num(&mut it, "--cache-bytes") as usize),
            "--idle-timeout-ms" => idle_timeout_ms = Some(num(&mut it, "--idle-timeout-ms")),
            "--log-level" => {
                let v = it.next().unwrap_or_default();
                log_level = Some(Level::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
            }
            "--log-format" => {
                let v = it.next().unwrap_or_default();
                log_format = Some(LogFormat::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
            }
            "--log-file" => {
                log_file = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--log-file needs a path");
                    std::process::exit(2);
                }));
            }
            "--slow-request-ms" => slow_request_ms = Some(num(&mut it, "--slow-request-ms")),
            "--speculation" => speculation = true,
            "--deny-warnings" => deny_warnings = true,
            "--shard-of" => {
                let v = it.next().unwrap_or_default();
                shard_of = v
                    .split_once('/')
                    .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
                    .or_else(|| {
                        eprintln!("--shard-of needs <k/N> (e.g. `0/2`)");
                        std::process::exit(2);
                    });
            }
            "--peers" => {
                let v = it.next().unwrap_or_default();
                peers = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if peers.is_empty() {
                    eprintln!("--peers needs a comma-separated list of host:port addresses");
                    std::process::exit(2);
                }
            }
            "--conns" => conns = num(&mut it, "--conns") as usize,
            "--rounds" => rounds = num(&mut it, "--rounds") as usize,
            "--cache-dir" => {
                cache_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--cache-dir needs a directory path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [{}] \
                     [report|diag|trace|check|telemetry|sample|bisect <workload>] \
                     [--format text|csv|json] [--scale test|paper|large] [--seed N] [--threads N] \
                     [check <workload> [--speculation] [--deny-warnings]] \
                     [--l2-lat N] [--mem-lat N] [--scq-depth N] \
                     [--sample <detail>:<skip>] [--a <l2>:<mem>] [--b <l2>:<mem>] \
                     [--trace <out.json>] [--trace-filter <cat,..|all>] [--metrics-interval N] \
                     [--event-cap N] \
                     [serve --addr <host:port> --workers N --queue-depth N --cache-dir <dir> \
                     --max-conns N --cache-bytes N --idle-timeout-ms N \
                     --log-level off|error|warn|info|debug --log-format text|json \
                     --log-file <path> --slow-request-ms N \
                     --shard-of <k/N> --peers <a,b,c>] \
                     [connscale --conns N --rounds N [--addr <host:port>] \
                     [--log-level .. --log-format .. --log-file <path>]] \
                     [sweep [fig8|fig9|fig10|table1] [--addr <host:port>]]",
                    COMMANDS.join("|")
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}` (see --help)");
                std::process::exit(2);
            }
            other => {
                if !explicit_cmd {
                    cmd = other.to_string();
                    explicit_cmd = true;
                } else if arg.is_none() {
                    arg = Some(other.to_string());
                } else {
                    eprintln!("unexpected argument `{other}` (see --help)");
                    std::process::exit(2);
                }
            }
        }
    }
    // `repro --trace out.json` with no subcommand means "trace a run":
    // default to the telemetry command rather than the full suite.
    if trace_path.is_some() && !explicit_cmd {
        cmd = "telemetry".to_string();
    }
    if !COMMANDS.contains(&cmd.as_str()) {
        eprintln!("unknown command `{}` (use {})", cmd, COMMANDS.join("|"));
        std::process::exit(2);
    }
    if arg.is_some()
        && !matches!(
            cmd.as_str(),
            "trace" | "report" | "diag" | "check" | "telemetry" | "sample" | "bisect" | "sweep"
        )
    {
        eprintln!("command `{cmd}` takes no argument (see --help)");
        std::process::exit(2);
    }
    if json && !(cmd == "check" && speculation) {
        eprintln!("--format json only applies to check --speculation");
        std::process::exit(2);
    }
    if (speculation || deny_warnings) && cmd != "check" {
        eprintln!("--speculation/--deny-warnings only apply to the check command");
        std::process::exit(2);
    }
    if (cfg_a.is_some() || cfg_b.is_some()) && cmd != "bisect" {
        eprintln!("--a/--b only apply to the bisect command");
        std::process::exit(2);
    }
    if (shard_of.is_some() || !peers.is_empty()) && cmd != "serve" {
        eprintln!("--shard-of/--peers only apply to the serve command");
        std::process::exit(2);
    }
    Args {
        cmd,
        arg,
        scale,
        seed,
        csv,
        l2_lat,
        mem_lat,
        scq_depth,
        trace_path,
        trace_filter,
        metrics_interval,
        event_cap,
        addr,
        workers,
        queue_depth,
        cache_dir,
        max_conns,
        cache_bytes,
        idle_timeout_ms,
        log_level,
        log_format,
        log_file,
        slow_request_ms,
        shard_of,
        peers,
        conns,
        rounds,
        sample,
        cfg_a,
        cfg_b,
        json,
        speculation,
        deny_warnings,
    }
}

/// Every subcommand, in help order.
const COMMANDS: [&str; 21] = [
    "params",
    "fig8",
    "table2",
    "fig9",
    "fig10",
    "csv",
    "trace",
    "report",
    "diag",
    "check",
    "telemetry",
    "micro",
    "extras",
    "related",
    "ablate",
    "sample",
    "bisect",
    "serve",
    "connscale",
    "sweep",
    "all",
];

/// Assembles the machine configuration from the CLI overrides through
/// [`JobSpec::config`], the service's one assembly path; a rejected sweep
/// exits 2 with the typed `ConfigError` message.
fn build_config(args: &Args) -> MachineConfig {
    config_or_exit(JobSpec {
        l2_lat: args.l2_lat,
        mem_lat: args.mem_lat,
        scq_depth: args.scq_depth,
        ..JobSpec::default()
    })
}

/// The configuration of `overrides`, or exit 2 with its `ConfigError`
/// code and message.
fn config_or_exit(overrides: JobSpec) -> MachineConfig {
    overrides.config().unwrap_or_else(|e| {
        eprintln!("{}: {e}", e.code());
        std::process::exit(2);
    })
}

/// Assembles the service configuration from the CLI flags through the
/// validating builder; a rejected configuration (`--workers 0`,
/// `--idle-timeout-ms 0`, a malformed `--addr`) exits 2 with the typed
/// [`hidisc_serve::ServeConfigError`] message — the same contract as
/// [`build_config`] for machine sweeps.
fn build_serve_config(args: &Args) -> ServeConfig {
    let mut b = ServeConfig::builder()
        .addr(
            args.addr
                .clone()
                .unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        )
        .queue_depth(args.queue_depth)
        .max_connections(args.max_conns);
    if args.workers > 0 {
        b = b.workers(args.workers);
    }
    if let Some(dir) = &args.cache_dir {
        b = b.cache_dir(dir);
    }
    if let Some(bytes) = args.cache_bytes {
        b = b.cache_bytes(bytes);
    }
    if let Some(ms) = args.idle_timeout_ms {
        b = b.idle_timeout_ms(ms);
    }
    // `repro serve` logs at info unless told otherwise; `--log-level off`
    // silences it.
    b = b.log_level(args.log_level.unwrap_or(Some(Level::Info)));
    if let Some(f) = args.log_format {
        b = b.log_format(f);
    }
    if let Some(path) = &args.log_file {
        b = b.log_file(path);
    }
    if let Some(ms) = args.slow_request_ms {
        b = b.slow_request_ms(ms);
    }
    if let Some((index, count)) = args.shard_of {
        b = b.shard_of(index, count);
    }
    if !args.peers.is_empty() {
        b = b.peers(args.peers.clone());
    }
    b.build().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// `repro serve`: run the simulation service until `POST /v1/shutdown`.
fn serve(args: &Args) {
    let cfg = build_serve_config(args);
    let addr = cfg.addr().to_string();
    let (workers, queue_depth) = (cfg.workers(), cfg.queue_depth());
    let cache = cfg
        .cache_dir()
        .map(|p| format!("{} + disk {}", cfg.cache_bytes(), p.display()))
        .unwrap_or_else(|| format!("{} bytes, memory-only", cfg.cache_bytes()));
    let shard = cfg
        .shard()
        .map(|s| format!(", shard {}/{}", s.index, s.count))
        .unwrap_or_default();
    let svc = Service::start(cfg).unwrap_or_else(|e| {
        eprintln!("cannot serve on {addr}: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "serving on http://{} ({workers} worker(s), queue depth {queue_depth}, \
         cache {cache}{shard}) — POST /v1/shutdown to stop",
        svc.addr(),
    );
    svc.wait();
    eprintln!("shut down cleanly");
}

/// `repro connscale`: ramp `--conns` keep-alive connections (against an
/// in-process service, or `--addr` for an external one), drive
/// `--rounds` request rounds over all of them, and emit the
/// `BENCH_serve.json` document on stdout. Exits 1 if any connection was
/// dropped or any response arrived without an `X-Request-Id` — CI treats
/// a lossy or id-less ramp as a regression.
fn connscale(args: &Args) {
    use std::net::ToSocketAddrs;
    let svc = match &args.addr {
        Some(_) => None,
        None => {
            // Self-contained: an in-process service on an ephemeral port.
            // One simulation worker suffices — the ramp probes /healthz,
            // and its held-wall sweep is 8 test-scale points. The idle
            // timeout is
            // stretched so connections established early in a large ramp
            // are not swept while the tail is still connecting (against an
            // external --addr target, the operator sets --idle-timeout-ms).
            let mut b = ServeConfig::builder()
                .workers(1)
                .max_connections(args.conns + 64)
                .idle_timeout_ms(600_000)
                // Off unless asked: the ramp target is a measurement
                // device, and CI uses the logged/unlogged pair to gate
                // logging overhead.
                .log_level(args.log_level.unwrap_or(None));
            if let Some(f) = args.log_format {
                b = b.log_format(f);
            }
            if let Some(path) = &args.log_file {
                b = b.log_file(path);
            }
            let cfg = b.build().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            Some(Service::start(cfg).unwrap_or_else(|e| {
                eprintln!("cannot start the ramp target service: {e}");
                std::process::exit(2);
            }))
        }
    };
    let addr = match (&svc, &args.addr) {
        (Some(s), _) => s.addr(),
        (None, Some(a)) => a
            .to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .unwrap_or_else(|| {
                eprintln!("--addr `{a}` does not resolve to host:port");
                std::process::exit(2);
            }),
        (None, None) => unreachable!("svc exists exactly when --addr is absent"),
    };
    let mut rc = hidisc_serve::scale::RampConfig::new(addr);
    rc.conns = args.conns;
    rc.rounds = args.rounds;
    let report = hidisc_serve::scale::ramp(&rc).unwrap_or_else(|e| {
        eprintln!("connection ramp failed: {e}");
        std::process::exit(1);
    });
    print!("{}", report.to_json());
    eprintln!(
        "connscale: {}/{} connections established, {} dropped, \
         {} request(s) over {} round(s), {} missing request id(s), {:.0} resp/s, \
         held-wall sweep {} point(s) at {:.1} points/s",
        report.established,
        report.conns,
        report.dropped,
        report.requests_sent,
        report.rounds,
        report.missing_request_id,
        report.rps(),
        report.sweep_points,
        report.sweep_points_per_sec(),
    );
    if let Some(svc) = svc {
        svc.shutdown();
    }
    if report.dropped > 0 || report.established < report.conns || report.missing_request_id > 0 {
        std::process::exit(1);
    }
}

/// The sweep-request JSON for one render target, assembled from the CLI
/// flags: the paper suite (or fig10's latency pair) at the chosen scale
/// and seed, with any `--l2-lat`/`--mem-lat`/`--scq-depth`
/// overrides as single-element axes.
fn sweep_body(args: &Args, render: &str) -> String {
    let scale = args.scale.name();
    let mut body = String::from("{\"workloads\":[");
    let workloads: Vec<&str> = if render == "fig10" {
        vec!["pointer", "neighborhood"]
    } else {
        hidisc_workloads::suite(Scale::Test, 0)
            .iter()
            .map(|w| w.name)
            .collect()
    };
    body.push_str(
        &workloads
            .iter()
            .map(|w| format!("\"{w}\""))
            .collect::<Vec<_>>()
            .join(","),
    );
    body.push_str(&format!(
        "],\"scales\":[\"{scale}\"],\"seeds\":[{}]",
        args.seed
    ));
    if render == "fig10" {
        let lats: Vec<String> = bench::FIG10_LATENCIES
            .iter()
            .map(|(l2, mem)| format!("[{l2},{mem}]"))
            .collect();
        body.push_str(&format!(",\"latencies\":[{}]", lats.join(",")));
    } else if args.l2_lat.is_some() || args.mem_lat.is_some() {
        let paper = MachineConfig::paper();
        body.push_str(&format!(
            ",\"latencies\":[[{},{}]]",
            args.l2_lat.unwrap_or(paper.mem.l2.latency),
            args.mem_lat.unwrap_or(paper.mem.mem_latency)
        ));
    }
    if let Some(depth) = args.scq_depth {
        body.push_str(&format!(",\"scq_depths\":[{depth}]"));
    }
    body.push_str(&format!(",\"render\":\"{render}\",\"stream\":true}}"));
    body
}

/// `repro sweep [fig8|fig9|fig10|table1]`: drive a batch sweep on a
/// running service (`--addr`, default 127.0.0.1:8080). Per-point NDJSON
/// progress streams to stderr as the service emits it; the rendered CSV
/// goes to stdout. Exits 1 if any point failed or the service refused
/// the sweep — cached points cost no simulation, so re-rendering a
/// finished sweep is instant.
fn sweep(args: &Args) {
    use std::time::Duration;
    let render = args.arg.as_deref().unwrap_or("fig8");
    if let Err(e) = hidisc_serve::plan::Render::parse(render) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let addr = args
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:8080".to_string());
    let deadline = Duration::from_secs(600);
    let body = sweep_body(args, render);
    eprintln!(
        "sweeping {render} (scale {:?}, seed {}) on http://{addr} ...",
        args.scale, args.seed
    );
    let resp = hidisc_serve::client::http_request(&addr, "POST", "/v1/sweep", &body, deadline)
        .unwrap_or_else(|e| {
            eprintln!("sweep request failed: {e}");
            std::process::exit(1);
        });
    if resp.status != 200 {
        eprintln!("service refused the sweep ({}): {}", resp.status, resp.body);
        std::process::exit(1);
    }
    for line in resp.body.lines() {
        eprintln!("{line}");
    }
    let parse = |l: Option<&str>| Json::parse(l.unwrap_or_default()).ok();
    let id = parse(resp.body.lines().next())
        .and_then(|v| v.get("sweep")?.as_str().map(str::to_string))
        .unwrap_or_else(|| {
            eprintln!("the stream carried no sweep id");
            std::process::exit(1);
        });
    let failed = parse(resp.body.lines().last())
        .and_then(|v| v.get("failed")?.as_u64())
        .unwrap_or(0);
    if failed > 0 {
        eprintln!("sweep {id}: {failed} point(s) failed — not rendering");
        std::process::exit(1);
    }
    let path = format!("/v1/sweeps/{id}/render");
    let rendered = hidisc_serve::client::http_request(&addr, "GET", &path, "", deadline)
        .unwrap_or_else(|e| {
            eprintln!("render request failed: {e}");
            std::process::exit(1);
        });
    if rendered.status != 200 {
        eprintln!(
            "service could not render the sweep ({}): {}",
            rendered.status, rendered.body
        );
        std::process::exit(1);
    }
    print!("{}", rendered.body);
}

fn main() {
    let args = parse_args();
    let cfg = build_config(&args);
    let csv = args.csv;

    if args.cmd == "serve" {
        serve(&args);
        return;
    }
    if args.cmd == "connscale" {
        connscale(&args);
        return;
    }
    if args.cmd == "sweep" {
        sweep(&args);
        return;
    }

    let need_suite = matches!(
        args.cmd.as_str(),
        "fig8" | "table2" | "fig9" | "all" | "csv"
    );
    let results = if need_suite {
        if let Some((detail, skip)) = args.sample {
            eprintln!(
                "running the 7-benchmark suite on 4 machine models \
                 (scale {:?}, seed {}, sampled {detail}:{skip} — cycle counts are estimates)...",
                args.scale, args.seed
            );
            Some(bench::sampling::run_suite_sampled(
                args.scale, args.seed, cfg, detail, skip,
            ))
        } else {
            eprintln!(
                "running the 7-benchmark suite on 4 machine models (scale {:?}, seed {})...",
                args.scale, args.seed
            );
            let (results, sweep_wall_ns) = bench::run_suite_timed(args.scale, args.seed, cfg);
            eprintln!("{}", bench::suite_speed_line(&results, sweep_wall_ns));
            Some(results)
        }
    } else {
        None
    };

    if csv && matches!(args.cmd.as_str(), "trace" | "report" | "diag") {
        eprintln!(
            "command `{}` is an inspection dump with no CSV form",
            args.cmd
        );
        std::process::exit(2);
    }

    match args.cmd.as_str() {
        "params" => print!("{}", bench::Table1Report(cfg).render(csv)),
        "fig8" => {
            print!(
                "{}",
                bench::Fig8Report(bench::fig8(results.as_ref().unwrap())).render(csv)
            )
        }
        "table2" => {
            print!(
                "{}",
                bench::Table2Report(bench::table2(results.as_ref().unwrap())).render(csv)
            )
        }
        "fig9" => {
            print!(
                "{}",
                bench::Fig9Report(bench::fig9(results.as_ref().unwrap())).render(csv)
            )
        }
        "csv" => {
            // Historical shortcut: the three figures as CSV in one stream
            // (equivalent to `--format csv` on each).
            let results = results.as_ref().unwrap();
            print!("{}", bench::Fig8Report(bench::fig8(results)).render_csv());
            println!();
            print!("{}", bench::Fig9Report(bench::fig9(results)).render_csv());
            println!();
            let series = bench::fig10(&["pointer", "neighborhood"], args.scale, args.seed);
            print!("{}", bench::Fig10Report(series).render_csv());
        }
        "fig10" => {
            eprintln!("running the Figure-10 latency sweep (pointer, neighborhood)...");
            let series = bench::fig10(&["pointer", "neighborhood"], args.scale, args.seed);
            print!("{}", bench::Fig10Report(series).render(csv));
        }
        "trace" => {
            let name = args.arg.as_deref().unwrap_or("update");
            print!(
                "{}",
                bench::pipeline_trace(name, Scale::Test, args.seed, 60)
            );
        }
        "report" => {
            let name = args.arg.as_deref().unwrap_or("update");
            print!("{}", bench::separation_report(name, args.scale, args.seed));
        }
        "diag" => {
            let name = args.arg.as_deref().unwrap_or("update");
            print!("{}", bench::diagnostics(name, args.scale, args.seed));
        }
        "check" => {
            let name = args.arg.as_deref().unwrap_or("update");
            if args.speculation {
                let spec = bench::speculation_workload(
                    name,
                    args.scale,
                    args.seed,
                    bench::depths_of(&cfg),
                );
                if args.json {
                    print!("{}", spec.to_json());
                } else {
                    print!("{}", spec.render(csv));
                }
                return;
            }
            let check = bench::check_workload(name, args.scale, args.seed, bench::depths_of(&cfg));
            print!("{}", check.render(csv));
            if !check.passed_with(args.deny_warnings) {
                std::process::exit(1);
            }
        }
        "telemetry" => {
            let name = args.arg.as_deref().unwrap_or("pointer");
            let mut trace = args
                .trace_filter
                .with_metrics_interval(args.metrics_interval);
            if let Some(cap) = args.event_cap {
                trace = trace.with_event_cap(cap);
            }
            eprintln!(
                "tracing {name} on HiDISC (scale {:?}, seed {}, mask {:#07b}, interval {})...",
                args.scale, args.seed, trace.mask, trace.metrics_interval,
            );
            // The trace streams to the file (or to stdout, where it embeds
            // the metrics side table) while the machine runs.
            let target = args.trace_path.as_deref().unwrap_or("stdout");
            let out: Box<dyn std::io::Write> = match &args.trace_path {
                Some(path) => Box::new(std::io::BufWriter::new(
                    std::fs::File::create(path).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(2);
                    }),
                )),
                None => Box::new(std::io::BufWriter::new(std::io::stdout().lock())),
            };
            let run = bench::telemetry_stream(name, args.scale, args.seed, cfg, trace, out)
                .unwrap_or_else(|e| {
                    eprintln!("cannot write {target}: {e}");
                    std::process::exit(2);
                });
            eprint!("{}", run.summary());
            if let Some(path) = &args.trace_path {
                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                eprintln!("wrote {path} ({bytes} bytes) — load it at https://ui.perfetto.dev");
                if let Some(m) = run.metrics {
                    print!("{}", bench::MetricsReport(m).render(csv));
                }
            }
        }
        "micro" => {
            eprintln!("running the micro-kernels (lll1, convolution, saxpy, sdot) on 4 models...");
            let ws = hidisc_workloads::micro::micro_suite(args.scale, args.seed);
            let report = bench::SpeedupReport::from_workloads(
                "Micro-kernels: speed-up over the baseline superscalar",
                &ws,
                cfg,
            );
            print!("{}", report.render(csv));
        }
        "extras" => {
            eprintln!("running the extra Stressmarks (cornerturn, matrix) on 4 models...");
            let ws = hidisc_workloads::extras(args.scale, args.seed);
            let report = bench::SpeedupReport::from_workloads(
                "Extra Stressmarks: speed-up over the baseline superscalar",
                &ws,
                cfg,
            );
            print!("{}", report.render(csv));
        }
        "related" => {
            eprintln!("running the related-work comparison (all 7 benchmarks)...");
            let rows = bench::related_work(
                &[
                    "dm",
                    "raytrace",
                    "pointer",
                    "update",
                    "field",
                    "neighborhood",
                    "tc",
                ],
                args.scale,
                args.seed,
            );
            print!("{}", bench::RelatedReport(rows).render(csv));
        }
        "sample" => {
            let name = args.arg.as_deref().unwrap_or("update");
            let (detail, skip) = args.sample.unwrap_or(bench::sampling::DEFAULT_SAMPLE);
            eprintln!(
                "comparing exact vs sampled ({detail}:{skip}) for {name} on 4 models \
                 (scale {:?}, seed {})...",
                args.scale, args.seed
            );
            let rows = Model::ALL
                .iter()
                .map(|&m| {
                    bench::sampling::compare_sampled(
                        name, args.scale, args.seed, m, cfg, detail, skip,
                    )
                })
                .collect();
            let rep = bench::sampling::SampleReport(rows);
            print!("{}", rep.render(csv));
            if !rep.passed() {
                std::process::exit(1);
            }
        }
        "bisect" => {
            let name = args.arg.as_deref().unwrap_or("pointer");
            let (l2_a, mem_a) = args.cfg_a.unwrap_or((4, 40));
            let (l2_b, mem_b) = args.cfg_b.unwrap_or((16, 160));
            let at = |l2, mem| {
                config_or_exit(JobSpec {
                    l2_lat: Some(l2),
                    mem_lat: Some(mem),
                    ..JobSpec::default()
                })
            };
            let (cfg_a, cfg_b) = (at(l2_a, mem_a), at(l2_b, mem_b));
            eprintln!(
                "bisecting the first architectural divergence of {name} on HiDISC \
                 between latencies {l2_a}:{mem_a} and {l2_b}:{mem_b}..."
            );
            let r =
                bench::sampling::bisect(name, args.scale, args.seed, Model::HiDisc, cfg_a, cfg_b);
            print!("{}", bench::sampling::BisectReport(r).render(csv));
        }
        "ablate" => {
            eprintln!("running the ablation study (update, tc, neighborhood, dm)...");
            let rows = bench::ablate(
                &["update", "tc", "neighborhood", "dm"],
                args.scale,
                args.seed,
            );
            print!("{}", bench::AblationReport(rows).render(csv));
        }
        "all" => {
            let results = results.as_ref().unwrap();
            if csv {
                print!("{}", bench::Table1Report(cfg).render_csv());
                println!();
                print!("{}", bench::Fig8Report(bench::fig8(results)).render_csv());
                println!();
                print!(
                    "{}",
                    bench::Table2Report(bench::table2(results)).render_csv()
                );
                println!();
                print!("{}", bench::Fig9Report(bench::fig9(results)).render_csv());
            } else {
                println!(
                    "Table 1: simulation parameters\n{}",
                    bench::Table1Report(cfg).render_text()
                );
                println!("{}", bench::Fig8Report(bench::fig8(results)).render_text());
                println!(
                    "{}",
                    bench::Table2Report(bench::table2(results)).render_text()
                );
                println!("{}", bench::Fig9Report(bench::fig9(results)).render_text());
            }
            eprintln!("running the Figure-10 latency sweep (pointer, neighborhood)...");
            let series = bench::fig10(&["pointer", "neighborhood"], args.scale, args.seed);
            if csv {
                println!();
            }
            print!("{}", bench::Fig10Report(series).render(csv));
        }
        other => unreachable!("command `{other}` was validated in parse_args"),
    }
}
