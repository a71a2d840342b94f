//! The `serve_mix` workload: an in-process `hidisc_serve::Service` with
//! one simulation worker, driven by an open-loop client on one thread
//! over two keep-alive connections, at two fixed rates.
//!
//! The seeded mix has five request classes: repeats of completed
//! `/v1/run` jobs (cache hits), new Test-scale jobs, duplicates of jobs
//! still in flight (coalesced), custom DISA `program` jobs, and small
//! `/v1/sweep` grids that overlap earlier points. Every job result is
//! compared with a direct `run_model` of the same spec, computed before
//! the timed phases.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use epoll_shim::{Interest, Poller};
use hidisc::{run_model, MachineStats, Model};
use hidisc_bench::pool;
use hidisc_serve::json::Json;
use hidisc_serve::{JobSpec, ServeConfig, Service};
use hidisc_slicer::{compile, CompilerConfig, ExecEnv};

use crate::calib;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, tail_percentile, Outcome};
use crate::trace::{self, Tracer};

/// Named workloads new jobs draw from: the paper suite.
const WORKLOADS: [&str; 7] = [
    "dm",
    "raytrace",
    "pointer",
    "update",
    "field",
    "neighborhood",
    "tc",
];

/// Per-class latency limits (ms from the due time) for goodput.
const LIMIT_HIT_MS: f64 = 50.0;
const LIMIT_RUN_MS: f64 = 500.0;
const LIMIT_SWEEP_MS: f64 = 2_000.0;

/// An outstanding job is polled after an eighth of its age, within
/// these bounds: latency is observed to within 12.5% (a coarser poll
/// makes the median snap between poll times from run to run), and a
/// backlog of queued jobs does not turn into a poll storm on the reactor.
const POLL_MIN: Duration = Duration::from_millis(1);
const POLL_MAX: Duration = Duration::from_millis(10);

/// A request still unanswered this long after its phase ends fails.
const DRAIN: Duration = Duration::from_secs(15);

/// Past this generator lateness (p99, ms) the host stalled the client
/// and the run is reported as invalid.
const LATE_BOUND_MS: f64 = 25.0;

/// Requests per class in one second of the `busy` phase. The mix is
/// assumed, not taken from observed traffic: the service has no
/// production request log to draw it from. It puts every class in one
/// phase, mostly cache hits, with enough new, duplicate and program jobs
/// and sweeps per run for their latencies to have samples. Only the load
/// level is measured: on a 2-core x86-64 host one worker simulates
/// 135–190 new Test-scale jobs per second (the `wall_s` probe), and
/// `busy` asks for about 37 simulations per second, so the worker is
/// 15–21% busy and the latencies follow the service rather than
/// amplifying host noise.
#[derive(Clone, Copy)]
struct Mix {
    hit: f64,
    new: f64,
    dup: f64,
    program: f64,
    sweep: f64,
}

const MIX: Mix = Mix {
    hit: 100.0,
    new: 25.0,
    dup: 10.0,
    program: 10.0,
    sweep: 1.0,
};

/// The `light` phase offers the same mix at this share of the `busy` rate.
const LIGHT_SHARE: f64 = 0.4;

/// A run is this many rounds, each a set-up, capacity probes, a `light`
/// segment and a `busy` segment, so that every timed quantity has
/// samples spread over the whole run: the host's speed drifts over tens
/// of seconds, and a metric measured in one contiguous block of the run
/// takes whatever speed that block had.
const ROUNDS: usize = 10;
/// Each round's `busy` segment is driven in this many pieces, with the
/// calibration kernel timed between them: the kernel's time at the ends
/// of a whole segment tracked the host's speed over it less closely.
const BUSY_PIECES: usize = 4;
/// Capacity probes per round: Test-scale grids of every workload × model
/// at two fresh seeds (56 points), each one `/v1/sweep` whose points all
/// simulate.
const PROBES_PER_ROUND: usize = 2;
/// Service starts (each with the repeat-pool pre-fill) timed as set-up
/// per round.
const SETUPS_PER_ROUND: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Hit,
    New,
    Dup,
    Program,
    Sweep,
}

impl Class {
    fn limit_ms(self) -> f64 {
        match self {
            Class::Hit => LIMIT_HIT_MS,
            Class::Sweep => LIMIT_SWEEP_MS,
            _ => LIMIT_RUN_MS,
        }
    }

    /// Requests whose answer is a simulated job's result.
    fn is_run(self) -> bool {
        matches!(self, Class::New | Class::Dup | Class::Program)
    }

    fn post_span(self) -> &'static str {
        match self {
            Class::Hit => "serve.post_hit",
            Class::New | Class::Dup => "serve.post_submit",
            Class::Program => "serve.post_program",
            Class::Sweep => "sweep.post",
        }
    }
}

/// SplitMix64: the benchmark's seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn model_json(m: Model) -> String {
    m.name().to_lowercase()
}

fn run_body(workload: &str, model: Model, seed: u64) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"scale\":\"test\",\"seed\":{seed},\"model\":\"{}\"}}",
        model_json(model)
    )
}

/// A strided load/compute/store kernel with seeded trip count, stride
/// and constants.
fn program_source(rng: &mut Rng) -> String {
    let n = 64 + rng.below(192);
    let stride = 8 * (1 + rng.below(16));
    let c = 1 + rng.below(1000);
    let off = 0x40000 + 0x1000 * rng.below(64);
    format!(
        "li r1, 0x100000\nli r2, {n}\nloop:\nld r3, 0(r1)\nadd r4, r3, {c}\n\
         sd r4, {off:#x}(r1)\nadd r1, r1, {stride}\nsub r2, r2, 1\nbne r2, r0, loop\nhalt"
    )
}

fn program_body(src: &str) -> String {
    format!("{{\"program\":\"{}\"}}", hidisc_serve::json::escape(src))
}

/// A job the service will simulate, with its expected result.
struct Spec {
    body: String,
    id: String,
    /// The direct run's statistics and their canonical JSON.
    stats: Option<MachineStats>,
    expect: Option<String>,
}

/// All jobs of a run, keyed by request body; each simulated directly
/// once, untimed.
#[derive(Default)]
struct Specs {
    list: Vec<Spec>,
    by_body: HashMap<String, usize>,
}

impl Specs {
    fn add(&mut self, body: String) -> usize {
        if let Some(&i) = self.by_body.get(&body) {
            return i;
        }
        let spec = JobSpec::from_json(body.as_bytes()).expect("benchmark job body parses");
        let cfg = spec.config().expect("benchmark job config is valid");
        let id = format!("{:016x}", spec.key(&cfg));
        self.list.push(Spec {
            body: body.clone(),
            id,
            stats: None,
            expect: None,
        });
        self.by_body.insert(body, self.list.len() - 1);
        self.list.len() - 1
    }

    /// Runs every spec directly: generation, compile (and, for custom
    /// programs, assembly and the verifier preflight), simulation.
    fn precompute(&mut self, t: &Tracer) {
        let results = t.span(DIRECT_PHASE, None, 0, |phase| {
            pool::run_indexed(self.list.len(), |i| {
                t.span(DIRECT_JOB, Some(phase), i as u64, |job| {
                    direct(&self.list[i].body, t, job, i as u64)
                })
            })
        });
        for (s, r) in self.list.iter_mut().zip(results) {
            s.expect = r.as_ref().map(MachineStats::to_json);
            s.stats = r;
        }
    }
}

/// The pool phase of the direct runs and the span around one job in it.
/// They only group the layer spans: their self time is pool idle and the
/// benchmark's own parsing, which no layer span covers.
const DIRECT_PHASE: &str = "bench.pool_direct";
const DIRECT_JOB: &str = "perfbench.job";

/// A direct run of one job body, through the same public calls the
/// service makes, its spans under `parent`. `None` when the job cannot
/// run (a benchmark bug, reported by the caller as a failed check).
fn direct(body: &str, t: &Tracer, parent: u64, run: u64) -> Option<MachineStats> {
    let parent = Some(parent);
    let spec = JobSpec::from_json(body.as_bytes()).ok()?;
    let cfg = spec.config().ok()?;
    let (compiled, env) = match &spec.program {
        Some(src) => {
            let prog = t.span("isa.assemble", parent, run, |_| {
                hidisc_isa::asm::assemble(&spec.workload, src)
            });
            let env = ExecEnv {
                regs: Vec::new(),
                mem: hidisc_isa::mem::Memory::new(),
                max_steps: 10_000_000,
            };
            let compiled = t.span("slicer.compile", parent, run, |_| {
                compile(prog.as_ref().ok()?, &env, &CompilerConfig::default()).ok()
            })?;
            let clean = t.span("verify.verify", parent, run, |_| {
                let input =
                    hidisc_verify::VerifyInput::of(&compiled, hidisc_bench::depths_of(&cfg));
                hidisc_verify::verify(&input).errors().next().is_none()
            });
            if !clean {
                return None;
            }
            (compiled, env)
        }
        None => {
            let w = t.span("workloads.gen", parent, run, |_| {
                hidisc_workloads::by_name(&spec.workload, spec.scale, spec.seed)
            })?;
            let env = hidisc_bench::env_of(&w);
            let compiled = t.span("slicer.compile", parent, run, |_| {
                compile(&w.prog, &env, &CompilerConfig::default()).ok()
            })?;
            (compiled, env)
        }
    };
    let mi = Model::ALL.iter().position(|&m| m == spec.model)?;
    t.span(crate::batch::SIM_SPANS[mi], parent, run, |_| {
        run_model(spec.model, &compiled, &env, cfg).ok()
    })
}

// ---------------------------------------------------------------------
// Requests and the schedule
// ---------------------------------------------------------------------

/// One client request and everything observed about it.
struct Req {
    class: Class,
    /// Index into [`Specs`] (the sweep's first new point for sweeps).
    spec: usize,
    /// Sweep request body and the specs of its new points (sweeps only).
    sweep_body: Option<String>,
    points: Vec<usize>,
    /// Streamed sweeps are read to their summary line; the others are
    /// polled at `GET /v1/sweeps/<sweep_id>`.
    stream: bool,
    sweep_id: Option<String>,
    due: Duration,
    sent: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
    finished: bool,
    /// Id of the request's client span (traced runs).
    span: u64,
    /// Why it failed, for the report.
    why: Option<String>,
}

impl Req {
    fn new(class: Class, spec: usize, due: Duration) -> Req {
        Req {
            class,
            spec,
            sweep_body: None,
            points: Vec::new(),
            stream: false,
            sweep_id: None,
            due,
            sent: None,
            done: None,
            ok: false,
            finished: false,
            span: 0,
            why: None,
        }
    }

    /// Marks the request finished and failed, keeping the first reason.
    fn fail(&mut self, why: &str) {
        self.finished = true;
        self.ok = false;
        self.why.get_or_insert_with(|| why.to_string());
    }

    fn outcome(&self, epoch: Instant) -> Outcome {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        Outcome {
            due_ns: self.due.as_nanos() as u64,
            sent_ns: self.sent.map_or(self.due.as_nanos() as u64, ns),
            done_ns: self.done.map(ns),
            ok: self.ok,
        }
    }
}

/// The pool of completed jobs repeats draw from: one seed per workload,
/// every model, so sweeps over a workload's models overlap it.
struct Pool {
    seeds: Vec<u64>,
    specs: Vec<usize>,
}

fn fresh_seed(rng: &mut Rng, used: &mut HashSet<u64>) -> u64 {
    loop {
        let s = rng.below(1 << 40);
        if used.insert(s) {
            return s;
        }
    }
}

/// Segment `k` of `of` of a phase: [`MIX`] at `rate` times its rate for
/// `secs` seconds, whose fixed counts per class are split evenly over the
/// segments. Within a segment, requests come in a seeded order, one per
/// equal time slot at a random offset within it (open loop, bounded
/// burstiness); duplicates trail a random new job by 1 ms so they find
/// it in flight.
#[allow(clippy::too_many_arguments)]
fn segment(
    rate: f64,
    secs: f64,
    (k, of): (usize, usize),
    rng: &mut Rng,
    used: &mut HashSet<u64>,
    programs: &mut HashSet<String>,
    specs: &mut Specs,
    pool: &Pool,
) -> Vec<Req> {
    // This segment's share of the phase's requests of a class, as the
    // phase-wide indices it takes (so stratification runs across
    // segments).
    let count = |r: f64| {
        let n = (r * rate * secs).round() as usize;
        k * n / of..(k + 1) * n / of
    };
    let secs = secs / of as f64;
    let mut reqs = Vec::new();
    for _ in count(MIX.hit) {
        let s = pool.specs[rng.below(pool.specs.len() as u64) as usize];
        reqs.push(Req::new(Class::Hit, s, Duration::ZERO));
    }
    for i in count(MIX.new) {
        // Stratified over workload × model so every seed offers the same
        // composition of work.
        let w = WORKLOADS[i % WORKLOADS.len()];
        let m = Model::ALL[(i / WORKLOADS.len()) % Model::ALL.len()];
        let s = specs.add(run_body(w, m, fresh_seed(rng, used)));
        reqs.push(Req::new(Class::New, s, Duration::ZERO));
    }
    for _ in count(MIX.program) {
        let src = loop {
            let src = program_source(rng);
            if programs.insert(src.clone()) {
                break src;
            }
        };
        let s = specs.add(program_body(&src));
        reqs.push(Req::new(Class::Program, s, Duration::ZERO));
    }
    for i in count(MIX.sweep) {
        let wi = i % WORKLOADS.len();
        let w = WORKLOADS[wi];
        let m1 = Model::ALL[i % 4];
        let m2 = Model::ALL[(i + 1 + (i / 4) % 3) % 4];
        let fresh = fresh_seed(rng, used);
        let first = specs.add(run_body(w, m1, fresh));
        let second = specs.add(run_body(w, m2, fresh));
        let body = format!(
            "{{\"workloads\":[\"{w}\"],\"models\":[\"{}\",\"{}\"],\"scales\":[\"test\"],\
             \"seeds\":[{},{fresh}]}}",
            model_json(m1),
            model_json(m2),
            pool.seeds[wi]
        );
        let mut r = Req::new(Class::Sweep, first, Duration::ZERO);
        r.sweep_body = Some(body);
        r.points = vec![first, second];
        r.stream = true;
        reqs.push(r);
    }
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let slot = secs / reqs.len().max(1) as f64;
    for (k, r) in reqs.iter_mut().enumerate() {
        r.due = Duration::from_secs_f64((k as f64 + rng.unit()) * slot);
    }
    let news: Vec<(usize, Duration)> = reqs
        .iter()
        .filter(|r| r.class == Class::New)
        .map(|r| (r.spec, r.due))
        .collect();
    // A short run's segment may have no new job to duplicate.
    for _ in count(MIX.dup).filter(|_| !news.is_empty()) {
        let (s, d) = news[rng.below(news.len() as u64) as usize];
        reqs.push(Req::new(Class::Dup, s, d + Duration::from_millis(1)));
    }
    reqs.sort_by_key(|r| r.due);
    reqs
}

// ---------------------------------------------------------------------
// The open-loop client
// ---------------------------------------------------------------------

/// What a pipelined exchange on a connection belongs to.
#[derive(Clone, Copy)]
enum Exchange {
    Post(usize),
    Poll(usize),
}

/// Incremental parse state of the response at the head of a connection.
enum RespState {
    Head,
    Body { status: u16, len: usize },
    Chunked { status: u16, line: Vec<u8> },
}

struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    pending: VecDeque<(Exchange, Instant)>,
    state: RespState,
    want_write: bool,
}

/// A parsed piece of a response.
enum Event {
    /// A complete response with a body.
    Full(u16, Vec<u8>),
    /// One NDJSON line of a streamed response.
    Line(u16, Vec<u8>),
    /// The end of a streamed response.
    StreamEnd,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            addr,
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            state: RespState::Head,
            want_write: false,
        })
    }

    fn send(&mut self, method: &str, path: &str, body: &str, ex: Exchange) {
        self.out.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        self.pending.push_back((ex, Instant::now()));
    }

    /// Replaces a connection the service closed: fails the requests of
    /// its unanswered exchanges and reconnects. Returns how many
    /// requests that finished.
    fn reset(&mut self, poller: &Poller, token: usize, reqs: &mut [Req]) -> usize {
        let mut failed = 0;
        for (ex, _) in self.pending.drain(..) {
            let (Exchange::Post(i) | Exchange::Poll(i)) = ex;
            if !reqs[i].finished {
                reqs[i].fail("connection closed");
                failed += 1;
            }
        }
        let _ = poller.delete(self.stream.as_raw_fd());
        if let Ok(fresh) = Conn::open(self.addr) {
            *self = fresh;
        }
        let _ = poller.add(self.stream.as_raw_fd(), token as u64, Interest::READ);
        failed
    }

    /// Writes what the socket takes; returns true when bytes remain.
    fn flush(&mut self) -> std::io::Result<bool> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    fn read_available(&mut self) -> std::io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Parses as much of the input as is complete.
    fn events(&mut self) -> Vec<Event> {
        let mut out = Vec::new();
        loop {
            match &mut self.state {
                RespState::Head => {
                    let Some(end) = find(&self.inbuf, b"\r\n\r\n") else {
                        break;
                    };
                    let head = String::from_utf8_lossy(&self.inbuf[..end]).to_string();
                    self.inbuf.drain(..end + 4);
                    let status = head
                        .split(' ')
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    let mut len = 0;
                    let mut chunked = false;
                    for line in head.lines().skip(1) {
                        if let Some((k, v)) = line.split_once(':') {
                            let v = v.trim();
                            if k.eq_ignore_ascii_case("content-length") {
                                len = v.parse().unwrap_or(0);
                            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                                chunked = v.eq_ignore_ascii_case("chunked");
                            }
                        }
                    }
                    self.state = if chunked {
                        RespState::Chunked {
                            status,
                            line: Vec::new(),
                        }
                    } else {
                        RespState::Body { status, len }
                    };
                }
                RespState::Body { status, len } => {
                    if self.inbuf.len() < *len {
                        break;
                    }
                    let body: Vec<u8> = self.inbuf.drain(..*len).collect();
                    out.push(Event::Full(*status, body));
                    self.state = RespState::Head;
                }
                RespState::Chunked { status, line } => {
                    let Some(eol) = find(&self.inbuf, b"\r\n") else {
                        break;
                    };
                    let size = usize::from_str_radix(
                        String::from_utf8_lossy(&self.inbuf[..eol]).trim(),
                        16,
                    )
                    .unwrap_or(0);
                    if self.inbuf.len() < eol + 2 + size + 2 {
                        break;
                    }
                    let data: Vec<u8> = self.inbuf[eol + 2..eol + 2 + size].to_vec();
                    self.inbuf.drain(..eol + 2 + size + 2);
                    if size == 0 {
                        out.push(Event::StreamEnd);
                        self.state = RespState::Head;
                        continue;
                    }
                    for b in data {
                        if b == b'\n' {
                            out.push(Event::Line(*status, std::mem::take(line)));
                        } else {
                            line.push(b);
                        }
                    }
                }
            }
        }
        out
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Round-trip times (ms) of each exchange kind, by span name.
type Rtts = HashMap<&'static str, Vec<f64>>;

/// Drives `reqs` (due times relative to the call) to completion over
/// `conns`: connection 0 carries runs and polls, the last one sweeps.
/// Returns the phase epoch.
fn drive(
    conns: &mut [Conn],
    poller: &Poller,
    reqs: &mut [Req],
    specs: &Specs,
    t: &Tracer,
    rtts: &mut Rtts,
    id_base: u64,
) -> Instant {
    let epoch = Instant::now();
    let last_due = reqs.iter().map(|r| r.due).max().unwrap_or_default();
    let deadline = epoch + last_due + DRAIN;
    let mut next = 0; // next request to issue, in due order
    let mut open = reqs.len();
    let mut polls: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    // The service does not parse a request pipelined behind a streamed
    // response until more bytes arrive, so sweeps wait here for the
    // previous stream to end. Their latency still runs from the due time.
    let mut held: VecDeque<usize> = VecDeque::new();
    let mut events = Vec::new();
    let sweep_conn = conns.len() - 1;
    while open > 0 {
        let now = Instant::now();
        if now > deadline {
            for r in reqs.iter_mut().filter(|r| !r.finished) {
                r.fail("no answer by the drain deadline");
            }
            break;
        }
        // Issue every request that is due.
        while next < reqs.len() && epoch + reqs[next].due <= now {
            let r = &mut reqs[next];
            r.sent = Some(Instant::now());
            r.span = t.reserve();
            match r.class {
                Class::Sweep if r.stream => held.push_back(next),
                Class::Sweep => {
                    let body = r.sweep_body.as_deref().unwrap_or("{}");
                    conns[0].send("POST", "/v1/sweep", body, Exchange::Post(next));
                }
                _ => conns[0].send(
                    "POST",
                    "/v1/run",
                    &specs.list[r.spec].body,
                    Exchange::Post(next),
                ),
            }
            next += 1;
        }
        if conns[sweep_conn].pending.is_empty() {
            if let Some(i) = held.pop_front() {
                let body = reqs[i].sweep_body.as_deref().unwrap_or("{}");
                conns[sweep_conn].send("POST", "/v1/sweep", body, Exchange::Post(i));
            }
        }
        // Poll every outstanding job whose poll is due.
        while let Some(&Reverse((at, i))) = polls.peek() {
            if at > now {
                break;
            }
            polls.pop();
            let path = match &reqs[i].sweep_id {
                Some(id) => format!("/v1/sweeps/{id}"),
                None => format!("/v1/jobs/{}", specs.list[reqs[i].spec].id),
            };
            conns[0].send("GET", &path, "", Exchange::Poll(i));
        }
        for (ci, c) in conns.iter_mut().enumerate() {
            match c.flush() {
                Ok(more) if more != c.want_write => {
                    c.want_write = more;
                    let interest = if more {
                        Interest::READ_WRITE
                    } else {
                        Interest::READ
                    };
                    let _ = poller.modify(c.stream.as_raw_fd(), ci as u64, interest);
                }
                Ok(_) => {}
                Err(_) => open -= c.reset(poller, ci, reqs),
            }
        }
        // Sleep until the next due request or poll, or a response.
        let mut wake = deadline;
        if next < reqs.len() {
            wake = wake.min(epoch + reqs[next].due);
        }
        if let Some(&Reverse((at, _))) = polls.peek() {
            wake = wake.min(at);
        }
        // Round up, so the client never spins against the service for
        // the two cores; the cost, at most a millisecond of lateness,
        // shows in `client.late_p99_ms`.
        let wait = wake.saturating_duration_since(Instant::now());
        let ms = (wait.as_micros().div_ceil(1000)).min(1000) as i32;
        if poller.wait(&mut events, ms).is_err() {
            continue;
        }
        for ev in events.clone() {
            let ci = ev.token as usize;
            let c = &mut conns[ci];
            if c.read_available().is_err() {
                open -= c.reset(poller, ci, reqs);
                continue;
            }
            for e in c.events() {
                let Some(&(ex, sent)) = c.pending.front() else {
                    break;
                };
                let now = Instant::now();
                let (Exchange::Post(i) | Exchange::Poll(i)) = ex;
                if !matches!(e, Event::Line(..)) {
                    c.pending.pop_front();
                    let name = match ex {
                        Exchange::Poll(_) => "serve.poll",
                        Exchange::Post(_) => reqs[i].class.post_span(),
                    };
                    rtts.entry(name)
                        .or_default()
                        .push(now.duration_since(sent).as_secs_f64() * 1e3);
                    t.record(name, Some(reqs[i].span), id_base + i as u64, sent, now);
                }
                let r = &mut reqs[i];
                if r.finished {
                    continue;
                }
                let verdict = match e {
                    Event::Full(status, body) => answer(r, status, &body, specs),
                    Event::Line(status, line) => sweep_line(status, &line),
                    Event::StreamEnd => Verdict::Fail("stream ended before its summary".into()),
                };
                match verdict {
                    Verdict::Again => {
                        if !r.stream {
                            let age = r.sent.map_or(Duration::ZERO, |s| now - s);
                            let every = if r.sweep_id.is_some() {
                                POLL_MIN
                            } else {
                                (age / 8).clamp(POLL_MIN, POLL_MAX)
                            };
                            polls.push(Reverse((now + every, i)));
                        }
                        continue;
                    }
                    Verdict::Done => r.ok = true,
                    Verdict::Fail(why) => r.fail(&why),
                }
                r.finished = true;
                r.done = Some(now);
                open -= 1;
                if let Some(s) = r.sent {
                    t.record_as(r.span, "client.request", None, id_base + i as u64, s, now);
                }
            }
        }
    }
    epoch
}

/// What a response means for its request.
enum Verdict {
    /// Finished with the expected result.
    Done,
    /// Still queued or running: poll again (or keep reading the stream).
    Again,
    /// Finished wrongly: refused, failed or a different result.
    Fail(String),
}

/// Handles a complete response to a run POST or poll.
fn answer(r: &mut Req, status: u16, body: &[u8], specs: &Specs) -> Verdict {
    let text = String::from_utf8_lossy(body);
    if !matches!(status, 200 | 202) || (r.class == Class::Sweep && r.stream) {
        return Verdict::Fail(format!("{status}: {}", text.trim()));
    }
    let Ok(v) = Json::parse(&text) else {
        return Verdict::Fail(format!("unparsable body: {text}"));
    };
    if r.class == Class::Sweep {
        r.sweep_id = v.get("sweep").and_then(Json::as_str).map(str::to_string);
        return sweep_summary(&v, &text);
    }
    match v.get("status").and_then(Json::as_str) {
        Some("done") => {
            let want = specs.list[r.spec].expect.as_deref();
            let got = hidisc_serve::client::extract_stats(&text);
            if want.is_some() && got == want {
                Verdict::Done
            } else {
                Verdict::Fail("stats differ from a direct run".into())
            }
        }
        Some("queued" | "running") if r.class != Class::Hit => Verdict::Again,
        _ => Verdict::Fail(format!("{status}: {}", text.trim())),
    }
}

/// A streamed sweep line: the summary line finishes the request.
fn sweep_line(status: u16, line: &[u8]) -> Verdict {
    let text = String::from_utf8_lossy(line);
    let Ok(v) = Json::parse(&text) else {
        return Verdict::Fail(format!("unparsable line: {text}"));
    };
    if status != 200 {
        return Verdict::Fail(format!("{status}: {text}"));
    }
    if v.get("point").is_some() {
        return Verdict::Again;
    }
    sweep_summary(&v, &text)
}

/// A sweep summary: done when every point finished without failure.
fn sweep_summary(v: &Json, text: &str) -> Verdict {
    if v.get("status").and_then(Json::as_str) != Some("done") {
        return Verdict::Again;
    }
    let n = |k| v.get(k).and_then(Json::as_u64);
    if n("failed") == Some(0) && n("done").is_some() && n("done") == n("total") {
        Verdict::Done
    } else {
        Verdict::Fail(format!("sweep summary: {text}"))
    }
}

// ---------------------------------------------------------------------
// The service and its metrics
// ---------------------------------------------------------------------

fn start_service() -> Service {
    let cfg = ServeConfig::builder()
        .addr("127.0.0.1:0")
        .workers(1)
        .queue_depth(512)
        .cache_bytes(64 << 20)
        .max_jobs(16_384)
        .log_level(None)
        .build()
        .expect("benchmark service config is valid");
    Service::start(cfg).expect("service starts")
}

struct Client {
    conns: Vec<Conn>,
    poller: Poller,
}

/// Keep-alive connections: runs and polls share connection 0, streamed
/// sweeps have connection 1 to themselves (see [`drive`]).
const CONNS: usize = 2;

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let poller = Poller::new().expect("poller");
        let conns: Vec<Conn> = (0..CONNS)
            .map(|i| {
                let c = Conn::open(addr).expect("connect to the service");
                poller
                    .add(c.stream.as_raw_fd(), i as u64, Interest::READ)
                    .expect("register connection");
                c
            })
            .collect();
        Client { conns, poller }
    }
}

/// `GET /metrics` as `name{labels} -> value`.
type Metrics = HashMap<String, f64>;

/// Scrapes `GET /metrics`.
fn scrape(addr: SocketAddr) -> Metrics {
    let r = hidisc_serve::client::http_request(
        &addr.to_string(),
        "GET",
        "/metrics",
        "",
        Duration::from_secs(5),
    );
    let mut out = HashMap::new();
    if let Ok(r) = r {
        for line in r.body.lines().filter(|l| !l.starts_with('#')) {
            if let Some((k, v)) = line.rsplit_once(' ') {
                if let Ok(v) = v.parse() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
    out
}

fn value(m: &Metrics, key: &str) -> f64 {
    m.get(key).copied().unwrap_or(0.0)
}

/// Mean of a job-phase histogram over `d`, the differences between
/// scrapes, in ms.
fn phase_mean_ms(d: &Metrics, phase: &str) -> f64 {
    let sum = value(
        d,
        &format!("hidisc_serve_job_phase_seconds_sum{{phase=\"{phase}\"}}"),
    );
    let n = value(
        d,
        &format!("hidisc_serve_job_phase_seconds_count{{phase=\"{phase}\"}}"),
    );
    if n > 0.0 {
        sum * 1e3 / n
    } else {
        0.0
    }
}

/// Pins the only live simulation worker thread (`hidisc-worker-0`, the
/// serving service's) to `cpu`, where the calibration kernel runs.
fn pin_worker(cpu: usize) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let workers: Vec<i32> = tasks
        .filter_map(|t| {
            let t = t.ok()?;
            let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
            (comm.trim() == "hidisc-worker-0").then(|| t.file_name().to_str()?.parse().ok())?
        })
        .collect();
    workers.len() == 1 && calib::pin(workers[0], cpu)
}

/// Starts a service and fills the repeat pool through it.
fn start_filled(pool: &Pool, specs: &Specs) -> (Service, Client, bool) {
    let svc = start_service();
    let mut client = Client::connect(svc.addr());
    let mut reqs: Vec<Req> = pool
        .specs
        .iter()
        .map(|&s| Req::new(Class::New, s, Duration::ZERO))
        .collect();
    let quiet = Tracer::new(false);
    drive(
        &mut client.conns,
        &client.poller,
        &mut reqs,
        specs,
        &quiet,
        &mut Rtts::new(),
        0,
    );
    let ok = reqs.iter().all(|r| r.ok);
    (svc, client, ok)
}

pub fn run(seed: u64, seconds: u64, traced: bool, rep: &mut Report) {
    let mut rng = Rng(seed ^ 0x005e_ed0f_d15c);
    let mut used = HashSet::new();
    let mut programs = HashSet::new();
    let mut specs = Specs::default();

    // The repeat pool: every workload × model at one seed per workload.
    let seeds: Vec<u64> = WORKLOADS
        .iter()
        .map(|_| fresh_seed(&mut rng, &mut used))
        .collect();
    let pool_specs = WORKLOADS
        .iter()
        .zip(&seeds)
        .flat_map(|(w, &s)| Model::ALL.map(|m| run_body(w, m, s)))
        .map(|b| specs.add(b))
        .collect();
    let pool = Pool {
        seeds,
        specs: pool_specs,
    };
    let all_models: Vec<String> = Model::ALL
        .iter()
        .map(|&m| format!("\"{}\"", model_json(m)))
        .collect();
    let all_workloads: Vec<String> = WORKLOADS.iter().map(|w| format!("\"{w}\"")).collect();
    let mut probes: Vec<Req> = (0..ROUNDS * PROBES_PER_ROUND)
        .map(|_| {
            let fresh = [0; 2].map(|_| fresh_seed(&mut rng, &mut used));
            let points: Vec<usize> = WORKLOADS
                .iter()
                .flat_map(|w| {
                    fresh
                        .iter()
                        .flat_map(move |&seed| Model::ALL.map(|m| run_body(w, m, seed)))
                })
                .map(|b| specs.add(b))
                .collect();
            let mut r = Req::new(Class::Sweep, points[0], Duration::ZERO);
            r.sweep_body = Some(format!(
                "{{\"workloads\":[{}],\"models\":[{}],\"scales\":[\"test\"],\
                 \"seeds\":[{},{}],\"stream\":false}}",
                all_workloads.join(","),
                all_models.join(","),
                fresh[0],
                fresh[1]
            ));
            r.points = points;
            r
        })
        .collect();
    // A fifth of the run offers `light`, two fifths `busy`, each split
    // evenly over the rounds; the direct runs, probes and set-ups take
    // most of the rest.
    let (light_s, busy_s) = (seconds as f64 * 0.2, seconds as f64 * 0.4);
    let mut segments = |share: f64, secs: f64, of: usize| -> Vec<Vec<Req>> {
        (0..of)
            .map(|k| {
                segment(
                    share,
                    secs,
                    (k, of),
                    &mut rng,
                    &mut used,
                    &mut programs,
                    &mut specs,
                    &pool,
                )
            })
            .collect()
    };
    let mut light = segments(LIGHT_SHARE, light_s, ROUNDS);
    let mut busy = segments(1.0, busy_s, ROUNDS * BUSY_PIECES);

    // Expected results, outside the timed phases. A traced run makes the
    // direct runs again, traced: they are the part of the workload whose
    // wall is the traced code's own work (the open-loop phases' wall is
    // set by the schedule), so the layers' self times are accounted
    // against it.
    let t0 = Instant::now();
    specs.precompute(&Tracer::new(false));
    let direct_s = t0.elapsed().as_secs_f64();
    rep.note(format!(
        "{} distinct jobs simulated directly in {direct_s:.2} s",
        specs.list.len()
    ));
    let direct_t = Tracer::new(traced);
    let mut traced_direct_s = 0.0;
    if traced {
        let t0 = Instant::now();
        specs.precompute(&direct_t);
        traced_direct_s = t0.elapsed().as_secs_f64();
    }
    let tracer = Tracer::new(traced);
    let broken = specs.list.iter().filter(|s| s.expect.is_none()).count();
    rep.check(broken == 0, || {
        format!("{broken} benchmark jobs do not run directly")
    });

    // The rounds. The first round's service serves the run; the other
    // set-ups are shut down once timed. The client (this thread, and the
    // threads of every service it starts) stays on the first CPU and the
    // serving service's simulation worker on the last, so the two do not
    // take turns on one CPU. Timings are converted to reference seconds
    // with the calibration kernel timed around them on the CPU their work
    // ran on: the benchmark cannot calibrate between the worker's jobs,
    // so these factors track the host less closely than `suite_paper`'s
    // per-cell ones.
    let (client_cpu, cpu) = (
        0,
        std::thread::available_parallelism().map_or(1, |n| n.get()) - 1,
    );
    let pinned = calib::pin(0, client_cpu);
    let mut setups = Vec::new();
    let mut setup_round = |rep: &mut Report| {
        let mut live = None;
        let mut host = Vec::new();
        let before = calib::sample3_on(client_cpu);
        for _ in 0..SETUPS_PER_ROUND {
            if let Some((svc, _)) = live.take() {
                Service::shutdown(svc);
            }
            let t0 = Instant::now();
            let (svc, client, ok) = start_filled(&pool, &specs);
            host.push(t0.elapsed().as_secs_f64());
            rep.check(ok, || "repeat-pool pre-fill failed".into());
            live = Some((svc, client));
        }
        let f = calib::factor(before, calib::sample3_on(client_cpu));
        setups.extend(host.iter().map(|s| s * f));
        live.expect("a round starts at least one service")
    };
    let mut serving: Option<(Service, Client)> = None;
    let mut probe_walls = Vec::new();
    let mut probe_msips = Vec::new();
    let mut factors = Vec::new();
    let (mut light_epochs, mut busy_epochs) = (Vec::new(), Vec::new());
    // Each busy segment's reference-seconds factor.
    let mut busy_factors = Vec::new();
    // `/metrics` deltas over the busy segments, and their wall.
    let mut busy_delta = Metrics::new();
    let mut busy_wall = 0.0;
    let mut busy_rtts = Rtts::new();
    let sim_run_key = "hidisc_serve_job_phase_seconds_sum{phase=\"sim_run\"}";
    for (r, probes) in probes.chunks_mut(PROBES_PER_ROUND).enumerate() {
        let started = setup_round(rep);
        let (svc, client) = match &mut serving {
            Some((svc, client)) => {
                Service::shutdown(started.0);
                (&*svc, client)
            }
            None => {
                let pinned = pinned && pin_worker(cpu);
                rep.note(format!(
                    "client pinned to CPU {client_cpu}, simulation worker to CPU {cpu}: {pinned}"
                ));
                let (svc, client) = serving.insert(started);
                (&*svc, client)
            }
        };
        let addr = svc.addr();
        let mut cal = calib::sample3_on(cpu);
        for probe in probes.chunks_mut(1) {
            let m0 = scrape(addr);
            let epoch = drive(
                &mut client.conns,
                &client.poller,
                probe,
                &specs,
                &Tracer::new(false),
                &mut Rtts::new(),
                0,
            );
            let p = &probe[0];
            let wall = p.done.unwrap_or(epoch).duration_since(epoch).as_secs_f64();
            let sim_s = value(&scrape(addr), sim_run_key) - value(&m0, sim_run_key);
            let after = calib::sample3_on(cpu);
            let f = calib::factor(cal, after);
            cal = after;
            factors.push(f);
            probe_walls.push(wall * f);
            let committed: u64 = p
                .points
                .iter()
                .filter_map(|&k| specs.list[k].stats.as_ref())
                .map(MachineStats::total_committed)
                .sum();
            probe_msips.push(committed as f64 / 1e6 / sim_s.max(1e-9) / f);
            rep.attempted += 1;
            rep.failed += u64::from(!p.ok);
        }
        // Request span ids: one block of 2^20 per drive.
        let id_base = |drive: usize| ((r * (1 + BUSY_PIECES) + drive + 1) as u64) << 20;
        light_epochs.push(drive(
            &mut client.conns,
            &client.poller,
            &mut light[r],
            &specs,
            &tracer,
            &mut Rtts::new(),
            id_base(0),
        ));
        let mut cal = calib::sample3_on(cpu);
        for (p, piece) in busy[r * BUSY_PIECES..(r + 1) * BUSY_PIECES]
            .iter_mut()
            .enumerate()
        {
            let before = scrape(addr);
            let started = Instant::now();
            busy_epochs.push(drive(
                &mut client.conns,
                &client.poller,
                piece,
                &specs,
                &tracer,
                &mut busy_rtts,
                id_base(p + 1),
            ));
            busy_wall += started.elapsed().as_secs_f64();
            let after = scrape(addr);
            let next = calib::sample3_on(cpu);
            busy_factors.push(calib::factor(cal, next));
            cal = next;
            for (k, v) in &after {
                *busy_delta.entry(k.clone()).or_default() += v - value(&before, k);
            }
        }
    }
    let (svc, client) = serving.expect("at least one round");
    let addr = svc.addr();
    rep.set("setup_s", median(&setups), "s", setups.len());
    rep.set("wall_s", median(&probe_walls), "s", probe_walls.len());
    rep.set("msips", median(&probe_msips), "Minstr/s", probe_msips.len());
    let list = |v: &[f64]| {
        v.iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    rep.note(format!("probe walls (reference s): {}", list(&probe_walls)));
    rep.note(format!("host speed over reference: {}", list(&factors)));
    let grid = probes[0].points.len() as f64;
    rep.note(format!(
        "capacity: {:.0} new Test-scale points/s on one worker at the reference speed \
         (grids of {grid})",
        grid / median(&probe_walls)
    ));

    // Sweep points: every new point's stored result must match too.
    let mut sweep_ok = true;
    for r in probes
        .iter()
        .chain(light.iter().flatten())
        .chain(busy.iter().flatten())
        .filter(|r| r.class == Class::Sweep && r.ok)
    {
        for &k in &r.points {
            let s = &specs.list[k];
            let got = hidisc_serve::client::http_request(
                &addr.to_string(),
                "GET",
                &format!("/v1/jobs/{}", s.id),
                "",
                Duration::from_secs(5),
            );
            let same = got
                .as_ref()
                .is_ok_and(|g| hidisc_serve::client::extract_stats(&g.body) == s.expect.as_deref());
            sweep_ok &= same;
        }
    }
    rep.check(sweep_ok, || {
        "a sweep point's stored stats differ from a direct run".into()
    });
    let end = scrape(addr);
    let sims = value(&end, "hidisc_serve_sim_runs_total");
    let sim_run_s = value(
        &end,
        "hidisc_serve_job_phase_seconds_sum{phase=\"sim_run\"}",
    );
    drop(client);
    Service::shutdown(svc);

    // The last service simulates every distinct job exactly once (the
    // repeat pool during its pre-fill); duplicates and repeats never.
    rep.check(sims as usize == specs.list.len(), || {
        format!(
            "service ran {sims} simulations for {} distinct jobs",
            specs.list.len()
        )
    });
    let committed: u64 = specs
        .list
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .map(MachineStats::total_committed)
        .sum();
    rep.note(format!(
        "all {sims} simulations: {:.3} Minstr/s of host sim_run time",
        committed as f64 / 1e6 / sim_run_s.max(1e-9)
    ));

    // Outcomes, each against its segment's epoch.
    let outs = |segs: &[Vec<Req>], epochs: &[Instant], f: &dyn Fn(Class) -> bool| -> Vec<Outcome> {
        segs.iter()
            .zip(epochs)
            .flat_map(|(reqs, &epoch)| {
                reqs.iter()
                    .filter(|r| f(r.class))
                    .map(move |r| r.outcome(epoch))
            })
            .collect()
    };
    for (segs, epochs) in [(&light, &light_epochs), (&busy, &busy_epochs)] {
        let all = outs(segs, epochs, &|_| true);
        rep.attempted += all.len() as u64;
        rep.failed += all.iter().filter(|o| !o.ok).count() as u64;
    }
    let mut whys: Vec<String> = light
        .iter()
        .chain(&busy)
        .flatten()
        .filter_map(|r| r.why.as_ref().map(|w| format!("{:?}: {w}", r.class)))
        .collect();
    whys.sort();
    whys.dedup();
    for w in whys.iter().take(8) {
        rep.note(format!("failed request: {w}"));
    }
    // A failure counts as missing every limit: for percentiles it reads
    // as the drain deadline.
    let fail_ms = DRAIN.as_secs_f64() * 1e3;
    let lat = |o: &[Outcome]| -> Vec<f64> {
        o.iter()
            .map(|o| o.latency_ms().unwrap_or(fail_ms))
            .collect()
    };
    let tail = |v: &[f64], what: &str, rep: &mut Report| -> f64 {
        let p = tail_percentile(v.len()).unwrap_or(50);
        rep.note(format!("{what} tail is p{p} of {}", v.len()));
        percentile(v, p)
    };
    let run_busy = lat(&outs(&busy, &busy_epochs, &|c: Class| c.is_run()));
    let run_light = lat(&outs(&light, &light_epochs, &|c: Class| c.is_run()));
    let hit_busy = lat(&outs(&busy, &busy_epochs, &|c| c == Class::Hit));
    let mut sweeps = lat(&outs(&light, &light_epochs, &|c| c == Class::Sweep));
    sweeps.extend(lat(&outs(&busy, &busy_epochs, &|c| c == Class::Sweep)));
    // In reference ms, by the factor of each result's busy segment.
    let run_busy_ref: Vec<f64> = busy
        .iter()
        .zip(&busy_epochs)
        .zip(&busy_factors)
        .flat_map(|((reqs, &epoch), &f)| {
            reqs.iter()
                .filter(|r| r.class.is_run())
                .map(move |r| r.outcome(epoch).latency_ms().map_or(fail_ms, |ms| ms * f))
        })
        .collect();
    rep.set("p50_ms", median(&run_busy_ref), "ms", run_busy_ref.len());
    let busy_all = outs(&busy, &busy_epochs, &|_| true);
    let good = busy
        .iter()
        .flatten()
        .zip(&busy_all)
        .filter(|(r, o)| o.within(r.class.limit_ms()))
        .count();
    rep.set(
        "goodput_share",
        good as f64 / busy_all.len().max(1) as f64,
        "share",
        busy_all.len(),
    );
    rep.set("peak_rss_mb", peak_rss_mb(), "MB", 1);

    let late: Vec<f64> = busy_all.iter().map(Outcome::late_ms).collect();
    let late_p99 = percentile(&late, 99);
    if late_p99 > LATE_BOUND_MS {
        rep.note(format!(
            "INVALID RUN: the load generator ran {late_p99:.1} ms late at p99 (bound \
             {LATE_BOUND_MS} ms), so the host stalled the client; its latencies are suspect"
        ));
    }
    let busy_n = busy_all.len() as f64;
    let share = |c: Class| busy.iter().flatten().filter(|r| r.class == c).count() as f64 / busy_n;
    rep.note(format!(
        "assumed request mix (configured, not observed): busy {:.0} req/s; hit {:.1}%, \
         new {:.1}%, dup {:.1}%, program {:.1}%, sweep {:.1}%; light {:.0} req/s",
        busy_n / busy_s,
        100.0 * share(Class::Hit),
        100.0 * share(Class::New),
        100.0 * share(Class::Dup),
        100.0 * share(Class::Program),
        100.0 * share(Class::Sweep),
        light.iter().flatten().count() as f64 / light_s,
    ));

    if traced {
        rep.set("serve.run_p50_ms", median(&run_busy), "ms", run_busy.len());
        let v = tail(&run_busy, "busy run", rep);
        rep.set("serve.run_tail_ms", v, "ms", run_busy.len());
        let v = tail(&run_light, "light run", rep);
        rep.set("serve.run_light_tail_ms", v, "ms", run_light.len());
        let v = tail(&hit_busy, "busy hit", rep);
        rep.set("serve.hit_tail_ms", v, "ms", hit_busy.len());
        rep.set("serve.sweep_p50_ms", median(&sweeps), "ms", sweeps.len());
        for (metric, span) in [
            ("serve.post_hit_ms", "serve.post_hit"),
            ("serve.post_submit_ms", "serve.post_submit"),
            ("serve.post_program_ms", "serve.post_program"),
            ("serve.poll_ms", "serve.poll"),
        ] {
            let v = busy_rtts.get(span).cloned().unwrap_or_default();
            rep.set(metric, median(&v), "ms", v.len());
        }
        for phase in ["queue_wait", "sim_run", "serialize"] {
            rep.set(
                &format!("serve.{phase}_ms"),
                phase_mean_ms(&busy_delta, phase),
                "ms",
                1,
            );
        }
        let busy_work = value(
            &busy_delta,
            "hidisc_serve_job_phase_seconds_sum{phase=\"sim_run\"}",
        ) + value(
            &busy_delta,
            "hidisc_serve_job_phase_seconds_sum{phase=\"serialize\"}",
        );
        rep.set("serve.worker_busy_share", busy_work / busy_wall, "share", 1);
        let hits = value(&end, "hidisc_serve_cache_hits_total");
        let misses = value(&end, "hidisc_serve_cache_misses_total");
        rep.set(
            "serve.hit_share",
            hits / (hits + misses).max(1.0),
            "share",
            1,
        );
        for (metric, key) in [
            ("serve.coalesced", "hidisc_serve_coalesced_total"),
            ("serve.rejected", "hidisc_serve_rejected_total"),
            ("serve.warm_restores", "hidisc_serve_warm_restores_total"),
            (
                "sweep.points_cached",
                "hidisc_serve_sweep_points_total{outcome=\"cached\"}",
            ),
            (
                "sweep.points_simulated",
                "hidisc_serve_sweep_points_total{outcome=\"simulated\"}",
            ),
        ] {
            rep.set(metric, value(&end, key), "count", 1);
        }
        rep.set("client.late_p99_ms", late_p99, "ms", late.len());
        per_layer_direct(&direct_t, direct_s, traced_direct_s, &specs, rep);
        rep.note(format!(
            "client tracing cost {:.4} s over {} spans",
            tracer.cost_s(),
            tracer.spans().len()
        ));
        crate::batch::write_spans(&direct_t, "serve_mix", seed);
        crate::batch::write_spans(&tracer, "serve_mix-client", seed);
    }
}

/// Per-layer costs of the jobs the service ran, from the traced direct
/// runs (the same public calls the service's workers and preflight
/// make), accounted against the untraced direct runs' wall `untraced_s`.
fn per_layer_direct(t: &Tracer, untraced_s: f64, traced_s: f64, specs: &Specs, rep: &mut Report) {
    let spans = t.spans();
    let n = specs.list.len();
    for (metric, name) in [
        ("workloads.gen_s", "workloads.gen"),
        ("isa.assemble_s", "isa.assemble"),
        ("slicer.compile_s", "slicer.compile"),
        ("verify.verify_s", "verify.verify"),
    ] {
        rep.set(metric, trace::total_s(&spans, name), "s", n);
    }
    let stats: Vec<MachineStats> = specs.list.iter().filter_map(|s| s.stats.clone()).collect();
    crate::batch::sim_layer(&spans, 1.0, &stats, rep);
    crate::batch::counts(&stats, rep);
    let threads = pool::threads();
    let overhead = traced_s - untraced_s;
    rep.set("trace.overhead_s", overhead, "s", spans.len());
    let grouping = [DIRECT_PHASE, DIRECT_JOB];
    let by_layer = trace::self_by_layer(&spans, &grouping);
    let idle = trace::pool_idle_s(&spans, &grouping[..1], threads);
    let capacity = threads as f64 * (untraced_s + overhead);
    let share = crate::batch::self_time_table(&by_layer, idle, capacity, 1.0, rep);
    rep.set("trace.accounted_share", share, "share", spans.len());
    rep.note(format!(
        "direct runs on {threads} pool threads: traced {traced_s:.3} s vs untraced \
         {untraced_s:.3} s, tracing overhead {overhead:.3} s"
    ));
}
