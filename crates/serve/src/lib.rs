//! `hidisc-serve` — simulation as a service.
//!
//! An HTTP/1.1 service (std + the vendored `epoll-shim`) that turns the
//! one-shot simulator into a long-lived endpoint (see DESIGN.md §14/§17).
//! The front end is a single-threaded, readiness-based **reactor**: every
//! connection is a non-blocking socket parked in epoll, with keep-alive
//! and pipelined requests handled per connection, so one box holds 10k+
//! concurrent connections while the bounded worker pool simulates.
//!
//! The API surface is versioned under `/v1/` (probes stay unversioned):
//!
//! - `POST /v1/run` submits a config+workload job. Identical experiments
//!   are **content-addressed**: the job id is the hex of a canonical
//!   hash over (machine config, workload, scale, seed, model), so
//!   duplicate submissions coalesce onto the in-flight run and repeated
//!   ones return instantly from the result cache (`cached: true`).
//! - `GET /v1/jobs/<id>` polls status/result.
//! - `POST /v1/sweep` submits a parameter *grid*: the planner
//!   ([`plan`]) expands it server-side into deduplicated
//!   content-addressed jobs (cached points answer without simulation),
//!   submits them through the same bounded pool, and — by default —
//!   streams one NDJSON line per point as results land (chunked
//!   transfer encoding).
//!   The sweep id hashes the *sorted* point set, so equivalent grids
//!   coalesce. A `render` option assembles fig8/fig9/fig10/table1 CSV
//!   from the completed points.
//! - `GET /v1/sweeps/<id>` polls sweep progress;
//!   `GET /v1/sweeps/<id>/render` returns the rendered CSV once done.
//! - `GET /healthz` is a liveness probe.
//! - `GET /metrics` exposes per-service counters plus the latest run's
//!   interval metrics in Prometheus text format.
//! - `POST /v1/shutdown` initiates graceful shutdown: in-flight jobs
//!   finish, queued jobs are failed, the listener closes.
//!
//! Every error body is one structured envelope
//! `{"code","message","retry_after_ms"?,"request_id"}`; `code` carries
//! the typed [`ConfigError`]/verifier diagnostic code where one exists.
//!
//! Layout: this file holds the job specification ([`JobSpec`], the one
//! description of a simulation point, and [`ResolvedJob`]), the service
//! configuration, routing and `/metrics`; [`plan`] is the pure grid
//! planner and figure renderer; the `jobs` module holds the
//! job registry and the one path every job takes, whichever route
//! created it — one result lookup, one admission (lookup → coalesce →
//! bounded submit), one Running → Done/Failed completion; `sweeps`
//! drives grid points through that path; [`cache::Store`] is the
//! result cache, an LRU in front of an optional disk tier.
//!
//! Backpressure: the job queue is bounded; a full queue answers `429`
//! with a `Retry-After` hint instead of buffering without bound, and
//! connections past the cap answer `503`. Sweep points ride the same
//! bounded pool — unsubmitted points simply wait for a free slot.
//!
//! Shard mode (`repro serve --shard-of k/N --peers <addrs>`): sweep
//! points are routed by `content_address % N`; points owned by a peer
//! are forwarded to it (`POST /v1/run` + poll) from a worker thread,
//! with per-shard health tracking and local fallback evaluation when
//! the owner is down (degraded mode, never a failed sweep).
//!
//! Observability (DESIGN.md §18): every response carries an
//! `X-Request-Id` (minted per request, or echoing an acceptable inbound
//! one), the same id is stamped on the job a `POST /v1/run` creates and
//! on every log line the request produces; `/metrics` adds per-route ×
//! status-class counters and real Prometheus histograms (request
//! duration, job phases, TTFB, connection lifetime); structured logfmt /
//! JSON-lines logging is configured via [`ServeConfigBuilder::log_level`]
//! and friends (`repro serve --log-level/--log-format/--log-file/
//! --slow-request-ms`).

#![forbid(unsafe_code)]

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hidisc::telemetry::log::{Level, LogFormat, Logger};
use hidisc::telemetry::{metrics_prometheus, IntervalMetrics, TraceConfig};
use hidisc::{fnv1a, ConfigError, MachineConfig, Model};
use hidisc_bench::pool::Workers;
use hidisc_workloads::Scale;

pub mod cache;
pub mod client;
pub mod http;
mod jobs;
pub mod json;
mod net;
pub(crate) mod obs;
pub mod plan;
mod reactor;
pub mod scale;
pub(crate) mod sweeps;

use cache::Store;
use jobs::Registry;
use json::{escape, Fields};
use net::Reply;
use obs::HttpMetrics;

/// Crate version baked into `/healthz` and `hidisc_build_info`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git revision the binary was built from (`unknown` outside a
/// checkout), baked in by `build.rs`.
pub const GIT_SHA: &str = env!("HIDISC_GIT_SHA");

// ---------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------

/// One simulation point: a validated `POST /v1/run` body, and what the
/// sweep planner expands a grid into. Its config and job key are
/// assembled here and nowhere else, so a sweep point, an equivalent
/// `/v1/run` request and the `repro` CLI build and hash identically.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload name (any name `hidisc_workloads::by_name` accepts).
    pub workload: String,
    /// Workload scale (`test`, `paper`, `large`).
    pub scale: Scale,
    /// Workload generator seed.
    pub seed: u64,
    /// Machine model to run.
    pub model: Model,
    /// L2 latency override (Figure-10 style), paper value when absent.
    pub l2_lat: Option<u32>,
    /// Memory latency override, paper value when absent.
    pub mem_lat: Option<u32>,
    /// SCQ depth override.
    pub scq_depth: Option<usize>,
    /// Per-request cycle budget (maps onto
    /// [`RunError::CycleBudget`](hidisc::RunError::CycleBudget)).
    pub max_cycles: Option<u64>,
    /// Per-request wall-clock timeout in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Interval-metrics sampling period (0 = off).
    pub metrics_interval: u64,
    /// Custom DISA assembly source. When present the job assembles,
    /// slices and runs this program instead of a named workload (then
    /// `workload` merely labels the job, defaulting to `custom`). The
    /// sliced triple must pass static verification (`hidisc-verify`)
    /// before the job is admitted; a rejected program answers `400` with
    /// the verifier's diagnostic.
    pub program: Option<String>,
}

/// Upper bound on custom program source (bytes) accepted by `POST /run`.
pub const MAX_PROGRAM_BYTES: usize = 64 * 1024;

fn parse_model(s: &str) -> Result<Model, String> {
    Model::ALL
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<String> = Model::ALL.iter().map(|m| m.name().to_lowercase()).collect();
            format!("unknown model `{s}` (use {})", names.join("|"))
        })
}

/// The interned suite name of `workload`, or the diagnostic listing the
/// names there are.
fn workload_name(workload: &str) -> Result<&'static str, String> {
    let names = hidisc_workloads::names();
    names
        .iter()
        .find(|n| **n == workload)
        .copied()
        .ok_or_else(|| format!("unknown workload `{workload}` (use {})", names.join("|")))
}

/// The `/v1/run` defaults with no workload named: test scale, seed 2003,
/// the HiDISC model and the paper machine.
impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            workload: String::new(),
            scale: Scale::Test,
            seed: 2003,
            model: Model::HiDisc,
            l2_lat: None,
            mem_lat: None,
            scq_depth: None,
            max_cycles: None,
            timeout_ms: None,
            metrics_interval: 0,
            program: None,
        }
    }
}

impl JobSpec {
    /// Parses and validates a request body. Unknown fields, unknown
    /// workload names and type mismatches are rejected with a message
    /// (served as `400`, matching the CLI's exit-code-2 diagnostics).
    pub fn from_json(body: &[u8]) -> Result<JobSpec, String> {
        let f = Fields::parse(
            body,
            &[
                "workload",
                "scale",
                "seed",
                "model",
                "l2_lat",
                "mem_lat",
                "scq_depth",
                "max_cycles",
                "timeout_ms",
                "metrics_interval",
                "program",
            ],
        )?;
        let lat = |name: &str| -> Result<Option<u32>, String> {
            f.u64(name)?
                .map(|v| {
                    u32::try_from(v)
                        .map_err(|_| format!("field `{name}` must be at most {}", u32::MAX))
                })
                .transpose()
        };

        let program = f.str("program")?.map(str::to_string);
        if let Some(p) = &program {
            if p.len() > MAX_PROGRAM_BYTES {
                return Err(format!(
                    "field `program` is {} bytes; the cap is {MAX_PROGRAM_BYTES}",
                    p.len()
                ));
            }
        }
        let workload = match (f.str("workload")?, &program) {
            (Some(w), _) => w.to_string(),
            (None, Some(_)) => "custom".to_string(),
            (None, None) => return Err("missing field `workload`".to_string()),
        };
        if program.is_none() {
            workload_name(&workload)?;
        }
        let d = JobSpec::default();
        let scale = f.str("scale")?.map_or(Ok(d.scale), Scale::parse)?;
        let model = f.str("model")?.map_or(Ok(d.model), parse_model)?;
        Ok(JobSpec {
            workload,
            scale,
            seed: f.u64("seed")?.unwrap_or(d.seed),
            model,
            l2_lat: lat("l2_lat")?,
            mem_lat: lat("mem_lat")?,
            scq_depth: f.u64("scq_depth")?.map(|v| v as usize),
            max_cycles: f.u64("max_cycles")?,
            timeout_ms: f.u64("timeout_ms")?,
            metrics_interval: f.u64("metrics_interval")?.unwrap_or(d.metrics_interval),
            program,
        })
    }

    /// Assembles the machine configuration through the validating
    /// builder, with paper values where an override is absent, so that
    /// "no overrides" hashes identically on every route.
    pub fn config(&self) -> Result<MachineConfig, ConfigError> {
        let paper = MachineConfig::paper();
        let mut b = MachineConfig::builder().latency(
            self.l2_lat.unwrap_or(paper.mem.l2.latency),
            self.mem_lat.unwrap_or(paper.mem.mem_latency),
        );
        if let Some(depth) = self.scq_depth {
            let mut q = paper.queues;
            q.scq = depth;
            b = b.queues(q);
        }
        if let Some(n) = self.max_cycles {
            b = b.max_cycles(n);
        }
        if self.metrics_interval > 0 {
            b = b.trace(TraceConfig::OFF.with_metrics_interval(self.metrics_interval));
        }
        b.build()
    }

    /// The job's content-address: the config's canonical hash extended
    /// with the workload identity (name, scale, seed) and the model.
    /// Telemetry settings and the wall-clock timeout are deliberately
    /// excluded — they do not change simulated results (the cycle
    /// budget, part of the config, is included).
    pub fn key(&self, cfg: &MachineConfig) -> u64 {
        let mut h = fnv1a(cfg.canonical_hash(), self.workload.as_bytes());
        h = fnv1a(h, &[0, self.scale as u8]);
        h = fnv1a(h, &self.seed.to_le_bytes());
        h = fnv1a(h, &[self.model as u8]);
        if let Some(p) = &self.program {
            // Domain-separate custom programs from named workloads that
            // happen to share a label.
            h = fnv1a(h, &[1]);
            h = fnv1a(h, p.as_bytes());
        }
        h
    }

    /// Builds the configuration and the content address once, for
    /// admission.
    pub fn resolve(self) -> Result<ResolvedJob, ConfigError> {
        let cfg = self.config()?;
        let key = self.key(&cfg);
        Ok(ResolvedJob {
            id: format!("{key:016x}"),
            spec: self,
            cfg,
            key,
        })
    }

    /// Serialises the spec back into a `POST /v1/run` body (the inverse
    /// of [`JobSpec::from_json`]) — used to forward a job to the peer
    /// shard that owns its content address.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\":\"{}\",\"scale\":\"{}\",\"seed\":{},\"model\":\"{}\"",
            escape(&self.workload),
            self.scale.name(),
            self.seed,
            self.model.name().to_lowercase(),
        );
        if let Some(v) = self.l2_lat {
            s.push_str(&format!(",\"l2_lat\":{v}"));
        }
        if let Some(v) = self.mem_lat {
            s.push_str(&format!(",\"mem_lat\":{v}"));
        }
        if let Some(v) = self.scq_depth {
            s.push_str(&format!(",\"scq_depth\":{v}"));
        }
        if let Some(v) = self.max_cycles {
            s.push_str(&format!(",\"max_cycles\":{v}"));
        }
        if let Some(v) = self.timeout_ms {
            s.push_str(&format!(",\"timeout_ms\":{v}"));
        }
        if self.metrics_interval > 0 {
            s.push_str(&format!(",\"metrics_interval\":{}", self.metrics_interval));
        }
        if let Some(p) = &self.program {
            s.push_str(&format!(",\"program\":\"{}\"", escape(p)));
        }
        s.push('}');
        s
    }
}

/// A [`JobSpec`] with its validated configuration and content address:
/// what the planner returns, what admission takes and what a worker
/// runs. Only [`JobSpec::resolve`] builds one.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// The point.
    pub spec: JobSpec,
    /// [`JobSpec::config`].
    pub cfg: MachineConfig,
    /// [`JobSpec::key`] under `cfg`.
    pub key: u64,
    /// The hex of `key`, formatted once: sweeps look their points up by
    /// id on every reactor tick.
    id: String,
}

impl ResolvedJob {
    /// The job id, the hex of the key; `/v1/run` and sweep points share
    /// it.
    pub fn id(&self) -> &str {
        &self.id
    }
}

// ---------------------------------------------------------------------
// Service state
// ---------------------------------------------------------------------

/// Service construction parameters (`repro serve` flags).
///
/// Obtained exclusively through the validating [`ServeConfig::builder`]
/// — the same shape as `MachineConfig::builder` — so an invalid service
/// configuration is a typed [`ServeConfigError`] at construction, not a
/// panic or a silently-absurd server deep in the accept path.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    addr: String,
    workers: usize,
    queue_depth: usize,
    cache_bytes: usize,
    max_jobs: usize,
    cache_dir: Option<PathBuf>,
    max_connections: usize,
    idle_timeout_ms: u64,
    log_level: Option<Level>,
    log_format: LogFormat,
    log_file: Option<PathBuf>,
    slow_request_ms: u64,
    shard: Option<ShardSpec>,
}

/// Shard-mode parameters: this service owns slice `index` of the
/// `count`-way content-address space; `peers` lists every shard's
/// address in shard order (the own entry is never dialed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0..count`.
    pub index: u32,
    /// Total shard count.
    pub count: u32,
    /// `host:port` of each shard, indexed by shard number.
    pub peers: Vec<String>,
}

impl ShardSpec {
    /// Which shard owns a content address.
    pub fn owner_of(&self, key: u64) -> u32 {
        (key % self.count as u64) as u32
    }
}

impl ServeConfig {
    /// Starts a builder with the defaults: an ephemeral loopback port,
    /// one worker per host core, queue depth 32, a 16 MiB result cache,
    /// 10 240 connections, a 10 s idle timeout, logging off and a 1 s
    /// slow-request threshold.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            addr: "127.0.0.1:0".to_string(),
            workers: None,
            queue_depth: 32,
            cache_bytes: 16 * 1024 * 1024,
            max_jobs: 256,
            cache_dir: None,
            max_connections: 10_240,
            idle_timeout_ms: 10_000,
            log_level: None,
            log_format: LogFormat::Text,
            log_file: None,
            slow_request_ms: 1_000,
            shard_of: None,
            peers: Vec::new(),
        }
    }

    /// Bind address, e.g. `127.0.0.1:8080` (`:0` picks a free port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Worker threads (resolved — never 0).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Bounded job-queue depth; a full queue answers `429`.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// In-memory result-cache budget in **bytes** (evicted oldest-first
    /// past it).
    pub fn cache_bytes(&self) -> usize {
        self.cache_bytes
    }

    /// Bound on terminal job-registry entries (evicted oldest-first).
    pub fn max_jobs(&self) -> usize {
        self.max_jobs
    }

    /// Disk tier of the result cache; `None` keeps the cache memory-only.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// Maximum concurrent connections held by the reactor; past the cap
    /// new connections are answered `503` + `Retry-After`.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// How long a connection may sit idle (keep-alive or mid-request)
    /// before the reactor closes it.
    pub fn idle_timeout(&self) -> Duration {
        Duration::from_millis(self.idle_timeout_ms)
    }

    /// Minimum structured-log level; `None` disables logging entirely.
    pub fn log_level(&self) -> Option<Level> {
        self.log_level
    }

    /// Log line format (logfmt text or JSON lines).
    pub fn log_format(&self) -> LogFormat {
        self.log_format
    }

    /// Log destination; `None` writes to stderr.
    pub fn log_file(&self) -> Option<&Path> {
        self.log_file.as_deref()
    }

    /// Requests slower than this are promoted to WARN in the access log
    /// with their job-phase breakdown; `0` disables the promotion.
    pub fn slow_request_ms(&self) -> u64 {
        self.slow_request_ms
    }

    /// Shard-mode parameters; `None` runs stand-alone (every sweep point
    /// evaluates locally).
    pub fn shard(&self) -> Option<&ShardSpec> {
        self.shard.as_ref()
    }
}

/// Why a [`ServeConfigBuilder::build`] was rejected. The `Display` form
/// is the message `repro serve` prints before exiting with code 2;
/// [`ServeConfigError::code`] is the stable envelope/diagnostic code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeConfigError {
    /// The bind address is not `host:port`.
    Addr {
        /// The rejected address string.
        given: String,
    },
    /// A parameter that must be at least 1 is zero (workers, queue
    /// depth, cache bytes, connection cap, job-registry bound).
    Zero {
        /// Name of the offending field, e.g. `"queue_depth"`.
        what: &'static str,
    },
    /// A timeout is outside its accepted range.
    TimeoutRange {
        /// Name of the offending field, e.g. `"idle_timeout_ms"`.
        what: &'static str,
        /// The rejected value, in milliseconds.
        given_ms: u64,
        /// Smallest accepted value.
        min_ms: u64,
        /// Largest accepted value.
        max_ms: u64,
    },
    /// Inconsistent shard-mode parameters (`--shard-of`/`--peers`).
    Shard {
        /// What is wrong, e.g. `"peers lists 1 address for 2 shards"`.
        reason: String,
    },
}

impl ServeConfigError {
    /// Stable diagnostic code, in the same style as the verifier's
    /// `QB001`-family codes and [`ConfigError::code`].
    pub fn code(&self) -> &'static str {
        match self {
            ServeConfigError::Addr { .. } => "SRV001",
            ServeConfigError::Zero { .. } => "SRV002",
            ServeConfigError::TimeoutRange { .. } => "SRV003",
            ServeConfigError::Shard { .. } => "SRV004",
        }
    }
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::Addr { given } => {
                write!(f, "invalid serve config: addr `{given}` is not host:port")
            }
            ServeConfigError::Zero { what } => {
                write!(f, "invalid serve config: {what} must be at least 1")
            }
            ServeConfigError::TimeoutRange {
                what,
                given_ms,
                min_ms,
                max_ms,
            } => write!(
                f,
                "invalid serve config: {what} must be between {min_ms} and {max_ms} ms \
                 (got {given_ms})"
            ),
            ServeConfigError::Shard { reason } => {
                write!(f, "invalid serve config: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Validating builder for [`ServeConfig`], obtained from
/// [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    addr: String,
    /// `None` = one worker per host core, resolved at build time.
    workers: Option<usize>,
    queue_depth: usize,
    cache_bytes: usize,
    max_jobs: usize,
    cache_dir: Option<PathBuf>,
    max_connections: usize,
    idle_timeout_ms: u64,
    log_level: Option<Level>,
    log_format: LogFormat,
    log_file: Option<PathBuf>,
    slow_request_ms: u64,
    shard_of: Option<(u32, u32)>,
    peers: Vec<String>,
}

impl ServeConfigBuilder {
    /// Bind address, `host:port` (`:0` picks a free port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Worker-thread count; rejected at build if 0 (leave unset for one
    /// per host core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Bounded job-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// In-memory result-cache budget in bytes.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Bound on terminal job-registry entries.
    pub fn max_jobs(mut self, jobs: usize) -> Self {
        self.max_jobs = jobs;
        self
    }

    /// Disk tier of the result cache.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Concurrent-connection cap.
    pub fn max_connections(mut self, conns: usize) -> Self {
        self.max_connections = conns;
        self
    }

    /// Idle-connection timeout in milliseconds (accepted range
    /// 10..=600 000).
    pub fn idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms;
        self
    }

    /// Minimum structured-log level (`None` = logging off, the default).
    pub fn log_level(mut self, level: Option<Level>) -> Self {
        self.log_level = level;
        self
    }

    /// Log line format.
    pub fn log_format(mut self, format: LogFormat) -> Self {
        self.log_format = format;
        self
    }

    /// Log destination file (stderr when unset). Created/truncated at
    /// service start.
    pub fn log_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.log_file = Some(path.into());
        self
    }

    /// Slow-request WARN threshold in milliseconds (0 disables).
    pub fn slow_request_ms(mut self, ms: u64) -> Self {
        self.slow_request_ms = ms;
        self
    }

    /// Shard mode: this service is shard `index` of `count`
    /// (`repro serve --shard-of k/N`); requires [`Self::peers`].
    pub fn shard_of(mut self, index: u32, count: u32) -> Self {
        self.shard_of = Some((index, count));
        self
    }

    /// Every shard's `host:port`, indexed by shard number; the own entry
    /// is required for positional consistency but never dialed.
    pub fn peers(mut self, peers: Vec<String>) -> Self {
        self.peers = peers;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        let bad_addr = || ServeConfigError::Addr {
            given: self.addr.clone(),
        };
        let (host, port) = self.addr.rsplit_once(':').ok_or_else(bad_addr)?;
        if host.is_empty() || port.parse::<u16>().is_err() {
            return Err(bad_addr());
        }
        let workers = match self.workers {
            Some(0) => return Err(ServeConfigError::Zero { what: "workers" }),
            Some(n) => n,
            None => hidisc_bench::pool::threads(),
        };
        for (what, v) in [
            ("queue_depth", self.queue_depth),
            ("cache_bytes", self.cache_bytes),
            ("max_jobs", self.max_jobs),
            ("max_connections", self.max_connections),
        ] {
            if v == 0 {
                return Err(ServeConfigError::Zero { what });
            }
        }
        const IDLE_MIN_MS: u64 = 10;
        const IDLE_MAX_MS: u64 = 600_000;
        if !(IDLE_MIN_MS..=IDLE_MAX_MS).contains(&self.idle_timeout_ms) {
            return Err(ServeConfigError::TimeoutRange {
                what: "idle_timeout_ms",
                given_ms: self.idle_timeout_ms,
                min_ms: IDLE_MIN_MS,
                max_ms: IDLE_MAX_MS,
            });
        }
        let shard = match self.shard_of {
            None => {
                if !self.peers.is_empty() {
                    return Err(ServeConfigError::Shard {
                        reason: "peers given without --shard-of k/N".to_string(),
                    });
                }
                None
            }
            Some((index, count)) => {
                if count == 0 || index >= count {
                    return Err(ServeConfigError::Shard {
                        reason: format!("shard index {index} is not in 0..{count}"),
                    });
                }
                if self.peers.len() != count as usize {
                    return Err(ServeConfigError::Shard {
                        reason: format!(
                            "peers lists {} address(es) for {count} shard(s)",
                            self.peers.len()
                        ),
                    });
                }
                for p in &self.peers {
                    let ok = p
                        .rsplit_once(':')
                        .is_some_and(|(h, port)| !h.is_empty() && port.parse::<u16>().is_ok());
                    if !ok {
                        return Err(ServeConfigError::Shard {
                            reason: format!("peer `{p}` is not host:port"),
                        });
                    }
                }
                Some(ShardSpec {
                    index,
                    count,
                    peers: self.peers,
                })
            }
        };
        Ok(ServeConfig {
            addr: self.addr,
            workers,
            queue_depth: self.queue_depth,
            cache_bytes: self.cache_bytes,
            max_jobs: self.max_jobs,
            cache_dir: self.cache_dir,
            max_connections: self.max_connections,
            idle_timeout_ms: self.idle_timeout_ms,
            log_level: self.log_level,
            log_format: self.log_format,
            log_file: self.log_file,
            slow_request_ms: self.slow_request_ms,
            shard,
        })
    }
}

#[derive(Default)]
pub(crate) struct Counters {
    requests: AtomicU64,
    submitted: AtomicU64,
    coalesced: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    sim_runs: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    rejected: AtomicU64,
    pub(crate) conn_rejected: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    dropped_events: AtomicU64,
    /// Reactor `epoll_wait` returns (readiness batches handled).
    pub(crate) reactor_wakeups: AtomicU64,
    /// Reads/writes/accepts that hit `EAGAIN` and parked the fd.
    pub(crate) reactor_eagain: AtomicU64,
    /// Sweep points answered straight from the result cache or an
    /// already-terminal job (no new simulation caused by the sweep).
    pub(crate) sweep_points_cached: AtomicU64,
    /// Sweep points simulated locally for this sweep.
    pub(crate) sweep_points_simulated: AtomicU64,
    /// Sweep points evaluated by the owning peer shard.
    pub(crate) sweep_points_forwarded: AtomicU64,
    /// Sweep points that reached a failed terminal state.
    pub(crate) sweep_points_failed: AtomicU64,
    /// Forward attempts that fell back to local evaluation because the
    /// owning shard was unreachable (degraded mode).
    pub(crate) shard_fallbacks: AtomicU64,
}

pub(crate) struct State {
    registry: Mutex<Registry>,
    workers: Mutex<Option<Workers>>,
    pub(crate) counters: Counters,
    metrics: Mutex<Option<IntervalMetrics>>,
    pub(crate) stop: AtomicBool,
    /// Connections currently registered with the reactor (gauge mirror).
    pub(crate) connections: AtomicUsize,
    pub(crate) max_connections: usize,
    pub(crate) idle_timeout: Duration,
    /// RED metrics: per-route counters and latency histograms.
    pub(crate) http: HttpMetrics,
    /// Structured event log (off by default).
    pub(crate) logger: Logger,
    /// Requests at or above this duration log at WARN; zero disables.
    pub(crate) slow_request: Duration,
    /// When the service started; `/healthz` uptime and the uptime gauge.
    pub(crate) started: Instant,
    /// The bounded sweep registry (`POST /v1/sweep` orchestration).
    pub(crate) sweeps: Mutex<sweeps::Sweeps>,
    /// Shard-mode routing state; `None` when stand-alone.
    pub(crate) shards: Option<sweeps::ShardSet>,
}

/// A running service instance.
pub struct Service {
    state: Arc<State>,
    reactor: Option<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Service {
    /// Binds, spawns the worker pool and the reactor, and returns.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Service> {
        let listener = TcpListener::bind(cfg.addr())?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = epoll_shim::Poller::new()?;
        let logger = match (cfg.log_level, &cfg.log_file) {
            (None, _) => Logger::off(),
            (Some(level), None) => Logger::to_stderr(level, cfg.log_format),
            (Some(level), Some(path)) => {
                let file = std::fs::File::create(path)?;
                Logger::to_sink(level, cfg.log_format, Box::new(file))
            }
        };
        let state = Arc::new(State {
            registry: Mutex::new(Registry::new(
                cfg.max_jobs(),
                Store::new(cfg.cache_bytes(), cfg.cache_dir.clone()),
            )),
            workers: Mutex::new(Some(Workers::new(cfg.workers(), cfg.queue_depth()))),
            counters: Counters::default(),
            metrics: Mutex::new(None),
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            max_connections: cfg.max_connections(),
            idle_timeout: cfg.idle_timeout(),
            http: HttpMetrics::new(),
            logger,
            slow_request: Duration::from_millis(cfg.slow_request_ms),
            started: Instant::now(),
            sweeps: Mutex::new(sweeps::Sweeps::new(sweeps::MAX_SWEEPS)),
            shards: cfg.shard.clone().map(sweeps::ShardSet::new),
        });
        state.logger.log(
            Level::Info,
            "serve_start",
            &[
                ("addr", addr.to_string().into()),
                ("version", VERSION.into()),
                ("git_sha", GIT_SHA.into()),
                ("workers", cfg.workers().into()),
                ("queue_depth", cfg.queue_depth().into()),
                ("max_connections", cfg.max_connections().into()),
            ],
        );
        let st = Arc::clone(&state);
        let reactor = std::thread::spawn(move || reactor::run(poller, listener, st));
        Ok(Service {
            state,
            reactor: Some(reactor),
            addr,
        })
    }

    /// The bound address (resolves `:0` port picks).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `POST /shutdown` arrives, then tears down
    /// gracefully: the listener closes, in-flight jobs finish, still
    /// queued jobs are failed.
    pub fn wait(mut self) {
        while !self.state.stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.teardown();
    }

    /// Programmatic graceful shutdown (same sequence as `wait` after a
    /// `POST /shutdown`).
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        self.teardown();
    }

    fn teardown(&mut self) {
        self.state.logger.log(
            Level::Info,
            "serve_stop",
            &[(
                "uptime_ms",
                (self.state.started.elapsed().as_millis() as u64).into(),
            )],
        );
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        let workers = self.state.workers.lock().expect("workers lock").take();
        if let Some(w) = workers {
            // In-flight jobs finish; queued jobs are discarded here and
            // failed below.
            w.shutdown(false);
        }
        jobs::fail_queued(&self.state, "service shut down before the job ran");
        // Unfinished sweeps can no longer make progress: fail their
        // outstanding points so pollers and attached streams terminate.
        sweeps::fail_unfinished(&self.state, "service shut down before the sweep finished");
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        self.teardown();
    }
}

// ---------------------------------------------------------------------
// Routing and the error envelope
// ---------------------------------------------------------------------

/// Renders the one structured error body every non-2xx answer uses:
/// `{"code","message","retry_after_ms"?,"request_id"}`. `code` is a
/// stable, machine-matchable string — the typed [`ConfigError::code`] /
/// verifier diagnostic code where one exists, a snake_case service code
/// otherwise; `request_id` repeats the response's `X-Request-Id` so an
/// error body pasted into a report still correlates with the logs.
pub(crate) fn envelope(
    code: &str,
    message: &str,
    retry_after_ms: Option<u64>,
    request_id: &str,
) -> String {
    let mut body = format!(
        "{{\"code\":\"{}\",\"message\":\"{}\"",
        escape(code),
        escape(message)
    );
    if let Some(ms) = retry_after_ms {
        body.push_str(&format!(",\"retry_after_ms\":{ms}"));
    }
    body.push_str(&format!(",\"request_id\":\"{}\"}}\n", escape(request_id)));
    body
}

fn json_reply(status: u16, body: String) -> Reply {
    Reply {
        status,
        content_type: "application/json",
        extra: Vec::new(),
        body,
        close: false,
        disposition: "",
        stream: None,
    }
}

fn error_reply(status: u16, code: &str, message: &str, rid: &str) -> Reply {
    json_reply(status, envelope(code, message, None, rid))
}

/// An error reply that also closes the connection (parse errors — the
/// stream position is unrecoverable).
pub(crate) fn error_reply_closing(status: u16, code: &str, message: &str, rid: &str) -> Reply {
    let mut r = error_reply(status, code, message, rid);
    r.close = true;
    r
}

/// A backpressure reply: `Retry-After` header plus `retry_after_ms` in
/// the envelope.
fn retry_reply(status: u16, code: &str, message: &str, retry_after_ms: u64, rid: &str) -> Reply {
    let mut r = json_reply(status, envelope(code, message, Some(retry_after_ms), rid));
    r.extra.push((
        "Retry-After",
        retry_after_ms.div_ceil(1000).max(1).to_string(),
    ));
    r
}

/// The `503` a connection past `max_connections` gets for any request it
/// sends before the reactor closes it.
pub(crate) fn overcap_reply(rid: &str) -> Reply {
    let mut r = retry_reply(
        503,
        "too_many_connections",
        "too many connections; retry later",
        1_000,
        rid,
    );
    r.close = true;
    r
}

pub(crate) fn route(req: &http::Request, rid: &str, state: &Arc<State>) -> Reply {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => json_reply(
            200,
            format!(
                "{{\"status\":\"ok\",\"version\":\"{}\",\"gitSha\":\"{}\",\"uptimeMs\":{}}}\n",
                escape(VERSION),
                escape(GIT_SHA),
                state.started.elapsed().as_millis() as u64
            ),
        ),
        ("GET", "/metrics") => Reply {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            extra: Vec::new(),
            body: render_metrics(state),
            close: false,
            disposition: "",
            stream: None,
        },
        ("POST", "/v1/run") => jobs::post_run(state, &req.body, rid),
        ("POST", "/v1/shutdown") => {
            state.stop.store(true, Ordering::Relaxed);
            json_reply(200, "{\"status\":\"shutting down\"}\n".to_string())
        }
        ("POST", "/v1/sweep") => sweeps::post_sweep(state, &req.body, rid),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            jobs::get_job(state, &path["/v1/jobs/".len()..], rid)
        }
        ("GET", path) if path.starts_with("/v1/sweeps/") => {
            sweeps::get_sweep(state, &path["/v1/sweeps/".len()..], rid)
        }
        (_, "/healthz" | "/metrics" | "/v1/run" | "/v1/shutdown" | "/v1/sweep") => error_reply(
            405,
            "method_not_allowed",
            &format!("method {} not allowed here", req.method),
            rid,
        ),
        (_, path) if path.starts_with("/v1/jobs/") || path.starts_with("/v1/sweeps/") => {
            error_reply(
                405,
                "method_not_allowed",
                &format!("method {} not allowed here", req.method),
                rid,
            )
        }
        _ => error_reply(
            404,
            "not_found",
            &format!("no such endpoint {}", req.path),
            rid,
        ),
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

fn render_metrics(state: &Arc<State>) -> String {
    let c = &state.counters;
    let mut s = String::new();
    let counters: [(&str, &str, u64); 15] = [
        (
            "hidisc_serve_requests_total",
            "HTTP requests routed.",
            c.requests.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_jobs_submitted_total",
            "Jobs accepted onto the worker queue.",
            c.submitted.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_coalesced_total",
            "Submissions coalesced onto an identical in-flight job.",
            c.coalesced.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_cache_hits_total",
            "Submissions answered from the result cache.",
            c.cache_hits.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_cache_misses_total",
            "Submissions that required a simulation run.",
            c.cache_misses.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_sim_runs_total",
            "Simulation runs started by workers.",
            c.sim_runs.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_jobs_done_total",
            "Jobs that completed successfully.",
            c.jobs_done.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_jobs_failed_total",
            "Jobs that failed or were shed at shutdown.",
            c.jobs_failed.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_rejected_total",
            "Submissions refused with 429 (queue full).",
            c.rejected.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_connections_rejected_total",
            "Connections refused past the connection cap.",
            c.conn_rejected.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_bad_requests_total",
            "Requests rejected as malformed (parse or validation).",
            c.bad_requests.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_reactor_wakeups_total",
            "Reactor epoll_wait returns (readiness batches).",
            c.reactor_wakeups.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_reactor_eagain_total",
            "Reads/writes/accepts that hit EAGAIN and parked the fd.",
            c.reactor_eagain.load(Ordering::Relaxed),
        ),
        (
            "hidisc_serve_shard_fallbacks_total",
            "Forwards that fell back to local evaluation (peer down).",
            c.shard_fallbacks.load(Ordering::Relaxed),
        ),
        (
            "hidisc_telemetry_dropped_events_total",
            "Telemetry events dropped by bounded trace buffers.",
            c.dropped_events.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, v) in counters {
        s.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    }
    // Sweep-point outcomes share one metric name under an `outcome`
    // label, so dashboards can stack them.
    s.push_str(
        "# HELP hidisc_serve_sweep_points_total Sweep points reaching a terminal state, \
         by outcome.\n# TYPE hidisc_serve_sweep_points_total counter\n",
    );
    for (outcome, v) in [
        ("cached", c.sweep_points_cached.load(Ordering::Relaxed)),
        (
            "simulated",
            c.sweep_points_simulated.load(Ordering::Relaxed),
        ),
        (
            "forwarded",
            c.sweep_points_forwarded.load(Ordering::Relaxed),
        ),
        ("failed", c.sweep_points_failed.load(Ordering::Relaxed)),
    ] {
        s.push_str(&format!(
            "hidisc_serve_sweep_points_total{{outcome=\"{outcome}\"}} {v}\n"
        ));
    }
    let (queued, running) = {
        let w = state.workers.lock().expect("workers lock");
        w.as_ref()
            .map(|w| (w.queued(), w.running()))
            .unwrap_or((0, 0))
    };
    let (cache_entries, cache_bytes, job_entries) = {
        let reg = state.registry.lock().expect("registry lock");
        (reg.results.len(), reg.results.bytes(), reg.jobs.len())
    };
    let sweeps_active = state.sweeps.lock().expect("sweeps lock").active();
    // `open_connections` is the one canonical connection gauge; the old
    // `connections_active` twin (same value, second name) was dropped in
    // the observability pass — DESIGN.md §18 records the rename.
    let open = state.connections.load(Ordering::Relaxed);
    let uptime = state.started.elapsed().as_secs() as usize;
    for (name, help, v) in [
        (
            "hidisc_serve_queue_depth",
            "Jobs waiting on the worker queue.",
            queued,
        ),
        (
            "hidisc_serve_jobs_running",
            "Jobs currently simulating.",
            running,
        ),
        (
            "hidisc_serve_cache_entries",
            "Result-cache entries resident in memory.",
            cache_entries,
        ),
        (
            "hidisc_serve_cache_bytes",
            "Result-cache bytes resident in memory.",
            cache_bytes,
        ),
        (
            "hidisc_serve_job_entries",
            "Job-registry entries (live and terminal).",
            job_entries,
        ),
        (
            "hidisc_serve_open_connections",
            "Connections currently registered with the reactor.",
            open,
        ),
        (
            "hidisc_serve_sweeps_active",
            "Sweeps currently running (registered and not finished).",
            sweeps_active,
        ),
        (
            "hidisc_serve_uptime_seconds",
            "Seconds since the service started.",
            uptime,
        ),
    ] {
        s.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
        ));
    }
    if let Some(sh) = &state.shards {
        s.push_str(
            "# HELP hidisc_serve_shard_healthy Shard health as seen from this node \
             (1 = forwarding, 0 = degraded to local fallback).\n\
             # TYPE hidisc_serve_shard_healthy gauge\n",
        );
        for (i, ok) in sh.health().into_iter().enumerate() {
            s.push_str(&format!(
                "hidisc_serve_shard_healthy{{shard=\"{i}\"}} {}\n",
                ok as u8
            ));
        }
    }
    s.push_str(&format!(
        "# HELP hidisc_build_info Build identity of this binary; the value is always 1.\n\
         # TYPE hidisc_build_info gauge\n\
         hidisc_build_info{{version=\"{}\",git_sha=\"{}\"}} 1\n",
        escape(VERSION),
        escape(GIT_SHA)
    ));
    state.http.render(&mut s);
    if let Some(m) = state.metrics.lock().expect("metrics lock").as_ref() {
        s.push_str(&metrics_prometheus(m));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::preflight;

    #[test]
    fn job_spec_parses_and_validates() {
        let spec = JobSpec::from_json(
            br#"{"workload":"dm","scale":"test","seed":7,"model":"hidisc","max_cycles":1000}"#,
        )
        .unwrap();
        assert_eq!(spec.workload, "dm");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.model, Model::HiDisc);
        assert_eq!(spec.max_cycles, Some(1000));

        assert!(JobSpec::from_json(b"not json").is_err());
        assert!(JobSpec::from_json(br#"{"scale":"test"}"#)
            .unwrap_err()
            .contains("workload"));
        assert!(JobSpec::from_json(br#"{"workload":"nope"}"#)
            .unwrap_err()
            .contains("unknown workload"));
        assert!(JobSpec::from_json(br#"{"workload":"dm","bogus":1}"#)
            .unwrap_err()
            .contains("unknown field"));
        assert!(JobSpec::from_json(br#"{"workload":"dm","seed":-1}"#)
            .unwrap_err()
            .contains("non-negative"));
        // A latency past u32::MAX is rejected, not wrapped onto a small one.
        for field in ["l2_lat", "mem_lat"] {
            let body = format!(r#"{{"workload":"dm","{field}":4294967300}}"#);
            let err = JobSpec::from_json(body.as_bytes()).unwrap_err();
            assert_eq!(err, format!("field `{field}` must be at most 4294967295"));
        }
        let max = JobSpec::from_json(br#"{"workload":"dm","l2_lat":4294967295}"#).unwrap();
        assert_eq!(max.l2_lat, Some(u32::MAX));
    }

    #[test]
    fn config_errors_carry_the_typed_message() {
        let mut spec = JobSpec::from_json(br#"{"workload":"dm"}"#).unwrap();
        spec.scq_depth = Some(0);
        let err = spec.config().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid machine config: queues.scq must be at least 1"
        );
    }

    #[test]
    fn custom_program_spec_parses_and_preflights() {
        let spec = JobSpec::from_json(br#"{"program":"li r1, 64\nsd r1, 0(r1)\nhalt"}"#).unwrap();
        assert_eq!(spec.workload, "custom");
        let cfg = spec.config().unwrap();
        assert!(preflight(&spec, &cfg).is_ok());

        // A program operating on an architectural queue is rejected with
        // the verifier's located diagnostic, code and all.
        let bad = JobSpec::from_json(br#"{"program":"li r1, 1\nsend LDQ, r1\nhalt"}"#).unwrap();
        let (code, msg) = preflight(&bad, &bad.config().unwrap()).unwrap_err();
        assert_eq!(code, "QB004");
        assert!(msg.contains("QB004"), "{msg}");
        assert!(msg.contains("orig@1"), "{msg}");

        // Assembly errors surface as 400s too.
        let nosyntax = JobSpec::from_json(br#"{"program":"frobnicate r1"}"#).unwrap();
        assert!(preflight(&nosyntax, &nosyntax.config().unwrap()).is_err());

        // Named workloads skip the pre-flight.
        let named = JobSpec::from_json(br#"{"workload":"dm"}"#).unwrap();
        assert!(preflight(&named, &named.config().unwrap()).is_ok());

        // The source cap is enforced at parse time.
        let huge = format!(
            "{{\"program\":\"{}\"}}",
            "nop\\n".repeat(MAX_PROGRAM_BYTES / 4 + 1)
        );
        assert!(JobSpec::from_json(huge.as_bytes())
            .unwrap_err()
            .contains("cap"));
    }

    #[test]
    fn custom_program_changes_the_job_key() {
        let spec = JobSpec::from_json(br#"{"program":"li r1, 64\nsd r1, 0(r1)\nhalt"}"#).unwrap();
        let cfg = spec.config().unwrap();
        let base = spec.key(&cfg);
        let mut other = spec.clone();
        other.program = Some("li r1, 8\nsd r1, 0(r1)\nhalt".to_string());
        assert_ne!(base, other.key(&cfg));
        // ... and differs from a named workload sharing the label.
        let mut named = spec.clone();
        named.program = None;
        assert_ne!(base, named.key(&cfg));
    }

    #[test]
    fn job_key_separates_workload_identity() {
        let spec = JobSpec::from_json(br#"{"workload":"dm"}"#).unwrap();
        let cfg = spec.config().unwrap();
        let base = spec.key(&cfg);
        let mut other = spec.clone();
        other.workload = "tc".to_string();
        assert_ne!(base, other.key(&cfg));
        let mut other = spec.clone();
        other.seed = spec.seed + 1;
        assert_ne!(base, other.key(&cfg));
        let mut other = spec.clone();
        other.model = Model::Superscalar;
        assert_ne!(base, other.key(&cfg));
        let mut other = spec.clone();
        other.scale = Scale::Paper;
        assert_ne!(base, other.key(&cfg));
        // Telemetry/timeout do not change the key.
        let mut other = spec.clone();
        other.timeout_ms = Some(5_000);
        other.metrics_interval = 100;
        assert_eq!(base, other.key(&other.config().unwrap()));
    }
}
