//! The job registry and the one path every job takes (DESIGN.md §14).
//!
//! A job is one content-addressed simulation — a `POST /v1/run` or one
//! point of a `POST /v1/sweep` — whose id is the hex of its key. Both
//! routes drive it through the same steps here:
//!
//! - [`Registry::result`], the one lookup: the registry's `Done` entry,
//!   or failing that the result store;
//! - [`admit`], the one admission: lookup, then coalesce onto a queued
//!   or running entry, then submit to the bounded pool and record the
//!   `Queued` entry;
//! - [`start`] and [`finish`], the one completion, run on the worker.
//!
//! Callers keep their own counters and replies. Lock order: the caller
//! of [`admit`] holds the registry, which takes the workers lock inside
//! it (sweeps → registry → workers).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hidisc::telemetry::log::Level;
use hidisc::telemetry::IntervalMetrics;
use hidisc::{Machine, MachineConfig, Model, RunError};
use hidisc_bench::pool::SubmitError;
use hidisc_slicer::{compile, CompilerConfig};
use hidisc_workloads::Scale;

use crate::cache::Store;
use crate::json::escape;
use crate::net::Reply;
use crate::obs::JobPhase;
use crate::{error_reply, json_reply, retry_reply, JobSpec, ResolvedJob, State};

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

pub(crate) enum Phase {
    Queued,
    Running,
    Done { stats: Arc<String>, wall_ms: u64 },
    Failed { error: String },
}

pub(crate) struct JobEntry {
    workload: String,
    scale: Scale,
    seed: u64,
    model: Model,
    pub(crate) phase: Phase,
    /// Id of the request that created this entry, for log correlation:
    /// `GET /v1/jobs/<id>` reports it as `requestId`.
    request_id: String,
}

impl JobEntry {
    fn new(spec: &JobSpec, phase: Phase, request_id: &str) -> JobEntry {
        JobEntry {
            workload: spec.workload.clone(),
            scale: spec.scale,
            seed: spec.seed,
            model: spec.model,
            phase,
            request_id: request_id.to_string(),
        }
    }
}

pub(crate) struct Registry {
    pub(crate) jobs: HashMap<String, JobEntry>,
    /// Job ids in the order they reached a terminal phase. Terminal
    /// entries past `max_terminal` are evicted oldest-first, so the jobs
    /// map cannot grow without bound (results stay reachable through the
    /// result store); queued/running entries are never evicted.
    terminal: VecDeque<String>,
    max_terminal: usize,
    /// Completed results by content address: the LRU + disk [`Store`].
    pub(crate) results: Store,
}

impl Registry {
    pub(crate) fn new(max_terminal: usize, results: Store) -> Registry {
        Registry {
            jobs: HashMap::new(),
            terminal: VecDeque::new(),
            max_terminal,
            results,
        }
    }

    /// The one lookup: job `id`'s result with its wall time from the
    /// registry's `Done` entry, or failing that the result store's copy
    /// (no wall time) under content address `key`.
    pub(crate) fn result(&mut self, id: &str, key: u64) -> Option<(Arc<String>, Option<u64>)> {
        if let Some(Phase::Done { stats, wall_ms }) = self.jobs.get(id).map(|e| &e.phase) {
            return Some((Arc::clone(stats), Some(*wall_ms)));
        }
        self.results.get(key).map(|stats| (stats, None))
    }

    /// Records that `id` reached Done/Failed and trims old terminal
    /// entries down to the cap.
    fn mark_terminal(&mut self, id: String) {
        self.terminal.push_back(id);
        while self.terminal.len() > self.max_terminal {
            let old = self.terminal.pop_front().expect("len checked");
            // A resubmitted id is live again (Queued/Running): keep it.
            // It gets a fresh deque slot when it terminates once more.
            if matches!(
                self.jobs.get(&old).map(|e| &e.phase),
                Some(Phase::Done { .. } | Phase::Failed { .. })
            ) {
                self.jobs.remove(&old);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Admission and completion
// ---------------------------------------------------------------------

/// What [`admit`] did with a job.
pub(crate) enum Admission {
    /// The result exists already. The wall time is present when the
    /// registry's `Done` entry answered, absent when the store did.
    Done(Arc<String>, Option<u64>),
    /// Coalesced onto the identical queued or running job.
    InFlight,
    /// Queued on the pool, with a `Queued` registry entry.
    Submitted,
    /// The pool's queue is full; nothing was recorded.
    Full,
    /// The pool is shut down; nothing was recorded.
    Closed,
}

/// Everything a worker needs to run one admitted job.
pub(crate) struct Job {
    pub(crate) resolved: ResolvedJob,
    pub(crate) rid: String,
    pub(crate) queued_at: Instant,
}

/// The one admission: answers `job` from [`Registry::result`], coalesces
/// it onto an identical queued or running job, or submits `worker` —
/// [`execute_job`], or a forward to the peer shard that owns the point —
/// to the bounded pool and records the `Queued` entry. The caller holds
/// the registry lock; the job is cloned only when it is submitted.
pub(crate) fn admit(
    state: &Arc<State>,
    reg: &mut Registry,
    job: &ResolvedJob,
    rid: &str,
    worker: impl FnOnce(Arc<State>, Job) + Send + 'static,
) -> Admission {
    let id = job.id();
    if let Some((stats, wall_ms)) = reg.result(id, job.key) {
        return Admission::Done(stats, wall_ms);
    }
    if let Some(Phase::Queued | Phase::Running) = reg.jobs.get(id).map(|e| &e.phase) {
        return Admission::InFlight;
    }
    // Absent, or Failed: (re)submit.
    let st = Arc::clone(state);
    let submission = Job {
        resolved: job.clone(),
        rid: rid.to_string(),
        queued_at: Instant::now(),
    };
    let submitted = match state.workers.lock().expect("workers lock").as_ref() {
        None => Err(SubmitError::Closed),
        Some(w) => w.try_submit(move || worker(st, submission)),
    };
    match submitted {
        Ok(()) => {
            state.counters.submitted.fetch_add(1, Ordering::Relaxed);
            reg.jobs
                .insert(id.to_string(), JobEntry::new(&job.spec, Phase::Queued, rid));
            Admission::Submitted
        }
        Err(SubmitError::Full) => Admission::Full,
        Err(SubmitError::Closed) => Admission::Closed,
    }
}

/// Moves job `id` from `Queued` to `Running`.
pub(crate) fn start(state: &State, id: &str) {
    let mut reg = state.registry.lock().expect("registry lock");
    if let Some(e) = reg.jobs.get_mut(id) {
        e.phase = Phase::Running;
    }
}

/// Moves job `id` to `Done` or `Failed`, under one registry lock and in
/// this order: a result enters the store under `key` first (so no
/// reader ever sees a half-written result), then the entry's phase,
/// then the terminal-eviction bookkeeping. `key` is read only on
/// success.
pub(crate) fn finish(
    state: &State,
    id: &str,
    key: u64,
    result: Result<Arc<String>, String>,
    wall_ms: u64,
) {
    let mut reg = state.registry.lock().expect("registry lock");
    let phase = match result {
        Ok(stats) => {
            reg.results.insert(key, Arc::clone(&stats));
            state.counters.jobs_done.fetch_add(1, Ordering::Relaxed);
            Phase::Done { stats, wall_ms }
        }
        Err(error) => {
            state.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
            Phase::Failed { error }
        }
    };
    if let Some(e) = reg.jobs.get_mut(id) {
        e.phase = phase;
        reg.mark_terminal(id.to_string());
    }
}

/// Fails every job still queued (service teardown, once the pool has
/// discarded them).
pub(crate) fn fail_queued(state: &State, reason: &str) {
    let queued: Vec<String> = {
        let reg = state.registry.lock().expect("registry lock");
        reg.jobs
            .iter()
            .filter(|(_, j)| matches!(j.phase, Phase::Queued))
            .map(|(id, _)| id.clone())
            .collect()
    };
    for id in queued {
        finish(state, &id, 0, Err(reason.to_string()), 0);
    }
}

// ---------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------

/// Renders one job's response body. `entry` supplies the identity
/// fields and `requestId`; `cached` — a result answered on this request
/// by [`Registry::result`] — overrides the entry's phase and reports
/// `done` with `"cached":true`. At least one of the two is present.
fn job_body(
    id: &str,
    entry: Option<&JobEntry>,
    cached: Option<(&str, Option<u64>)>,
    coalesced: bool,
) -> String {
    let (status, stats, wall_ms, error) = match (cached, entry.map(|e| &e.phase)) {
        (Some((stats, wall_ms)), _) => ("done", Some(stats), wall_ms, None),
        (None, Some(Phase::Queued)) => ("queued", None, None, None),
        (None, Some(Phase::Running)) => ("running", None, None, None),
        (None, Some(Phase::Done { stats, wall_ms })) => {
            ("done", Some(stats.as_str()), Some(*wall_ms), None)
        }
        (None, Some(Phase::Failed { error })) => ("error", None, None, Some(error.as_str())),
        (None, None) => unreachable!("a job body needs an entry or a cached result"),
    };
    let mut out = format!("{{\"job\":\"{id}\",\"status\":\"{status}\"");
    if let Some(e) = entry {
        out.push_str(&format!(
            ",\"workload\":\"{}\",\"scale\":\"{}\",\"seed\":{},\"model\":\"{}\"",
            escape(&e.workload),
            e.scale.name(),
            e.seed,
            e.model.name()
        ));
    }
    if status == "done" {
        out.push_str(&format!(",\"cached\":{}", cached.is_some()));
    }
    if coalesced {
        out.push_str(",\"coalesced\":true");
    }
    if let Some(ms) = wall_ms {
        out.push_str(&format!(",\"wallMs\":{ms}"));
    }
    if let Some(err) = error {
        out.push_str(&format!(",\"error\":\"{}\"", escape(err)));
    }
    if let Some(e) = entry {
        out.push_str(&format!(",\"requestId\":\"{}\"", escape(&e.request_id)));
    }
    if let Some(s) = stats {
        out.push_str(",\"stats\":");
        out.push_str(s);
    }
    out.push_str("}\n");
    out
}

fn job_reply(status: u16, body: String, disposition: &'static str) -> Reply {
    let mut r = json_reply(status, body);
    r.disposition = disposition;
    r
}

/// Environment a custom program runs under: zeroed memory, no parameter
/// registers, and a bounded step budget so profiling always terminates.
fn custom_env() -> hidisc_slicer::ExecEnv {
    hidisc_slicer::ExecEnv {
        regs: Vec::new(),
        mem: hidisc_isa::mem::Memory::new(),
        max_steps: 10_000_000,
    }
}

/// Pre-flight for custom programs: assemble, slice and statically verify
/// (queue balance, symbolic depth bounds, CMAS purity, slice liveness,
/// address disambiguation, run-ahead squash safety and poison liveness —
/// the full `hidisc-verify` pass list) before the job is admitted
/// anywhere near the worker pool. The rejection — served
/// as `400` — carries the verifier's diagnostic code (e.g. `QB004`) as
/// the envelope code and its first error diagnostic as the message.
/// Named workloads skip this: their slices are covered by the verifier's
/// own suite-wide property tests.
pub(crate) fn preflight(spec: &JobSpec, cfg: &MachineConfig) -> Result<(), (&'static str, String)> {
    let Some(src) = &spec.program else {
        return Ok(());
    };
    let prog = hidisc_isa::asm::assemble(&spec.workload, src)
        .map_err(|e| ("bad_request", format!("program does not assemble: {e}")))?;
    let depths = hidisc_bench::depths_of(cfg);
    hidisc_verify::compile_verified(&prog, &custom_env(), &CompilerConfig::default(), depths)
        .map(|_| ())
        .map_err(|e| {
            let code = match &e {
                hidisc_verify::VerifyError::Rejected(r) => r
                    .errors()
                    .next()
                    .map(|d| d.code.as_str())
                    .unwrap_or("bad_request"),
                hidisc_verify::VerifyError::Compile(_) => "bad_request",
            };
            (code, e.to_string())
        })
}

pub(crate) fn post_run(state: &Arc<State>, body: &[u8], rid: &str) -> Reply {
    if state.stop.load(Ordering::Relaxed) {
        return error_reply(503, "shutting_down", "service is shutting down", rid);
    }
    let spec = match JobSpec::from_json(body) {
        Ok(s) => s,
        Err(msg) => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return error_reply(400, "bad_request", &msg, rid);
        }
    };
    let job = match spec.resolve() {
        Ok(j) => j,
        Err(e) => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return error_reply(400, e.code(), &e.to_string(), rid);
        }
    };
    if let Err((code, msg)) = preflight(&job.spec, &job.cfg) {
        state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        return error_reply(400, code, &msg, rid);
    }
    let (id, spec) = (job.id(), &job.spec);

    let c = &state.counters;
    let mut reg = state.registry.lock().expect("registry lock");
    match admit(state, &mut reg, &job, rid, execute_job) {
        Admission::Done(stats, wall_ms) => {
            c.cache_hits.fetch_add(1, Ordering::Relaxed);
            // Answered from the store with no registry entry: record
            // one so later GET /v1/jobs/<id> polls resolve too.
            let newly = !reg.jobs.contains_key(id);
            if newly {
                let phase = Phase::Done {
                    stats: Arc::clone(&stats),
                    wall_ms: 0,
                };
                reg.jobs
                    .insert(id.to_string(), JobEntry::new(spec, phase, rid));
            }
            let body = job_body(id, reg.jobs.get(id), Some((&stats, wall_ms)), false);
            if newly {
                reg.mark_terminal(id.to_string());
            }
            job_reply(200, body, "cache_hit")
        }
        Admission::InFlight => {
            c.coalesced.fetch_add(1, Ordering::Relaxed);
            job_reply(202, job_body(id, reg.jobs.get(id), None, true), "coalesced")
        }
        Admission::Submitted => {
            c.cache_misses.fetch_add(1, Ordering::Relaxed);
            state.logger.log(
                Level::Info,
                "job_queued",
                &[
                    ("request_id", rid.into()),
                    ("job", id.into()),
                    ("workload", spec.workload.as_str().into()),
                    ("scale", spec.scale.name().into()),
                    ("model", spec.model.name().into()),
                ],
            );
            job_reply(
                202,
                job_body(id, reg.jobs.get(id), None, false),
                "submitted",
            )
        }
        Admission::Full => {
            c.cache_misses.fetch_add(1, Ordering::Relaxed);
            c.rejected.fetch_add(1, Ordering::Relaxed);
            retry_reply(
                429,
                "queue_full",
                "job queue is full; retry later",
                1_000,
                rid,
            )
        }
        Admission::Closed => {
            c.cache_misses.fetch_add(1, Ordering::Relaxed);
            error_reply(503, "shutting_down", "service is shutting down", rid)
        }
    }
}

pub(crate) fn get_job(state: &Arc<State>, id: &str, rid: &str) -> Reply {
    let mut reg = state.registry.lock().expect("registry lock");
    if let Some(e) = reg.jobs.get(id) {
        return json_reply(200, job_body(id, Some(e), None, false));
    }
    // Unknown to this process — a warm disk cache (e.g. after a restart)
    // can still resolve it. No creator request id survives the restart.
    let cached = u64::from_str_radix(id, 16)
        .ok()
        .and_then(|key| reg.result(id, key));
    match cached {
        Some((stats, wall_ms)) => {
            state.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            job_reply(
                200,
                job_body(id, None, Some((&stats, wall_ms)), false),
                "cache_hit",
            )
        }
        None => error_reply(404, "not_found", &format!("no such job {id}"), rid),
    }
}

// ---------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------

/// Runs one admitted job on a worker thread: `Running`, simulate,
/// then `Done`/`Failed` through [`finish`].
pub(crate) fn execute_job(state: Arc<State>, job: Job) {
    let Job {
        resolved: ResolvedJob { spec, cfg, key, id },
        rid,
        queued_at,
    } = job;
    let queue_wait = queued_at.elapsed();
    state.http.record_phase(JobPhase::QueueWait, queue_wait);
    start(&state, &id);
    state.counters.sim_runs.fetch_add(1, Ordering::Relaxed);
    state.logger.log(
        Level::Debug,
        "job_start",
        &[
            ("request_id", rid.as_str().into()),
            ("job", id.as_str().into()),
            ("queue_wait_ms", (queue_wait.as_millis() as u64).into()),
        ],
    );
    let started = Instant::now();
    let outcome = run_simulation(&spec, cfg);
    let sim = started.elapsed();
    state.http.record_phase(JobPhase::SimRun, sim);
    let wall_ms = sim.as_millis() as u64;

    match outcome {
        Ok(run) => {
            state
                .counters
                .dropped_events
                .fetch_add(run.dropped_events, Ordering::Relaxed);
            if let Some(m) = run.metrics {
                *state.metrics.lock().expect("metrics lock") = Some(m);
            }
            let serialize_started = Instant::now();
            finish(&state, &id, key, Ok(Arc::new(run.stats_json)), wall_ms);
            let serialize = serialize_started.elapsed();
            state.http.record_phase(JobPhase::Serialize, serialize);
            // A slow job is worth a WARN with its phase breakdown even
            // when every individual HTTP exchange around it was fast.
            let slow = !state.slow_request.is_zero() && sim >= state.slow_request;
            state.logger.log(
                if slow { Level::Warn } else { Level::Info },
                "job_done",
                &[
                    ("request_id", rid.as_str().into()),
                    ("job", id.as_str().into()),
                    ("queue_wait_ms", (queue_wait.as_millis() as u64).into()),
                    ("sim_ms", wall_ms.into()),
                    ("serialize_ms", (serialize.as_millis() as u64).into()),
                    ("slow", slow.into()),
                ],
            );
        }
        Err(error) => {
            state.logger.log(
                Level::Warn,
                "job_failed",
                &[
                    ("request_id", rid.as_str().into()),
                    ("job", id.as_str().into()),
                    ("sim_ms", wall_ms.into()),
                    ("error", error.as_str().into()),
                ],
            );
            finish(&state, &id, key, Err(error), wall_ms);
        }
    }
}

struct RunOutcome {
    stats_json: String,
    metrics: Option<IntervalMetrics>,
    dropped_events: u64,
}

fn run_simulation(spec: &JobSpec, cfg: MachineConfig) -> Result<RunOutcome, String> {
    let (compiled, env) = match &spec.program {
        Some(src) => {
            let prog = hidisc_isa::asm::assemble(&spec.workload, src)
                .map_err(|e| format!("program does not assemble: {e}"))?;
            let env = custom_env();
            let compiled = compile(&prog, &env, &CompilerConfig::default())
                .map_err(|e| format!("compile failed: {e}"))?;
            (compiled, env)
        }
        None => {
            let w = hidisc_workloads::by_name(&spec.workload, spec.scale, spec.seed)
                .ok_or_else(|| format!("unknown workload `{}`", spec.workload))?;
            let env = hidisc_bench::env_of(&w);
            let compiled = compile(&w.prog, &env, &CompilerConfig::default())
                .map_err(|e| format!("compile failed: {e}"))?;
            (compiled, env)
        }
    };
    let mut m = Machine::new(spec.model, &compiled, &env, cfg);
    let result = match spec.timeout_ms {
        Some(ms) => m.run_deadline(
            compiled.profile.dyn_instrs,
            Instant::now() + Duration::from_millis(ms),
        ),
        None => m.run(compiled.profile.dyn_instrs),
    };
    let tel = m.telemetry();
    let metrics = tel.metrics().cloned();
    let dropped_events = tel.dropped();
    match result {
        Ok(stats) => Ok(RunOutcome {
            stats_json: stats.to_json(),
            metrics,
            dropped_events,
        }),
        Err(e) => {
            let msg = match &e {
                RunError::Deadline { .. } => {
                    let ms = spec.timeout_ms.unwrap_or(0);
                    format!("wall-clock timeout after {ms} ms ({e})")
                }
                _ => e.to_string(),
            };
            Err(msg)
        }
    }
}
