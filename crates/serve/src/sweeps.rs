//! Sweep orchestration behind `POST /v1/sweep` (DESIGN.md §19).
//!
//! A sweep is a parameter grid expanded server-side by the planner
//! ([`crate::plan`]) into deduplicated content-addressed points. This
//! module owns the bounded sweep registry, drives every point through
//! the same job path as `POST /v1/run` (`jobs::admit`: lookup →
//! coalesce → bounded worker pool), renders one NDJSON progress line per
//! point for the attached chunked stream, and — in shard mode — routes
//! points owned by a peer shard to it with health tracking and local
//! fallback.
//!
//! Locking order, never reversed: `State::sweeps` → `State::registry`
//! → `State::workers`. The reactor calls [`advance`]/[`pump_conn`] on
//! every wakeup; both are O(active sweeps) and lock-free when idle.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hidisc_workloads::Scale;

use crate::jobs::{admit, execute_job, finish, start, Admission, Job, Phase, Registry};
use crate::json::{escape, Fields, Json};
use crate::net::{Conn, Reply};
use crate::plan::{self, Grid, PointStats, Render};
use crate::{client, error_reply, json_reply, retry_reply, ResolvedJob, ShardSpec, State};

/// Bound on sweep-registry entries; finished sweeps are evicted
/// oldest-first past it, and a new sweep is refused with `429` when
/// every resident entry is still running.
pub(crate) const MAX_SWEEPS: usize = 64;

/// Wall-clock budget for one forwarded point (connect + peer queue +
/// simulation + polling) before the forward falls back to local
/// evaluation.
const FORWARD_DEADLINE: Duration = Duration::from_secs(300);

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// The bounded sweep registry behind `State::sweeps`.
pub(crate) struct Sweeps {
    map: HashMap<String, Entry>,
    /// Sweep ids in insertion order, for oldest-first eviction.
    order: VecDeque<String>,
    max: usize,
}

/// One sweep's lifetime state.
struct Entry {
    /// Id of the request that created the sweep.
    request_id: String,
    render: Option<Render>,
    duplicates: usize,
    points: Vec<SweepPoint>,
    /// Every NDJSON line emitted so far (header, one per terminal
    /// point, then the summary); attached streams replay from any
    /// index, so a re-POST of the same grid sees the full history.
    lines: Vec<Arc<String>>,
    done: usize,
    cached: usize,
    simulated: usize,
    forwarded: usize,
    failed: usize,
    finished: bool,
}

struct SweepPoint {
    /// The point as a job, admitted like any `/v1/run` job.
    job: ResolvedJob,
    state: PState,
}

enum PState {
    /// Not yet routed anywhere (also the retry state after a full
    /// queue: the next [`advance`] tick tries again — backpressure).
    New,
    /// In flight; poll the job registry.
    Waiting {
        /// False when the point coalesced onto a job some other
        /// request had already submitted.
        submitted_here: bool,
        /// True when the point was dispatched to a peer shard.
        via_forward: bool,
    },
    Terminal,
}

impl Sweeps {
    pub(crate) fn new(max: usize) -> Sweeps {
        Sweeps {
            map: HashMap::new(),
            order: VecDeque::new(),
            max,
        }
    }

    /// True when any resident sweep is still running (feeds the
    /// `hidisc_serve_sweeps_active` gauge).
    pub(crate) fn active(&self) -> usize {
        self.map.values().filter(|e| !e.finished).count()
    }

    /// Inserts a new sweep, evicting the oldest finished one when at
    /// the bound. Returns false — refuse with 429 — when every
    /// resident sweep is still running.
    fn insert(&mut self, id: String, entry: Entry) -> bool {
        while self.map.len() >= self.max {
            let Some(pos) = self
                .order
                .iter()
                .position(|old| self.map.get(old).is_some_and(|e| e.finished))
            else {
                return false;
            };
            let old = self.order.remove(pos).expect("position just found");
            self.map.remove(&old);
        }
        self.order.push_back(id.clone());
        self.map.insert(id, entry);
        true
    }
}

// ---------------------------------------------------------------------
// Shard routing
// ---------------------------------------------------------------------

/// Where one point should evaluate.
enum RouteDecision {
    /// This shard owns the point (or the service is stand-alone).
    Local,
    /// A peer owns it but is marked unhealthy: evaluate locally and
    /// count the degradation.
    Fallback,
    /// Forward to this owning peer shard.
    Forward(usize),
}

/// Shard-mode routing state: the static [`ShardSpec`] plus per-shard
/// health, probe bookkeeping and the set of jobs whose forward fell
/// back to local evaluation (so terminal accounting stays truthful).
pub(crate) struct ShardSet {
    spec: ShardSpec,
    healthy: Vec<AtomicBool>,
    probing: Vec<AtomicBool>,
    fallbacks: Mutex<HashSet<String>>,
}

impl ShardSet {
    pub(crate) fn new(spec: ShardSpec) -> ShardSet {
        let n = spec.count as usize;
        ShardSet {
            spec,
            healthy: (0..n).map(|_| AtomicBool::new(true)).collect(),
            probing: (0..n).map(|_| AtomicBool::new(false)).collect(),
            fallbacks: Mutex::new(HashSet::new()),
        }
    }

    /// Health snapshot, for the per-shard gauges.
    pub(crate) fn health(&self) -> Vec<bool> {
        self.healthy
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect()
    }

    fn route(&self, key: u64) -> RouteDecision {
        let owner = self.spec.owner_of(key) as usize;
        if owner == self.spec.index as usize {
            return RouteDecision::Local;
        }
        if self.healthy[owner].load(Ordering::Relaxed) {
            RouteDecision::Forward(owner)
        } else {
            RouteDecision::Fallback
        }
    }

    fn mark_unhealthy(&self, shard: usize) {
        self.healthy[shard].store(false, Ordering::Relaxed);
    }

    fn note_fallback(&self, job_id: &str) {
        self.fallbacks
            .lock()
            .expect("fallbacks lock")
            .insert(job_id.to_string());
    }

    fn was_fallback(&self, job_id: &str) -> bool {
        self.fallbacks
            .lock()
            .expect("fallbacks lock")
            .contains(job_id)
    }

    /// Spawns one background probe per unhealthy peer (at most one in
    /// flight per shard); the probe re-enables forwarding once the
    /// peer answers `/healthz` again. Called from the reactor tick —
    /// the probing itself never runs on the reactor thread.
    fn maybe_probe(&self, state: &Arc<State>) {
        for shard in 0..self.spec.count as usize {
            if shard == self.spec.index as usize
                || self.healthy[shard].load(Ordering::Relaxed)
                || self.probing[shard].swap(true, Ordering::Relaxed)
            {
                continue;
            }
            let st = Arc::clone(state);
            std::thread::spawn(move || {
                let sh = st.shards.as_ref().expect("probe spawned in shard mode");
                let addr = sh.spec.peers[shard].clone();
                while !st.stop.load(Ordering::Relaxed) {
                    if client::healthy(&addr, Duration::from_millis(300)) {
                        sh.healthy[shard].store(true, Ordering::Relaxed);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(500));
                }
                sh.probing[shard].store(false, Ordering::Relaxed);
            });
        }
    }
}

// ---------------------------------------------------------------------
// Grid parsing
// ---------------------------------------------------------------------

/// One element of a string-array axis.
fn axis_str<'a>(name: &str, j: &'a Json) -> Result<&'a str, String> {
    j.as_str()
        .ok_or_else(|| format!("field `{name}` must be an array of strings"))
}

/// Everything a `POST /v1/sweep` body may carry: the grid axes plus the
/// sweep-level `render` and `stream` options.
fn parse_request(body: &[u8]) -> Result<(Grid, Option<Render>, bool), String> {
    let f = Fields::parse(
        body,
        &[
            "workloads",
            "models",
            "scales",
            "seeds",
            "latencies",
            "scq_depths",
            "max_cycles",
            "render",
            "stream",
        ],
    )?;
    let axes = Grid::default();
    let grid = Grid {
        workloads: f
            .each("workloads", |j| {
                axis_str("workloads", j).map(str::to_string)
            })?
            .unwrap_or(axes.workloads),
        models: f
            .each("models", |j| {
                axis_str("models", j).and_then(crate::parse_model)
            })?
            .unwrap_or(axes.models),
        scales: f
            .each("scales", |j| axis_str("scales", j).and_then(Scale::parse))?
            .unwrap_or(axes.scales),
        seeds: f
            .each("seeds", |j| {
                j.as_u64().ok_or_else(|| {
                    "field `seeds` must be an array of non-negative integers".to_string()
                })
            })?
            .unwrap_or(axes.seeds),
        latencies: f
            .each("latencies", |j| match j {
                Json::Null => Ok(None),
                Json::Arr(pair) => {
                    let lat = |j: &Json| j.as_u64().and_then(|v| u32::try_from(v).ok());
                    let both = (pair.first().and_then(lat))
                        .zip(pair.get(1).and_then(lat))
                        .filter(|_| pair.len() == 2);
                    both.map(Some).ok_or_else(|| {
                        format!(
                            "each `latencies` entry must be a [l2, mem] pair of integers \
                             in 0..={} (or null for the paper values)",
                            u32::MAX
                        )
                    })
                }
                _ => Err("field `latencies` must be an array of [l2, mem] pairs".to_string()),
            })?
            .unwrap_or(axes.latencies),
        scq_depths: f
            .each("scq_depths", |j| match j {
                Json::Null => Ok(None),
                _ => j.as_u64().map(|d| Some(d as usize)).ok_or_else(|| {
                    "field `scq_depths` must be an array of non-negative integers or nulls"
                        .to_string()
                }),
            })?
            .unwrap_or(axes.scq_depths),
        max_cycles: f.u64("max_cycles")?,
    };
    let render = f.str("render")?.map(Render::parse).transpose()?;
    let stream = f.bool("stream")?.unwrap_or(true);
    Ok((grid, render, stream))
}

// ---------------------------------------------------------------------
// NDJSON lines
// ---------------------------------------------------------------------

fn header_line(id: &str, plan_total: usize, duplicates: usize, rid: &str) -> String {
    format!(
        "{{\"sweep\":\"{id}\",\"status\":\"accepted\",\"total\":{plan_total},\
         \"duplicates\":{duplicates},\"requestId\":\"{}\"}}\n",
        escape(rid)
    )
}

#[allow(clippy::too_many_arguments)]
fn point_line(
    p: &SweepPoint,
    status: &str,
    cached: bool,
    outcome: Option<&str>,
    wall_ms: Option<u64>,
    error: Option<&str>,
    rid: &str,
) -> String {
    let spec = &p.job.spec;
    let mut s = format!(
        "{{\"point\":\"{}\",\"workload\":\"{}\",\"scale\":\"{}\",\"seed\":{},\
         \"model\":\"{}\",\"status\":\"{status}\"",
        p.job.id(),
        escape(&spec.workload),
        spec.scale.name(),
        spec.seed,
        spec.model.name().to_lowercase(),
    );
    if status == "done" {
        s.push_str(&format!(",\"cached\":{cached}"));
    }
    if let Some(o) = outcome {
        s.push_str(&format!(",\"outcome\":\"{o}\""));
    }
    if let Some(ms) = wall_ms {
        s.push_str(&format!(",\"wallMs\":{ms}"));
    }
    if let Some(e) = error {
        s.push_str(&format!(",\"error\":\"{}\"", escape(e)));
    }
    s.push_str(&format!(",\"requestId\":\"{}\"}}\n", escape(rid)));
    s
}

fn summary_json(id: &str, e: &Entry, trailing_newline: bool) -> String {
    format!(
        "{{\"sweep\":\"{id}\",\"status\":\"{}\",\"total\":{},\"done\":{},\
         \"cached\":{},\"simulated\":{},\"forwarded\":{},\"failed\":{},\
         \"duplicates\":{},\"requestId\":\"{}\"}}{}",
        if e.finished { "done" } else { "running" },
        e.points.len(),
        e.done,
        e.cached,
        e.simulated,
        e.forwarded,
        e.failed,
        e.duplicates,
        escape(&e.request_id),
        if trailing_newline { "\n" } else { "" },
    )
}

// ---------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------

/// `POST /v1/sweep`: plan the grid, register (or coalesce onto) the
/// sweep, kick the first advance, and answer with either an attached
/// NDJSON stream (default) or a `202` snapshot.
pub(crate) fn post_sweep(state: &Arc<State>, body: &[u8], rid: &str) -> Reply {
    if state.stop.load(Ordering::Relaxed) {
        return error_reply(503, "shutting_down", "service is shutting down", rid);
    }
    let (grid, render, stream) = match parse_request(body) {
        Ok(parts) => parts,
        Err(msg) => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return error_reply(400, "bad_request", &msg, rid);
        }
    };
    let plan = match plan::plan(&grid) {
        Ok(p) => p,
        Err(e) => {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return error_reply(400, e.code(), &e.to_string(), rid);
        }
    };
    let id = format!("{:016x}", plan.id);

    let mut sweeps = state.sweeps.lock().expect("sweeps lock");
    let coalesced = sweeps.map.contains_key(&id);
    if !coalesced {
        let points: Vec<SweepPoint> = plan
            .points
            .into_iter()
            .map(|job| SweepPoint {
                job,
                state: PState::New,
            })
            .collect();
        let mut entry = Entry {
            request_id: rid.to_string(),
            render,
            duplicates: plan.duplicates,
            lines: Vec::new(),
            done: 0,
            cached: 0,
            simulated: 0,
            forwarded: 0,
            failed: 0,
            finished: false,
            points,
        };
        entry.lines.push(Arc::new(header_line(
            &id,
            entry.points.len(),
            entry.duplicates,
            rid,
        )));
        if !sweeps.insert(id.clone(), entry) {
            state.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return retry_reply(
                429,
                "too_many_sweeps",
                "every sweep slot is running; retry later",
                1_000,
                rid,
            );
        }
    }
    advance_locked(state, &mut sweeps);

    let e = sweeps.map.get(&id).expect("sweep just inserted or found");
    let mut r = if !stream {
        json_reply(
            if e.finished { 200 } else { 202 },
            summary_json(&id, e, true),
        )
    } else if e.finished {
        // Nothing left to stream: replay the full history as a plain
        // NDJSON body.
        let body: String = e.lines.iter().map(|l| l.as_str()).collect();
        let mut r = json_reply(200, body);
        r.content_type = "application/x-ndjson";
        r
    } else {
        let body: String = e.lines.iter().map(|l| l.as_str()).collect();
        let next = e.lines.len();
        let mut r = json_reply(200, body);
        r.content_type = "application/x-ndjson";
        r.stream = Some(crate::net::StreamBody {
            sweep: id.clone(),
            next,
        });
        r
    };
    r.disposition = if coalesced { "coalesced" } else { "submitted" };
    r
}

/// `GET /v1/sweeps/<id>` (progress snapshot) and
/// `GET /v1/sweeps/<id>/render` (assembled CSV once done).
pub(crate) fn get_sweep(state: &Arc<State>, suffix: &str, rid: &str) -> Reply {
    advance(state);
    if let Some(id) = suffix.strip_suffix("/render") {
        return render_sweep(state, id, rid);
    }
    let sweeps = state.sweeps.lock().expect("sweeps lock");
    match sweeps.map.get(suffix) {
        Some(e) => json_reply(200, summary_json(suffix, e, true)),
        None => error_reply(404, "not_found", &format!("no such sweep {suffix}"), rid),
    }
}

fn render_sweep(state: &Arc<State>, id: &str, rid: &str) -> Reply {
    let sweeps = state.sweeps.lock().expect("sweeps lock");
    let Some(e) = sweeps.map.get(id) else {
        return error_reply(404, "not_found", &format!("no such sweep {id}"), rid);
    };
    if !e.finished {
        return error_reply(
            409,
            "sweep_incomplete",
            &format!(
                "sweep {id} is still running ({}/{} points)",
                e.done,
                e.points.len()
            ),
            rid,
        );
    }
    if e.failed > 0 {
        return error_reply(
            409,
            "sweep_failed",
            &format!(
                "{} of {} points failed; nothing to render",
                e.failed,
                e.points.len()
            ),
            rid,
        );
    }
    let Some(render) = e.render else {
        return error_reply(
            400,
            "bad_request",
            "no render was requested for this sweep (pass \"render\" in the grid)",
            rid,
        );
    };
    // Rebuild each point's report inputs from its cached stats. The
    // registry lock nests inside the sweeps lock (the one legal order).
    let mut reg = state.registry.lock().expect("registry lock");
    let points: Vec<&ResolvedJob> = e.points.iter().map(|p| &p.job).collect();
    let mut stats: Vec<PointStats> = Vec::with_capacity(points.len());
    for p in &points {
        let Some((raw, _)) = reg.result(p.id(), p.key) else {
            return error_reply(
                409,
                "results_evicted",
                &format!(
                    "results for point {} were evicted; re-run the sweep",
                    p.id()
                ),
                rid,
            );
        };
        let Some(ps) = point_stats(&raw) else {
            return error_reply(
                500,
                "internal",
                &format!("stats for point {} do not parse", p.id()),
                rid,
            );
        };
        stats.push(ps);
    }
    drop(reg);
    match plan::render_csv(render, &points, &stats) {
        Ok(csv) => {
            let mut r = json_reply(200, csv);
            r.content_type = "text/csv";
            r
        }
        Err(msg) => error_reply(409, "render_shape", &msg, rid),
    }
}

/// Extracts the report inputs from one serialised `MachineStats`.
fn point_stats(raw: &str) -> Option<PointStats> {
    let v = Json::parse(raw).ok()?;
    let l1 = v.get("mem")?.get("l1")?;
    Some(PointStats {
        cycles: v.get("cycles")?.as_u64()?,
        work_instrs: v.get("workInstrs")?.as_u64()?,
        l1_demand_accesses: l1.get("demandAccesses")?.as_u64()?,
        l1_demand_misses: l1.get("demandMisses")?.as_u64()?,
    })
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

/// Drives every active sweep one step: routes `New` points (cache →
/// coalesce → submit local or forward), harvests terminal jobs, emits
/// progress lines, and finishes sweeps whose last point landed. Called
/// from the reactor on every wakeup and from the GET handlers; cheap
/// when nothing is active.
pub(crate) fn advance(state: &Arc<State>) {
    let mut sweeps = state.sweeps.lock().expect("sweeps lock");
    if sweeps.map.values().all(|e| e.finished) {
        return;
    }
    advance_locked(state, &mut sweeps);
}

fn advance_locked(state: &Arc<State>, sweeps: &mut Sweeps) {
    if let Some(sh) = &state.shards {
        sh.maybe_probe(state);
    }
    let ids: Vec<String> = sweeps
        .map
        .iter()
        .filter(|(_, e)| !e.finished)
        .map(|(id, _)| id.clone())
        .collect();
    for id in ids {
        let e = sweeps.map.get_mut(&id).expect("id just listed");
        let rid = e.request_id.clone();
        let mut reg = state.registry.lock().expect("registry lock");
        for i in 0..e.points.len() {
            let outcome: Option<(String, &'static str)> = {
                let p = &mut e.points[i];
                match p.state {
                    PState::Terminal => None,
                    PState::New => step_new(state, &mut reg, p, &rid),
                    PState::Waiting {
                        submitted_here,
                        via_forward,
                    } => step_waiting(state, &mut reg, p, &rid, submitted_here, via_forward),
                }
            };
            if let Some((line, kind)) = outcome {
                e.lines.push(Arc::new(line));
                e.done += 1;
                match kind {
                    "cached" => e.cached += 1,
                    "simulated" => e.simulated += 1,
                    "forwarded" => e.forwarded += 1,
                    _ => e.failed += 1,
                }
            }
        }
        drop(reg);
        if !e.finished && e.done == e.points.len() {
            e.finished = true;
            let summary = summary_json(&id, e, true);
            e.lines.push(Arc::new(summary));
            state.logger.log(
                hidisc::telemetry::log::Level::Info,
                "sweep_done",
                &[
                    ("request_id", e.request_id.as_str().into()),
                    ("sweep", id.as_str().into()),
                    ("total", e.points.len().into()),
                    ("cached", e.cached.into()),
                    ("simulated", e.simulated.into()),
                    ("forwarded", e.forwarded.into()),
                    ("failed", e.failed.into()),
                ],
            );
        }
    }
}

/// Routes one not-yet-dispatched point through the shared admission.
/// Returns the terminal line when the point resolved immediately
/// (cached, or the pool is shut down), `None` otherwise.
fn step_new(
    state: &Arc<State>,
    reg: &mut Registry,
    p: &mut SweepPoint,
    rid: &str,
) -> Option<(String, &'static str)> {
    let decision = match &state.shards {
        Some(sh) => sh.route(p.job.key),
        None => RouteDecision::Local,
    };
    let outcome = match decision {
        RouteDecision::Forward(owner) => admit(state, reg, &p.job, rid, move |st, job| {
            forward_job(st, job, owner)
        }),
        RouteDecision::Local | RouteDecision::Fallback => {
            admit(state, reg, &p.job, rid, execute_job)
        }
    };
    let c = &state.counters;
    if matches!(decision, RouteDecision::Fallback)
        && matches!(outcome, Admission::Submitted | Admission::Full)
    {
        c.shard_fallbacks.fetch_add(1, Ordering::Relaxed);
    }
    match outcome {
        Admission::Done(_, wall_ms) => {
            p.state = PState::Terminal;
            c.sweep_points_cached.fetch_add(1, Ordering::Relaxed);
            Some((
                point_line(p, "done", true, Some("cached"), wall_ms, None, rid),
                "cached",
            ))
        }
        Admission::InFlight => {
            // Coalesced onto the in-flight job another request created.
            c.coalesced.fetch_add(1, Ordering::Relaxed);
            p.state = PState::Waiting {
                submitted_here: false,
                via_forward: false,
            };
            None
        }
        Admission::Submitted => {
            p.state = PState::Waiting {
                submitted_here: true,
                via_forward: matches!(decision, RouteDecision::Forward(_)),
            };
            None
        }
        // Queue full: stay `New`; the next tick retries (backpressure).
        Admission::Full => None,
        Admission::Closed => {
            p.state = PState::Terminal;
            c.sweep_points_failed.fetch_add(1, Ordering::Relaxed);
            Some((
                point_line(
                    p,
                    "error",
                    false,
                    None,
                    None,
                    Some("service is shutting down"),
                    rid,
                ),
                "failed",
            ))
        }
    }
}

/// Polls one in-flight point against the job registry.
fn step_waiting(
    state: &Arc<State>,
    reg: &mut Registry,
    p: &mut SweepPoint,
    rid: &str,
    submitted_here: bool,
    via_forward: bool,
) -> Option<(String, &'static str)> {
    let c = &state.counters;
    match reg.jobs.get(p.job.id()).map(|j| &j.phase) {
        Some(Phase::Queued | Phase::Running) => return None,
        Some(Phase::Failed { error }) => {
            let error = error.clone();
            p.state = PState::Terminal;
            c.sweep_points_failed.fetch_add(1, Ordering::Relaxed);
            return Some((
                point_line(p, "error", false, None, None, Some(&error), rid),
                "failed",
            ));
        }
        Some(Phase::Done { .. }) | None => {}
    }
    // Done — or evicted mid-wait (tiny registry bound), when the store
    // may still have it; otherwise resubmit on the next tick.
    let Some((_, wall_ms)) = reg.result(p.job.id(), p.job.key) else {
        p.state = PState::New;
        return None;
    };
    p.state = PState::Terminal;
    let kind = if wall_ms.is_none() || !submitted_here {
        "cached"
    } else if via_forward
        && !state
            .shards
            .as_ref()
            .is_some_and(|sh| sh.was_fallback(p.job.id()))
    {
        "forwarded"
    } else {
        "simulated"
    };
    match kind {
        "cached" => &c.sweep_points_cached,
        "forwarded" => &c.sweep_points_forwarded,
        _ => &c.sweep_points_simulated,
    }
    .fetch_add(1, Ordering::Relaxed);
    Some((
        point_line(p, "done", kind == "cached", Some(kind), wall_ms, None, rid),
        kind,
    ))
}

/// Runs on a worker thread: evaluates one point on the peer shard that
/// owns it, falling back to local evaluation (degraded mode) when the
/// peer cannot be reached or fails.
fn forward_job(state: Arc<State>, mut job: Job, owner: usize) {
    let sh = state.shards.as_ref().expect("forwarding needs shard mode");
    let addr = sh.spec.peers[owner].as_str();
    let (id, key) = (job.resolved.id(), job.resolved.key);
    start(&state, id);
    let started = Instant::now();
    match client::run_on_peer(addr, &job.resolved.spec.to_json(), id, FORWARD_DEADLINE) {
        Ok(stats) => {
            let wall_ms = started.elapsed().as_millis() as u64;
            finish(&state, id, key, Ok(Arc::new(stats)), wall_ms);
            state.logger.log(
                hidisc::telemetry::log::Level::Info,
                "job_forwarded",
                &[
                    ("request_id", job.rid.as_str().into()),
                    ("job", id.into()),
                    ("peer", addr.into()),
                    ("wall_ms", wall_ms.into()),
                ],
            );
        }
        Err(err) => {
            state.logger.log(
                hidisc::telemetry::log::Level::Warn,
                "shard_forward_failed",
                &[
                    ("request_id", job.rid.as_str().into()),
                    ("job", id.into()),
                    ("peer", addr.into()),
                    ("error", err.as_str().into()),
                ],
            );
            sh.mark_unhealthy(owner);
            sh.note_fallback(id);
            state
                .counters
                .shard_fallbacks
                .fetch_add(1, Ordering::Relaxed);
            job.queued_at = Instant::now();
            execute_job(Arc::clone(&state), job);
        }
    }
}

// ---------------------------------------------------------------------
// Stream pumping and teardown
// ---------------------------------------------------------------------

/// Feeds one streaming connection whatever sweep lines it has not seen
/// yet, terminating the chunked body once the sweep finishes. Called
/// from the reactor; locks only the sweep registry.
pub(crate) fn pump_conn(conn: &mut Conn, state: &Arc<State>) {
    if conn.backlogged() {
        return;
    }
    let Some(sb) = conn.stream_mut() else {
        return;
    };
    let sweep_id = sb.sweep.clone();
    let next = sb.next;
    let snapshot = {
        let sweeps = state.sweeps.lock().expect("sweeps lock");
        sweeps.map.get(&sweep_id).map(|e| {
            let chunks: Vec<Arc<String>> = e.lines[next.min(e.lines.len())..].to_vec();
            (chunks, e.lines.len(), e.finished)
        })
    };
    // Evicted under the attached stream (possible only once finished):
    // terminate cleanly.
    let Some((chunks, total, finished)) = snapshot else {
        conn.finish_stream();
        return;
    };
    for line in &chunks {
        conn.push_stream_chunk(line.as_bytes());
    }
    if let Some(sb) = conn.stream_mut() {
        sb.next = total;
    }
    if finished {
        conn.finish_stream();
    }
}

/// Fails every outstanding point of every unfinished sweep (service
/// teardown): pollers see `error` points and a terminal summary, and
/// attached streams terminate on the reactor's final pump.
pub(crate) fn fail_unfinished(state: &Arc<State>, reason: &str) {
    let mut sweeps = state.sweeps.lock().expect("sweeps lock");
    let ids: Vec<String> = sweeps
        .map
        .iter()
        .filter(|(_, e)| !e.finished)
        .map(|(id, _)| id.clone())
        .collect();
    for id in ids {
        let e = sweeps.map.get_mut(&id).expect("id just listed");
        let rid = e.request_id.clone();
        for i in 0..e.points.len() {
            let line = {
                let p = &mut e.points[i];
                if matches!(p.state, PState::Terminal) {
                    continue;
                }
                p.state = PState::Terminal;
                point_line(p, "error", false, None, None, Some(reason), &rid)
            };
            e.lines.push(Arc::new(line));
            e.done += 1;
            e.failed += 1;
            state
                .counters
                .sweep_points_failed
                .fetch_add(1, Ordering::Relaxed);
        }
        e.finished = true;
        let summary = summary_json(&id, e, true);
        e.lines.push(Arc::new(summary));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_reads_axes_and_rejects_wrapping_latencies() {
        let (grid, render, stream) = parse_request(
            br#"{"workloads":["dm"],"models":["hidisc"],"latencies":[null,[4,40],[4294967295,0]],
                 "render":"fig10","stream":false}"#,
        )
        .unwrap();
        assert_eq!(grid.workloads, ["dm"]);
        assert_eq!(grid.models, [hidisc::Model::HiDisc]);
        assert_eq!(grid.latencies, [None, Some((4, 40)), Some((u32::MAX, 0))]);
        assert_eq!(render, Some(Render::Fig10));
        assert!(!stream);

        // 4294967300 would wrap to 4 and alias the [4, 40] point.
        for lat in ["[4294967300,40]", "[4,4294967336]"] {
            let body = format!(r#"{{"workloads":["dm"],"latencies":[{lat}]}}"#);
            let err = parse_request(body.as_bytes()).unwrap_err();
            assert!(err.contains("0..=4294967295"), "{lat}: {err}");
        }
        assert!(parse_request(br#"{"workloads":["dm"],"bogus":1}"#)
            .unwrap_err()
            .contains("unknown field"));
    }
}
