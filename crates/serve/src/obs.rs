//! Request-observability primitives for the serve stack (DESIGN.md §18):
//! request-id generation, canonical route labels, and the RED metric
//! registry — per-route × status-class counters plus real Prometheus
//! histograms for request latency, job phases, time-to-first-byte and
//! connection lifetime — rendered into `GET /metrics`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use hidisc::fnv1a;
use hidisc::telemetry::{prometheus_histogram, Histogram};

// ---------------------------------------------------------------------
// Request ids
// ---------------------------------------------------------------------

/// Cap on an inbound `X-Request-Id` value the service will honor.
pub const MAX_REQUEST_ID_LEN: usize = 64;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        let mut h = fnv1a(hidisc::FNV_OFFSET, &now.as_nanos().to_le_bytes());
        h = fnv1a(h, &std::process::id().to_le_bytes());
        h
    })
}

/// A fresh request id: 16 lowercase hex digits, unique within the
/// process and seeded per process so ids from several serve instances
/// do not collide in a shared log store.
pub(crate) fn fresh_request_id() -> String {
    let n = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}", fnv1a(process_seed(), &n.to_le_bytes()))
}

/// An inbound `X-Request-Id` is honored when it is non-empty, at most
/// [`MAX_REQUEST_ID_LEN`] bytes and token-ish (`[A-Za-z0-9._-]`), so a
/// hostile value cannot smuggle header/log/JSON syntax back out.
pub(crate) fn acceptable_request_id(v: &str) -> bool {
    !v.is_empty()
        && v.len() <= MAX_REQUEST_ID_LEN
        && v.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

// ---------------------------------------------------------------------
// Canonical routes
// ---------------------------------------------------------------------

/// Canonical route labels — a closed set so metric cardinality stays
/// bounded no matter what paths clients probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    Healthz,
    Metrics,
    Run,
    Jobs,
    Sweep,
    Shutdown,
    /// Everything else (404s, probes, parse errors).
    Other,
}

impl Route {
    pub const ALL: [Route; 7] = [
        Route::Healthz,
        Route::Metrics,
        Route::Run,
        Route::Jobs,
        Route::Sweep,
        Route::Shutdown,
        Route::Other,
    ];

    /// Classifies a request path (any method).
    pub fn of(path: &str) -> Route {
        match path {
            "/healthz" => Route::Healthz,
            "/metrics" => Route::Metrics,
            "/v1/run" => Route::Run,
            "/v1/sweep" => Route::Sweep,
            "/v1/shutdown" => Route::Shutdown,
            p if p.starts_with("/v1/jobs/") => Route::Jobs,
            p if p.starts_with("/v1/sweeps/") => Route::Sweep,
            _ => Route::Other,
        }
    }

    /// The `route` label value.
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Run => "run",
            Route::Jobs => "jobs",
            Route::Sweep => "sweep",
            Route::Shutdown => "shutdown",
            Route::Other => "other",
        }
    }
}

/// Phases of one job's life, each fed into the job-phase histogram.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobPhase {
    /// Submit accepted → a worker picked the job up.
    QueueWait,
    /// Simulation wall time (assemble/compile/slice + machine run).
    SimRun,
    /// Result serialization: stats JSON → cache + registry publication.
    Serialize,
}

impl JobPhase {
    const ALL: [JobPhase; 3] = [JobPhase::QueueWait, JobPhase::SimRun, JobPhase::Serialize];

    fn label(self) -> &'static str {
        match self {
            JobPhase::QueueWait => "queue_wait",
            JobPhase::SimRun => "sim_run",
            JobPhase::Serialize => "serialize",
        }
    }
}

// ---------------------------------------------------------------------
// RED metrics
// ---------------------------------------------------------------------

/// Status classes tracked per route (`1xx` … `5xx`).
const CLASSES: [&str; 5] = ["1xx", "2xx", "3xx", "4xx", "5xx"];

fn class_of(status: u16) -> usize {
    ((status / 100).clamp(1, 5) - 1) as usize
}

/// Histogram shapes, all fixed-bucket ([`Histogram`]) with an overflow
/// bucket that becomes the `le="+Inf"` line:
/// request duration 250 µs × 40 (10 ms span), job phases 5 ms × 80
/// (400 ms), TTFB 250 µs × 40, connection lifetime 250 ms × 120 (30 s).
/// Values past the span still count (overflow bucket + exact `_sum`).
const DURATION_US: (u64, usize) = (250, 40);
const PHASE_US: (u64, usize) = (5_000, 80);
const TTFB_US: (u64, usize) = (250, 40);
const LIFETIME_MS: (u64, usize) = (250, 120);

/// The service's request-level metric registry. Counters are atomics;
/// histograms sit behind one mutex each, touched by the reactor thread
/// (requests, TTFB, lifetimes) and the workers (job phases).
pub(crate) struct HttpMetrics {
    /// Requests by `[route][status class]`.
    by_route: [[AtomicU64; CLASSES.len()]; Route::ALL.len()],
    /// Routing+handler latency per route, recorded in microseconds.
    duration: Mutex<Vec<Histogram>>,
    /// Job phase durations, recorded in microseconds.
    phase: Mutex<Vec<Histogram>>,
    /// Connection open → first response byte, microseconds.
    ttfb: Mutex<Histogram>,
    /// Connection open → close, milliseconds.
    lifetime: Mutex<Histogram>,
}

impl HttpMetrics {
    pub fn new() -> HttpMetrics {
        HttpMetrics {
            by_route: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            duration: Mutex::new(
                (0..Route::ALL.len())
                    .map(|_| Histogram::new(DURATION_US.0, DURATION_US.1))
                    .collect(),
            ),
            phase: Mutex::new(
                (0..JobPhase::ALL.len())
                    .map(|_| Histogram::new(PHASE_US.0, PHASE_US.1))
                    .collect(),
            ),
            ttfb: Mutex::new(Histogram::new(TTFB_US.0, TTFB_US.1)),
            lifetime: Mutex::new(Histogram::new(LIFETIME_MS.0, LIFETIME_MS.1)),
        }
    }

    /// One routed request: counts it and records handler latency.
    pub fn record_request(&self, route: Route, status: u16, dur: Duration) {
        let r = route_index(route);
        self.by_route[r][class_of(status)].fetch_add(1, Ordering::Relaxed);
        self.duration.lock().expect("duration lock")[r].record(micros(dur));
    }

    /// One completed job phase.
    pub fn record_phase(&self, phase: JobPhase, dur: Duration) {
        self.phase.lock().expect("phase lock")[phase as usize].record(micros(dur));
    }

    /// First response byte of a connection.
    pub fn record_ttfb(&self, dur: Duration) {
        self.ttfb.lock().expect("ttfb lock").record(micros(dur));
    }

    /// A connection closed after `dur`.
    pub fn record_conn_lifetime(&self, dur: Duration) {
        self.lifetime
            .lock()
            .expect("lifetime lock")
            .record(dur.as_millis().min(u64::MAX as u128) as u64);
    }

    /// Appends every family in Prometheus text format. Counter series
    /// are emitted only once non-zero (the closed label set keeps that
    /// deterministic); histogram families are emitted once any route
    /// recorded, which `/metrics` itself guarantees.
    pub fn render(&self, out: &mut String) {
        out.push_str(
            "# HELP hidisc_serve_requests_by_route_total Requests by canonical route and \
             status class.\n# TYPE hidisc_serve_requests_by_route_total counter\n",
        );
        for (r, route) in Route::ALL.iter().enumerate() {
            for (c, class) in CLASSES.iter().enumerate() {
                let v = self.by_route[r][c].load(Ordering::Relaxed);
                if v > 0 {
                    out.push_str(&format!(
                        "hidisc_serve_requests_by_route_total{{route=\"{}\",class=\"{class}\"}} \
                         {v}\n",
                        route.label()
                    ));
                }
            }
        }
        out.push_str(
            "# HELP hidisc_serve_request_duration_seconds Routing+handler latency per \
             canonical route (socket writes excluded).\n\
             # TYPE hidisc_serve_request_duration_seconds histogram\n",
        );
        {
            let d = self.duration.lock().expect("duration lock");
            for (r, route) in Route::ALL.iter().enumerate() {
                if d[r].total() > 0 {
                    prometheus_histogram(
                        out,
                        "hidisc_serve_request_duration_seconds",
                        &format!("route=\"{}\"", route.label()),
                        &d[r],
                        6,
                    );
                }
            }
        }
        out.push_str(
            "# HELP hidisc_serve_job_phase_seconds Job time by phase: queue_wait \
             (submit to pickup), sim_run (simulation wall), serialize (result \
             publication).\n# TYPE hidisc_serve_job_phase_seconds histogram\n",
        );
        {
            let p = self.phase.lock().expect("phase lock");
            for (i, phase) in JobPhase::ALL.iter().enumerate() {
                if p[i].total() > 0 {
                    prometheus_histogram(
                        out,
                        "hidisc_serve_job_phase_seconds",
                        &format!("phase=\"{}\"", phase.label()),
                        &p[i],
                        6,
                    );
                }
            }
        }
        out.push_str(
            "# HELP hidisc_serve_time_to_first_byte_seconds Connection accept to first \
             response byte.\n# TYPE hidisc_serve_time_to_first_byte_seconds histogram\n",
        );
        {
            let h = self.ttfb.lock().expect("ttfb lock");
            if h.total() > 0 {
                prometheus_histogram(out, "hidisc_serve_time_to_first_byte_seconds", "", &h, 6);
            }
        }
        out.push_str(
            "# HELP hidisc_serve_connection_lifetime_seconds Connection accept to \
             close.\n# TYPE hidisc_serve_connection_lifetime_seconds histogram\n",
        );
        {
            let h = self.lifetime.lock().expect("lifetime lock");
            if h.total() > 0 {
                prometheus_histogram(out, "hidisc_serve_connection_lifetime_seconds", "", &h, 3);
            }
        }
    }
}

fn route_index(route: Route) -> usize {
    route as usize
}

fn micros(dur: Duration) -> u64 {
    dur.as_micros().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_hex_and_distinct() {
        let a = fresh_request_id();
        let b = fresh_request_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16, "{id}");
            assert!(id.bytes().all(|c| c.is_ascii_hexdigit()), "{id}");
            assert!(acceptable_request_id(id), "{id}");
        }
    }

    #[test]
    fn inbound_request_ids_are_sanitized() {
        assert!(acceptable_request_id("client-id_1.2"));
        assert!(!acceptable_request_id(""));
        assert!(!acceptable_request_id("has space"));
        assert!(!acceptable_request_id("crlf\r\ninjection"));
        assert!(!acceptable_request_id("quote\"x"));
        assert!(!acceptable_request_id(&"a".repeat(MAX_REQUEST_ID_LEN + 1)));
    }

    #[test]
    fn routes_classify_paths_canonically() {
        assert_eq!(Route::of("/healthz"), Route::Healthz);
        assert_eq!(Route::of("/v1/run"), Route::Run);
        assert_eq!(Route::of("/v1/jobs/0123abc"), Route::Jobs);
        assert_eq!(Route::of("/v1/sweep"), Route::Sweep);
        assert_eq!(Route::of("/v1/sweeps/0123abc"), Route::Sweep);
        assert_eq!(Route::of("/v1/sweeps/0123abc/render"), Route::Sweep);
        assert_eq!(Route::of("/run"), Route::Other);
        assert_eq!(Route::of("/jobs/0123abc"), Route::Other);
        assert_eq!(Route::of("/nope"), Route::Other);
    }

    #[test]
    fn metrics_render_counts_and_histograms() {
        let m = HttpMetrics::new();
        m.record_request(Route::Run, 202, Duration::from_micros(300));
        m.record_request(Route::Run, 400, Duration::from_micros(100));
        m.record_request(Route::Sweep, 200, Duration::from_micros(250));
        m.record_phase(JobPhase::SimRun, Duration::from_millis(12));
        m.record_ttfb(Duration::from_micros(90));
        m.record_conn_lifetime(Duration::from_millis(700));
        let mut out = String::new();
        m.render(&mut out);
        assert!(
            out.contains("hidisc_serve_requests_by_route_total{route=\"run\",class=\"2xx\"} 1\n"),
            "{out}"
        );
        assert!(
            out.contains("hidisc_serve_requests_by_route_total{route=\"run\",class=\"4xx\"} 1\n"),
            "{out}"
        );
        // Cumulative buckets: both requests land by the 500 µs edge.
        assert!(
            out.contains(
                "hidisc_serve_request_duration_seconds_bucket{route=\"run\",le=\"0.0005\"} 2\n"
            ),
            "{out}"
        );
        assert!(
            out.contains("hidisc_serve_request_duration_seconds_count{route=\"run\"} 2\n"),
            "{out}"
        );
        assert!(
            out.contains("hidisc_serve_job_phase_seconds_bucket{phase=\"sim_run\",le=\"0.015\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("hidisc_serve_connection_lifetime_seconds_sum 0.7\n"),
            "{out}"
        );
        // The live sweep route records RED metrics like any other.
        assert!(
            out.contains("hidisc_serve_requests_by_route_total{route=\"sweep\",class=\"2xx\"} 1\n"),
            "{out}"
        );
        // Untouched routes stay silent; the family headers render once.
        assert!(!out.contains("route=\"shutdown\""), "{out}");
        assert_eq!(
            out.matches("# TYPE hidisc_serve_request_duration_seconds histogram")
                .count(),
            1
        );
    }
}
