//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer of the program: name, start, end, parent span and the run or
//! request they belong to. They stay in memory until the run ends, then
//! are written out as JSON lines and summarised as per-layer self time.
//! With tracing off, [`Tracer::span`] only calls through.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Charged per span for its two clock reads, which cannot time
/// themselves (a vDSO `clock_gettime` is ~20-50 ns on x86-64).
const CLOCK_READS_NS: u64 = 100;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// `<layer>.<what>`, e.g. `core.sim`; the layer is the part before
    /// the first dot.
    pub name: &'static str,
    /// The grid repetition or client request this span belongs to.
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent recording (clock reads and buffer pushes).
    cost_ns: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span. `f` receives the span's id (0 when tracing
    /// is off) so it can parent spans of its own.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        run: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            name,
            run,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Reserves a span id ahead of [`Tracer::record_as`], so children
    /// recorded first can name their parent.
    pub fn reserve(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records an interval timed elsewhere (a client exchange whose end
    /// is observed on a later loop turn).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        run: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record_as(id, name, parent, run, start, end);
    }

    /// [`Tracer::record`] under an id from [`Tracer::reserve`].
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        run: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        self.push(Span {
            id,
            parent,
            name,
            run,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    fn push(&self, s: Span) {
        let t0 = Instant::now();
        self.spans.lock().expect("span buffer").push(s);
        let spent = t0.elapsed().as_nanos() as u64 + CLOCK_READS_NS;
        self.cost_ns.fetch_add(spent, Ordering::Relaxed);
    }

    /// Time spent recording spans, in seconds.
    pub fn cost_s(&self) -> f64 {
        self.cost_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans.lock().expect("span buffer").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.run,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children running in parallel on other
/// threads overlap each other; the overlap is counted once.
pub fn self_ns(spans: &[Span]) -> Vec<(usize, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |k| covered(s.start_ns, s.end_ns, k));
            (i, s.dur_ns() - kids)
        })
        .collect()
}

/// Self time summed per layer, in seconds, leaving out the `grouping`
/// spans (a grid, a pool phase, a job's wrapper): their self time is
/// pool idle or time that no layer span covers, not a layer's work.
pub fn self_by_layer(spans: &[Span], grouping: &[&str]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (i, ns) in self_ns(spans) {
        if !grouping.contains(&spans[i].name) {
            *out.entry(spans[i].layer()).or_insert(0.0) += ns as f64 / 1e9;
        }
    }
    out
}

/// Idle worker time of the pool phases named in `phases`, in seconds:
/// Σ (threads × phase wall − Σ the phase's child spans).
pub fn pool_idle_s(spans: &[Span], phases: &[&str], threads: usize) -> f64 {
    spans
        .iter()
        .filter(|p| phases.contains(&p.name))
        .map(|p| {
            let busy: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(p.id))
                .map(Span::dur_ns)
                .sum();
            (threads as f64 * p.dur_ns() as f64 - busy as f64) / 1e9
        })
        .sum()
}

/// Total duration of the spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            run: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Root [0,100); two workers' children [10,60) and [30,80) overlap
        // on [30,60), and a grandchild [40,50) sits inside the second.
        let spans = vec![
            span(1, None, "bench.grid", 0, 100),
            span(2, Some(1), "core.sim", 10, 60),
            span(3, Some(1), "core.sim", 30, 80),
            span(4, Some(3), "mem.x", 40, 50),
        ];
        let st: Vec<u64> = self_ns(&spans).into_iter().map(|(_, ns)| ns).collect();
        // Root: 100 - |[10,80)| = 30, not 100 - 50 - 50 = 0.
        assert_eq!(st, vec![30, 50, 40, 10]);
        let by = self_by_layer(&spans, &[]);
        assert!((by["bench"] - 30e-9).abs() < 1e-15);
        assert!((by["core"] - 90e-9).abs() < 1e-15);
        assert!((by["mem"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn uncovered_time_is_not_accounted() {
        // A one-thread grid [0,100): a pool phase [10,90) whose only cell
        // runs [10,80), then a render [90,95). The grid's [0,10) and
        // [95,100) are covered by no span; the pool sits idle on [80,90).
        let spans = vec![
            span(1, None, "bench.grid", 0, 100),
            span(2, Some(1), "bench.pool_sim", 10, 90),
            span(3, Some(2), "core.sim", 10, 80),
            span(4, Some(1), "bench.render", 90, 95),
        ];
        let grouping = ["bench.grid", "bench.pool_sim"];
        let by = self_by_layer(&spans, &grouping);
        assert!((by["core"] - 70e-9).abs() < 1e-15);
        assert!((by["bench"] - 5e-9).abs() < 1e-15);
        let idle = pool_idle_s(&spans, &grouping[1..], 1);
        assert!((idle - 10e-9).abs() < 1e-15);
        // 85 of the grid's 100 ns are accounted for; with every span's
        // self time counted, the gaps would hide in the grid's own.
        let layers: f64 = by.values().sum();
        assert!(((layers + idle) / 100e-9 - 0.85).abs() < 1e-9);
        let all: f64 = self_by_layer(&spans, &[]).values().sum();
        assert!((all / 100e-9 - 1.0).abs() < 1e-9);
        // Two threads: the phase offers 160 ns, the cell uses 70.
        assert!((pool_idle_s(&spans, &grouping[1..], 2) - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(1, None, "serve.req", 10, 20),
            span(2, Some(1), "client.wait", 0, 15),
            span(3, Some(1), "client.wait", 18, 40),
        ];
        assert_eq!(self_ns(&spans)[0].1, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.sim", None, 0, |id| id + 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let inner = t.span("bench.grid", None, 3, |id| {
            t.span("core.sim", Some(id), 3, |_| id)
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(inner));
        assert_eq!(spans[0].layer(), "core");
    }
}
