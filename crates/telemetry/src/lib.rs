//! Structured telemetry for the HiDISC simulator.
//!
//! Three layers, all optional at run time and free when disabled:
//!
//! 1. **Events** — every interesting micro-architectural moment
//!    ([`EventData`]) is tagged with a [`Category`] and recorded as a
//!    [`TraceEvent`] carrying the simulated cycle and the source lane
//!    (core index, CMP engine, or the machine driver). Emission sites are
//!    guarded by [`Telemetry::on`], a single load + mask-test + branch on
//!    the [`TraceConfig`] category bitmask, so a disabled category costs
//!    one predictable untaken branch.
//! 2. **Interval metrics** — [`IntervalMetrics`] samples machine-level
//!    counters every `metrics_interval` cycles into a ring-buffered
//!    series of [`IntervalSample`]s and feeds fixed-bucket [`Histogram`]s
//!    (miss latency, queue occupancy, MSHR occupancy) with p50/p95/p99
//!    helpers.
//! 3. **Sinks** — recorded events drain into any [`TraceSink`]:
//!    [`StreamingSink`] writes catapult/Perfetto `trace.json` to any
//!    [`std::io::Write`].
//!
//! The hot loop only appends `Copy` structs to a `Vec` (bounded by the
//! configured event cap); all formatting happens outside it, when the
//! run loop drains the buffer via [`Telemetry::drain_into`] — at half the
//! cap and once more at the end — so traces of any length stream in
//! bounded memory.

#![forbid(unsafe_code)]

pub mod log;

use hidisc_isa::Queue;
use std::collections::VecDeque;

/// Hard cap on buffered events; past it events are counted as dropped
/// instead of growing the buffer without bound.
pub const EVENT_CAP: usize = 1 << 20;

/// Ring-buffer capacity of the interval-sample series.
pub const SAMPLE_CAP: usize = 4096;

/// Source lane of events emitted by the CMP prefetch engine.
pub const SOURCE_CMP: u8 = 0xFE;

/// Source lane of events emitted by the machine driver itself
/// (fast-forward jumps).
pub const SOURCE_MACHINE: u8 = 0xFF;

/// Event categories; each is one bit of [`TraceConfig::mask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Core pipeline stages: fetch, dispatch, issue, complete, commit,
    /// mispredicts, LSQ conflicts.
    Pipeline,
    /// Memory hierarchy: demand/prefetch misses, MSHR occupancy,
    /// dirty evictions.
    Mem,
    /// Architectural queue pushes/pops with the resulting depth.
    Queue,
    /// CMP engine thread spawns and retires.
    Cmp,
    /// Machine-level events: idle-cycle fast-forward jumps.
    Machine,
}

impl Category {
    /// Every category, in bit order.
    pub const ALL: [Category; 5] = [
        Category::Pipeline,
        Category::Mem,
        Category::Queue,
        Category::Cmp,
        Category::Machine,
    ];

    /// The category's bit in [`TraceConfig::mask`].
    #[inline]
    pub fn bit(self) -> u8 {
        1 << self as u8
    }

    /// Lowercase name, used as the Chrome-trace `cat` field and by
    /// `--trace-filter`.
    pub fn name(self) -> &'static str {
        match self {
            Category::Pipeline => "pipeline",
            Category::Mem => "mem",
            Category::Queue => "queue",
            Category::Cmp => "cmp",
            Category::Machine => "machine",
        }
    }

    /// Parses a single category name as accepted by `--trace-filter`.
    pub fn parse(s: &str) -> Option<Category> {
        Category::ALL.iter().copied().find(|c| c.name() == s)
    }
}

/// What to record: a category bitmask plus the metrics sampling interval
/// (0 = interval metrics off). `Copy` so it can live inside the machine
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// OR of [`Category::bit`]s to record.
    pub mask: u8,
    /// Sample interval metrics every this many simulated cycles
    /// (0 disables sampling).
    pub metrics_interval: u64,
    /// Buffered-event cap; a streamed run drains the buffer at half of
    /// it, and events past it (only possible when one cycle emits more
    /// than the other half) are counted as dropped. Defaults to
    /// [`EVENT_CAP`].
    pub event_cap: usize,
}

impl TraceConfig {
    /// Everything off — the default; the hot path reduces to untaken
    /// branches.
    pub const OFF: TraceConfig = TraceConfig {
        mask: 0,
        metrics_interval: 0,
        event_cap: EVENT_CAP,
    };

    /// All event categories on (metrics still off unless set).
    pub const ALL_EVENTS: TraceConfig = TraceConfig {
        mask: 0b1_1111,
        metrics_interval: 0,
        event_cap: EVENT_CAP,
    };

    /// Parses a `--trace-filter` list: comma-separated category names, or
    /// `all`. Returns the config with only the mask set.
    pub fn parse_filter(s: &str) -> Result<TraceConfig, String> {
        if s == "all" {
            return Ok(TraceConfig::ALL_EVENTS);
        }
        let mut mask = 0u8;
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let c = Category::parse(part).ok_or_else(|| {
                let names: Vec<&str> = Category::ALL.iter().map(|c| c.name()).collect();
                format!(
                    "unknown trace category `{part}` (use {} or all)",
                    names.join("|")
                )
            })?;
            mask |= c.bit();
        }
        Ok(TraceConfig {
            mask,
            ..TraceConfig::OFF
        })
    }

    /// Returns self with the metrics interval replaced.
    pub fn with_metrics_interval(mut self, interval: u64) -> TraceConfig {
        self.metrics_interval = interval;
        self
    }

    /// Returns self with the event-buffer cap replaced (`cap` is clamped
    /// to at least 1).
    pub fn with_event_cap(mut self, cap: usize) -> TraceConfig {
        self.event_cap = cap.max(1);
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::OFF
    }
}

/// Kind of memory access behind a recorded miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// Demand load.
    Load,
    /// Committed store.
    Store,
    /// CMP or hardware prefetch.
    Prefetch,
}

impl MissKind {
    /// Lowercase name for sinks.
    pub fn name(self) -> &'static str {
        match self {
            MissKind::Load => "load",
            MissKind::Store => "store",
            MissKind::Prefetch => "prefetch",
        }
    }
}

/// Payload of one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventData {
    /// An instruction entered the fetch queue.
    Fetch {
        /// Program counter of the fetched instruction.
        pc: u32,
    },
    /// An instruction was dispatched into the RUU.
    Dispatch {
        /// RUU sequence number assigned at dispatch.
        seq: u64,
        /// Program counter.
        pc: u32,
    },
    /// An instruction began execution.
    Issue {
        /// RUU sequence number.
        seq: u64,
        /// Program counter.
        pc: u32,
        /// Cycle its result becomes available.
        complete_at: u64,
    },
    /// An instruction's result became available.
    Complete {
        /// RUU sequence number.
        seq: u64,
        /// Program counter.
        pc: u32,
    },
    /// An instruction retired in program order.
    Commit {
        /// RUU sequence number.
        seq: u64,
        /// Program counter.
        pc: u32,
    },
    /// A conditional branch (or consume-branch token) redirected fetch.
    Mispredict {
        /// Program counter of the branch.
        pc: u32,
    },
    /// Dispatch stalled on a memory-carried dependence in the LSQ.
    LsqConflict {
        /// Program counter of the blocked load.
        pc: u32,
    },
    /// A cache miss left for the next level; fills at `ready_at`.
    MemMiss {
        /// Block-aligned address.
        addr: u64,
        /// Demand load, store, or prefetch.
        kind: MissKind,
        /// The L2 had the block (miss serviced without DRAM).
        l2_hit: bool,
        /// Cycle the fill completes.
        ready_at: u64,
    },
    /// MSHR file occupancy after an allocation.
    MshrOccupancy {
        /// Outstanding misses.
        n: u32,
    },
    /// A dirty victim was written back on a miss.
    Eviction {
        /// Cache level of the victim (1 or 2).
        level: u8,
    },
    /// A value entered an architectural queue.
    QueuePush {
        /// Which queue.
        q: Queue,
        /// Occupancy after the push.
        depth: u32,
    },
    /// A value left an architectural queue.
    QueuePop {
        /// Which queue.
        q: Queue,
        /// Occupancy after the pop.
        depth: u32,
    },
    /// The CMP engine spawned a prefetch thread.
    CmpSpawn {
        /// CMAS program index.
        cmas: u32,
        /// Live threads after the spawn.
        live: u32,
    },
    /// A CMP prefetch thread ran to completion.
    CmpRetire {
        /// CMAS program index.
        cmas: u32,
        /// Live threads after the retire.
        live: u32,
    },
    /// The machine fast-forwarded over idle cycles.
    FastForward {
        /// Cycles skipped by the jump.
        skipped: u64,
    },
}

impl EventData {
    /// The category this event belongs to.
    #[inline]
    pub fn category(self) -> Category {
        match self {
            EventData::Fetch { .. }
            | EventData::Dispatch { .. }
            | EventData::Issue { .. }
            | EventData::Complete { .. }
            | EventData::Commit { .. }
            | EventData::Mispredict { .. }
            | EventData::LsqConflict { .. } => Category::Pipeline,
            EventData::MemMiss { .. }
            | EventData::MshrOccupancy { .. }
            | EventData::Eviction { .. } => Category::Mem,
            EventData::QueuePush { .. } | EventData::QueuePop { .. } => Category::Queue,
            EventData::CmpSpawn { .. } | EventData::CmpRetire { .. } => Category::Cmp,
            EventData::FastForward { .. } => Category::Machine,
        }
    }

    /// Short event name for sinks.
    pub fn name(self) -> &'static str {
        match self {
            EventData::Fetch { .. } => "fetch",
            EventData::Dispatch { .. } => "dispatch",
            EventData::Issue { .. } => "issue",
            EventData::Complete { .. } => "complete",
            EventData::Commit { .. } => "commit",
            EventData::Mispredict { .. } => "mispredict",
            EventData::LsqConflict { .. } => "lsq-conflict",
            EventData::MemMiss { kind, .. } => match kind {
                MissKind::Load => "miss-load",
                MissKind::Store => "miss-store",
                MissKind::Prefetch => "miss-prefetch",
            },
            EventData::MshrOccupancy { .. } => "mshr",
            EventData::Eviction { .. } => "eviction",
            EventData::QueuePush { .. } => "queue-push",
            EventData::QueuePop { .. } => "queue-pop",
            EventData::CmpSpawn { .. } => "cmp-spawn",
            EventData::CmpRetire { .. } => "cmp-retire",
            EventData::FastForward { .. } => "fast-forward",
        }
    }
}

/// One recorded event: payload plus simulated cycle and source lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Source lane: core index, [`SOURCE_CMP`], or [`SOURCE_MACHINE`].
    pub source: u8,
    /// The payload.
    pub data: EventData,
}

/// One machine-level counter sample, taken every `metrics_interval`
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalSample {
    /// Cycle of the sample.
    pub cycle: u64,
    /// Cumulative instructions committed across all cores.
    pub committed: u64,
    /// Queue occupancy at the sample, in [`Queue::ALL`] order.
    pub queue_depth: [u32; 5],
    /// Outstanding misses in the MSHR file.
    pub mshr: u32,
    /// Live CMP prefetch threads (0 on models without a CMP engine).
    pub live_threads: u32,
}

/// Fixed-width-bucket histogram with an overflow bucket and percentile
/// helpers. Values `v` land in bucket `v / width`; the last bucket
/// collects everything past the range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram of `buckets` regular buckets of `width` plus one
    /// overflow bucket.
    pub fn new(width: u64, buckets: usize) -> Histogram {
        assert!(width > 0 && buckets > 0);
        Histogram {
            width,
            counts: vec![0; buckets + 1],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let overflow = self.counts.len() - 1;
        let b = ((v / self.width) as usize).min(overflow);
        self.counts[b] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of every recorded value (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Bucket width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Raw per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0 < p <= 100): the upper edge of the first
    /// bucket whose cumulative count reaches `ceil(total * p / 100)`,
    /// capped at the observed maximum. 0 when empty; the overflow bucket
    /// reports the maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64 * p / 100.0).ceil() as u64).max(1);
        let mut cum = 0u64;
        let overflow = self.counts.len() - 1;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                if i == overflow {
                    return self.max;
                }
                return ((i as u64 + 1) * self.width - 1).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// The interval-metrics recorder: a ring of [`IntervalSample`]s plus
/// histograms fed by the samples and by per-miss latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalMetrics {
    /// Sampling interval in cycles.
    pub interval: u64,
    samples: VecDeque<IntervalSample>,
    dropped: u64,
    /// Demand-miss fill latency (cycles from access to fill), 8-cycle
    /// buckets.
    pub miss_latency: Histogram,
    /// Occupancy of each architectural queue at sample points, in
    /// [`Queue::ALL`] order, 1-entry buckets.
    pub queue_occupancy: [Histogram; 5],
    /// MSHR occupancy at sample points.
    pub mshr_occupancy: Histogram,
}

impl IntervalMetrics {
    /// An empty recorder sampling every `interval` cycles.
    pub fn new(interval: u64) -> IntervalMetrics {
        let occ = || Histogram::new(1, 64);
        IntervalMetrics {
            interval,
            samples: VecDeque::new(),
            dropped: 0,
            miss_latency: Histogram::new(8, 64),
            queue_occupancy: [occ(), occ(), occ(), occ(), occ()],
            mshr_occupancy: Histogram::new(1, 64),
        }
    }

    /// Appends a sample, dropping the oldest past [`SAMPLE_CAP`], and
    /// feeds the occupancy histograms.
    pub fn record_sample(&mut self, s: IntervalSample) {
        for (h, &d) in self.queue_occupancy.iter_mut().zip(&s.queue_depth) {
            h.record(d as u64);
        }
        self.mshr_occupancy.record(s.mshr as u64);
        if self.samples.len() >= SAMPLE_CAP {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(s);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &IntervalSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The per-machine telemetry recorder. Lives inside the machine; every
/// emission site is guarded by [`Telemetry::on`] so a zero mask keeps
/// the simulator's hot path identical to an untraced build.
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TraceConfig,
    now: u64,
    source: u8,
    events: Vec<TraceEvent>,
    dropped: u64,
    queue_peak: [u32; 5],
    metrics: Option<Box<IntervalMetrics>>,
}

impl Telemetry {
    /// A recorder for `cfg`; allocates nothing when everything is off.
    pub fn new(cfg: TraceConfig) -> Telemetry {
        Telemetry {
            cfg,
            now: 0,
            source: 0,
            events: Vec::new(),
            dropped: 0,
            queue_peak: [0; 5],
            metrics: (cfg.metrics_interval > 0)
                .then(|| Box::new(IntervalMetrics::new(cfg.metrics_interval))),
        }
    }

    /// The all-off recorder (for tests and plumbing defaults).
    pub fn disabled() -> Telemetry {
        Telemetry::new(TraceConfig::OFF)
    }

    /// True when `cat` is being recorded — the hot-path guard; a single
    /// mask test.
    #[inline(always)]
    pub fn on(&self, cat: Category) -> bool {
        self.cfg.mask & cat.bit() != 0
    }

    /// The metrics sampling interval (0 = off).
    #[inline]
    pub fn metrics_interval(&self) -> u64 {
        self.cfg.metrics_interval
    }

    /// The active configuration.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Sets the simulated cycle stamped on subsequent events.
    #[inline(always)]
    pub fn set_clock(&mut self, now: u64) {
        self.now = now;
    }

    /// Sets the source lane stamped on subsequent events.
    #[inline(always)]
    pub fn set_source(&mut self, source: u8) {
        self.source = source;
    }

    /// Records one event at the current clock and source. Callers guard
    /// with [`Telemetry::on`]; this method assumes the category is
    /// enabled.
    pub fn emit(&mut self, data: EventData) {
        match data {
            EventData::QueuePush { q, depth } | EventData::QueuePop { q, depth } => {
                let p = &mut self.queue_peak[q.index()];
                if depth > *p {
                    *p = depth;
                }
            }
            _ => {}
        }
        if self.events.len() >= self.cfg.event_cap {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            cycle: self.now,
            source: self.source,
            data,
        });
    }

    /// Feeds one demand-miss fill latency into the metrics histogram (a
    /// no-op when metrics are off).
    #[inline]
    pub fn record_miss_latency(&mut self, latency: u64) {
        if let Some(m) = &mut self.metrics {
            m.miss_latency.record(latency);
        }
    }

    /// Appends one interval sample (a no-op when metrics are off).
    pub fn record_sample(&mut self, s: IntervalSample) {
        if let Some(m) = &mut self.metrics {
            m.record_sample(s);
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events discarded past [`EVENT_CAP`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-queue occupancy high-water marks observed via queue events
    /// (in [`Queue::ALL`] order). Tracked even when the event buffer
    /// saturates, so diagnostics stay exact on long runs; all zero
    /// unless [`Category::Queue`] is enabled.
    pub fn queue_peaks(&self) -> [u32; 5] {
        self.queue_peak
    }

    /// The interval metrics, when enabled.
    pub fn metrics(&self) -> Option<&IntervalMetrics> {
        self.metrics.as_deref()
    }

    /// Replays every buffered event into `sink` and clears the buffer so
    /// recording can continue without hitting the cap. Drop and peak
    /// counters are preserved. Returns the number of events flushed.
    pub fn drain_into(&mut self, sink: &mut dyn TraceSink) -> usize {
        for e in &self.events {
            sink.event(e);
        }
        let n = self.events.len();
        self.events.clear();
        n
    }
}

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes and `\n`/`\r`/`\t` get their short escapes, every other
/// control character a `\u00XX` escape.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Consumer of recorded trace events.
pub trait TraceSink {
    /// Receives one event; events arrive in emission order.
    fn event(&mut self, e: &TraceEvent);
}

// ---------------------------------------------------------------------
// Chrome-trace sink
// ---------------------------------------------------------------------

/// Writes the catapult/Perfetto Chrome trace event format (the JSON
/// object form `{"traceEvents": [...]}`) on the fly to any
/// [`std::io::Write`] target, mapping one simulated cycle to one
/// microsecond of trace time. Lanes (`tid`) are: one per core, then
/// `mem`, `cmp`, and `machine`. Load into <https://ui.perfetto.dev>.
///
/// The first I/O error is latched and subsequent output is discarded;
/// [`StreamingSink::finish`] reports it.
pub struct StreamingSink<W: std::io::Write> {
    w: W,
    err: Option<std::io::Error>,
    any: bool,
    core_lanes: u32,
    counts: [u64; 5],
}

impl<W: std::io::Write> StreamingSink<W> {
    /// A sink writing the document preamble (JSON shell plus
    /// process/thread-name metadata records) to `w` immediately, with one
    /// named lane per core plus the fixed `mem`/`cmp`/`machine` lanes.
    /// Wrap files in a [`std::io::BufWriter`]; records are small.
    pub fn new(w: W, core_names: &[&str]) -> StreamingSink<W> {
        let mut sink = StreamingSink {
            w,
            err: None,
            any: false,
            core_lanes: core_names.len() as u32,
            counts: [0; 5],
        };
        sink.put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        sink.raw(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"hidisc\"}}",
        );
        let n = sink.core_lanes;
        for (i, name) in core_names.iter().enumerate() {
            sink.thread_name(i as u32, name);
        }
        sink.thread_name(n, "mem");
        sink.thread_name(n + 1, "cmp");
        sink.thread_name(n + 2, "machine");
        sink
    }

    /// Events received so far per category, in [`Category::ALL`] order.
    pub fn counts(&self) -> [u64; 5] {
        self.counts
    }

    /// Writes the document tail — closes the event array, embeds the
    /// interval metrics (when given) as a `hidiscMetrics` side table and
    /// closes the JSON object — flushes, and returns the writer, or the
    /// first I/O error hit at any point of the stream.
    pub fn finish(mut self, metrics: Option<&IntervalMetrics>) -> std::io::Result<W> {
        self.put("\n]");
        if let Some(m) = metrics {
            self.put(",\n\"hidiscMetrics\":");
            self.put(&metrics_json(m));
        }
        self.put("\n}\n");
        match self.err {
            Some(e) => Err(e),
            None => {
                self.w.flush()?;
                Ok(self.w)
            }
        }
    }

    /// Writes `s` unless an earlier write failed.
    fn put(&mut self, s: &str) {
        if self.err.is_none() {
            self.err = self.w.write_all(s.as_bytes()).err();
        }
    }

    fn thread_name(&mut self, tid: u32, name: &str) {
        self.raw(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    fn raw(&mut self, json: &str) {
        if self.any {
            self.put(",");
        }
        self.put("\n");
        self.put(json);
        self.any = true;
    }

    fn lane(&self, e: &TraceEvent) -> u32 {
        if e.data.category() == Category::Mem {
            return self.core_lanes;
        }
        match e.source {
            SOURCE_CMP => self.core_lanes + 1,
            SOURCE_MACHINE => self.core_lanes + 2,
            s => (s as u32).min(self.core_lanes.saturating_sub(1)),
        }
    }

    fn instant(&mut self, e: &TraceEvent, name: &str, args: String) {
        let tid = self.lane(e);
        let cat = e.data.category().name();
        self.raw(&format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"cat\":\"{cat}\",\"name\":\"{name}\",\"args\":{{{args}}}}}",
            e.cycle
        ));
    }

    fn complete(&mut self, e: &TraceEvent, name: &str, dur: u64, args: String) {
        let tid = self.lane(e);
        let cat = e.data.category().name();
        self.raw(&format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
             \"cat\":\"{cat}\",\"name\":\"{name}\",\"args\":{{{args}}}}}",
            e.cycle,
            dur.max(1)
        ));
    }

    fn counter(&mut self, e: &TraceEvent, name: &str, series: &str, value: u64) {
        let cat = e.data.category().name();
        self.raw(&format!(
            "{{\"ph\":\"C\",\"pid\":1,\"ts\":{},\"cat\":\"{cat}\",\
             \"name\":\"{name}\",\"args\":{{\"{series}\":{value}}}}}",
            e.cycle
        ));
    }
}

impl<W: std::io::Write> TraceSink for StreamingSink<W> {
    /// Emits the record(s) for one trace event.
    fn event(&mut self, e: &TraceEvent) {
        self.counts[e.data.category() as usize] += 1;
        if self.err.is_some() {
            return;
        }
        match e.data {
            EventData::Fetch { pc } => self.instant(e, "fetch", format!("\"pc\":{pc}")),
            EventData::Dispatch { seq, pc } => {
                self.instant(e, "dispatch", format!("\"pc\":{pc},\"seq\":{seq}"))
            }
            EventData::Issue {
                seq,
                pc,
                complete_at,
            } => self.complete(
                e,
                "issue",
                complete_at.saturating_sub(e.cycle),
                format!("\"pc\":{pc},\"seq\":{seq}"),
            ),
            EventData::Complete { seq, pc } => {
                self.instant(e, "complete", format!("\"pc\":{pc},\"seq\":{seq}"))
            }
            EventData::Commit { seq, pc } => {
                self.instant(e, "commit", format!("\"pc\":{pc},\"seq\":{seq}"))
            }
            EventData::Mispredict { pc } => self.instant(e, "mispredict", format!("\"pc\":{pc}")),
            EventData::LsqConflict { pc } => {
                self.instant(e, "lsq-conflict", format!("\"pc\":{pc}"))
            }
            EventData::MemMiss {
                addr,
                kind,
                l2_hit,
                ready_at,
            } => self.complete(
                e,
                e.data.name(),
                ready_at.saturating_sub(e.cycle),
                format!(
                    "\"addr\":{addr},\"kind\":\"{}\",\"l2Hit\":{l2_hit}",
                    kind.name()
                ),
            ),
            EventData::MshrOccupancy { n } => self.counter(e, "mshr", "outstanding", n as u64),
            EventData::Eviction { level } => {
                self.instant(e, "eviction", format!("\"level\":{level}"))
            }
            EventData::QueuePush { q, depth } | EventData::QueuePop { q, depth } => {
                self.counter(e, q.name(), "depth", depth as u64)
            }
            EventData::CmpSpawn { cmas, live } => {
                self.instant(e, "cmp-spawn", format!("\"cmas\":{cmas}"));
                self.counter(e, "cmp-live", "threads", live as u64);
            }
            EventData::CmpRetire { cmas, live } => {
                self.instant(e, "cmp-retire", format!("\"cmas\":{cmas}"));
                self.counter(e, "cmp-live", "threads", live as u64);
            }
            EventData::FastForward { skipped } => {
                self.complete(e, "fast-forward", skipped, format!("\"skipped\":{skipped}"))
            }
        }
    }
}

fn histogram_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        h.total(),
        h.max(),
        h.p50(),
        h.p95(),
        h.p99()
    )
}

/// The interval metrics as a self-contained JSON object (used both by
/// the Chrome sink's side table and by reports).
pub fn metrics_json(m: &IntervalMetrics) -> String {
    let mut s = String::from("{");
    s.push_str(&format!(
        "\"interval\":{},\"samples\":{},\"droppedSamples\":{},",
        m.interval,
        m.len(),
        m.dropped()
    ));
    s.push_str(&format!(
        "\"missLatency\":{},",
        histogram_json(&m.miss_latency)
    ));
    s.push_str("\"queueOccupancy\":{");
    for (i, q) in Queue::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\"{}\":{}",
            q.name(),
            histogram_json(&m.queue_occupancy[i])
        ));
    }
    s.push_str("},");
    s.push_str(&format!(
        "\"mshrOccupancy\":{},",
        histogram_json(&m.mshr_occupancy)
    ));
    s.push_str("\"series\":[");
    for (i, smp) in m.samples().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"cycle\":{},\"committed\":{},\"queues\":[{},{},{},{},{}],\
             \"mshr\":{},\"liveThreads\":{}}}",
            smp.cycle,
            smp.committed,
            smp.queue_depth[0],
            smp.queue_depth[1],
            smp.queue_depth[2],
            smp.queue_depth[3],
            smp.queue_depth[4],
            smp.mshr,
            smp.live_threads
        ));
    }
    s.push_str("]}");
    s
}

fn histogram_prometheus(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (stat, v) in [
        ("count", h.total()),
        ("max", h.max()),
        ("p50", h.p50()),
        ("p95", h.p95()),
        ("p99", h.p99()),
    ] {
        out.push_str(&format!("{name}{{{labels}{sep}stat=\"{stat}\"}} {v}\n"));
    }
}

/// Formats `v * 10^-shift` as an exact decimal (no float round-trip), so
/// bucket edges like `0.0005` render deterministically.
fn scaled_decimal(v: u64, shift: u32) -> String {
    let pow = 10u64.pow(shift);
    let whole = v / pow;
    let frac = v % pow;
    if frac == 0 {
        return format!("{whole}");
    }
    let frac = format!("{frac:0width$}", width = shift as usize);
    format!("{whole}.{}", frac.trim_end_matches('0'))
}

/// Renders `h` as one member of a **real** Prometheus histogram family:
/// cumulative `{name}_bucket{{le="…"}}` lines (the overflow bucket as
/// `le="+Inf"`, whose count equals `_count`), then `{name}_sum` and
/// `{name}_count`. The caller owns the `# HELP`/`# TYPE … histogram`
/// header, emitted once per family.
///
/// Recorded values are integers in `10^-decimal_shift` of the exposed
/// unit — e.g. a histogram recording microseconds exposed as seconds
/// passes `decimal_shift = 6` — so edges and sums are exact decimals.
pub fn prometheus_histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    h: &Histogram,
    decimal_shift: u32,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    let counts = h.bucket_counts();
    let regular = counts.len() - 1;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().take(regular).enumerate() {
        cum += c;
        let le = scaled_decimal((i as u64 + 1) * h.width(), decimal_shift);
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}\n"
        ));
    }
    cum += counts[regular];
    out.push_str(&format!(
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}\n"
    ));
    let braces = |s: &str| {
        if s.is_empty() {
            String::new()
        } else {
            format!("{{{s}}}")
        }
    };
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        braces(labels),
        scaled_decimal(h.sum(), decimal_shift)
    ));
    out.push_str(&format!("{name}_count{} {}\n", braces(labels), h.total()));
}

/// Renders the interval metrics in the Prometheus text exposition format
/// (one gauge per histogram statistic), for `GET /metrics`-style
/// endpoints.
pub fn metrics_prometheus(m: &IntervalMetrics) -> String {
    let mut s = String::new();
    let header = |s: &mut String, name: &str, help: &str| {
        s.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
    };
    header(
        &mut s,
        "hidisc_metrics_interval_cycles",
        "Interval-metrics sampling period of the latest run, in cycles.",
    );
    s.push_str(&format!("hidisc_metrics_interval_cycles {}\n", m.interval));
    header(
        &mut s,
        "hidisc_metrics_samples",
        "Interval samples buffered by the latest run.",
    );
    s.push_str(&format!("hidisc_metrics_samples {}\n", m.len()));
    header(
        &mut s,
        "hidisc_metrics_dropped_samples",
        "Interval samples dropped past the ring-buffer cap.",
    );
    s.push_str(&format!("hidisc_metrics_dropped_samples {}\n", m.dropped()));
    header(
        &mut s,
        "hidisc_miss_latency_cycles",
        "Demand-miss fill latency of the latest run (per-statistic gauges).",
    );
    histogram_prometheus(&mut s, "hidisc_miss_latency_cycles", "", &m.miss_latency);
    header(
        &mut s,
        "hidisc_queue_occupancy",
        "Architectural-queue occupancy at sample points (per-statistic gauges).",
    );
    for (i, q) in Queue::ALL.iter().enumerate() {
        histogram_prometheus(
            &mut s,
            "hidisc_queue_occupancy",
            &format!("queue=\"{}\"", q.name()),
            &m.queue_occupancy[i],
        );
    }
    header(
        &mut s,
        "hidisc_mshr_occupancy",
        "MSHR occupancy at sample points (per-statistic gauges).",
    );
    histogram_prometheus(&mut s, "hidisc_mshr_occupancy", "", &m.mshr_occupancy);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceSink for Vec<TraceEvent> {
        fn event(&mut self, e: &TraceEvent) {
            self.push(*e);
        }
    }

    #[test]
    fn category_bits_are_distinct() {
        let mut seen = 0u8;
        for c in Category::ALL {
            assert_eq!(seen & c.bit(), 0);
            seen |= c.bit();
            assert_eq!(Category::parse(c.name()), Some(c));
        }
        assert_eq!(seen, TraceConfig::ALL_EVENTS.mask);
    }

    #[test]
    fn filter_parsing() {
        assert_eq!(TraceConfig::parse_filter("all").unwrap().mask, 0b1_1111);
        let c = TraceConfig::parse_filter("pipeline,queue").unwrap();
        assert_eq!(c.mask, Category::Pipeline.bit() | Category::Queue.bit());
        assert_eq!(c.metrics_interval, 0);
        assert!(TraceConfig::parse_filter("pipeline,bogus").is_err());
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Telemetry::disabled();
        assert!(!t.on(Category::Pipeline));
        t.record_miss_latency(100);
        t.record_sample(IntervalSample {
            cycle: 0,
            committed: 0,
            queue_depth: [0; 5],
            mshr: 0,
            live_threads: 0,
        });
        assert!(t.events().is_empty());
        assert!(t.metrics().is_none());
    }

    #[test]
    fn emit_stamps_clock_and_source() {
        let mut t = Telemetry::new(TraceConfig::ALL_EVENTS);
        t.set_clock(42);
        t.set_source(1);
        t.emit(EventData::Fetch { pc: 7 });
        assert_eq!(
            t.events(),
            &[TraceEvent {
                cycle: 42,
                source: 1,
                data: EventData::Fetch { pc: 7 }
            }]
        );
    }

    #[test]
    fn queue_peaks_survive_event_cap() {
        let mut t = Telemetry::new(TraceConfig::ALL_EVENTS);
        for depth in 1..=10u32 {
            t.emit(EventData::QueuePush {
                q: Queue::Ldq,
                depth,
            });
        }
        t.emit(EventData::QueuePop {
            q: Queue::Ldq,
            depth: 9,
        });
        assert_eq!(t.queue_peaks(), [10, 0, 0, 0, 0]);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(1, 128);
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.p50(), 50);
        assert_eq!(h.p95(), 95);
        assert_eq!(h.p99(), 99);
        assert_eq!(h.percentile(100.0), 100);
        assert_eq!(h.total(), 100);
        assert_eq!(Histogram::new(4, 8).p50(), 0);
    }

    #[test]
    fn histogram_overflow_reports_max() {
        let mut h = Histogram::new(2, 4);
        h.record(1000);
        h.record(2000);
        assert_eq!(h.p99(), 2000);
        assert_eq!(h.max(), 2000);
        assert_eq!(h.sum(), 3000);
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_exact_edges() {
        // Microsecond buckets of 500 µs exposed as seconds.
        let mut h = Histogram::new(500, 3);
        for v in [100, 600, 700, 10_000_000] {
            h.record(v);
        }
        let mut out = String::new();
        prometheus_histogram(&mut out, "d_seconds", "route=\"run\"", &h, 6);
        assert_eq!(
            out,
            "d_seconds_bucket{route=\"run\",le=\"0.0005\"} 1\n\
             d_seconds_bucket{route=\"run\",le=\"0.001\"} 3\n\
             d_seconds_bucket{route=\"run\",le=\"0.0015\"} 3\n\
             d_seconds_bucket{route=\"run\",le=\"+Inf\"} 4\n\
             d_seconds_sum{route=\"run\"} 10.0014\n\
             d_seconds_count{route=\"run\"} 4\n"
        );
        // Unlabeled members drop the braces entirely.
        let mut bare = String::new();
        prometheus_histogram(&mut bare, "d_seconds", "", &h, 6);
        assert!(
            bare.contains("d_seconds_bucket{le=\"0.0005\"} 1\n"),
            "{bare}"
        );
        assert!(bare.contains("d_seconds_sum 10.0014\n"), "{bare}");
        assert!(bare.contains("d_seconds_count 4\n"), "{bare}");
    }

    #[test]
    fn sample_ring_is_bounded() {
        let mut m = IntervalMetrics::new(10);
        for i in 0..(SAMPLE_CAP as u64 + 5) {
            m.record_sample(IntervalSample {
                cycle: i * 10,
                committed: i,
                queue_depth: [0; 5],
                mshr: 0,
                live_threads: 0,
            });
        }
        assert_eq!(m.len(), SAMPLE_CAP);
        assert_eq!(m.dropped(), 5);
        assert_eq!(m.samples().next().unwrap().cycle, 50);
    }

    #[test]
    fn chrome_sink_emits_wellformed_json_shell() {
        let mut t = Telemetry::new(TraceConfig::ALL_EVENTS.with_metrics_interval(10));
        t.set_clock(5);
        t.emit(EventData::Issue {
            seq: 1,
            pc: 2,
            complete_at: 9,
        });
        t.emit(EventData::QueuePush {
            q: Queue::Cq,
            depth: 3,
        });
        t.record_sample(IntervalSample {
            cycle: 10,
            committed: 4,
            queue_depth: [1, 0, 0, 3, 0],
            mshr: 2,
            live_threads: 0,
        });
        let mut sink = StreamingSink::new(Vec::new(), &["CP", "AP"]);
        t.drain_into(&mut sink);
        let mut counts = [0; 5];
        counts[Category::Pipeline as usize] = 1;
        counts[Category::Queue as usize] = 1;
        assert_eq!(sink.counts(), counts);
        let json = String::from_utf8(sink.finish(t.metrics()).unwrap()).unwrap();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"cat\":\"pipeline\""));
        assert!(json.contains("\"cat\":\"queue\""));
        assert!(json.contains("\"hidiscMetrics\":"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn small_event_cap_forces_counted_drops() {
        let mut t = Telemetry::new(TraceConfig::ALL_EVENTS.with_event_cap(3));
        for i in 0..8 {
            t.emit(EventData::Fetch { pc: i });
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 5);
    }

    #[test]
    fn drain_into_clears_buffer_and_counts_flushed() {
        let mut t = Telemetry::new(TraceConfig::ALL_EVENTS.with_event_cap(4));
        for i in 0..4 {
            t.emit(EventData::Fetch { pc: i });
        }
        let mut sink: Vec<TraceEvent> = Vec::new();
        assert_eq!(t.drain_into(&mut sink), 4);
        assert!(t.events().is_empty());
        for i in 4..6 {
            t.emit(EventData::Fetch { pc: i });
        }
        assert_eq!(t.drain_into(&mut sink), 2);
        assert_eq!(sink.len(), 6);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn prometheus_rendering_smoke() {
        let mut m = IntervalMetrics::new(100);
        m.miss_latency.record(40);
        m.record_sample(IntervalSample {
            cycle: 100,
            committed: 10,
            queue_depth: [2, 0, 0, 1, 0],
            mshr: 1,
            live_threads: 0,
        });
        let text = metrics_prometheus(&m);
        assert!(text.contains("hidisc_metrics_interval_cycles 100\n"));
        assert!(text.contains("hidisc_miss_latency_cycles{stat=\"count\"} 1\n"));
        assert!(text.contains("hidisc_queue_occupancy{queue=\"LDQ\",stat=\"max\"} 2\n"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains(' '),
                "bad line: {line}"
            );
        }
    }
}
