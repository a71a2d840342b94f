//! The out-of-order core pipeline.
//!
//! See the crate docs for the model summary. The per-cycle stage order is
//! harvest → mispredict resolution → commit → store-data pump → issue →
//! dispatch → fetch, so an instruction needs at least one cycle per stage
//! and results become visible to dependents the cycle after they complete.
//! Commit, issue and dispatch each return a small record of what they did
//! and why they stopped; `account` turns a cycle's records into the
//! statistics, for detailed and warm cycles alike.
//!
//! The fetch queue and the RUU carry a pc, not an instruction: the core
//! decodes its program once, at construction, into a per-pc table
//! (`decode.rs`) that fetch, dispatch, issue and commit read.
//! Functional execution and the LSQ entry read the instruction from the
//! program by pc.

use crate::config::{CoreConfig, Scheduler};
use crate::decode::{
    decode, Decoded, CBRANCH, COND_BRANCH, HALT, JUMP, LOAD, MEM, NO_REG, PREFETCH, PUSH_CQ,
    RENAME_SLOTS, SCQ_GET, STORE, TRIGGER, UNSUPPORTED,
};
use crate::fu::FuPool;
use crate::lsq::{LoadCheck, Lsq, LsqEntry};
use crate::predictor::Bimodal;
use crate::queues::QueueFile;
use crate::ruu::{slot_bit, EntryState, Ruu, Wakeup, SLOTS};
use crate::stats::CoreStats;
use hidisc_isa::counters::Counters;
use hidisc_isa::instr::{FuClass, Width};
use hidisc_isa::interp::{
    exec_reg_op, step_at, MemKind, PopResult, PushResult, QueueEnv, RegFile, Step,
};
use hidisc_isa::mem::Memory;
use hidisc_isa::{Instr, IsaError, Program, Queue, Result};
use hidisc_mem::{AccessKind, MemSystem, StridePrefetcher};
use hidisc_telemetry::{Category, EventData, Telemetry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets of the completion wheel: a completion due fewer than this
/// many cycles after the next harvest sits in a bucket, a later one in
/// the wheel's overflow heap. Table 1 and Figure 10 put every latency
/// under it (at most `agen + l1 + l2 + mem = 1 + 1 + 16 + 160`).
const WHEEL: u64 = 256;

/// Issued entries keyed by completion cycle, for the ready-list
/// scheduler: a timing wheel of window-slot masks (bucket `t % 256` holds
/// the entries due at `t`) covering `[base, base + 256)`, and a
/// `(complete_at, seq)` min-heap for completions beyond that horizon.
/// Every bucket entry is due before every overflow entry.
#[derive(Debug, Clone)]
struct Wheel {
    buckets: [u64; WHEEL as usize],
    /// Bit `b` is set exactly when `buckets[b]` is non-zero.
    nonempty: [u64; (WHEEL / 64) as usize],
    /// The first cycle the wheel covers: one after the last harvest.
    base: u64,
    overflow: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Wheel {
    /// An empty wheel whose first harvest is at cycle `base`.
    fn new(base: u64) -> Wheel {
        Wheel {
            buckets: [0; WHEEL as usize],
            nonempty: [0; (WHEEL / 64) as usize],
            base,
            overflow: BinaryHeap::new(),
        }
    }

    /// Schedules `seq` to complete at cycle `t`, which is at or after the
    /// next harvest.
    fn insert(&mut self, t: u64, seq: u64) {
        debug_assert!(
            t >= self.base,
            "completion {t} before the wheel's base {}",
            self.base
        );
        if t - self.base < WHEEL {
            self.set(t, slot_bit(seq));
        } else {
            self.overflow.push(Reverse((t, seq)));
        }
    }

    fn set(&mut self, t: u64, mask: u64) {
        let b = (t % WHEEL) as usize;
        self.buckets[b] |= mask;
        self.nonempty[b / 64] |= 1 << (b % 64);
    }

    /// The earliest cycle in `[from, base + 256)` with a bucket entry.
    fn first_from(&self, from: u64) -> Option<u64> {
        let end = self.base + WHEEL;
        let mut t = from;
        // At most five words: the rest of the starting word, the other
        // three, and the start of the first again.
        while t < end {
            let b = (t % WHEEL) as usize;
            let word = self.nonempty[b / 64] >> (b % 64);
            if word != 0 {
                let hit = t + word.trailing_zeros() as u64;
                return (hit < end).then_some(hit);
            }
            t += 64 - (b % 64) as u64;
        }
        None
    }

    /// Removes the earliest completions due at or before `now`: their
    /// cycle and slot mask.
    fn pop_due(&mut self, now: u64) -> Option<(u64, u64)> {
        loop {
            if let Some(t) = self.first_from(self.base) {
                if t > now {
                    return None;
                }
                let b = (t % WHEEL) as usize;
                let mask = std::mem::take(&mut self.buckets[b]);
                self.nonempty[b / 64] &= !(1 << (b % 64));
                self.advance(t + 1);
                return Some((t, mask));
            }
            // Only the overflow is left: move the wheel up to its head.
            let &Reverse((t, _)) = self.overflow.peek()?;
            if t > now {
                return None;
            }
            self.advance(t);
        }
    }

    /// Moves `base` up to `to` (no bucket entry is due before it) and
    /// pulls the overflow completions now inside the horizon into
    /// buckets.
    fn advance(&mut self, to: u64) {
        self.base = to;
        while let Some(&Reverse((t, seq))) = self.overflow.peek() {
            if t >= to + WHEEL {
                break;
            }
            self.overflow.pop();
            self.set(t, slot_bit(seq));
        }
    }

    /// The earliest completion strictly after `now`. Exact for any `now`
    /// before `base + 255`, which covers the machine's query right after
    /// a core steps (`now = base - 1`).
    fn next_after(&self, now: u64) -> Option<u64> {
        self.first_from(self.base.max(now + 1)).or_else(|| {
            self.overflow
                .peek()
                .map(|&Reverse((t, _))| t)
                .filter(|&t| t > now)
        })
    }
}

/// A CMAS fork event produced when the Access Processor commits a trigger
/// instruction: the CMP spawns a thread with this register context.
#[derive(Debug, Clone)]
pub struct TriggerFork {
    /// CMAS id from the trigger annotation.
    pub cmas: u32,
    /// Snapshot of the forking core's register file.
    pub regs: RegFile,
}

/// Shared machine resources handed to the core each cycle.
pub struct CoreCtx<'a> {
    /// The (shared) memory-hierarchy timing model.
    pub mem_sys: &'a mut MemSystem,
    /// The architectural queues.
    pub queues: &'a mut QueueFile,
    /// Architectural data memory.
    pub data: &'a mut Memory,
    /// Sink for CMAS trigger forks fired at commit.
    pub triggers: &'a mut Vec<TriggerFork>,
    /// Telemetry recorder; a disabled recorder reduces every emission to
    /// one untaken branch.
    pub trace: &'a mut Telemetry,
}

impl CoreCtx<'_> {
    /// [`QueueFile::try_pop`] plus a [`EventData::QueuePop`] event (with
    /// the remaining depth) when the pop succeeds.
    pub fn pop_queue(&mut self, q: Queue) -> Option<u64> {
        let v = self.queues.try_pop(q);
        if v.is_some() && self.trace.on(Category::Queue) {
            self.trace.emit(EventData::QueuePop {
                q,
                depth: self.queues.len(q) as u32,
            });
        }
        v
    }

    /// [`QueueFile::try_push`] plus a [`EventData::QueuePush`] event
    /// (with the resulting depth) when the push succeeds.
    pub fn push_queue(&mut self, q: Queue, v: u64) -> bool {
        let ok = self.queues.try_push(q, v);
        if ok && self.trace.on(Category::Queue) {
            self.trace.emit(EventData::QueuePush {
                q,
                depth: self.queues.len(q) as u32,
            });
        }
        ok
    }
}

/// A fetched instruction: its pc (the decoded table and the program say
/// the rest) and the direction predicted for it at fetch.
#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: u32,
    predicted_taken: bool,
}

/// The instruction fetch queue: a fixed ring of fetched instructions,
/// oldest first. Its storage is a power of two at least `ifq_size`, so
/// position `i` sits at slot `(head + i) & mask`.
#[derive(Debug, Clone)]
struct Ifq {
    slots: Box<[Fetched]>,
    head: usize,
    len: usize,
    capacity: usize,
}

impl Ifq {
    fn new(capacity: usize) -> Ifq {
        let empty = Fetched {
            pc: 0,
            predicted_taken: false,
        };
        Ifq {
            slots: vec![empty; capacity.next_power_of_two()].into_boxed_slice(),
            head: 0,
            len: 0,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    fn at(&self, i: usize) -> usize {
        (self.head + i) & (self.slots.len() - 1)
    }

    fn front(&self) -> Option<Fetched> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    /// Appends an instruction. Panics when full (caller checks
    /// `is_full`): the ring would overwrite its oldest entry.
    fn push_back(&mut self, f: Fetched) {
        assert!(!self.is_full(), "IFQ overflow");
        let i = self.at(self.len);
        self.slots[i] = f;
        self.len += 1;
    }

    fn pop_front(&mut self) {
        if self.len > 0 {
            self.head = self.at(1);
            self.len -= 1;
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

/// Sign/zero-extends a raw stored value to the load's width.
fn extend(v: i64, width: Width, signed: bool) -> i64 {
    match (width, signed) {
        (Width::B, true) => v as i8 as i64,
        (Width::B, false) => v as u8 as i64,
        (Width::H, true) => v as i16 as i64,
        (Width::H, false) => v as u16 as i64,
        (Width::W, true) => v as i32 as i64,
        (Width::W, false) => v as u32 as i64,
        (Width::D, _) => v,
    }
}

/// How dispatch of one instruction, or of a whole cycle, ended. Only the
/// stop reasons a statistic tells apart are variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The instruction dispatched; for a whole cycle, dispatch ended for
    /// no counted reason (width used up, fetch queue empty, `halt`).
    Ok,
    /// The RUU has no free entry.
    RuuFull,
    /// A memory instruction found the LSQ full.
    LsqFull,
    /// Blocked popping this queue.
    QueueEmpty(Queue),
    /// A load blocked on an older store with unavailable data.
    MemDep,
}

/// What commit did in one cycle: instructions retired, the memory
/// operations among them, CMAS trigger forks fired, and the queue commit
/// stalled on (full, or still owing `s.q` store data).
#[derive(Debug, Clone, Copy, Default)]
struct CommitRecord {
    retired: u64,
    mem: u64,
    triggers: u64,
    stalled_on: Option<Queue>,
}

/// What issue did in one cycle: load issues a full MSHR file rejected
/// (they retry) and prefetches dropped for want of an MSHR.
#[derive(Debug, Clone, Copy, Default)]
struct IssueRecord {
    mshr_retries: u64,
    dropped_prefetches: u64,
}

/// What dispatch did in one cycle: instructions dispatched, loads whose
/// value came from the store queue, conditional branches that redirect at
/// resolution, consume branches whose CQ token redirected fetch at once,
/// and why dispatch stopped.
#[derive(Debug, Clone, Copy, Default)]
struct DispatchRecord {
    dispatched: u64,
    forwarded_loads: u64,
    mispredicts: u64,
    cq_redirects: u64,
    /// `None` in a warm cycle, which has no dispatch stage: the
    /// loss-of-decoupling episode carries over untouched.
    stop: Option<Outcome>,
}

/// One out-of-order processor.
#[derive(Debug, Clone)]
pub struct OooCore {
    /// Human-readable name ("superscalar", "CP", "AP").
    pub name: &'static str,
    cfg: CoreConfig,
    prog: Program,
    /// `prog` decoded for this core: entry `pc` describes instruction `pc`.
    decoded: Box<[Decoded]>,
    /// Architectural + speculative register file (functional execution is
    /// in-order at dispatch, so this is always program-order correct).
    pub regs: RegFile,
    predictor: Bimodal,
    fu: FuPool,
    ruu: Ruu,
    lsq: Lsq,
    ifq: Ifq,
    fetch_pc: u32,
    fetch_halted: bool,
    frontend_ready_at: u64,
    /// Unresolved mispredicted branch: `(seq, correct_next_pc)`.
    mispredict_pending: Option<(u64, u32)>,
    /// Set once `halt` commits.
    pub finished: bool,
    now: u64,
    stats: CoreStats,
    /// Queue that stalled dispatch last cycle (for LoD edge detection).
    stalled_on: Option<Queue>,
    /// Optional Chen-Baer stride prefetcher on demand loads.
    rpt: Option<StridePrefetcher>,
    /// Ready-list scheduling: last in-flight producer of each register
    /// (O(1) rename lookup; the scan scheduler derives this from the RUU).
    rename: [Option<u64>; RENAME_SLOTS],
    /// Ready-list scheduling: the ready set and wakeup links, one bit per
    /// window slot.
    wakeup: Wakeup,
    /// Ready-list scheduling: issued entries by completion cycle. Harvest
    /// drains the due buckets; `next_event` reads the earliest.
    completions: Wheel,
    /// Sampled simulation: fetch is paused while the pipeline drains
    /// ahead of a warm phase.
    fetch_paused: bool,
    /// Sampled simulation: the core is in the functional warm phase
    /// (pipeline idealised, architectural state and caches kept live).
    warm: bool,
    /// Resume pc for the warm phase / the detailed phase after it.
    warm_pc: u32,
}

impl OooCore {
    /// Creates a core running `prog`.
    pub fn new(name: &'static str, cfg: CoreConfig, prog: Program) -> OooCore {
        cfg.validate();
        OooCore {
            name,
            predictor: Bimodal::new(cfg.predictor_entries),
            fu: FuPool::new(&cfg),
            ruu: Ruu::new(cfg.ruu_size as usize),
            lsq: Lsq::new(cfg.lsq_size.max(1) as usize),
            ifq: Ifq::new(cfg.ifq_size as usize),
            fetch_pc: 0,
            fetch_halted: false,
            frontend_ready_at: 0,
            mispredict_pending: None,
            finished: false,
            now: 0,
            stats: CoreStats::default(),
            stalled_on: None,
            rpt: cfg.hw_prefetcher.map(StridePrefetcher::new),
            rename: [None; RENAME_SLOTS],
            wakeup: Wakeup::default(),
            completions: Wheel::new(0),
            fetch_paused: false,
            warm: false,
            warm_pc: 0,
            regs: RegFile::new(),
            decoded: decode(&prog, &cfg),
            cfg,
            prog,
        }
    }

    /// Stride-prefetcher statistics, when one is attached.
    pub fn rpt_stats(&self) -> Option<hidisc_mem::prefetcher::RptStats> {
        self.rpt.as_ref().map(|p| *p.stats())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Sets an integer register before simulation starts (workload
    /// parameters).
    pub fn set_reg(&mut self, r: hidisc_isa::IntReg, v: i64) {
        self.regs.set_i(r, v);
    }

    /// True when the core has committed its `halt` and drained.
    pub fn is_done(&self) -> bool {
        self.finished
    }

    /// Current fetch pc (front-end position, for diagnostics).
    pub fn fetch_pc(&self) -> u32 {
        self.fetch_pc
    }

    /// The earliest future cycle (strictly after `now`) at which this
    /// core's behaviour can change *on its own* — i.e. without any shared
    /// resource (queue, MSHR) changing underneath it. These are the
    /// timestamps the pipeline compares against the clock:
    ///
    /// - completion times of issued instructions (which also gate
    ///   mispredict resolution and commit), and
    /// - the front-end refill time after a redirect.
    ///
    /// Returns `None` when the core is finished or holds no pending
    /// timestamp — it is then purely queue- or memory-blocked and can only
    /// be woken by another component's event.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.finished {
            return None;
        }
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now && next.is_none_or(|n| t < n) {
                next = Some(t);
            }
        };
        match self.cfg.scheduler {
            Scheduler::ReadyList => {
                if let Some(t) = self.completions.next_after(now) {
                    consider(t);
                }
            }
            Scheduler::Scan => {
                for e in self.ruu.iter() {
                    if e.state == EntryState::Issued {
                        consider(e.complete_at);
                    }
                }
            }
        }
        consider(self.frontend_ready_at);
        next
    }

    /// How far ahead of the machine clock this core's issue stage
    /// timestamps its memory accesses (the address-generation latency):
    /// `access(addr, kind, now + agen)`. A retried access therefore stops
    /// being rejected `agen` cycles *before* the blocking MSHR's
    /// `ready_at`, and the fast-forward wake-up must lead the memory event
    /// by this amount.
    pub fn access_lead(&self) -> u64 {
        self.cfg.lat.agen as u64
    }

    /// Structural-progress fingerprint: two equal tokens on consecutive
    /// cycles mean the second cycle changed nothing but pure-stall
    /// statistics, so the machine may fast-forward identical cycles (see
    /// `hidisc::Machine`). Counters that move on no-progress cycles
    /// (`cycles`, stall/retry counters) are deliberately excluded.
    pub fn progress_token(&self) -> u64 {
        use hidisc_isa::counters::token_mix as mix;
        let mut h = mix(0, self.stats.committed);
        h = mix(h, self.stats.dispatched);
        h = mix(h, self.finished as u64);
        h = mix(h, self.fetch_halted as u64);
        h = mix(h, self.fetch_pc as u64);
        h = mix(h, self.ifq.len() as u64);
        h = mix(h, self.frontend_ready_at);
        h = mix(h, self.mispredict_pending.map_or(0, |(seq, _)| seq + 1));
        h = mix(h, self.stalled_on.map_or(0, |q| q as u64 + 1));
        // Aggregate counts instead of per-entry hashes: this runs on the
        // per-cycle hot path. Counts are exact here because entry flags
        // only move forward (Waiting → Issued → Done; data_known and
        // performed are only ever set), so on a cycle with no dispatch or
        // commit (caught by the counters above) any transition strictly
        // changes at least one count. The RUU and LSQ maintain them across
        // state transitions, so no walk is needed.
        let (waiting, done) = self.ruu.state_counts();
        h = mix(h, self.ruu.len() as u64);
        h = mix(h, waiting as u64);
        h = mix(h, done as u64);
        let (data_known, performed) = self.lsq.flag_counts();
        h = mix(h, self.lsq.len() as u64);
        h = mix(h, data_known as u64);
        h = mix(h, performed as u64);
        h
    }

    /// Applies the statistics of `k` skipped idle cycles, `delta` being
    /// the per-cycle delta measured on the last stepped (idle) cycle.
    pub fn add_idle_stats(&mut self, delta: &CoreStats, k: u64) {
        self.stats.add_idle_scaled(delta, k);
    }

    /// Advances the core by one cycle.
    pub fn step(&mut self, now: u64, ctx: &mut CoreCtx<'_>) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.now = now;
        self.fu.begin_cycle();
        self.harvest(now, ctx.trace);
        self.resolve_mispredict(now);
        let commit = self.commit(ctx)?;
        self.pump_store_data(ctx);
        let issue = self.issue(ctx);
        let dispatch = self.dispatch(ctx)?;
        self.fetch(ctx.trace);
        self.account(commit, issue, dispatch);
        Ok(())
    }

    /// Turns one cycle's stage records into [`CoreStats`]: the one place
    /// a stage's work or stop reason becomes a statistic, for detailed and
    /// warm cycles alike. Forced inline: with two callers it would
    /// otherwise stay an out-of-line call per cycle, which cost ~3% of
    /// simulation speed.
    #[inline(always)]
    fn account(&mut self, commit: CommitRecord, issue: IssueRecord, dispatch: DispatchRecord) {
        let s = &mut self.stats;
        s.cycles += 1;
        s.committed += commit.retired;
        s.committed_mem += commit.mem;
        s.triggers_fired += commit.triggers;
        if let Some(q) = commit.stalled_on {
            s.stall_commit(q);
        }
        s.mshr_retries += issue.mshr_retries;
        s.dropped_prefetches += issue.dropped_prefetches;
        s.dispatched += dispatch.dispatched;
        s.forwarded_loads += dispatch.forwarded_loads;
        s.mispredicts += dispatch.mispredicts;
        s.cbranch_redirects += dispatch.cq_redirects;
        let Some(stop) = dispatch.stop else { return };
        match stop {
            Outcome::Ok => {}
            Outcome::RuuFull => s.ruu_full_cycles += 1,
            Outcome::LsqFull => s.lsq_full_cycles += 1,
            Outcome::QueueEmpty(q) => s.stall_dispatch(q),
            Outcome::MemDep => s.mem_dep_stalls += 1,
        }
        // Loss of decoupling: blocking on a queue pop, or on cross-stream
        // store data (an SDQ wait). An event is a fresh episode of it.
        let blocking = match stop {
            Outcome::QueueEmpty(q) => Some(q),
            Outcome::MemDep => Some(Queue::Sdq),
            _ => None,
        };
        if blocking.is_some() && self.stalled_on.is_none() {
            s.lod_events += 1;
        }
        self.stalled_on = blocking;
    }

    // ------------------------------------------------------------- harvest

    /// Promotes issued instructions whose results are due to `Done` and, in
    /// ready-list mode, wakes their consumers.
    fn harvest(&mut self, now: u64, trace: &mut Telemetry) {
        match self.cfg.scheduler {
            Scheduler::Scan => {
                if trace.on(Category::Pipeline) {
                    let due: Vec<(u64, u32)> = self
                        .ruu
                        .iter()
                        .filter(|e| e.state == EntryState::Issued && e.complete_at <= now)
                        .map(|e| (e.seq, e.pc))
                        .collect();
                    for (seq, pc) in due {
                        trace.emit(EventData::Complete { seq, pc });
                    }
                }
                self.ruu.harvest_completions(now)
            }
            Scheduler::ReadyList => {
                // Due cycles in order, and within one cycle oldest first —
                // the `(complete_at, seq)` order of the scan's events. A
                // consumer is younger than its producer and commit is
                // in-order, so every consumer woken is still in the window.
                while let Some((_, due)) = self.completions.pop_due(now) {
                    let head = self.ruu.front().expect("issued entries are in flight").seq;
                    let mut rest = due.rotate_right((head % SLOTS) as u32);
                    while rest != 0 {
                        let seq = head + rest.trailing_zeros() as u64;
                        rest &= rest - 1;
                        if trace.on(Category::Pipeline) {
                            let pc = self.ruu.get(seq).map_or(0, |e| e.pc);
                            trace.emit(EventData::Complete { seq, pc });
                        }
                        self.ruu.mark_done(seq);
                        self.wakeup.complete(seq);
                    }
                }
                self.completions.advance(now + 1);
            }
        }
    }

    // --------------------------------------------------------------- fetch

    fn fetch(&mut self, trace: &mut Telemetry) {
        if self.fetch_halted || self.finished || self.fetch_paused {
            return;
        }
        if self.mispredict_pending.is_some() || self.now < self.frontend_ready_at {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.ifq.is_full() {
                break;
            }
            let pc = self.fetch_pc;
            let Some(&d) = self.decoded.get(pc as usize) else {
                self.fetch_halted = true;
                break;
            };
            let mut predicted_taken = false;
            if d.is(COND_BRANCH) {
                predicted_taken = self.predictor.predict(pc);
                self.fetch_pc = if predicted_taken { d.target } else { pc + 1 };
            } else if d.is(JUMP) {
                self.fetch_pc = d.target;
            } else if d.is(HALT) {
                self.fetch_halted = true;
            } else {
                self.fetch_pc = pc + 1;
            }
            self.ifq.push_back(Fetched {
                pc,
                predicted_taken,
            });
            if trace.on(Category::Pipeline) {
                trace.emit(EventData::Fetch { pc });
            }
            if d.is(HALT) {
                break;
            }
        }
    }

    // ------------------------------------------------------------ dispatch

    fn dispatch(&mut self, ctx: &mut CoreCtx<'_>) -> Result<DispatchRecord> {
        let mut rec = DispatchRecord {
            stop: Some(Outcome::Ok),
            ..DispatchRecord::default()
        };
        for _ in 0..self.cfg.dispatch_width {
            let Some(f) = self.ifq.front() else { break };
            let outcome = self.dispatch_one(f, ctx, &mut rec)?;
            if outcome != Outcome::Ok {
                rec.stop = Some(outcome);
                break;
            }
            self.ifq.pop_front();
            rec.dispatched += 1;
            if self.decoded[f.pc as usize].is(HALT) {
                break;
            }
        }
        Ok(rec)
    }

    /// Dispatches one instruction: structural checks, functional
    /// execution, RUU/LSQ allocation, dependence capture, branch handling.
    /// Anything but [`Outcome::Ok`] leaves the core and `rec` unchanged.
    fn dispatch_one(
        &mut self,
        f: Fetched,
        ctx: &mut CoreCtx<'_>,
        rec: &mut DispatchRecord,
    ) -> Result<Outcome> {
        let Fetched {
            pc,
            predicted_taken,
        } = f;
        let d = self.decoded[pc as usize];
        if self.ruu.is_full() {
            return Ok(Outcome::RuuFull);
        }
        if d.is(MEM) && self.lsq.is_full() {
            return Ok(Outcome::LsqFull);
        }
        if d.is(UNSUPPORTED) {
            return Err(self.unsupported(pc));
        }
        let instr = self.prog.instrs()[pc as usize];
        let mut payload: u64 = 0;
        let mut branch_actual = false;
        let mut correct_next = pc + 1;

        // ---- functional execution (program order) ----
        match instr {
            _ if exec_reg_op(instr, &mut self.regs) => {}
            Instr::SendI { q: _, src } => payload = self.regs.get_i(src) as u64,
            Instr::SendF { q: _, src } => payload = self.regs.get_f(src).to_bits(),
            Instr::RecvI { q, dst } => match ctx.pop_queue(q) {
                Some(v) => self.regs.set_i(dst, v as i64),
                None => return Ok(Outcome::QueueEmpty(q)),
            },
            Instr::RecvF { q, dst } => match ctx.pop_queue(q) {
                Some(v) => self.regs.set_f(dst, f64::from_bits(v)),
                None => return Ok(Outcome::QueueEmpty(q)),
            },
            Instr::GetScq => {
                // Never blocks: an empty SCQ just means the CMP is behind.
                let _ = ctx.pop_queue(Queue::Scq);
            }
            Instr::Branch { cond, a, b, target } => {
                branch_actual = cond.eval(self.regs.get_i(a), self.regs.get_i(b));
                correct_next = if branch_actual { target } else { pc + 1 };
                payload = branch_actual as u64;
            }
            Instr::CBranch { target } => match ctx.pop_queue(Queue::Cq) {
                Some(v) => {
                    branch_actual = v != 0;
                    correct_next = if branch_actual { target } else { pc + 1 };
                }
                None => return Ok(Outcome::QueueEmpty(Queue::Cq)),
            },
            Instr::Jump { target } => {
                correct_next = target;
                payload = 1;
            }
            _ => {}
        }

        // ---- memory: one address, one load path, one LSQ entry ----
        let lsq_entry = if let (Some((base, off)), Some(width)) =
            (instr.mem_addr_operands(), instr.mem_width())
        {
            let addr = (self.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
            let (value, data_queue) = match instr {
                Instr::Store { src, .. } => (self.regs.get_i(src), None),
                Instr::StoreF { src, .. } => (self.regs.get_f(src).to_bits() as i64, None),
                Instr::StoreQ { q, .. } => (0, Some(q)),
                Instr::Prefetch { .. } => (0, None),
                // `ld`, `l.q` and the fp `l.d` (an unsigned doubleword
                // load of the f64's bits).
                _ => {
                    let signed = matches!(
                        instr,
                        Instr::Load { signed: true, .. } | Instr::LoadQ { signed: true, .. }
                    );
                    let v = match self.lsq.check_load(u64::MAX, addr, width) {
                        LoadCheck::Clear => ctx.data.load(addr, width, signed)?,
                        LoadCheck::Forward(raw) => {
                            rec.forwarded_loads += 1;
                            extend(raw, width, signed)
                        }
                        LoadCheck::Blocked(_) => {
                            if ctx.trace.on(Category::Pipeline) {
                                ctx.trace.emit(EventData::LsqConflict { pc });
                            }
                            return Ok(Outcome::MemDep);
                        }
                    };
                    match instr {
                        Instr::Load { dst, .. } => self.regs.set_i(dst, v),
                        Instr::LoadF { dst, .. } => self.regs.set_f(dst, f64::from_bits(v as u64)),
                        _ => payload = v as u64,
                    }
                    (v, None)
                }
            };
            Some(LsqEntry {
                seq: 0, // patched below
                is_store: d.is(STORE),
                addr,
                width,
                value,
                data_known: data_queue.is_none(),
                data_queue,
                performed: false,
            })
        } else {
            None
        };

        // ---- allocate the RUU entry and capture timing dependences ----
        let dep = |u: u8| (u != NO_REG).then(|| self.last_producer(u)).flatten();
        let (d0, d1, d2) = (dep(d.uses[0]), dep(d.uses[1]), dep(d.uses[2]));
        let seq = self.ruu.push(pc);
        {
            let e = self.ruu.get_mut(seq).expect("just pushed");
            // Stored one operand at a time: copied in whole, the array is
            // read back from the stack with loads wider than the stores
            // that built it, which stalls store-to-load forwarding.
            e.deps[0] = d0;
            e.deps[1] = d1;
            e.deps[2] = d2;
            e.payload = payload;
            e.predicted_taken = predicted_taken;
            e.actual_taken = branch_actual;
            e.correct_next = correct_next;
        }
        if let Some(mut le) = lsq_entry {
            le.seq = seq;
            self.lsq.push(le);
        }
        if d.def != NO_REG {
            self.rename[d.def as usize] = Some(seq);
        }
        if ctx.trace.on(Category::Pipeline) {
            ctx.trace.emit(EventData::Dispatch { seq, pc });
        }

        // Wakeup bookkeeping: a producer in `deps` is unavailable by
        // construction of `last_producer`.
        if self.cfg.scheduler == Scheduler::ReadyList {
            self.wakeup.link(seq, d0.into_iter().chain(d1).chain(d2));
        }

        // ---- branch outcome handling ----
        if d.is(COND_BRANCH) {
            self.predictor.update(pc, branch_actual, predicted_taken);
            if branch_actual != predicted_taken {
                if ctx.trace.on(Category::Pipeline) {
                    ctx.trace.emit(EventData::Mispredict { pc });
                }
                self.ifq.clear();
                if d.is(CBRANCH) {
                    // The pop *is* the resolution: redirect immediately,
                    // paying only the front-end refill penalty.
                    rec.cq_redirects += 1;
                    self.fetch_pc = correct_next;
                    self.fetch_halted = false;
                    self.frontend_ready_at = self.now + self.cfg.frontend_penalty as u64;
                } else {
                    rec.mispredicts += 1;
                    self.ruu.get_mut(seq).unwrap().mispredicted = true;
                    self.mispredict_pending = Some((seq, correct_next));
                }
            }
        }
        Ok(Outcome::Ok)
    }

    /// The error for dispatching an instruction this core has no unit
    /// for (the decoded `UNSUPPORTED` bit).
    #[cold]
    #[inline(never)]
    fn unsupported(&self, pc: u32) -> IsaError {
        let instr = self.prog.instr(pc);
        let msg = if instr.is_mem() && !self.fu.exists(FuClass::Mem) {
            format!(
                "memory instruction on core {} with no memory ports",
                self.name
            )
        } else {
            format!("fp instruction on core {} with no fp units", self.name)
        };
        IsaError::Exec { pc, msg }
    }

    /// Last in-flight producer of the register in rename slot `r` whose
    /// result is not yet available, or `None` when the operand is ready.
    /// Ready-list mode keeps a rename table (O(1)); scan mode derives it
    /// from the RUU, oldest to youngest — the youngest def decides. The two agree: the
    /// table records every def in dispatch order, a recorded producer that
    /// has committed or completed fails the `producer_done` check the same
    /// way the scan's availability branch clears `newest`.
    fn last_producer(&self, r: u8) -> Option<u64> {
        match self.cfg.scheduler {
            Scheduler::ReadyList => {
                self.rename[r as usize].filter(|&seq| !self.ruu.producer_done(seq, self.now))
            }
            Scheduler::Scan => {
                let mut newest = None;
                for e in self.ruu.iter() {
                    let defines = self.decoded[e.pc as usize].def == r;
                    if e.state != EntryState::Done || e.complete_at > self.now {
                        if defines {
                            newest = Some(e.seq);
                        }
                    } else if defines {
                        // Completed but not yet committed: result available.
                        newest = None;
                    }
                }
                newest
            }
        }
    }

    // --------------------------------------------------------------- issue

    fn issue(&mut self, ctx: &mut CoreCtx<'_>) -> IssueRecord {
        let mut rec = IssueRecord::default();
        match self.cfg.scheduler {
            Scheduler::ReadyList => self.issue_ready(ctx, &mut rec),
            Scheduler::Scan => self.issue_scan(ctx, &mut rec),
        }
        rec
    }

    /// Ready-list issue: walk the ready set in age order (the same order
    /// the scan visits issuable entries) — rotated so the window's head
    /// slot is bit 0, lowest bit first. Entries that fail a structural
    /// check (functional unit, MSHR, blocking store) stay ready and retry;
    /// issued entries move to the completion wheel. `try_issue` never
    /// readies an entry, so the snapshot taken before the walk is the set
    /// the walk sees.
    fn issue_ready(&mut self, ctx: &mut CoreCtx<'_>, rec: &mut IssueRecord) {
        if self.wakeup.ready == 0 {
            return;
        }
        let head = self.ruu.front().expect("ready entries are in flight").seq;
        let mut rest = self.wakeup.ready.rotate_right((head % SLOTS) as u32);
        let mut budget = self.cfg.issue_width;
        while budget > 0 && rest != 0 {
            let seq = head + rest.trailing_zeros() as u64;
            rest &= rest - 1;
            let Some(complete_at) = self.try_issue(seq, ctx, rec) else {
                continue;
            };
            self.wakeup.ready &= !slot_bit(seq);
            self.ruu.mark_issued(seq, complete_at);
            self.completions.insert(complete_at, seq);
            if ctx.trace.on(Category::Pipeline) {
                let pc = self.ruu.get(seq).map_or(0, |e| e.pc);
                ctx.trace.emit(EventData::Issue {
                    seq,
                    pc,
                    complete_at,
                });
            }
            budget -= 1;
        }
    }

    /// Scan issue (the seed implementation): walk the whole window for
    /// `Waiting` entries and check operand availability per candidate.
    fn issue_scan(&mut self, ctx: &mut CoreCtx<'_>, rec: &mut IssueRecord) {
        let now = self.now;
        let mut budget = self.cfg.issue_width;
        let candidates: Vec<u64> = self
            .ruu
            .iter()
            .filter(|e| e.state == EntryState::Waiting)
            .map(|e| e.seq)
            .collect();
        for seq in candidates {
            if budget == 0 {
                break;
            }
            let deps = self.ruu.get(seq).unwrap().deps;
            if !deps
                .iter()
                .flatten()
                .all(|&d| self.ruu.producer_done(d, now))
            {
                continue;
            }
            if let Some(complete_at) = self.try_issue(seq, ctx, rec) {
                self.ruu.mark_issued(seq, complete_at);
                if ctx.trace.on(Category::Pipeline) {
                    let pc = self.ruu.get(seq).map_or(0, |e| e.pc);
                    ctx.trace.emit(EventData::Issue {
                        seq,
                        pc,
                        complete_at,
                    });
                }
                budget -= 1;
            }
        }
    }

    /// Attempts to issue one operand-ready instruction: acquires a
    /// functional unit and computes the completion time, with all the
    /// memory-system side effects of the attempt (MSHR allocation; retries
    /// and drops go to `rec`). Returns `None` — leaving the entry `Waiting`
    /// — when a structural hazard blocks it this cycle. Shared by both
    /// schedulers so their issue decisions are identical by construction.
    fn try_issue(&mut self, seq: u64, ctx: &mut CoreCtx<'_>, rec: &mut IssueRecord) -> Option<u64> {
        let now = self.now;
        let agen = self.cfg.lat.agen as u64;
        let pc = self
            .ruu
            .get(seq)
            .expect("issue candidates are in the window")
            .pc;
        let d = self.decoded[pc as usize];
        if d.is(STORE) {
            // Address generation only; the cache access happens at commit
            // through the write buffer.
            return self.fu.try_acquire(FuClass::IntAlu).then_some(now + agen);
        }
        let prefetch = d.is(PREFETCH);
        if !d.is(LOAD) && !prefetch {
            let done = now + d.latency as u64;
            return self.fu.try_acquire(d.fu).then_some(done);
        }
        let le = self.lsq.get(seq).expect("load has LSQ entry");
        let (addr, width) = (le.addr, le.width);
        // A prefetch reads no data, so no older store can block it.
        let check = if prefetch {
            LoadCheck::Clear
        } else {
            self.lsq.check_load(seq, addr, width)
        };
        if matches!(check, LoadCheck::Blocked(_)) || !self.fu.try_acquire(FuClass::Mem) {
            return None;
        }
        if prefetch {
            // The prefetch instruction itself retires quickly while the
            // fill continues in the MSHR; with no MSHR free it is dropped.
            let kind = AccessKind::Prefetch;
            if ctx
                .mem_sys
                .access_traced(addr, kind, now + agen, ctx.trace)
                .is_some()
            {
                return Some(now + agen + 1);
            }
            rec.dropped_prefetches += 1;
            return Some(now + agen);
        }
        if let LoadCheck::Forward(_) = check {
            return Some(now + agen + 1);
        }
        let Some(r) = ctx
            .mem_sys
            .access_traced(addr, AccessKind::Load, now + agen, ctx.trace)
        else {
            rec.mshr_retries += 1;
            return None;
        };
        // Related-work comparator: a hardware stride prefetcher observing
        // demand loads (droppable fills).
        if let Some(pf) = self.rpt.as_mut().and_then(|rpt| rpt.observe(pc, addr)) {
            let _ = ctx.mem_sys.access(pf, AccessKind::Prefetch, now + agen);
        }
        Some(r.complete_at)
    }

    // ----------------------------------------------------------- mispredict

    fn resolve_mispredict(&mut self, now: u64) {
        if let Some((seq, next)) = self.mispredict_pending {
            if self.ruu.producer_done(seq, now) {
                self.fetch_pc = next;
                self.fetch_halted = false;
                self.frontend_ready_at = now + self.cfg.frontend_penalty as u64;
                self.mispredict_pending = None;
            }
        }
    }

    // ---------------------------------------------------------------- pump

    fn pump_store_data(&mut self, ctx: &mut CoreCtx<'_>) {
        let max = self.cfg.mem_ports.max(1) as usize;
        self.lsq.pump_store_data(max, |q| ctx.pop_queue(q));
    }

    // -------------------------------------------------------------- commit

    /// Commits in order; reports what retired and the queue commit
    /// stalled on, if any.
    fn commit(&mut self, ctx: &mut CoreCtx<'_>) -> Result<CommitRecord> {
        let mut rec = CommitRecord::default();
        for _ in 0..self.cfg.commit_width {
            let Some(front) = self.ruu.front() else { break };
            if front.state != EntryState::Done || front.complete_at > self.now {
                break;
            }
            let seq = front.seq;
            let pc = front.pc;
            let payload = front.payload;
            let actual_taken = front.actual_taken;
            let d = self.decoded[pc as usize];

            // Stores: need data, then drain through the write buffer.
            if d.is(STORE) {
                let (addr, width, value, data_known, data_queue) = {
                    let le = self.lsq.get(seq).expect("store has LSQ entry");
                    (le.addr, le.width, le.value, le.data_known, le.data_queue)
                };
                if !data_known {
                    rec.stalled_on = Some(data_queue.unwrap_or(Queue::Sdq));
                    break;
                }
                match ctx
                    .mem_sys
                    .access_traced(addr, AccessKind::Store, self.now, ctx.trace)
                {
                    Some(_) => {
                        ctx.data.store(addr, width, value)?;
                        // Routed through the LSQ so its flag counts (used
                        // by the progress token) stay exact.
                        self.lsq.mark_performed(seq);
                    }
                    None => break, // MSHR full: retry next cycle
                }
            }

            // Queue pushes (all-or-nothing per entry).
            if let Some(q) = d.push {
                if !ctx.push_queue(q, payload) {
                    rec.stalled_on = Some(q);
                    break;
                }
            }
            if d.is(PUSH_CQ) && !ctx.push_queue(Queue::Cq, actual_taken as u64) {
                rec.stalled_on = Some(Queue::Cq);
                break;
            }

            self.retire(d, ctx, &mut rec);
            if d.is(MEM) {
                self.lsq.remove(seq);
            }
            if ctx.trace.on(Category::Pipeline) {
                ctx.trace.emit(EventData::Commit { seq, pc });
            }
            self.ruu.pop_front();
            if self.finished {
                break;
            }
        }
        Ok(rec)
    }

    /// The retire effects an instruction has beyond its own execution —
    /// the compiler's slip-control GET_SCQ (never blocks), a CMAS trigger
    /// fork and `halt` — counted into `rec`. Detailed commit and the warm
    /// phase both retire through here (forced inline for the same reason
    /// as `account`).
    #[inline(always)]
    fn retire(&mut self, d: Decoded, ctx: &mut CoreCtx<'_>, rec: &mut CommitRecord) {
        if d.is(SCQ_GET) {
            let _ = ctx.pop_queue(Queue::Scq);
        }
        if d.is(TRIGGER) {
            ctx.triggers.push(TriggerFork {
                cmas: d.cmas,
                regs: self.regs.clone(),
            });
            rec.triggers += 1;
        }
        rec.retired += 1;
        rec.mem += d.is(MEM) as u64;
        self.finished |= d.is(HALT);
    }
}

// ------------------------------------------------------------ warm phase
//
// Sampled (SMARTS-style) simulation alternates detailed windows with
// functional warm phases. Entering a warm phase is a three-step protocol
// driven by the machine: pause fetch, keep stepping detailed cycles until
// the pipeline drains, then switch to `warm_step` — in-order functional
// execution that keeps the architectural state, queues, predictor and
// cache/prefetcher models live while idealising the pipeline.

/// Queue adapter for the warm phase: the real bounded [`QueueFile`],
/// with the architectural exception that an SCQ pop never blocks (an
/// empty SCQ just means the CMP is behind — same as detailed dispatch).
struct WarmQueues<'a> {
    queues: &'a mut QueueFile,
}

impl QueueEnv for WarmQueues<'_> {
    fn pop(&mut self, q: Queue) -> Result<PopResult> {
        match self.queues.try_pop(q) {
            Some(v) => Ok(PopResult::Value(v)),
            None if q == Queue::Scq => Ok(PopResult::Value(0)),
            None => Ok(PopResult::Blocked),
        }
    }
    fn push(&mut self, q: Queue, v: u64) -> Result<PushResult> {
        if self.queues.try_push(q, v) {
            Ok(PushResult::Done)
        } else {
            Ok(PushResult::Blocked)
        }
    }
}

impl OooCore {
    /// True while the core is in the functional warm phase.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// True when nothing is in flight: every dispatched instruction has
    /// committed and no mispredict redirect is pending. (The fetch queue
    /// may still hold undispatched instructions — they are the resume
    /// point.)
    fn pipeline_drained(&self) -> bool {
        self.ruu.is_empty() && self.lsq.is_empty() && self.mispredict_pending.is_none()
    }

    /// Moves the core into the warm phase: pauses fetch so the pipeline
    /// drains, and switches to warm once nothing is in flight. Returns true
    /// once the core is warm (idempotent) or finished; false while the
    /// pipeline still holds in-flight instructions — keep stepping and
    /// call again. [`OooCore::exit_warm`] resumes fetch.
    pub fn try_enter_warm(&mut self) -> bool {
        if self.warm || self.finished {
            return true;
        }
        self.fetch_paused = true;
        if !self.pipeline_drained() {
            return false;
        }
        // The architectural frontier: the oldest undispatched instruction,
        // or the fetch pc when the fetch queue is empty.
        self.warm_pc = self.ifq.front().map_or(self.fetch_pc, |f| f.pc);
        self.ifq.clear();
        self.warm = true;
        true
    }

    /// Leaves the warm phase: fetch resumes at the warm frontier.
    pub fn exit_warm(&mut self) {
        if !self.warm {
            return;
        }
        self.warm = false;
        self.fetch_pc = self.warm_pc;
        self.fetch_halted = false;
        self.fetch_paused = false;
    }

    /// One warm cycle: executes up to `dispatch_width` instructions
    /// functionally, in order. Queue pushes and pops go through the real
    /// bounded queues (a block ends the cycle's burst), loads and stores
    /// update both the architectural memory and the cache/MSHR timing
    /// model, the branch predictor trains, the stride prefetcher observes,
    /// and each instruction retires through commit's `retire` —
    /// so a detailed window resumed after the warm phase sees warmed
    /// microarchitectural state.
    pub fn warm_step(&mut self, now: u64, ctx: &mut CoreCtx<'_>) -> Result<()> {
        debug_assert!(self.warm, "warm_step on a core not in warm mode");
        if self.finished {
            return Ok(());
        }
        self.now = now;
        let mut rec = CommitRecord::default();
        // Commit several dispatch-widths of work per iteration: warm-phase
        // cycles carry no timing meaning, so a wider burst only amortises
        // the per-iteration machine overhead (queue scans, CMP dispatch,
        // watchdog). Inter-core interleaving stays bounded by the
        // architectural queues — a blocked push/pop ends the burst and
        // hands the iteration to the other core.
        let burst = 4 * self.cfg.dispatch_width;
        for _ in 0..burst {
            if self.finished {
                break;
            }
            let pc = self.warm_pc;
            let mut env = WarmQueues { queues: ctx.queues };
            // Each access goes into the cache model functionally
            // (latency-free, no MSHR occupancy) so tags, LRU and the
            // prefetcher stay warm. The timed path would reject most of
            // this traffic — warm mode commits many instructions per
            // cycle, so the MSHR file fills instantly and the caches would
            // silently stop warming, biasing the detailed windows that
            // follow.
            let step = step_at(
                &self.prog,
                pc,
                &mut self.regs,
                ctx.data,
                &mut env,
                &mut |ev| {
                    let kind = match ev.kind {
                        MemKind::Load => AccessKind::Load,
                        MemKind::Store => AccessKind::Store,
                        MemKind::Prefetch => AccessKind::Prefetch,
                    };
                    ctx.mem_sys.warm_access(ev.addr, kind);
                    if let (MemKind::Load, Some(rpt)) = (ev.kind, self.rpt.as_mut()) {
                        if let Some(pf) = rpt.observe(ev.pc, ev.addr) {
                            ctx.mem_sys.warm_access(pf, AccessKind::Prefetch);
                        }
                    }
                },
            )?;
            let next = match step {
                Step::Blocked => break,
                Step::Next(n) => Some(n),
                Step::Halt => None,
            };
            let d = self.decoded[pc as usize];
            if let (Some(n), true) = (next, d.is(COND_BRANCH)) {
                let taken = n != pc + 1;
                let predicted = self.predictor.predict(pc);
                self.predictor.update(pc, taken, predicted);
            }
            self.retire(d, ctx, &mut rec);
            if let Some(n) = next {
                self.warm_pc = n;
            }
        }
        // The idealised pipeline dispatches exactly what it retires.
        let dispatch = DispatchRecord {
            dispatched: rec.retired,
            ..DispatchRecord::default()
        };
        self.account(rec, IssueRecord::default(), dispatch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::QueueConfig;
    use hidisc_isa::asm::assemble;
    use hidisc_isa::IntReg;
    use hidisc_mem::MemConfig;

    /// Runs a (sequential) program on a lone core; returns the core and
    /// cycles used.
    fn run(src: &str, init: &[(u8, i64)], mem_init: &[(u64, i64)]) -> (OooCore, Memory, u64) {
        let prog = assemble("t", src).unwrap();
        let mut core = OooCore::new("test", CoreConfig::paper_superscalar(), prog);
        for &(r, v) in init {
            core.set_reg(IntReg::new(r), v);
        }
        let mut mem = Memory::new();
        for &(a, v) in mem_init {
            mem.write_i64(a, v).unwrap();
        }
        let mut mem_sys = MemSystem::new(MemConfig::paper());
        let mut queues = QueueFile::new(QueueConfig::paper());
        let mut triggers = Vec::new();
        let mut tel = Telemetry::disabled();
        let mut now = 0;
        while !core.is_done() {
            let mut ctx = CoreCtx {
                mem_sys: &mut mem_sys,
                queues: &mut queues,
                data: &mut mem,
                triggers: &mut triggers,
                trace: &mut tel,
            };
            core.step(now, &mut ctx).unwrap();
            now += 1;
            assert!(now < 1_000_000, "runaway simulation");
        }
        (core, mem, now)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (core, _, cycles) = run(
            r"
            li r1, 5
            li r2, 7
            add r3, r1, r2
            mul r4, r3, r3
            halt
        ",
            &[],
            &[],
        );
        assert_eq!(core.regs.get_i(IntReg::new(3)), 12);
        assert_eq!(core.regs.get_i(IntReg::new(4)), 144);
        assert!(cycles > 4 && cycles < 40, "cycles = {cycles}");
        assert_eq!(core.stats().committed, 5);
    }

    #[test]
    fn loop_with_branches() {
        let (core, _, _) = run(
            r"
            li r1, 0
            li r2, 100
        loop:
            add r1, r1, r2
            sub r2, r2, 1
            bne r2, r0, loop
            halt
        ",
            &[],
            &[],
        );
        assert_eq!(core.regs.get_i(IntReg::new(1)), 5050);
        // Exactly one final misprediction is typical for bimodal on a loop
        // exit; allow a couple for warmup.
        assert!(core.stats().mispredicts <= 3);
    }

    #[test]
    fn load_store_round_trip() {
        let (core, mem, _) = run(
            r"
            li r1, 0x1000
            ld r2, 0(r1)
            add r2, r2, 1
            sd r2, 8(r1)
            ld r3, 8(r1)
            halt
        ",
            &[],
            &[(0x1000, 41)],
        );
        assert_eq!(core.regs.get_i(IntReg::new(3)), 42);
        assert_eq!(mem.read_i64(0x1008).unwrap(), 42);
        assert_eq!(core.stats().forwarded_loads, 1);
    }

    #[test]
    fn cache_miss_costs_cycles() {
        // Two dependent loads from cold memory: latency must include two
        // memory round trips (~2 * 133).
        let (_, _, cycles) = run(
            r"
            li r1, 0x10000
            ld r2, 0(r1)
            add r3, r2, r1
            ld r4, 0x100(r3)
            halt
        ",
            &[],
            &[(0x10000, 0x1000)],
        );
        assert!(cycles > 2 * 120, "cycles = {cycles}");
    }

    #[test]
    fn independent_loads_overlap() {
        // Independent misses should overlap in the MSHRs: far less than
        // 4 sequential memory latencies.
        let (_, _, cycles) = run(
            r"
            li r1, 0x10000
            ld r2, 0(r1)
            ld r3, 4096(r1)
            ld r4, 8192(r1)
            ld r5, 12288(r1)
            halt
        ",
            &[],
            &[],
        );
        assert!(cycles < 2 * 133, "cycles = {cycles}, expected overlap");
    }

    #[test]
    fn dependent_chain_slower_than_independent() {
        let dep = r"
            li r1, 1
            mul r2, r1, r1
            mul r3, r2, r2
            mul r4, r3, r3
            mul r5, r4, r4
            halt
        ";
        let indep = r"
            li r1, 1
            mul r2, r1, r1
            mul r3, r1, r1
            mul r4, r1, r1
            mul r5, r1, r1
            halt
        ";
        let (_, _, c_dep) = run(dep, &[], &[]);
        let (_, _, c_ind) = run(indep, &[], &[]);
        assert!(c_dep > c_ind, "dep {c_dep} vs indep {c_ind}");
    }

    #[test]
    fn store_to_load_memory_dependence_respected() {
        // Store then partial-width load of same block: value must be
        // architecturally correct even though forwarding can't cover it.
        let (core, _, _) = run(
            r"
            li r1, 0x2000
            li r2, 0x1122334455667788
            sd r2, 0(r1)
            lw r3, 0(r1)
            lw r4, 4(r1)
            halt
        ",
            &[],
            &[],
        );
        assert_eq!(core.regs.get_i(IntReg::new(3)), 0x55667788);
        assert_eq!(core.regs.get_i(IntReg::new(4)), 0x11223344);
    }

    #[test]
    fn prefetch_warms_cache() {
        let with_pref = r"
            li r1, 0x30000
            pref 0(r1)
            li r5, 200
        spin:
            sub r5, r5, 1
            bne r5, r0, spin
            ld r2, 0(r1)
            halt
        ";
        let without = r"
            li r1, 0x30000
            nop
            li r5, 200
        spin:
            sub r5, r5, 1
            bne r5, r0, spin
            ld r2, 0(r1)
            halt
        ";
        let (_, _, c_with) = run(with_pref, &[], &[]);
        let (_, _, c_without) = run(without, &[], &[]);
        assert!(
            c_with + 60 < c_without,
            "prefetch should hide the miss: {c_with} vs {c_without}"
        );
    }

    #[test]
    fn wheel_orders_completions_across_the_horizon_and_the_wrap() {
        // Base 250: the horizon is [250, 506), so buckets wrap past 255
        // (cycle 260 is bucket 4) and 506 is the first overflow cycle.
        let mut w = Wheel::new(250);
        for (t, seq) in [(506, 4), (260, 1), (1000, 6), (251, 3), (505, 2), (1000, 5)] {
            w.insert(t, seq);
        }
        assert_eq!(
            w.overflow.len(),
            3,
            "506 and both 1000s are past the horizon"
        );
        assert_eq!(w.next_after(249), Some(251));
        assert_eq!(w.next_after(251), Some(260));
        assert_eq!(w.pop_due(250), None);
        assert_eq!(w.pop_due(255), Some((251, slot_bit(3))));
        assert_eq!(w.overflow.len(), 2, "506 came inside the horizon");
        assert_eq!(w.pop_due(255), None);
        w.advance(256);
        assert_eq!(w.next_after(255), Some(260));
        // One harvest far past the horizon drains everything in order,
        // pulling the overflow into buckets as the wheel turns.
        assert_eq!(w.pop_due(2000), Some((260, slot_bit(1))));
        assert_eq!(w.pop_due(2000), Some((505, slot_bit(2))));
        assert_eq!(w.next_after(505), Some(506));
        assert_eq!(w.pop_due(2000), Some((506, slot_bit(4))));
        assert_eq!(w.next_after(506), Some(1000));
        assert_eq!(w.pop_due(2000), Some((1000, slot_bit(5) | slot_bit(6))));
        assert_eq!(w.pop_due(2000), None);
        assert!(w.overflow.is_empty());
        assert_eq!(w.next_after(1000), None);
    }

    #[test]
    fn finishes_and_reports_done() {
        let (core, _, _) = run("halt", &[], &[]);
        assert!(core.is_done());
        assert_eq!(core.stats().committed, 1);
    }
}

/// A compact view of one in-flight instruction for pipeline traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// Static instruction index.
    pub pc: u32,
    /// 'W' waiting, 'I' issued, 'D' done.
    pub state: char,
    /// Completion cycle (issued/done entries).
    pub complete_at: u64,
}

/// A per-cycle snapshot of the core's pipeline occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSnapshot {
    /// Core name.
    pub name: &'static str,
    /// Next fetch pc.
    pub fetch_pc: u32,
    /// Fetch-queue depth.
    pub ifq_depth: usize,
    /// Window occupancy, oldest first.
    pub window: Vec<SlotView>,
    /// Load/store queue depth.
    pub lsq_depth: usize,
    /// The core committed its halt.
    pub finished: bool,
}

impl OooCore {
    /// Captures the current pipeline state (for traces and debugging).
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            name: self.name,
            fetch_pc: self.fetch_pc,
            ifq_depth: self.ifq.len(),
            window: self
                .ruu
                .iter()
                .map(|e| SlotView {
                    pc: e.pc,
                    state: match e.state {
                        EntryState::Waiting => 'W',
                        EntryState::Issued => 'I',
                        EntryState::Done => 'D',
                    },
                    complete_at: e.complete_at,
                })
                .collect(),
            lsq_depth: self.lsq.len(),
            finished: self.finished,
        }
    }
}

impl std::fmt::Display for PipelineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: pc={} ifq={} lsq={} ruu[{}]=",
            self.name,
            self.fetch_pc,
            self.ifq_depth,
            self.lsq_depth,
            self.window.len()
        )?;
        for s in &self.window {
            write!(f, " {}@{}", s.state, s.pc)?;
        }
        if self.finished {
            write!(f, " (done)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::queues::{QueueConfig, QueueFile};
    use hidisc_isa::asm::assemble;
    use hidisc_mem::MemConfig;

    #[test]
    fn snapshot_reflects_progress() {
        let prog = assemble("t", "li r1, 1\nmul r2, r1, r1\nmul r3, r2, r2\nhalt").unwrap();
        let mut core = OooCore::new("snap", CoreConfig::paper_superscalar(), prog);
        let mut mem = Memory::new();
        let mut mem_sys = MemSystem::new(MemConfig::paper());
        let mut queues = QueueFile::new(QueueConfig::paper());
        let mut triggers = Vec::new();
        let mut tel = Telemetry::disabled();
        let empty = core.snapshot();
        assert_eq!(empty.window.len(), 0);
        assert_eq!(empty.fetch_pc, 0);
        let mut saw_occupied = false;
        let mut now = 0;
        while !core.is_done() {
            let mut ctx = CoreCtx {
                mem_sys: &mut mem_sys,
                queues: &mut queues,
                data: &mut mem,
                triggers: &mut triggers,
                trace: &mut tel,
            };
            core.step(now, &mut ctx).unwrap();
            let s = core.snapshot();
            if !s.window.is_empty() {
                saw_occupied = true;
                // oldest-first ordering
                for w in s.window.windows(2) {
                    assert!(w[0].pc <= w[1].pc);
                }
            }
            now += 1;
            assert!(now < 10_000);
        }
        assert!(saw_occupied);
        assert!(core.snapshot().finished);
        let line = core.snapshot().to_string();
        assert!(line.contains("snap:") && line.contains("(done)"));
    }
}
