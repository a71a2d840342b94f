//! The out-of-order core pipeline.
//!
//! See the crate docs for the model summary. The per-cycle stage order is
//! commit → store-data pump → mispredict resolution → issue → dispatch →
//! fetch, so an instruction needs at least one cycle per stage and results
//! become visible to dependents the cycle after they complete.

use crate::config::{CoreConfig, Scheduler};
use crate::fu::{latency_of, FuPool};
use crate::lsq::{queue_opt_code, queue_opt_from, LoadCheck, Lsq, LsqEntry};
use crate::predictor::Predictor;
use crate::queues::QueueFile;
use crate::ruu::{EntryState, Ruu};
use crate::stats::CoreStats;
use hidisc_isa::instr::{FuClass, RegRef, Src, Width};
use hidisc_isa::interp::{
    f64_to_i64, step_at, MemEvent, MemKind, PopResult, PushResult, QueueEnv, RegFile, Step,
};
use hidisc_isa::mem::Memory;
use hidisc_isa::reg::{NUM_FP_REGS, NUM_INT_REGS};
use hidisc_isa::wire::{Counters, Dec, Enc, WireError, WireResult};
use hidisc_isa::{Instr, IsaError, Program, Queue, Result};
use hidisc_mem::{AccessKind, MemSystem, StridePrefetcher};
use hidisc_telemetry::{Category, EventData, Telemetry};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// Rename-table slots: one per architectural register, integer file first.
const RENAME_SLOTS: usize = NUM_INT_REGS + NUM_FP_REGS;

/// Rename-table slot of a register reference.
fn rename_slot(r: RegRef) -> usize {
    match r {
        RegRef::Int(r) => r.index(),
        RegRef::Fp(r) => NUM_INT_REGS + r.index(),
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

#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: u32,
    instr: Instr,
    predicted_taken: bool,
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

/// Result of the functional part of dispatching one instruction.
enum DispatchOutcome {
    /// Dispatched; entry fields were filled in.
    Ok,
    /// Blocked popping this queue.
    QueueEmpty(Queue),
    /// Blocked on an older store with unavailable data.
    MemDep,
}

/// One out-of-order processor.
#[derive(Debug, Clone)]
pub struct OooCore {
    /// Human-readable name ("superscalar", "CP", "AP").
    pub name: &'static str,
    cfg: CoreConfig,
    prog: Program,
    /// Architectural + speculative register file (functional execution is
    /// in-order at dispatch, so this is always program-order correct).
    pub regs: RegFile,
    predictor: Predictor,
    fu: FuPool,
    ruu: Ruu,
    lsq: Lsq,
    ifq: VecDeque<Fetched>,
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
    /// Ready-list scheduling: `Waiting` entries whose operands are all
    /// available, in age order (`BTreeSet` iterates ascending = oldest
    /// first, matching the scan scheduler's issue order).
    ready: BTreeSet<u64>,
    /// Ready-list scheduling: issued entries keyed by completion time —
    /// `(complete_at, seq)` min-heap. Harvest pops while the top is due;
    /// `next_event` reads the top instead of re-walking the RUU.
    completions: BinaryHeap<Reverse<(u64, u64)>>,
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
            predictor: Predictor::new(cfg.predictor_kind, cfg.predictor_entries),
            fu: FuPool::new(&cfg),
            ruu: Ruu::new(cfg.ruu_size as usize),
            lsq: Lsq::new(cfg.lsq_size.max(1) as usize),
            ifq: VecDeque::with_capacity(cfg.ifq_size as usize),
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
            ready: BTreeSet::new(),
            completions: BinaryHeap::new(),
            fetch_paused: false,
            warm: false,
            warm_pc: 0,
            regs: RegFile::new(),
            cfg,
            prog,
        }
    }

    /// Stride-prefetcher statistics, when one is attached.
    pub fn rpt_stats(&self) -> Option<hidisc_mem::prefetcher::RptStats> {
        self.rpt.as_ref().map(|p| *p.stats())
    }

    /// The program this core executes.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Branch-predictor statistics `(predictions, mispredictions)`.
    pub fn predictor_stats(&self) -> (u64, u64) {
        self.predictor.stats()
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
                // The heap top is the earliest completion. After a harvest
                // at cycle `c` every heap entry has `complete_at > c`, so
                // for the usual query (`now >= c`, the machine asking after
                // stepping) the top alone decides; fall back to a full heap
                // walk when the top is already due.
                if let Some(&Reverse((t, _))) = self.completions.peek() {
                    if t > now {
                        consider(t);
                    } else {
                        for &Reverse((t, _)) in self.completions.iter() {
                            consider(t);
                        }
                    }
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
        use crate::queues::token_mix as mix;
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
        self.stats.cycles += 1;
        self.fu.begin_cycle();
        self.harvest(now, ctx.trace);
        self.resolve_mispredict(now);
        self.commit(ctx)?;
        self.pump_store_data(ctx);
        self.issue(ctx);
        self.dispatch(ctx)?;
        self.fetch(ctx.trace);
        Ok(())
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
                while let Some(&Reverse((t, seq))) = self.completions.peek() {
                    if t > now {
                        break;
                    }
                    self.completions.pop();
                    if trace.on(Category::Pipeline) {
                        let pc = self.ruu.get(seq).map_or(0, |e| e.pc);
                        trace.emit(EventData::Complete { seq, pc });
                    }
                    // Consumers registered a link per unavailable operand
                    // at dispatch; the last producer to complete tips
                    // `pending_deps` to zero and the consumer becomes
                    // ready. A consumer is younger than its producer and
                    // commit is in-order, so it is still in the window.
                    for c in self.ruu.mark_done(seq) {
                        let e = self.ruu.get_mut(c).expect("consumer in window");
                        e.pending_deps -= 1;
                        if e.pending_deps == 0 {
                            self.ready.insert(c);
                        }
                    }
                }
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
            if self.ifq.len() >= self.cfg.ifq_size as usize {
                break;
            }
            let Some(&instr) = self.prog.get(self.fetch_pc) else {
                self.fetch_halted = true;
                break;
            };
            let pc = self.fetch_pc;
            let mut predicted_taken = false;
            match instr {
                Instr::Branch { target, .. } | Instr::CBranch { target } => {
                    predicted_taken = self.predictor.predict(pc);
                    self.fetch_pc = if predicted_taken { target } else { pc + 1 };
                }
                Instr::Jump { target } => {
                    self.fetch_pc = target;
                }
                Instr::Halt => {
                    self.fetch_halted = true;
                }
                _ => {
                    self.fetch_pc = pc + 1;
                }
            }
            self.ifq.push_back(Fetched {
                pc,
                instr,
                predicted_taken,
            });
            if trace.on(Category::Pipeline) {
                trace.emit(EventData::Fetch { pc });
            }
            if matches!(instr, Instr::Halt) {
                break;
            }
        }
    }

    // ------------------------------------------------------------ dispatch

    fn dispatch(&mut self, ctx: &mut CoreCtx<'_>) -> Result<()> {
        let mut stalled: Option<Queue> = None;
        let mut mem_dep = false;
        for _ in 0..self.cfg.dispatch_width {
            let Some(&f) = self.ifq.front() else { break };
            if self.ruu.is_full() {
                self.stats.ruu_full_cycles += 1;
                break;
            }
            if f.instr.is_mem() && self.lsq.is_full() {
                self.stats.lsq_full_cycles += 1;
                break;
            }
            if f.instr.is_mem() && !self.fu.exists(FuClass::Mem) {
                return Err(IsaError::Exec {
                    pc: f.pc,
                    msg: format!(
                        "memory instruction on core {} with no memory ports",
                        self.name
                    ),
                });
            }
            if f.instr.is_fp() && !self.fu.exists(f.instr.fu_class()) {
                return Err(IsaError::Exec {
                    pc: f.pc,
                    msg: format!("fp instruction on core {} with no fp units", self.name),
                });
            }

            match self.dispatch_one(f, ctx)? {
                DispatchOutcome::Ok => {
                    self.ifq.pop_front();
                    self.stats.dispatched += 1;
                    if matches!(f.instr, Instr::Halt) {
                        break;
                    }
                }
                DispatchOutcome::QueueEmpty(q) => {
                    self.stats.stall_dispatch(q);
                    stalled = Some(q);
                    break;
                }
                DispatchOutcome::MemDep => {
                    self.stats.mem_dep_stalls += 1;
                    if ctx.trace.on(Category::Pipeline) {
                        ctx.trace.emit(EventData::LsqConflict { pc: f.pc });
                    }
                    mem_dep = true;
                    break;
                }
            }
        }
        // Loss-of-decoupling event = a fresh episode of blocking on a queue
        // pop (or on cross-stream store data).
        let blocking = stalled.or(if mem_dep { Some(Queue::Sdq) } else { None });
        if blocking.is_some() && self.stalled_on.is_none() {
            self.stats.lod_events += 1;
        }
        self.stalled_on = blocking;
        Ok(())
    }

    /// Dispatches one instruction: functional execution, RUU/LSQ
    /// allocation, dependence capture, branch handling.
    fn dispatch_one(&mut self, f: Fetched, ctx: &mut CoreCtx<'_>) -> Result<DispatchOutcome> {
        let Fetched {
            pc,
            instr,
            predicted_taken,
        } = f;
        let mut payload: u64 = 0;
        let mut lsq_entry: Option<LsqEntry> = None;
        let mut branch_actual = false;
        let mut correct_next = pc + 1;

        // ---- functional execution (program order) ----
        match instr {
            Instr::IntOp { op, dst, a, b } => {
                let bv = match b {
                    Src::Reg(r) => self.regs.get_i(r),
                    Src::Imm(v) => v,
                };
                let v = op.eval(self.regs.get_i(a), bv);
                self.regs.set_i(dst, v);
            }
            Instr::Li { dst, imm } => self.regs.set_i(dst, imm),
            Instr::FpBin { op, dst, a, b } => {
                let v = op.eval(self.regs.get_f(a), self.regs.get_f(b));
                self.regs.set_f(dst, v);
            }
            Instr::FpUn { op, dst, a } => {
                let v = op.eval(self.regs.get_f(a));
                self.regs.set_f(dst, v);
            }
            Instr::FpCmp { op, dst, a, b } => {
                let v = op.eval(self.regs.get_f(a), self.regs.get_f(b)) as i64;
                self.regs.set_i(dst, v);
            }
            Instr::CvtIf { dst, src } => {
                let v = self.regs.get_i(src) as f64;
                self.regs.set_f(dst, v);
            }
            Instr::CvtFi { dst, src } => {
                let v = f64_to_i64(self.regs.get_f(src));
                self.regs.set_i(dst, v);
            }
            _ => {}
        }

        // Memory & queue instructions need more careful handling; do them
        // in a second match so the first can stay simple.
        match instr {
            Instr::Load {
                dst,
                base,
                off,
                width,
                signed,
            } => {
                let addr = (self.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                let v = match self.lsq.check_load(u64::MAX, addr, width) {
                    LoadCheck::Clear => ctx.data.load(addr, width, signed)?,
                    LoadCheck::Forward(raw) => {
                        self.stats.forwarded_loads += 1;
                        extend(raw, width, signed)
                    }
                    LoadCheck::Blocked(_) => return Ok(DispatchOutcome::MemDep),
                };
                self.regs.set_i(dst, v);
                lsq_entry = Some(LsqEntry {
                    seq: 0, // patched below
                    is_store: false,
                    addr,
                    width,
                    value: v,
                    data_known: true,
                    data_queue: None,
                    performed: false,
                });
            }
            Instr::LoadF { dst, base, off } => {
                let addr = (self.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                let v = match self.lsq.check_load(u64::MAX, addr, Width::D) {
                    LoadCheck::Clear => ctx.data.read_f64(addr)?,
                    LoadCheck::Forward(raw) => {
                        self.stats.forwarded_loads += 1;
                        f64::from_bits(raw as u64)
                    }
                    LoadCheck::Blocked(_) => return Ok(DispatchOutcome::MemDep),
                };
                self.regs.set_f(dst, v);
                lsq_entry = Some(LsqEntry {
                    seq: 0,
                    is_store: false,
                    addr,
                    width: Width::D,
                    value: v.to_bits() as i64,
                    data_known: true,
                    data_queue: None,
                    performed: false,
                });
            }
            Instr::LoadQ {
                q: _,
                base,
                off,
                width,
                signed,
            } => {
                let addr = (self.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                let v = match self.lsq.check_load(u64::MAX, addr, width) {
                    LoadCheck::Clear => ctx.data.load(addr, width, signed)?,
                    LoadCheck::Forward(raw) => {
                        self.stats.forwarded_loads += 1;
                        extend(raw, width, signed)
                    }
                    LoadCheck::Blocked(_) => return Ok(DispatchOutcome::MemDep),
                };
                payload = v as u64;
                lsq_entry = Some(LsqEntry {
                    seq: 0,
                    is_store: false,
                    addr,
                    width,
                    value: v,
                    data_known: true,
                    data_queue: None,
                    performed: false,
                });
            }
            Instr::Store {
                src,
                base,
                off,
                width,
            } => {
                let addr = (self.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                lsq_entry = Some(LsqEntry {
                    seq: 0,
                    is_store: true,
                    addr,
                    width,
                    value: self.regs.get_i(src),
                    data_known: true,
                    data_queue: None,
                    performed: false,
                });
            }
            Instr::StoreF { src, base, off } => {
                let addr = (self.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                lsq_entry = Some(LsqEntry {
                    seq: 0,
                    is_store: true,
                    addr,
                    width: Width::D,
                    value: self.regs.get_f(src).to_bits() as i64,
                    data_known: true,
                    data_queue: None,
                    performed: false,
                });
            }
            Instr::StoreQ {
                q,
                base,
                off,
                width,
            } => {
                let addr = (self.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                lsq_entry = Some(LsqEntry {
                    seq: 0,
                    is_store: true,
                    addr,
                    width,
                    value: 0,
                    data_known: false,
                    data_queue: Some(q),
                    performed: false,
                });
            }
            Instr::Prefetch { base, off } => {
                let addr = (self.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                lsq_entry = Some(LsqEntry {
                    seq: 0,
                    is_store: false,
                    addr,
                    width: Width::D,
                    value: 0,
                    data_known: true,
                    data_queue: None,
                    performed: false,
                });
            }
            Instr::SendI { q: _, src } => payload = self.regs.get_i(src) as u64,
            Instr::SendF { q: _, src } => payload = self.regs.get_f(src).to_bits(),
            Instr::RecvI { q, dst } => match ctx.pop_queue(q) {
                Some(v) => self.regs.set_i(dst, v as i64),
                None => return Ok(DispatchOutcome::QueueEmpty(q)),
            },
            Instr::RecvF { q, dst } => match ctx.pop_queue(q) {
                Some(v) => self.regs.set_f(dst, f64::from_bits(v)),
                None => return Ok(DispatchOutcome::QueueEmpty(q)),
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
                None => return Ok(DispatchOutcome::QueueEmpty(Queue::Cq)),
            },
            Instr::Jump { target } => {
                correct_next = target;
                payload = 1;
            }
            _ => {}
        }

        // ---- allocate the RUU entry and capture timing dependences ----
        let deps = {
            let mut deps = [None; 3];
            for (i, u) in instr.uses().into_iter().enumerate() {
                if let Some(r) = u {
                    deps[i] = self.last_producer(r);
                }
            }
            deps
        };
        let seq = self.ruu.push(pc, instr);
        {
            let e = self.ruu.get_mut(seq).expect("just pushed");
            e.deps = deps;
            e.payload = payload;
            e.predicted_taken = predicted_taken;
            e.actual_taken = branch_actual;
            e.correct_next = correct_next;
        }
        if let Some(mut le) = lsq_entry {
            le.seq = seq;
            self.lsq.push(le);
        }
        self.set_producer(instr, seq);
        if ctx.trace.on(Category::Pipeline) {
            ctx.trace.emit(EventData::Dispatch { seq, pc });
        }

        // Wakeup bookkeeping: one link per unavailable operand (a producer
        // in `deps` is unavailable by construction of `last_producer`). A
        // duplicated operand registers — and later decrements — twice,
        // which balances.
        if self.cfg.scheduler == Scheduler::ReadyList {
            let mut pending = 0u8;
            for &d in deps.iter().flatten() {
                self.ruu
                    .get_mut(d)
                    .expect("producer in window")
                    .consumers
                    .push(seq);
                pending += 1;
            }
            if pending == 0 {
                self.ready.insert(seq);
            } else {
                self.ruu.get_mut(seq).unwrap().pending_deps = pending;
            }
        }

        // ---- branch outcome handling ----
        match instr {
            Instr::Branch { .. } => {
                self.predictor.update(pc, branch_actual, predicted_taken);
                if branch_actual != predicted_taken {
                    self.stats.mispredicts += 1;
                    if ctx.trace.on(Category::Pipeline) {
                        ctx.trace.emit(EventData::Mispredict { pc });
                    }
                    self.ifq.clear();
                    self.ruu.get_mut(seq).unwrap().mispredicted = true;
                    self.mispredict_pending = Some((seq, correct_next));
                }
            }
            Instr::CBranch { .. } => {
                self.predictor.update(pc, branch_actual, predicted_taken);
                if branch_actual != predicted_taken {
                    self.stats.cbranch_redirects += 1;
                    if ctx.trace.on(Category::Pipeline) {
                        ctx.trace.emit(EventData::Mispredict { pc });
                    }
                    self.ifq.clear();
                    // The pop *is* the resolution: redirect immediately,
                    // paying only the front-end refill penalty.
                    self.fetch_pc = correct_next;
                    self.fetch_halted = false;
                    self.frontend_ready_at = self.now + self.cfg.frontend_penalty as u64;
                }
            }
            _ => {}
        }
        Ok(DispatchOutcome::Ok)
    }

    /// Last in-flight producer of a register whose result is not yet
    /// available, or `None` when the operand is ready. Ready-list mode
    /// keeps a rename table (O(1)); scan mode derives it from the RUU,
    /// oldest to youngest — the youngest def decides. The two agree: the
    /// table records every def in dispatch order, a recorded producer that
    /// has committed or completed fails the `producer_done` check the same
    /// way the scan's availability branch clears `newest`.
    fn last_producer(&self, r: RegRef) -> Option<u64> {
        match self.cfg.scheduler {
            Scheduler::ReadyList => {
                self.rename[rename_slot(r)].filter(|&seq| !self.ruu.producer_done(seq, self.now))
            }
            Scheduler::Scan => {
                let mut newest = None;
                for e in self.ruu.iter() {
                    if e.state != EntryState::Done || e.complete_at > self.now {
                        if e.instr.def() == Some(r) {
                            newest = Some(e.seq);
                        }
                    } else if e.instr.def() == Some(r) {
                        // Completed but not yet committed: result available.
                        newest = None;
                    }
                }
                newest
            }
        }
    }

    /// Records `seq` as the newest producer of its destination register.
    fn set_producer(&mut self, instr: Instr, seq: u64) {
        if let Some(r) = instr.def() {
            self.rename[rename_slot(r)] = Some(seq);
        }
    }

    // --------------------------------------------------------------- issue

    fn issue(&mut self, ctx: &mut CoreCtx<'_>) {
        match self.cfg.scheduler {
            Scheduler::ReadyList => self.issue_ready(ctx),
            Scheduler::Scan => self.issue_scan(ctx),
        }
    }

    /// Ready-list issue: walk the ready set in age order (the same order
    /// the scan visits issuable entries). Entries that fail a structural
    /// check (functional unit, MSHR, blocking store) stay in the set and
    /// retry; issued entries move to the completion heap.
    fn issue_ready(&mut self, ctx: &mut CoreCtx<'_>) {
        let mut budget = self.cfg.issue_width;
        let mut cursor = 0u64;
        while budget > 0 {
            let Some(&seq) = self.ready.range(cursor..).next() else {
                break;
            };
            cursor = seq + 1;
            if let Some(complete_at) = self.try_issue(seq, ctx) {
                self.ready.remove(&seq);
                self.ruu.mark_issued(seq, complete_at);
                self.completions.push(Reverse((complete_at, seq)));
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

    /// Scan issue (the seed implementation): walk the whole window for
    /// `Waiting` entries and check operand availability per candidate.
    fn issue_scan(&mut self, ctx: &mut CoreCtx<'_>) {
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
            if let Some(complete_at) = self.try_issue(seq, ctx) {
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
    /// memory-system side effects of the attempt (MSHR allocation, retry
    /// and drop counters). Returns `None` — leaving the entry `Waiting` —
    /// when a structural hazard blocks it this cycle. Shared by both
    /// schedulers so their issue decisions are identical by construction.
    fn try_issue(&mut self, seq: u64, ctx: &mut CoreCtx<'_>) -> Option<u64> {
        let now = self.now;
        let (instr, _pc) = {
            let e = self.ruu.get(seq).unwrap();
            (e.instr, e.pc)
        };

        let complete_at = if instr.is_load() || matches!(instr, Instr::Prefetch { .. }) {
            let (addr, width) = {
                let le = self.lsq.get(seq).expect("load has LSQ entry");
                (le.addr, le.width)
            };
            let agen = self.cfg.lat.agen as u64;
            if matches!(instr, Instr::Prefetch { .. }) {
                if !self.fu.try_acquire(FuClass::Mem) {
                    return None;
                }
                match ctx
                    .mem_sys
                    .access_traced(addr, AccessKind::Prefetch, now + agen, ctx.trace)
                {
                    Some(r) => {
                        // The prefetch instruction itself retires
                        // quickly; the fill continues in the MSHR.
                        let _ = r;
                        now + agen + 1
                    }
                    None => {
                        // Droppable: no MSHR, give up on this prefetch.
                        self.stats.dropped_prefetches += 1;
                        now + agen
                    }
                }
            } else {
                match self.lsq.check_load(seq, addr, width) {
                    LoadCheck::Blocked(_) => return None,
                    LoadCheck::Forward(_) => {
                        if !self.fu.try_acquire(FuClass::Mem) {
                            return None;
                        }
                        now + agen + 1
                    }
                    LoadCheck::Clear => {
                        if !self.fu.try_acquire(FuClass::Mem) {
                            return None;
                        }
                        match ctx.mem_sys.access_traced(
                            addr,
                            AccessKind::Load,
                            now + agen,
                            ctx.trace,
                        ) {
                            Some(r) => {
                                // Related-work comparator: a hardware
                                // stride prefetcher observing demand
                                // loads (droppable fills).
                                if let Some(rpt) = self.rpt.as_mut() {
                                    if let Some(pf) = rpt.observe(_pc, addr) {
                                        let _ = ctx.mem_sys.access(
                                            pf,
                                            AccessKind::Prefetch,
                                            now + agen,
                                        );
                                    }
                                }
                                r.complete_at
                            }
                            None => {
                                self.stats.mshr_retries += 1;
                                return None;
                            }
                        }
                    }
                }
            }
        } else if instr.is_store() {
            // Address generation only; the cache access happens at
            // commit through the write buffer.
            if !self.fu.try_acquire(FuClass::IntAlu) {
                return None;
            }
            now + self.cfg.lat.agen as u64
        } else {
            let class = instr.fu_class();
            if !self.fu.try_acquire(class) {
                return None;
            }
            now + latency_of(&instr, &self.cfg.lat) as u64
        };

        Some(complete_at)
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

    fn commit(&mut self, ctx: &mut CoreCtx<'_>) -> Result<()> {
        for _ in 0..self.cfg.commit_width {
            let Some(front) = self.ruu.front() else { break };
            if front.state != EntryState::Done || front.complete_at > self.now {
                break;
            }
            let seq = front.seq;
            let pc = front.pc;
            let instr = front.instr;
            let payload = front.payload;
            let actual_taken = front.actual_taken;
            let annot = *self.prog.annot(pc);

            // Stores: need data, then drain through the write buffer.
            if instr.is_store() {
                let (addr, width, value, data_known, data_queue) = {
                    let le = self.lsq.get(seq).expect("store has LSQ entry");
                    (le.addr, le.width, le.value, le.data_known, le.data_queue)
                };
                if !data_known {
                    self.stats.stall_commit(data_queue.unwrap_or(Queue::Sdq));
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
            if let Some(q) = instr.queue_push() {
                if !ctx.push_queue(q, payload) {
                    self.stats.stall_commit(q);
                    break;
                }
            }
            if annot.push_cq
                && instr.is_control()
                && !ctx.push_queue(Queue::Cq, actual_taken as u64)
            {
                self.stats.stall_commit(Queue::Cq);
                break;
            }

            // Slip control: the compiler's GET_SCQ (never blocks).
            if annot.scq_get {
                let _ = ctx.pop_queue(Queue::Scq);
            }

            // CMAS trigger fork.
            if let Some(cmas) = annot.trigger {
                ctx.triggers.push(TriggerFork {
                    cmas,
                    regs: self.regs.clone(),
                });
                self.stats.triggers_fired += 1;
            }

            if instr.is_mem() {
                self.stats.committed_mem += 1;
                self.lsq.remove(seq);
            }
            if matches!(instr, Instr::Halt) {
                self.finished = true;
            }
            self.stats.committed += 1;
            if ctx.trace.on(Category::Pipeline) {
                ctx.trace.emit(EventData::Commit { seq, pc });
            }
            self.ruu.pop_front();
            if self.finished {
                break;
            }
        }
        Ok(())
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
    /// Pauses or resumes instruction fetch (sampled-mode drain control).
    pub fn set_fetch_paused(&mut self, paused: bool) {
        self.fetch_paused = paused;
    }

    /// True while the core is in the functional warm phase.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// True when nothing is in flight: every dispatched instruction has
    /// committed and no mispredict redirect is pending. (The fetch queue
    /// may still hold undispatched instructions — they are the resume
    /// point.)
    pub fn pipeline_drained(&self) -> bool {
        self.ruu.is_empty() && self.lsq.is_empty() && self.mispredict_pending.is_none()
    }

    /// Switches a drained core into the warm phase. Returns true once the
    /// core is warm (idempotent); false while the pipeline still holds
    /// in-flight instructions. Call with fetch paused.
    pub fn try_enter_warm(&mut self) -> bool {
        if self.warm || self.finished {
            return true;
        }
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
    /// and trigger annotations fork CMP threads — so a detailed window
    /// resumed after the warm phase sees warmed microarchitectural state.
    pub fn warm_step(&mut self, now: u64, ctx: &mut CoreCtx<'_>) -> Result<()> {
        debug_assert!(self.warm, "warm_step on a core not in warm mode");
        if self.finished {
            return Ok(());
        }
        self.now = now;
        self.stats.cycles += 1;
        let mut events: Vec<MemEvent> = Vec::new();
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
            let step = step_at(
                &self.prog,
                pc,
                &mut self.regs,
                ctx.data,
                &mut env,
                &mut |e| events.push(e),
            )?;
            let next = match step {
                Step::Blocked => break,
                Step::Next(n) => Some(n),
                Step::Halt => None,
            };
            // Post-step bookkeeping mirroring detailed dispatch/commit.
            let instr = *self.prog.get(pc).expect("step_at validated pc");
            let annot = *self.prog.annot(pc);
            if let (Some(n), Instr::Branch { .. } | Instr::CBranch { .. }) = (next, instr) {
                let taken = n != pc + 1;
                let predicted = self.predictor.predict(pc);
                self.predictor.update(pc, taken, predicted);
            }
            if annot.scq_get {
                let _ = ctx.queues.try_pop(Queue::Scq);
            }
            if let Some(cmas) = annot.trigger {
                ctx.triggers.push(TriggerFork {
                    cmas,
                    regs: self.regs.clone(),
                });
                self.stats.triggers_fired += 1;
            }
            self.stats.committed += 1;
            self.stats.dispatched += 1;
            if instr.is_mem() {
                self.stats.committed_mem += 1;
            }
            match next {
                Some(n) => self.warm_pc = n,
                None => self.finished = true,
            }
        }
        // Replay the burst's memory traffic into the cache model
        // functionally (latency-free, no MSHR occupancy) so tags, LRU and
        // the prefetcher stay warm. The timed path would reject most of
        // this traffic — warm mode commits many instructions per cycle, so
        // the MSHR file fills instantly and the caches would silently stop
        // warming, biasing the detailed windows that follow.
        for ev in events {
            let kind = match ev.kind {
                MemKind::Load => AccessKind::Load,
                MemKind::Store => AccessKind::Store,
                MemKind::Prefetch => AccessKind::Prefetch,
            };
            ctx.mem_sys.warm_access(ev.addr, kind);
            if ev.kind == MemKind::Load {
                if let Some(rpt) = self.rpt.as_mut() {
                    if let Some(pf) = rpt.observe(ev.pc, ev.addr) {
                        ctx.mem_sys.warm_access(pf, AccessKind::Prefetch);
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------- checkpointing

impl OooCore {
    /// Serialises the core's dynamic state. Static state (program,
    /// configuration, name) is *not* stored: the checkpoint loader rebuilds
    /// the machine through the normal construction path and overwrites the
    /// dynamic state in place, with the checkpoint header pinning the
    /// config hash. Functional units hold no cross-cycle state
    /// (`begin_cycle` resets them), so they are skipped.
    pub fn save_state(&self, e: &mut Enc) {
        self.regs.save_state(e);
        self.predictor.save_state(e);
        self.ruu.save_state(e);
        self.lsq.save_state(e);
        e.usize(self.ifq.len());
        for f in &self.ifq {
            e.u32(f.pc);
            e.bool(f.predicted_taken);
        }
        e.u32(self.fetch_pc);
        e.bool(self.fetch_halted);
        e.u64(self.frontend_ready_at);
        match self.mispredict_pending {
            None => e.bool(false),
            Some((seq, next)) => {
                e.bool(true);
                e.u64(seq);
                e.u32(next);
            }
        }
        e.bool(self.finished);
        e.u64(self.now);
        self.stats.save_state(e);
        e.u8(queue_opt_code(self.stalled_on));
        match &self.rpt {
            None => e.bool(false),
            Some(rpt) => {
                e.bool(true);
                rpt.save_state(e);
            }
        }
        for slot in &self.rename {
            match slot {
                None => e.bool(false),
                Some(seq) => {
                    e.bool(true);
                    e.u64(*seq);
                }
            }
        }
        e.usize(self.ready.len());
        for &seq in &self.ready {
            e.u64(seq);
        }
        // The completion heap serialises as a sorted vector so the bytes
        // are deterministic regardless of heap layout.
        let mut comps: Vec<(u64, u64)> = self.completions.iter().map(|&Reverse(p)| p).collect();
        comps.sort_unstable();
        e.usize(comps.len());
        for (t, seq) in comps {
            e.u64(t);
            e.u64(seq);
        }
        e.bool(self.fetch_paused);
        e.bool(self.warm);
        e.u32(self.warm_pc);
    }

    /// Restores the dynamic state written by
    /// [`save_state`](Self::save_state) into an identically configured
    /// core.
    pub fn load_state(&mut self, d: &mut Dec) -> WireResult<()> {
        self.regs.load_state(d)?;
        self.predictor.load_state(d)?;
        let prog = &self.prog;
        self.ruu.load_state(d, |pc| prog.get(pc).copied())?;
        self.lsq.load_state(d)?;
        let n = d.usize()?;
        self.ifq.clear();
        for _ in 0..n {
            let pc = d.u32()?;
            let predicted_taken = d.bool()?;
            let instr = *self.prog.get(pc).ok_or(WireError {
                pos: 0,
                what: "ifq pc out of program range",
            })?;
            self.ifq.push_back(Fetched {
                pc,
                instr,
                predicted_taken,
            });
        }
        self.fetch_pc = d.u32()?;
        self.fetch_halted = d.bool()?;
        self.frontend_ready_at = d.u64()?;
        self.mispredict_pending = if d.bool()? {
            Some((d.u64()?, d.u32()?))
        } else {
            None
        };
        self.finished = d.bool()?;
        self.now = d.u64()?;
        self.stats.load_state(d)?;
        self.stalled_on = queue_opt_from(d.u8()?)?;
        let has_rpt = d.bool()?;
        match (&mut self.rpt, has_rpt) {
            (Some(rpt), true) => rpt.load_state(d)?,
            (None, false) => {}
            _ => {
                return Err(WireError {
                    pos: 0,
                    what: "prefetcher presence mismatch",
                })
            }
        }
        for slot in self.rename.iter_mut() {
            *slot = if d.bool()? { Some(d.u64()?) } else { None };
        }
        let n = d.usize()?;
        self.ready.clear();
        for _ in 0..n {
            self.ready.insert(d.u64()?);
        }
        let n = d.usize()?;
        self.completions.clear();
        for _ in 0..n {
            let t = d.u64()?;
            let seq = d.u64()?;
            self.completions.push(Reverse((t, seq)));
        }
        self.fetch_paused = d.bool()?;
        self.warm = d.bool()?;
        self.warm_pc = d.u32()?;
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
