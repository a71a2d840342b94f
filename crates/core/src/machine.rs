//! The machine driver: builds one of the four models from a compiled
//! workload and steps every processor cycle by cycle.

use crate::cmp::{CmpEngine, CmpStats};
use crate::config::{fnv1a, MachineConfig, Model, FNV_OFFSET};
use crate::error::RunError;
use crate::stats::MachineStats;
use hidisc_isa::counters::Counters;
use hidisc_isa::mem::Memory;
use hidisc_isa::reg::{NUM_FP_REGS, NUM_INT_REGS};
use hidisc_isa::{FpReg, IntReg, Program, Queue};
use hidisc_mem::{MemStats, MemSystem};
use hidisc_ooo::queues::QueueStats;
use hidisc_ooo::{CoreCtx, CoreStats, OooCore, QueueFile, TriggerFork};
use hidisc_slicer::{CompiledWorkload, ExecEnv};
use hidisc_telemetry::{
    Category, EventData, IntervalSample, Telemetry, TraceSink, SOURCE_CMP, SOURCE_MACHINE,
};
use std::time::Instant;

/// Knobs threaded through the unified run loop ([`Machine::run_loop`]):
/// every public `run*` entry point is a thin wrapper selecting a subset.
struct RunCtl<'s> {
    /// Drain telemetry events into this sink as the buffer fills.
    stream: Option<&'s mut dyn TraceSink>,
    /// Abort with [`RunError::Deadline`] past this host time.
    deadline: Option<Instant>,
    /// Stop (without error) once the machine clock reaches this cycle.
    stop_at: Option<u64>,
}

/// Removes CMP integration annotations — used for the baseline
/// superscalar, which runs the original binary untouched.
fn strip_cmp_annotations(p: &Program) -> Program {
    let mut p = p.clone();
    for pc in 0..p.len() {
        let a = p.annot_mut(pc);
        a.trigger = None;
        a.scq_get = false;
    }
    p
}

/// One simulated machine instance.
#[derive(Debug, Clone)]
pub struct Machine {
    model: Model,
    cores: Vec<OooCore>,
    cmp: Option<CmpEngine>,
    queues: QueueFile,
    mem_sys: MemSystem,
    /// Architectural data memory (inspect after `run` for results).
    pub data: Memory,
    now: u64,
    cfg: MachineConfig,
    /// Progress watchdog: consecutive cycles in which no core committed.
    idle: u64,
    /// Progress watchdog: the cores' committed total when `idle` last
    /// reset.
    last_committed: u64,
    /// CMAS forks the cores raised this cycle, handed to the CMP engine
    /// (kept here so stepping a cycle allocates nothing).
    triggers: Vec<TriggerFork>,
    /// Fast-forward jumps taken so far.
    ff_jumps: u64,
    /// Simulated cycles skipped (but fully accounted) by fast-forward.
    ff_skipped: u64,
    /// Host wall-clock nanoseconds accumulated across the `run*` calls
    /// (`step` is not timed).
    host_wall_ns: u64,
    /// Differential checking, set by [`Machine::with_ff_check`].
    ff_check: bool,
    /// Telemetry recorder (events + interval metrics), configured by
    /// [`MachineConfig::trace`]. Disabled recording never touches
    /// simulated state, so it is excluded from every equivalence check.
    telemetry: Telemetry,
}

/// Most cores a machine model has (CP + AP).
const MAX_CORES: usize = 2;

/// Statistics snapshot used by fast-forward both to measure what one idle
/// cycle adds and (under `ff_check`) to compare a jumped machine against a
/// cycle-stepped shadow. Held by value — a fixed array of per-core slots,
/// the unused one left at zero — because detection takes one on every
/// hashed idle cycle and the cycle loop makes no heap allocations.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FfSnapshot {
    cores: [CoreStats; MAX_CORES],
    queues: [QueueStats; 5],
    mem: MemStats,
    cmp: Option<CmpStats>,
}

/// Fast-forward detector state threaded through the run loop.
#[derive(Debug, Default)]
struct FfState {
    /// Token after the previously stepped cycle.
    last_token: Option<u64>,
    /// Statistics snapshot and the cycle it was taken after; a token match
    /// exactly one cycle later yields the per-cycle idle delta.
    armed: Option<(u64, FfSnapshot)>,
    /// Consecutive detection attempts whose token mismatched (the machine
    /// kept making progress without committing).
    miss_streak: u32,
    /// Cycles left to skip detection entirely. Phases that progress every
    /// cycle (e.g. draining a full window of independent ALU work) would
    /// otherwise pay a token hash per cycle for nothing, so mismatch
    /// streaks back detection off exponentially (capped). A real stall
    /// window is hundreds of cycles, so re-engaging a few cycles late
    /// costs almost nothing.
    cooldown: u32,
}

/// Longest detection pause under mismatch backoff.
const FF_MAX_COOLDOWN: u32 = 8;

impl FfState {
    /// Cheap reset for cycles that visibly progressed (commits): the token
    /// necessarily changed, so skip hashing it at all. Commit cycles do
    /// not touch the backoff — they cost nothing to detect.
    fn reset(&mut self) {
        self.last_token = None;
        self.armed = None;
    }

    /// Records a failed detection attempt and grows the cooldown: the
    /// first two misses are free (a jump needs two consecutive idle cycles
    /// anyway), then 1, 2, 4, ... up to [`FF_MAX_COOLDOWN`].
    fn note_miss(&mut self) {
        self.miss_streak = self.miss_streak.saturating_add(1);
        if self.miss_streak > 2 {
            self.cooldown = (1u32 << (self.miss_streak - 3).min(3)).min(FF_MAX_COOLDOWN);
        }
    }
}

impl Machine {
    /// Builds a machine of the given model around a compiled workload,
    /// with the workload's initial registers and memory image.
    pub fn new(model: Model, w: &CompiledWorkload, env: &ExecEnv, cfg: MachineConfig) -> Machine {
        let mut cores = Vec::new();
        match model {
            Model::Superscalar => {
                cores.push(OooCore::new(
                    "superscalar",
                    cfg.superscalar,
                    strip_cmp_annotations(&w.original),
                ));
            }
            Model::CpCmp => {
                cores.push(OooCore::new(
                    "superscalar+",
                    cfg.superscalar,
                    w.original.clone(),
                ));
            }
            Model::CpAp | Model::HiDisc => {
                cores.push(OooCore::new("CP", cfg.cp, w.cs.clone()));
                cores.push(OooCore::new("AP", cfg.ap, w.access.clone()));
            }
        }
        debug_assert!(cores.len() <= MAX_CORES, "FfSnapshot has no slot");
        for core in &mut cores {
            for &(r, v) in &env.regs {
                core.set_reg(r, v);
            }
        }
        let cmp = model
            .has_cmp()
            .then(|| CmpEngine::new(cfg.cmp, w.cmas.iter().map(|t| t.prog.clone()).collect()));

        Machine {
            model,
            cores,
            cmp,
            queues: QueueFile::new(cfg.queues),
            mem_sys: MemSystem::new(cfg.mem),
            data: env.mem.clone(),
            now: 0,
            telemetry: Telemetry::new(cfg.trace),
            cfg,
            idle: 0,
            last_committed: 0,
            triggers: Vec::new(),
            ff_jumps: 0,
            ff_skipped: 0,
            host_wall_ns: 0,
            ff_check: false,
        }
    }

    /// Test hook: every fast-forward jump also steps a cloned machine
    /// cycle by cycle and asserts that the two end up bit-identical
    /// (state, statistics, clock). Slow — for the differential tests
    /// only; it never changes a result.
    #[doc(hidden)]
    pub fn with_ff_check(mut self) -> Machine {
        self.ff_check = true;
        self
    }

    /// The telemetry recorder (events, peaks and interval metrics
    /// accumulated so far).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// True once every core has committed its `halt`.
    fn halted(&self) -> bool {
        self.cores.iter().all(|c| c.is_done())
    }

    /// Fetch pc of the first unfinished core — where the front end is
    /// stuck when the watchdog fires.
    fn stuck_pc(&self) -> u32 {
        self.cores
            .iter()
            .find(|c| !c.is_done())
            .map_or(0, |c| c.fetch_pc())
    }

    /// Steps every processor of the machine through one cycle at time
    /// `self.now` (the caller advances the clock).
    fn step_cycle(&mut self) -> hidisc_isa::Result<()> {
        let Machine {
            cores,
            cmp,
            queues,
            mem_sys,
            data,
            now,
            telemetry,
            triggers,
            ..
        } = self;
        telemetry.set_clock(*now);
        let mut any_warm = false;
        for (i, core) in cores.iter_mut().enumerate() {
            telemetry.set_source(i as u8);
            let mut ctx = CoreCtx {
                mem_sys,
                queues,
                data,
                triggers,
                trace: &mut *telemetry,
            };
            if core.is_warm() {
                any_warm = true;
                core.warm_step(*now, &mut ctx)?;
            } else {
                core.step(*now, &mut ctx)?;
            }
        }
        if let Some(engine) = cmp.as_mut() {
            telemetry.set_source(SOURCE_CMP);
            for t in triggers.drain(..) {
                engine.fork(t, telemetry);
            }
            let mut unused = Vec::new();
            let mut ctx = CoreCtx {
                mem_sys,
                queues,
                data,
                triggers: &mut unused,
                trace: &mut *telemetry,
            };
            // Once any core is in a functional warm phase, the CMP runs
            // functionally too: at warm-mode commit rates the timed engine
            // would fall behind the instruction stream by the full miss
            // latency per access and its prefetches would arrive useless.
            if any_warm {
                engine.warm_step(*now, &mut ctx)?;
            } else {
                engine.step(*now, &mut ctx)?;
            }
        } else {
            triggers.clear();
        }
        Ok(())
    }

    /// Takes one interval-metrics sample at the current cycle.
    fn sample_metrics(&mut self) {
        let committed: u64 = self.cores.iter().map(|c| c.stats().committed).sum();
        let queue_depth = Queue::ALL.map(|q| self.queues.len(q) as u32);
        let mshr = self.mem_sys.outstanding(self.now) as u32;
        let live_threads = self.cmp.as_ref().map_or(0, |c| c.live_threads()) as u32;
        self.telemetry.record_sample(IntervalSample {
            cycle: self.now,
            committed,
            queue_depth,
            mshr,
            live_threads,
        });
    }

    /// Fingerprint of every piece of machine state that an idle cycle must
    /// not change: two equal tokens on consecutive cycles prove the second
    /// cycle only repeated stalls (reject/stall counters move, nothing
    /// else). See DESIGN.md, "Idle-cycle fast-forward".
    fn progress_token(&self) -> u64 {
        use hidisc_isa::counters::token_mix as mix;
        let mut h = 0u64;
        for c in &self.cores {
            h = mix(h, c.progress_token());
        }
        h = mix(h, self.queues.progress_token());
        h = mix(h, self.mem_sys.progress_token());
        if let Some(e) = &self.cmp {
            h = mix(h, e.progress_token());
        }
        h
    }

    /// The earliest cycle strictly after `now` at which any component's
    /// behaviour can change by the clock alone: an issued instruction
    /// completes, an MSHR fill lands, a front-end refill finishes, or a
    /// CMP thread wakes. `None` means the machine is permanently stuck
    /// (only the deadlock watchdog can end it).
    fn next_event_after(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: Option<u64>| {
            if let Some(t) = t {
                if next.is_none_or(|n| t < n) {
                    next = Some(t);
                }
            }
        };
        for c in &self.cores {
            fold(c.next_event(now));
        }
        // Core issue stages timestamp accesses at `now + agen`, so a full
        // MSHR file stops rejecting them up to `agen` cycles before the
        // fill's `ready_at`; wake early by the largest such lead (clamped
        // to stay strictly after `now`).
        if let Some(r) = self.mem_sys.next_event(now) {
            let lead = self
                .cores
                .iter()
                .map(|c| c.access_lead())
                .max()
                .unwrap_or(0);
            fold(Some(r.saturating_sub(lead).max(now + 1)));
        }
        if let Some(e) = &self.cmp {
            fold(e.next_event(now));
        }
        next
    }

    fn ff_snapshot(&self) -> FfSnapshot {
        let mut cores = [CoreStats::default(); MAX_CORES];
        for (slot, c) in cores.iter_mut().zip(&self.cores) {
            *slot = *c.stats();
        }
        FfSnapshot {
            cores,
            queues: self.queues.all_stats(),
            mem: self.mem_sys.stats(),
            cmp: self.cmp.as_ref().map(|c| c.stats()),
        }
    }

    /// Fast-forward detection and jump, called after each stepped cycle
    /// (with the watchdog bookkeeping already done for it).
    ///
    /// Every hashed cycle arms a statistics snapshot; the first cycle whose
    /// progress token matches its predecessor's diffs against that snapshot
    /// for the exact per-cycle stall delta, and since no pending timestamp
    /// lies between here and the next event, every cycle up to that event
    /// would repeat it bit-for-bit. The jump multiplies the delta in,
    /// advances the clock, and keeps the watchdog/budget error cycles (and
    /// messages) identical to the per-cycle loop — capping the jump so
    /// those errors still fire exactly on time.
    fn ff_after_cycle(&mut self, ff: &mut FfState, stop_at: Option<u64>) -> Result<(), RunError> {
        if ff.cooldown > 0 {
            ff.cooldown -= 1;
            return Ok(());
        }
        let tok = self.progress_token();
        if ff.last_token != Some(tok) {
            // Progress. Arm a snapshot anyway (it is cheap): if the very
            // next cycle turns out idle, its statistics delta against this
            // snapshot is already the per-cycle delta and the jump can
            // happen without stepping a second idle cycle.
            ff.last_token = Some(tok);
            ff.armed = Some((self.now, self.ff_snapshot()));
            ff.note_miss();
            return Ok(());
        }
        // The token matched. If detection just resumed after a cooldown the
        // match spans a gap of unhashed cycles — still conclusive (every
        // token component is monotone or forward-only, so equal endpoints
        // mean none of the intervening cycles changed anything).
        ff.miss_streak = 0;
        let snap = self.ff_snapshot();
        let Some((armed_at, prev)) = ff.armed.replace((self.now, snap)) else {
            return Ok(());
        };
        // A delta is a true *per-cycle* delta only if the armed snapshot is
        // exactly one cycle old — a post-cooldown gap match re-arms instead.
        if armed_at + 1 != self.now {
            return Ok(());
        }

        // How far can we jump? `self.now` cycles are complete; the cycle
        // just stepped ran at `self.now - 1`. Any threshold in
        // (self.now - 1, e) would itself be an event, so cycles
        // self.now .. e-1 replay the measured idle cycle exactly.
        let next_cycle = self.now;
        let j_event = self
            .next_event_after(next_cycle - 1)
            .map(|e| e - next_cycle);
        // The watchdog would fire after `j_dead` more commit-free cycles,
        // the budget after `j_budget` more cycles (both ≥ 1 here, or the
        // caller's own checks would already have erred).
        let j_dead = self.cfg.deadlock_cycles + 1 - self.idle;
        let j_budget = self.cfg.max_cycles + 1 - next_cycle;
        let mut j = j_dead.min(j_budget);
        if let Some(je) = j_event {
            j = j.min(je);
        }
        // A bounded run (`run_to_cycle`) must stop exactly on its target
        // so restored-and-resumed runs stay bit-identical.
        if let Some(stop) = stop_at {
            j = j.min(stop.saturating_sub(next_cycle));
        }
        // Interval metrics sample on the cycle grid: cap the jump at the
        // next sample boundary so no sample point is skipped. Stats are
        // unchanged (the replayed idle deltas are per-cycle); only the
        // host-side jump counters see more, smaller jumps.
        let iv = self.telemetry.metrics_interval();
        if let Some(intervals) = next_cycle.checked_div(iv) {
            let next_sample = (intervals + 1) * iv;
            j = j.min(next_sample - next_cycle);
        }
        if j == 0 {
            return Ok(());
        }

        let shadow = self.ff_check.then(|| self.clone());

        // Replay j idle cycles in one step.
        for (core, (now_s, prev_s)) in self
            .cores
            .iter_mut()
            .zip(snap.cores.iter().zip(&prev.cores))
        {
            core.add_idle_stats(&now_s.delta_since(prev_s), j);
        }
        let dq = std::array::from_fn(|i| snap.queues[i].delta_since(&prev.queues[i]));
        self.queues.add_idle_scaled(&dq, j);
        debug_assert_eq!(
            snap.mem,
            MemStats {
                mshr_rejects: snap.mem.mshr_rejects,
                ..prev.mem
            },
            "fast-forward measured a non-idle memory delta"
        );
        self.mem_sys
            .add_idle_rejects(snap.mem.mshr_rejects - prev.mem.mshr_rejects, j);
        if let (Some(engine), Some(cn), Some(cp)) =
            (self.cmp.as_mut(), snap.cmp.as_ref(), prev.cmp.as_ref())
        {
            engine.add_idle_cycles(&cn.delta_since(cp), j);
        }
        self.now += j;
        self.idle += j;
        self.ff_jumps += 1;
        self.ff_skipped += j;
        if self.telemetry.on(Category::Machine) {
            self.telemetry.set_clock(next_cycle);
            self.telemetry.set_source(SOURCE_MACHINE);
            self.telemetry.emit(EventData::FastForward { skipped: j });
        }

        // Differential mode: the cycle-stepped shadow must land on the
        // same clock, statistics, structural state and memory.
        if let Some(mut sh) = shadow {
            for _ in 0..j {
                sh.step_cycle().expect("differential shadow step failed");
                sh.now += 1;
            }
            assert_eq!(self.now, sh.now, "fast-forward clock diverged");
            assert_eq!(
                self.ff_snapshot(),
                sh.ff_snapshot(),
                "fast-forward statistics diverged"
            );
            assert_eq!(
                self.progress_token(),
                sh.progress_token(),
                "fast-forward structural state diverged"
            );
            assert_eq!(
                self.data.checksum(),
                sh.data.checksum(),
                "fast-forward memory diverged"
            );
        }

        // If the jump landed on a watchdog/budget bound, raise the same
        // error the per-cycle loop would have (deadlock is checked first
        // there, so it wins ties).
        if j == j_dead && j_dead <= j_budget {
            return Err(RunError::Watchdog {
                model: self.model,
                idle: self.idle,
                cycle: self.now,
                pc: self.stuck_pc(),
            });
        }
        if j == j_budget {
            return Err(RunError::CycleBudget {
                limit: self.cfg.max_cycles,
            });
        }
        if iv != 0 && self.now.is_multiple_of(iv) {
            self.sample_metrics();
        }
        ff.armed = Some((self.now, self.ff_snapshot()));
        Ok(())
    }

    /// Runs to completion (every core commits its `halt`).
    ///
    /// `work_instrs` is the dynamic instruction count of the original
    /// sequential program — the IPC denominator shared by all models.
    pub fn run(&mut self, work_instrs: u64) -> Result<MachineStats, RunError> {
        self.run_inner(work_instrs, None, None)
    }

    /// Like [`Machine::run`], but drains buffered telemetry events into
    /// `sink` whenever the buffer reaches half its cap (and once more at
    /// the end), so arbitrarily long runs can be traced without dropping
    /// events. Simulated results are bit-identical to [`Machine::run`];
    /// only the export path differs. Events drop only if a single cycle
    /// emits more than half the cap — at the default cap that cannot
    /// happen.
    pub fn run_streamed(
        &mut self,
        work_instrs: u64,
        sink: &mut dyn TraceSink,
    ) -> Result<MachineStats, RunError> {
        self.run_inner(work_instrs, Some(sink), None)
    }

    /// Like [`Machine::run`], but aborts with
    /// [`RunError::Deadline`] (carrying the cycle reached) once the
    /// host clock passes `deadline`. The deadline is polled every few
    /// thousand simulated cycles, so expiry is detected promptly without
    /// a per-cycle syscall.
    pub fn run_deadline(
        &mut self,
        work_instrs: u64,
        deadline: Instant,
    ) -> Result<MachineStats, RunError> {
        self.run_inner(work_instrs, None, Some(deadline))
    }

    /// Simulated cycles between host-clock deadline polls.
    const DEADLINE_CHECK_CYCLES: u64 = 4096;

    fn run_inner(
        &mut self,
        work_instrs: u64,
        stream: Option<&mut dyn TraceSink>,
        deadline: Option<Instant>,
    ) -> Result<MachineStats, RunError> {
        self.run_loop(RunCtl {
            stream,
            deadline,
            stop_at: None,
        })?;
        Ok(self.stats(work_instrs))
    }

    /// Runs exactly one cycle: steps every processor, advances the clock,
    /// then applies the progress watchdog and the cycle budget. Returns
    /// `Ok(false)`, without stepping, once every core has committed its
    /// `halt`. Never fast-forwards, so a caller that looks at the machine
    /// after each `step` sees every cycle; [`Machine::run`] after some
    /// `step`s finishes the run with fast-forward free to engage.
    ///
    /// The watchdog's count of commit-free cycles belongs to the machine:
    /// it carries across `step`s, [`Machine::run_to_cycle`] segments,
    /// clones and the phases of [`Machine::run_sampled`].
    // A hint, not a force: with `run_sampled` and `repro diag` also
    // calling it, a binary would otherwise keep it out of `run_loop`.
    #[inline]
    pub fn step(&mut self) -> Result<bool, RunError> {
        if self.halted() {
            return Ok(false);
        }
        self.step_cycle()?;
        self.now += 1;
        let committed: u64 = self.cores.iter().map(|c| c.stats().committed).sum();
        if committed == self.last_committed {
            self.idle += 1;
            if self.idle > self.cfg.deadlock_cycles {
                return Err(RunError::Watchdog {
                    model: self.model,
                    idle: self.idle,
                    cycle: self.now,
                    pc: self.stuck_pc(),
                });
            }
        } else {
            self.idle = 0;
            self.last_committed = committed;
        }
        if self.now > self.cfg.max_cycles {
            return Err(RunError::CycleBudget {
                limit: self.cfg.max_cycles,
            });
        }
        Ok(true)
    }

    /// The one cycle loop behind [`Machine::run`], [`Machine::run_streamed`],
    /// [`Machine::run_deadline`] and [`Machine::run_to_cycle`]: calls
    /// [`Machine::step`] until every core commits its halt (or `stop_at`
    /// is reached), adding what only a whole run needs — interval-metrics
    /// sampling, optional event streaming, the host deadline and idle-cycle
    /// fast-forward.
    fn run_loop(&mut self, mut ctl: RunCtl<'_>) -> Result<(), RunError> {
        let t0 = Instant::now();
        let mut ff = FfState::default();
        let ff_on = self.cfg.fast_forward;
        let iv = self.telemetry.metrics_interval();
        let drain_at = (self.cfg.trace.event_cap / 2).max(1);
        let mut next_deadline_check = self.now;

        while ctl.stop_at.is_none_or(|s| self.now < s) && self.step()? {
            if iv != 0 && self.now.is_multiple_of(iv) {
                self.sample_metrics();
            }
            if let Some(sink) = ctl.stream.as_deref_mut() {
                if self.telemetry.events().len() >= drain_at {
                    self.telemetry.drain_into(sink);
                }
            }
            if let Some(deadline) = ctl.deadline {
                if self.now >= next_deadline_check {
                    next_deadline_check = self.now + Self::DEADLINE_CHECK_CYCLES;
                    if Instant::now() >= deadline {
                        self.host_wall_ns += t0.elapsed().as_nanos() as u64;
                        return Err(RunError::Deadline { cycle: self.now });
                    }
                }
            }
            if ff_on {
                if self.idle == 0 {
                    ff.reset();
                } else {
                    self.ff_after_cycle(&mut ff, ctl.stop_at)?;
                }
            }
        }

        if let Some(sink) = ctl.stream {
            self.telemetry.drain_into(sink);
        }
        self.host_wall_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Runs until the machine clock reaches `stop_at` (or every core
    /// halts, whichever comes first). Returns `true` when the workload
    /// completed before the target cycle.
    ///
    /// A run split into `run_to_cycle` segments commits the same
    /// instructions and accumulates the same statistics as an uninterrupted
    /// [`Machine::run`] — fast-forward jumps are capped at the segment
    /// boundary so the stop lands exactly on `stop_at` — and fails with the
    /// same error on the same cycle: the progress watchdog carries across
    /// segments, however short.
    pub fn run_to_cycle(&mut self, stop_at: u64) -> Result<bool, RunError> {
        self.run_loop(RunCtl {
            stream: None,
            deadline: None,
            stop_at: Some(stop_at),
        })?;
        Ok(self.halted())
    }

    /// Builds the statistics snapshot at the current cycle. `work_instrs`
    /// is the dynamic instruction count of the original sequential program
    /// (the IPC denominator); the `run*` entry points return this for you,
    /// but a segmented run ([`Machine::run_to_cycle`]) can ask for interim
    /// statistics directly.
    pub fn stats(&self, work_instrs: u64) -> MachineStats {
        MachineStats {
            model: self.model,
            cycles: self.now,
            work_instrs,
            cores: self.cores.iter().map(|c| (c.name, *c.stats())).collect(),
            mem: self.mem_sys.stats(),
            cmp: self.cmp.as_ref().map(|c| c.stats()),
            queues: self.queues.all_stats(),
            mem_checksum: self.data.checksum(),
            host_wall_ns: self.host_wall_ns,
            ff_jumps: self.ff_jumps,
            ff_skipped_cycles: self.ff_skipped,
        }
    }

    /// Fingerprint of the machine's *architectural* state: committed
    /// counts, register files and resume pcs of every core, in-flight
    /// queue contents and the data-memory checksum. Timing counters
    /// (stall cycles, cache statistics) are deliberately excluded, so two
    /// configurations diverge in this digest only when their visible
    /// execution state differs — the property `repro bisect` searches on.
    /// Each core's fields are hashed as FNV-1a over their little-endian
    /// bytes, in the order listed.
    pub fn state_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for c in &self.cores {
            h = fnv1a(h, &c.stats().committed.to_le_bytes());
            h = fnv1a(h, &c.fetch_pc().to_le_bytes());
            for r in 0..NUM_INT_REGS as u8 {
                h = fnv1a(h, &c.regs.get_i(IntReg::new(r)).to_le_bytes());
            }
            for r in 0..NUM_FP_REGS as u8 {
                h = fnv1a(h, &c.regs.get_f(FpReg::new(r)).to_bits().to_le_bytes());
            }
        }
        h = self.queues.content_token(h);
        h ^= self.data.checksum();
        h
    }
}

// ---------------------------------------------------- sampled simulation

/// Result of a SMARTS-style sampled run ([`Machine::run_sampled`]):
/// detailed windows measure cycles-per-instruction, functional warm
/// phases execute the instructions in between, and the total cycle count
/// is extrapolated from the measured CPI.
#[derive(Debug, Clone)]
pub struct SampledStats {
    /// Estimated cycle count of a full detailed run: measured CPI times
    /// the (exact) committed instruction count of the pacing core.
    pub est_cycles: u64,
    /// Relative half-width of the 95% confidence interval on `est_cycles`
    /// (`1.96 · sd(CPI) / (mean(CPI) · √n)` over the `n` detailed
    /// windows). Infinite when fewer than two windows completed; zero when
    /// the run finished before the first warm phase (the estimate is then
    /// exact).
    pub rel_error_band: f64,
    /// Detailed measurement windows that contributed to the estimate.
    pub windows: usize,
    /// Measured cycles per pacing-core instruction.
    pub cpi: f64,
    /// Raw statistics of the sampled run itself. `cycles` here counts
    /// machine iterations including functional warm phases — use
    /// `est_cycles` for anything cycle-accurate. Committed instruction
    /// counts and the memory checksum are exact (every instruction
    /// executes).
    pub stats: MachineStats,
}

impl Machine {
    /// Runs the workload in sampling mode: alternate *detailed* windows
    /// (full out-of-order timing, `detail` instructions of the pacing
    /// core) with *functional warm* phases (`skip` instructions executed
    /// in order at dispatch width, with caches, MSHRs, queues, branch
    /// predictor and CMP kept live). Every instruction executes, so
    /// architectural results are exact; cycle counts are estimated from
    /// the detailed windows with a reported confidence band.
    ///
    /// The pacing core is core 0 (the CP in decoupled models). Within each
    /// detailed window the first quarter is treated as pipeline warm-up
    /// and excluded from measurement.
    pub fn run_sampled(
        &mut self,
        work_instrs: u64,
        detail: u64,
        skip: u64,
    ) -> Result<SampledStats, RunError> {
        let detail = detail.max(4);
        let skip = skip.max(1);
        let t0 = Instant::now();
        let mut window_cpis: Vec<f64> = Vec::new();
        let mut meas_cycles = 0u64;
        let mut meas_commits = 0u64;
        let mut warm_phases = 0usize;

        fn pacing(m: &Machine) -> u64 {
            m.cores[0].stats().committed
        }

        while !self.halted() {
            // Detailed window: full timing until the pacing core commits
            // `detail` instructions. Skip the first quarter (pipeline
            // refill after the warm phase) before measuring.
            let w_start = pacing(self);
            let mut meas: Option<(u64, u64)> = None;
            let mut completed = false;
            while self.step()? {
                let c = pacing(self);
                if meas.is_none() && c >= w_start + detail / 4 {
                    meas = Some((self.now, c));
                }
                if c >= w_start + detail {
                    completed = true;
                    break;
                }
            }
            // A window cut short by program termination measures the
            // end-of-run drain (cycles advance, the pacing core does not)
            // rather than steady-state CPI — discard it.
            if !completed {
                meas = None;
            }
            if let Some((n0, c0)) = meas {
                let (dc, di) = (self.now - n0, pacing(self) - c0);
                if dc > 0 && di > 0 {
                    window_cpis.push(dc as f64 / di as f64);
                    meas_cycles += dc;
                    meas_commits += di;
                }
            }
            if self.halted() {
                break;
            }

            // Drain: each core pauses fetch and steps until its pipeline
            // empties; drained cores enter the warm phase at once (and
            // keep feeding the queues) so a core whose drain depends on
            // another stream cannot deadlock.
            loop {
                let mut all_warm = true;
                for c in &mut self.cores {
                    all_warm &= c.try_enter_warm();
                }
                if all_warm || !self.step()? {
                    break;
                }
            }

            // Warm phase: functional in-order execution for `skip` pacing
            // instructions. The CMP still steps normally.
            warm_phases += 1;
            let w_end = pacing(self) + skip;
            while pacing(self) < w_end && self.step()? {}
            for c in &mut self.cores {
                c.exit_warm();
            }
        }
        self.host_wall_ns += t0.elapsed().as_nanos() as u64;

        let stats = self.stats(work_instrs);
        if warm_phases == 0 || meas_commits == 0 {
            // The whole run was detailed: the cycle count is exact.
            return Ok(SampledStats {
                est_cycles: stats.cycles,
                rel_error_band: 0.0,
                windows: window_cpis.len(),
                cpi: if pacing(self) > 0 {
                    stats.cycles as f64 / pacing(self) as f64
                } else {
                    0.0
                },
                stats,
            });
        }
        let cpi = meas_cycles as f64 / meas_commits as f64;
        let est_cycles = (cpi * pacing(self) as f64).round() as u64;
        let n = window_cpis.len();
        let rel_error_band = if n >= 2 {
            let mean = window_cpis.iter().sum::<f64>() / n as f64;
            let var = window_cpis.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            1.96 * var.sqrt() / (mean * (n as f64).sqrt())
        } else {
            f64::INFINITY
        };
        Ok(SampledStats {
            est_cycles,
            rel_error_band,
            windows: n,
            cpi,
            stats,
        })
    }
}

/// Convenience wrapper: build + run one model.
pub fn run_model(
    model: Model,
    w: &CompiledWorkload,
    env: &ExecEnv,
    cfg: MachineConfig,
) -> Result<MachineStats, RunError> {
    let mut m = Machine::new(model, w, env, cfg);
    m.run(w.profile.dyn_instrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::asm::assemble;
    use hidisc_isa::interp::Interp;
    use hidisc_slicer::{compile, CompilerConfig};

    /// A pointer-free strided kernel: loads, computes, stores.
    const KERNEL: &str = r"
            li r1, 0x100000
            li r2, 256
        loop:
            ld r3, 0(r1)
            add r4, r3, 5
            sd r4, 0x80000(r1)
            add r1, r1, 64
            sub r2, r2, 1
            bne r2, r0, loop
            halt
        ";

    fn compiled() -> (CompiledWorkload, ExecEnv) {
        let p = assemble("k", KERNEL).unwrap();
        let mut mem = Memory::new();
        for i in 0..4096u64 {
            mem.write_i64(0x100000 + i * 8, i as i64).unwrap();
        }
        let env = ExecEnv {
            regs: vec![],
            mem,
            max_steps: 10_000_000,
        };
        let w = compile(&p, &env, &CompilerConfig::default()).unwrap();
        (w, env)
    }

    fn golden(env: &ExecEnv) -> u64 {
        let p = assemble("k", KERNEL).unwrap();
        let mut i = Interp::new(&p, env.mem.clone());
        i.run(10_000_000).unwrap();
        i.mem.checksum()
    }

    #[test]
    fn all_models_produce_identical_memory() {
        let (w, env) = compiled();
        let want = golden(&env);
        for model in Model::ALL {
            let stats = run_model(model, &w, &env, MachineConfig::paper()).unwrap();
            assert_eq!(stats.mem_checksum, want, "model {model} diverged");
            assert!(stats.cycles > 0);
            assert_eq!(stats.work_instrs, w.profile.dyn_instrs);
        }
    }

    #[test]
    fn cmp_models_reduce_misses_on_strided_kernel() {
        let (w, env) = compiled();
        let base = run_model(Model::Superscalar, &w, &env, MachineConfig::paper()).unwrap();
        let hidisc = run_model(Model::HiDisc, &w, &env, MachineConfig::paper()).unwrap();
        assert!(
            hidisc.l1_miss_rate() < base.l1_miss_rate(),
            "HiDISC {:.3} vs base {:.3}",
            hidisc.l1_miss_rate(),
            base.l1_miss_rate()
        );
        let cmp = hidisc.cmp.unwrap();
        assert!(cmp.forks >= 1);
        assert!(cmp.prefetches > 0);
    }

    #[test]
    fn hidisc_not_slower_than_baseline_here() {
        let (w, env) = compiled();
        let base = run_model(Model::Superscalar, &w, &env, MachineConfig::paper()).unwrap();
        let hidisc = run_model(Model::HiDisc, &w, &env, MachineConfig::paper()).unwrap();
        let s = hidisc.speedup_over(&base);
        assert!(s > 0.9, "speedup {s:.3}");
    }

    #[test]
    fn decoupled_queues_carry_traffic() {
        let (w, env) = compiled();
        let st = run_model(Model::CpAp, &w, &env, MachineConfig::paper()).unwrap();
        // LDQ and CQ must both have flowed.
        assert!(st.queues[0].pushes > 0, "LDQ unused");
        assert!(st.queues[3].pushes > 0, "CQ unused");
        // pushes == pops at termination for matched streams
        assert_eq!(st.queues[0].pushes, st.queues[0].pops);
        assert_eq!(st.queues[3].pushes, st.queues[3].pops);
    }

    #[test]
    fn latency_sweep_hurts_baseline_more() {
        let (w, env) = compiled();
        let base_fast = run_model(
            Model::Superscalar,
            &w,
            &env,
            MachineConfig::paper_with_latency(4, 40),
        )
        .unwrap();
        let base_slow = run_model(
            Model::Superscalar,
            &w,
            &env,
            MachineConfig::paper_with_latency(16, 160),
        )
        .unwrap();
        let hd_fast = run_model(
            Model::HiDisc,
            &w,
            &env,
            MachineConfig::paper_with_latency(4, 40),
        )
        .unwrap();
        let hd_slow = run_model(
            Model::HiDisc,
            &w,
            &env,
            MachineConfig::paper_with_latency(16, 160),
        )
        .unwrap();
        let base_loss = base_fast.ipc() / base_slow.ipc();
        let hd_loss = hd_fast.ipc() / hd_slow.ipc();
        assert!(
            hd_loss < base_loss,
            "HiDISC should tolerate latency better: hd {hd_loss:.3} vs base {base_loss:.3}"
        );
    }
}

impl Machine {
    /// Captures pipeline snapshots of every core (for traces).
    pub fn snapshots(&self) -> Vec<hidisc_ooo::core::PipelineSnapshot> {
        self.cores.iter().map(|c| c.snapshot()).collect()
    }

    /// Live CMP thread count, if this model has a CMP.
    pub fn cmp_threads(&self) -> Option<usize> {
        self.cmp.as_ref().map(|c| c.live_threads())
    }
}

#[cfg(test)]
mod step_tests {
    use super::*;
    use hidisc_isa::asm::assemble;
    use hidisc_slicer::{compile, CompilerConfig};

    fn machine(src: &str) -> (Machine, u64) {
        let p = assemble("t", src).unwrap();
        let env = ExecEnv {
            regs: vec![],
            mem: Memory::new(),
            max_steps: 100_000,
        };
        let w = compile(&p, &env, &CompilerConfig::default()).unwrap();
        let m = Machine::new(Model::HiDisc, &w, &env, MachineConfig::paper());
        (m, w.profile.dyn_instrs)
    }

    #[test]
    fn step_advances_one_cycle_per_call_and_stops_after_halt() {
        let (mut m, _) = machine(
            "li r1, 0x1000\nli r2, 32\nloop:\nld r3, 0(r1)\nadd r1, r1, 8\nsub r2, r2, 1\nbne r2, r0, loop\nhalt",
        );
        let mut cycles = 0u64;
        while m.step().unwrap() {
            cycles += 1;
            assert_eq!(m.now(), cycles);
            assert_eq!(m.snapshots().len(), 2); // CP + AP
        }
        assert!(cycles > 50, "the loop takes more than 50 cycles");
        assert!(!m.step().unwrap(), "a halted machine steps again");
        assert_eq!(m.now(), cycles, "a halted machine's clock moved");
    }

    #[test]
    fn stepping_to_completion_matches_plain_run() {
        let src = "li r1, 0x1000\nli r2, 16\nloop:\nld r3, 0(r1)\nsd r3, 0x100(r1)\nadd r1, r1, 8\nsub r2, r2, 1\nbne r2, r0, loop\nhalt";
        let (mut plain, work) = machine(src);
        let a = plain.run(work).unwrap();
        let (mut stepped, _) = machine(src);
        while stepped.step().unwrap() {}
        let b = stepped.stats(work);
        assert!(a.sim_eq(&b), "stepped run diverged from plain run");
        assert_eq!(b.ff_jumps, 0, "step fast-forwarded");
    }
}
