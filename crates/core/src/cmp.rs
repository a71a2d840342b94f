//! The Cache Management Processor: an in-order, multithreaded prefetch
//! engine.
//!
//! The CMP executes Cache Miss Access Slices forked from the Access
//! Processor. It is deliberately lightweight (Table 1 gives it integer and
//! load/store units only): each cycle it issues at most one instruction
//! from each of up to `issue_width` ready threads, round-robin. Its loads
//! return real data (pointer chases need the loaded value) but are tagged
//! as *prefetch* accesses in the cache model — they fill lines without
//! counting as demand traffic, and the architectural state of the machine
//! is never affected ("it only updates the cache status").
//!
//! Run-ahead is bounded by the Slip Control Queue: `putscq` blocks a
//! thread when the semaphore is full, and the AP's latch branches drain it
//! as they commit.

use crate::dynamic::{DynamicConfig, SliceFilter, SlipController};
use hidisc_isa::instr::Src;
use hidisc_isa::interp::RegFile;
use hidisc_isa::wire::{Counters, Dec, Enc, WireError, WireResult};
use hidisc_isa::{Instr, IsaError, Program, Queue, Result};
use hidisc_mem::AccessKind;
use hidisc_ooo::{CoreCtx, TriggerFork};
use hidisc_telemetry::{Category, EventData, Telemetry};
use std::slice::from_mut as one;

/// Instructions one thread may execute in a single warm-phase iteration.
/// Warm mode drains each thread until it blocks or completes (see
/// `CmpEngine::warm_step`); this cap only bounds a hypothetical
/// non-terminating slice, it is never reached by compiler-produced CMAS.
const WARM_BURST: u32 = 4096;

/// CMP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmpConfig {
    /// Maximum live thread contexts; a fork beyond this evicts the oldest
    /// thread of the same slice (fresher context wins) or is dropped.
    pub max_threads: usize,
    /// Total instructions the engine may execute per cycle across all
    /// threads (Table 1 gives the CMP four integer ALUs).
    pub issue_width: u32,
    /// Consecutive single-cycle instructions one thread may chain within a
    /// cycle (in-order run-ahead burst).
    pub thread_width: u32,
    /// Memory accesses the CMP may start per cycle.
    pub mem_ports: u32,
    /// Integer-op latency.
    pub int_latency: u32,
    /// Next-line assist (extension, off by default): when a CMP *load*
    /// misses, also prefetch the following cache line. Sequential slice
    /// inputs (index streams) otherwise serialise the engine on their own
    /// cold misses.
    pub next_line_assist: bool,
    /// The paper's future-work extensions: runtime prefetch-distance
    /// control and selective triggering (both off by default).
    pub dynamic: DynamicConfig,
}

impl Default for CmpConfig {
    fn default() -> Self {
        CmpConfig {
            max_threads: 8,
            issue_width: 4,
            thread_width: 4,
            mem_ports: 1,
            int_latency: 1,
            next_line_assist: false,
            dynamic: DynamicConfig::default(),
        }
    }
}

/// CMP statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmpStats {
    /// Threads forked from trigger commits.
    pub forks: u64,
    /// Forks dropped because all contexts were busy.
    pub dropped_forks: u64,
    /// Instructions executed.
    pub instrs: u64,
    /// Prefetch requests issued to the memory system (loads + `pref`).
    pub prefetches: u64,
    /// Prefetches dropped on MSHR exhaustion.
    pub dropped_prefetches: u64,
    /// Cycles threads spent blocked on a full SCQ (run-ahead throttling).
    pub scq_block_cycles: u64,
    /// Threads that ran to completion.
    pub completed_threads: u64,
    /// Forks suppressed by the selective-trigger filter.
    pub suppressed_forks: u64,
    /// Adaptation steps taken by the slip controller.
    pub slip_adaptations: u64,
}

impl Counters for CmpStats {
    fn fields(&mut self, mut f: impl FnMut(&'static str, bool, &mut [u64])) {
        let CmpStats {
            forks,
            dropped_forks,
            instrs,
            prefetches,
            dropped_prefetches,
            scq_block_cycles,
            completed_threads,
            suppressed_forks,
            slip_adaptations,
        } = self;
        f("forks", false, one(forks));
        f("droppedForks", false, one(dropped_forks));
        f("instrs", false, one(instrs));
        f("prefetches", false, one(prefetches));
        f("droppedPrefetches", false, one(dropped_prefetches));
        f("scqBlockCycles", true, one(scq_block_cycles));
        f("completedThreads", false, one(completed_threads));
        f("suppressedForks", false, one(suppressed_forks));
        f("slipAdaptations", false, one(slip_adaptations));
    }
}

#[derive(Debug, Clone)]
struct CmpThread {
    prog: usize,
    pc: u32,
    regs: RegFile,
    busy_until: u64,
}

/// The CMP engine.
#[derive(Debug, Clone)]
pub struct CmpEngine {
    cfg: CmpConfig,
    /// CMAS thread programs, indexed by trigger id.
    programs: Vec<Program>,
    threads: Vec<CmpThread>,
    rr: usize,
    stats: CmpStats,
    slip: SlipController,
    filter: SliceFilter,
}

impl CmpEngine {
    /// Creates an engine over the workload's CMAS programs.
    pub fn new(cfg: CmpConfig, programs: Vec<Program>) -> CmpEngine {
        let slip = SlipController::new(cfg.dynamic);
        let filter = SliceFilter::new(cfg.dynamic, programs.len());
        CmpEngine {
            cfg,
            programs,
            threads: Vec::new(),
            rr: 0,
            stats: CmpStats::default(),
            slip,
            filter,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CmpStats {
        CmpStats {
            suppressed_forks: self.filter.suppressed_forks,
            slip_adaptations: self.slip.adaptations,
            ..self.stats
        }
    }

    /// Current slip bound (tokens) — `usize::MAX` when static.
    pub fn slip_limit(&self) -> usize {
        self.slip.limit()
    }

    /// Number of live threads.
    pub fn live_threads(&self) -> usize {
        self.threads.len()
    }

    /// The earliest cycle strictly after `now` at which a thread blocked on
    /// a long-latency operation becomes ready again. `None` when no thread
    /// holds a pending wake-up time — threads are then either ready (and
    /// stuck on a shared resource: SCQ, MSHRs, memory ports) or absent.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.threads
            .iter()
            .map(|t| t.busy_until)
            .filter(|&t| t > now)
            .min()
    }

    /// Structural-progress fingerprint (see `hidisc::Machine`). Thread pcs
    /// and registers can only change when an instruction executes
    /// (`instrs`), and the thread set only changes through forks,
    /// evictions and completions — all counted. `scq_block_cycles` and the
    /// round-robin pointer are excluded: both move on cycles where every
    /// thread is blocked.
    pub fn progress_token(&self) -> u64 {
        use hidisc_ooo::queues::token_mix as mix;
        let mut h = mix(0, self.stats.instrs);
        h = mix(h, self.stats.forks);
        h = mix(h, self.stats.dropped_forks);
        h = mix(h, self.stats.completed_threads);
        h = mix(h, self.threads.len() as u64);
        h
    }

    /// Applies `k` skipped idle cycles: replays the per-cycle statistics
    /// delta and rotates the round-robin pointer exactly as `k` blocked
    /// `step` calls would have.
    pub fn add_idle_cycles(&mut self, delta: &CmpStats, k: u64) {
        self.stats.add_idle_scaled(delta, k);
        // `step` rotates the round-robin start once per cycle whenever any
        // thread is live, even if nothing issues.
        let n = self.threads.len() as u64;
        if n > 0 {
            self.rr = ((self.rr as u64 + k) % n) as usize;
        }
    }

    /// Forks a CMAS thread from a trigger commit on the AP.
    pub fn fork(&mut self, t: TriggerFork, trace: &mut Telemetry) {
        if (t.cmas as usize) >= self.programs.len() {
            return; // stale trigger id (defensive)
        }
        if !self.filter.allow(t.cmas as usize) {
            return; // selective triggering: history says not worth it
        }
        if self.threads.len() >= self.cfg.max_threads {
            // Prefer the fresher context: evict the oldest thread running
            // the same slice, else drop the fork.
            match self
                .threads
                .iter()
                .position(|th| th.prog == t.cmas as usize)
            {
                Some(old) => {
                    self.threads.remove(old);
                    self.stats.dropped_forks += 1;
                }
                None => {
                    self.stats.dropped_forks += 1;
                    return;
                }
            }
        }
        self.stats.forks += 1;
        self.threads.push(CmpThread {
            prog: t.cmas as usize,
            pc: 0,
            regs: t.regs,
            busy_until: 0,
        });
        if trace.on(Category::Cmp) {
            trace.emit(EventData::CmpSpawn {
                cmas: t.cmas,
                live: self.threads.len() as u32,
            });
        }
    }

    /// Advances the engine one cycle.
    pub fn step(&mut self, now: u64, ctx: &mut CoreCtx<'_>) -> Result<()> {
        self.step_impl(now, ctx, false)
    }

    /// Functional variant for sampled simulation's warm phases: the same
    /// interpreter with timing idealised away — threads never wait on
    /// `busy_until`, and memory traffic goes through the latency-free
    /// [`MemSystem::warm_access`](hidisc_mem::MemSystem::warm_access) path
    /// (no MSHR occupancy, no rejects) so the engine keeps pace with
    /// warm-mode cores committing many instructions per machine iteration.
    /// The SCQ run-ahead discipline still applies — it bounds architectural
    /// queue state, not timing.
    pub fn warm_step(&mut self, now: u64, ctx: &mut CoreCtx<'_>) -> Result<()> {
        self.step_impl(now, ctx, true)
    }

    fn step_impl(&mut self, now: u64, ctx: &mut CoreCtx<'_>, warm: bool) -> Result<()> {
        if self.threads.is_empty() {
            return Ok(());
        }
        let mut issued = 0u32;
        let mut mem_issued = 0u32;
        let mut finished: Vec<usize> = Vec::new();
        let n = self.threads.len();
        // Round-robin starting point rotates for fairness.
        self.rr = if n == 0 { 0 } else { (self.rr + 1) % n };

        // Warm iterations lift the per-cycle structural limits: warm cores
        // commit up to a full dispatch width of work per iteration (many
        // times the steady-state IPC), so an engine still paced at
        // `issue_width` per iteration starves — contexts fill, trigger
        // forks drop, and the detailed windows that follow measure a
        // machine whose assist threads are missing. Each thread instead
        // drains until it completes or hits the SCQ run-ahead bound, which
        // is the architectural throttle and applies in both modes. The
        // burst cap only guards against a non-terminating slice.
        let issue_cap = if warm { u32::MAX } else { self.cfg.issue_width };
        let mem_cap = if warm { u32::MAX } else { self.cfg.mem_ports };
        let burst = if warm {
            WARM_BURST
        } else {
            self.cfg.thread_width
        };

        'threads: for k in 0..n {
            if issued >= issue_cap {
                break;
            }
            let ti = (self.rr + k) % n;
            // Burst: chain up to `thread_width` ready instructions of this
            // thread within the cycle.
            for _ in 0..burst {
                if issued >= issue_cap {
                    break 'threads;
                }
                let th = &mut self.threads[ti];
                if !warm && th.busy_until > now {
                    break;
                }
                let prog = &self.programs[th.prog];
                let Some(&instr) = prog.get(th.pc) else {
                    finished.push(ti);
                    break;
                };

                match instr {
                    Instr::IntOp { op, dst, a, b } => {
                        let bv = match b {
                            Src::Reg(r) => th.regs.get_i(r),
                            Src::Imm(v) => v,
                        };
                        let v = op.eval(th.regs.get_i(a), bv);
                        th.regs.set_i(dst, v);
                        th.pc += 1;
                        if self.cfg.int_latency > 1 {
                            th.busy_until = now + self.cfg.int_latency as u64;
                        }
                    }
                    Instr::Li { dst, imm } => {
                        th.regs.set_i(dst, imm);
                        th.pc += 1;
                    }
                    Instr::Load {
                        dst,
                        base,
                        off,
                        width,
                        signed,
                    } => {
                        if mem_issued >= mem_cap {
                            break;
                        }
                        let addr = (th.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                        if warm {
                            let l1_hit = ctx.mem_sys.warm_access(addr, AccessKind::Prefetch);
                            mem_issued += 1;
                            self.stats.prefetches += 1;
                            self.filter.record(th.prog, !l1_hit);
                            self.slip.on_prefetch(&ctx.mem_sys.stats());
                            let v = ctx.data.load(addr, width, signed)?;
                            th.regs.set_i(dst, v);
                            th.pc += 1;
                            if self.cfg.next_line_assist && !l1_hit {
                                let blk = ctx.mem_sys.config().l1.block_bytes as u64;
                                ctx.mem_sys.warm_access(addr + blk, AccessKind::Prefetch);
                                self.stats.prefetches += 1;
                            }
                            self.stats.instrs += 1;
                            issued += 1;
                            continue;
                        }
                        match ctx
                            .mem_sys
                            .access_traced(addr, AccessKind::Prefetch, now, ctx.trace)
                        {
                            Some(r) => {
                                mem_issued += 1;
                                self.stats.prefetches += 1;
                                self.filter.record(th.prog, !r.l1_hit);
                                self.slip.on_prefetch(&ctx.mem_sys.stats());
                                // The value is needed (pointer chase): the
                                // thread waits for the fill.
                                let v = ctx.data.load(addr, width, signed)?;
                                th.regs.set_i(dst, v);
                                th.pc += 1;
                                th.busy_until = r.complete_at;
                                if self.cfg.next_line_assist && !r.l1_hit {
                                    // Port-free tag-side hint, bounded only
                                    // by MSHR availability: sequential
                                    // slice inputs (index streams) would
                                    // otherwise serialise the engine on
                                    // their own cold misses.
                                    let blk = ctx.mem_sys.config().l1.block_bytes as u64;
                                    if ctx
                                        .mem_sys
                                        .access_traced(
                                            addr + blk,
                                            AccessKind::Prefetch,
                                            now,
                                            ctx.trace,
                                        )
                                        .is_some()
                                    {
                                        self.stats.prefetches += 1;
                                    }
                                }
                            }
                            None => break, // MSHRs full: retry next cycle
                        }
                    }
                    Instr::Prefetch { base, off } => {
                        if mem_issued >= mem_cap {
                            break;
                        }
                        let addr = (th.regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                        if warm {
                            let l1_hit = ctx.mem_sys.warm_access(addr, AccessKind::Prefetch);
                            mem_issued += 1;
                            self.stats.prefetches += 1;
                            self.filter.record(th.prog, !l1_hit);
                            self.slip.on_prefetch(&ctx.mem_sys.stats());
                            th.pc += 1;
                            self.stats.instrs += 1;
                            issued += 1;
                            continue;
                        }
                        match ctx
                            .mem_sys
                            .access_traced(addr, AccessKind::Prefetch, now, ctx.trace)
                        {
                            Some(r) => {
                                mem_issued += 1;
                                self.stats.prefetches += 1;
                                self.filter.record(th.prog, !r.l1_hit);
                                self.slip.on_prefetch(&ctx.mem_sys.stats());
                            }
                            None => {
                                self.stats.dropped_prefetches += 1;
                            }
                        }
                        // Fire and forget either way.
                        th.pc += 1;
                    }
                    Instr::PutScq => {
                        let within_dynamic_bound = ctx.queues.len(Queue::Scq) < self.slip.limit();
                        if within_dynamic_bound && ctx.push_queue(Queue::Scq, 1) {
                            th.pc += 1;
                        } else {
                            // Run-ahead bound reached: block this thread.
                            self.stats.scq_block_cycles += 1;
                            break;
                        }
                    }
                    Instr::Branch { cond, a, b, target } => {
                        let taken = cond.eval(th.regs.get_i(a), th.regs.get_i(b));
                        th.pc = if taken { target } else { th.pc + 1 };
                    }
                    Instr::Jump { target } => {
                        th.pc = target;
                    }
                    Instr::Halt => {
                        finished.push(ti);
                        break;
                    }
                    Instr::Nop => {
                        th.pc += 1;
                    }
                    other => {
                        return Err(IsaError::Exec {
                            pc: th.pc,
                            msg: format!("illegal CMAS instruction on CMP: {other:?}"),
                        })
                    }
                }
                self.stats.instrs += 1;
                issued += 1;
            }
        }

        // Reap finished threads (largest index first).
        finished.sort_unstable_by(|a, b| b.cmp(a));
        finished.dedup();
        for ti in finished {
            let done = self.threads.swap_remove(ti);
            self.stats.completed_threads += 1;
            if ctx.trace.on(Category::Cmp) {
                ctx.trace.emit(EventData::CmpRetire {
                    cmas: done.prog as u32,
                    live: self.threads.len() as u32,
                });
            }
        }
        if self.threads.is_empty() {
            self.rr = 0;
        } else {
            self.rr %= self.threads.len();
        }
        Ok(())
    }

    /// Serialises the engine's dynamic state (thread contexts, round-robin
    /// pointer, statistics and the dynamic controllers). The CMAS programs
    /// are static and come from the workload, which the checkpoint header
    /// pins.
    pub fn save_state(&self, e: &mut Enc) {
        e.usize(self.threads.len());
        for th in &self.threads {
            e.usize(th.prog);
            e.u32(th.pc);
            th.regs.save_state(e);
            e.u64(th.busy_until);
        }
        e.usize(self.rr);
        self.stats.save_state(e);
        self.slip.save_state(e);
        self.filter.save_state(e);
    }

    /// Restores the state saved by [`CmpEngine::save_state`]; the receiver
    /// must be built over the same CMAS programs.
    pub fn load_state(&mut self, d: &mut Dec) -> WireResult<()> {
        let n = d.usize()?;
        self.threads.clear();
        for _ in 0..n {
            let prog = d.usize()?;
            if prog >= self.programs.len() {
                return Err(WireError {
                    pos: 0,
                    what: "cmp thread program out of range",
                });
            }
            let pc = d.u32()?;
            let mut regs = RegFile::new();
            regs.load_state(d)?;
            let busy_until = d.u64()?;
            self.threads.push(CmpThread {
                prog,
                pc,
                regs,
                busy_until,
            });
        }
        self.rr = d.usize()?;
        self.stats.load_state(d)?;
        self.slip.load_state(d)?;
        self.filter.load_state(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::asm::assemble;
    use hidisc_isa::mem::Memory;
    use hidisc_isa::IntReg;
    use hidisc_mem::{MemConfig, MemSystem};
    use hidisc_ooo::{QueueConfig, QueueFile};

    fn ctx_parts() -> (MemSystem, QueueFile, Memory, Vec<TriggerFork>) {
        (
            MemSystem::new(MemConfig::paper()),
            QueueFile::new(QueueConfig {
                scq: 4,
                ..QueueConfig::paper()
            }),
            Memory::new(),
            Vec::new(),
        )
    }

    fn fork_with(engine: &mut CmpEngine, regs: &[(u8, i64)]) {
        let mut rf = RegFile::new();
        for &(r, v) in regs {
            rf.set_i(IntReg::new(r), v);
        }
        engine.fork(
            TriggerFork { cmas: 0, regs: rf },
            &mut Telemetry::disabled(),
        );
    }

    fn run(engine: &mut CmpEngine, cycles: u64) -> (MemSystem, QueueFile) {
        let (mut ms, mut qf, mut mem, mut tr) = ctx_parts();
        let mut tel = Telemetry::disabled();
        for now in 0..cycles {
            let mut ctx = CoreCtx {
                mem_sys: &mut ms,
                queues: &mut qf,
                data: &mut mem,
                triggers: &mut tr,
                trace: &mut tel,
            };
            engine.step(now, &mut ctx).unwrap();
        }
        (ms, qf)
    }

    const STRIDE_CMAS: &str = r"
        loop:
            putscq
            pref 0(r1)
            add r1, r1, 64
            sub r2, r2, 1
            bne r2, r0, loop
            halt
    ";

    #[test]
    fn stride_slice_prefetches_and_completes() {
        let prog = assemble("cmas", STRIDE_CMAS).unwrap();
        let mut e = CmpEngine::new(CmpConfig::default(), vec![prog]);
        fork_with(&mut e, &[(1, 0x100000), (2, 3)]);
        // SCQ capacity 4 > 3 iterations: never blocks.
        let (ms, _) = run(&mut e, 200);
        assert_eq!(e.stats().completed_threads, 1);
        assert_eq!(e.stats().prefetches, 3);
        assert!(ms.stats().l1.prefetch_accesses >= 3);
        assert_eq!(e.live_threads(), 0);
    }

    #[test]
    fn scq_throttles_runahead() {
        let prog = assemble("cmas", STRIDE_CMAS).unwrap();
        let mut e = CmpEngine::new(CmpConfig::default(), vec![prog]);
        fork_with(&mut e, &[(1, 0x100000), (2, 100)]);
        // Nobody drains the SCQ (capacity 4): the thread must block after
        // 4 iterations.
        let (_, qf) = run(&mut e, 500);
        assert_eq!(e.live_threads(), 1, "thread still alive, blocked");
        assert_eq!(qf.len(Queue::Scq), 4);
        assert!(e.stats().scq_block_cycles > 0);
        assert!(e.stats().prefetches <= 5);
    }

    #[test]
    fn pointer_chase_loads_return_data() {
        let prog = assemble(
            "cmas",
            r"
        loop:
            putscq
            ld r1, 0(r1)
            sub r2, r2, 1
            bne r2, r0, loop
            halt
        ",
        )
        .unwrap();
        let mut e = CmpEngine::new(CmpConfig::default(), vec![prog]);
        let (mut ms, mut qf, mut mem, mut tr) = ctx_parts();
        // chain: 0x1000 -> 0x2000 -> 0x3000
        mem.write_i64(0x1000, 0x2000).unwrap();
        mem.write_i64(0x2000, 0x3000).unwrap();
        fork_with(&mut e, &[(1, 0x1000), (2, 2)]);
        let mut tel = Telemetry::disabled();
        for now in 0..2000 {
            let mut ctx = CoreCtx {
                mem_sys: &mut ms,
                queues: &mut qf,
                data: &mut mem,
                triggers: &mut tr,
                trace: &mut tel,
            };
            e.step(now, &mut ctx).unwrap();
        }
        assert_eq!(e.stats().completed_threads, 1);
        // Both chain nodes were prefetched (dependently, so this takes
        // ~2 memory latencies of simulated time); the next-line assist may
        // add adjacent-line prefetches on top.
        assert!(e.stats().prefetches >= 2);
        assert!(ms.stats().l1.prefetch_misses >= 2);
    }

    #[test]
    fn fork_capacity_evicts_same_slice() {
        let prog = assemble("cmas", "halt").unwrap();
        let mut e = CmpEngine::new(
            CmpConfig {
                max_threads: 2,
                ..CmpConfig::default()
            },
            vec![prog],
        );
        for _ in 0..5 {
            fork_with(&mut e, &[]);
        }
        // Same slice id: newer forks evict older threads, so every fork
        // lands but three evictions are recorded.
        assert_eq!(e.stats().forks, 5);
        assert_eq!(e.stats().dropped_forks, 3);
        assert_eq!(e.live_threads(), 2);
    }

    #[test]
    fn fork_capacity_drops_unrelated_forks() {
        let prog = assemble("cmas", "halt").unwrap();
        let mut e = CmpEngine::new(
            CmpConfig {
                max_threads: 1,
                ..CmpConfig::default()
            },
            vec![prog.clone(), prog],
        );
        e.fork(
            TriggerFork {
                cmas: 0,
                regs: RegFile::new(),
            },
            &mut Telemetry::disabled(),
        );
        // A fork for a *different* slice cannot evict: dropped.
        e.fork(
            TriggerFork {
                cmas: 1,
                regs: RegFile::new(),
            },
            &mut Telemetry::disabled(),
        );
        assert_eq!(e.stats().forks, 1);
        assert_eq!(e.stats().dropped_forks, 1);
    }

    #[test]
    fn illegal_instruction_rejected() {
        let prog = assemble("cmas", "sd r1, 0(r2)\nhalt").unwrap();
        let mut e = CmpEngine::new(CmpConfig::default(), vec![prog]);
        fork_with(&mut e, &[]);
        let (mut ms, mut qf, mut mem, mut tr) = ctx_parts();
        let mut tel = Telemetry::disabled();
        let mut ctx = CoreCtx {
            mem_sys: &mut ms,
            queues: &mut qf,
            data: &mut mem,
            triggers: &mut tr,
            trace: &mut tel,
        };
        assert!(e.step(0, &mut ctx).is_err());
    }

    #[test]
    fn stale_trigger_id_ignored() {
        let mut e = CmpEngine::new(CmpConfig::default(), vec![]);
        e.fork(
            TriggerFork {
                cmas: 7,
                regs: RegFile::new(),
            },
            &mut Telemetry::disabled(),
        );
        assert_eq!(e.live_threads(), 0);
        assert_eq!(e.stats().forks, 0);
    }
}
