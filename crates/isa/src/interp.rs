//! Functional (architectural) execution of DISA programs.
//!
//! The single-step semantics in [`step_at`] are shared by:
//!
//! * the sequential reference interpreter [`Interp`] (used to produce golden
//!   results and cache-profiling traces), and
//! * the decoupled functional executor in the `hidisc` crate, which supplies
//!   a real [`QueueEnv`] for the architectural queues.
//!
//! A step either completes, halts, or reports [`Step::Blocked`] (a queue pop
//! from an empty queue / push to a full queue). Blocked steps have **no**
//! architectural effect and can be retried.

use crate::annot::Annot;
use crate::instr::{Instr, Src, Width};
use crate::mem::Memory;
use crate::program::Program;
use crate::reg::{FpReg, IntReg, Queue, NUM_FP_REGS, NUM_INT_REGS};
use crate::{IsaError, Result};

/// The two architectural register files of one processor.
#[derive(Debug, Clone, PartialEq)]
pub struct RegFile {
    int: [i64; NUM_INT_REGS],
    fp: [f64; NUM_FP_REGS],
}

impl Default for RegFile {
    fn default() -> Self {
        RegFile {
            int: [0; NUM_INT_REGS],
            fp: [0.0; NUM_FP_REGS],
        }
    }
}

impl RegFile {
    /// Creates a zeroed register file.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Reads an integer register (`r0` reads 0).
    #[inline]
    pub fn get_i(&self, r: IntReg) -> i64 {
        self.int[r.index()]
    }

    /// Writes an integer register (writes to `r0` are discarded).
    #[inline]
    pub fn set_i(&mut self, r: IntReg, v: i64) {
        if !r.is_zero() {
            self.int[r.index()] = v;
        }
    }

    /// Reads a floating-point register.
    #[inline]
    pub fn get_f(&self, r: FpReg) -> f64 {
        self.fp[r.index()]
    }

    /// Writes a floating-point register.
    #[inline]
    pub fn set_f(&mut self, r: FpReg, v: f64) {
        self.fp[r.index()] = v;
    }
}

/// Kind of memory event reported to tracing hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    Load,
    Store,
    Prefetch,
}

/// A memory access performed by a functional step, reported to hooks
/// (used by the cache-profiling pass of the HiDISC compiler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Static instruction index that performed the access.
    pub pc: u32,
    /// Effective byte address.
    pub addr: u64,
    /// Access width.
    pub width: Width,
    /// Load, store or prefetch.
    pub kind: MemKind,
}

/// Result of attempting a queue pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopResult {
    /// A value was popped (raw 64 bits).
    Value(u64),
    /// The queue is empty; the instruction must retry.
    Blocked,
}

/// Result of attempting a queue push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushResult {
    Done,
    /// The queue is full; the instruction must retry.
    Blocked,
}

/// Environment providing the architectural queues to [`step_at`].
pub trait QueueEnv {
    /// Attempts to pop from `q`.
    fn pop(&mut self, q: Queue) -> Result<PopResult>;
    /// Attempts to push `v` to `q`.
    fn push(&mut self, q: Queue, v: u64) -> Result<PushResult>;
}

/// Queue environment for sequential programs: any queue operation is an
/// error (a correct sequential program contains none).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoQueues;

impl QueueEnv for NoQueues {
    fn pop(&mut self, q: Queue) -> Result<PopResult> {
        Err(IsaError::Exec {
            pc: 0,
            msg: format!("queue pop ({q}) in sequential program"),
        })
    }
    fn push(&mut self, q: Queue, _v: u64) -> Result<PushResult> {
        Err(IsaError::Exec {
            pc: 0,
            msg: format!("queue push ({q}) in sequential program"),
        })
    }
}

/// Outcome of one functional step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Execution continues at this pc.
    Next(u32),
    /// A `halt` was executed.
    Halt,
    /// The instruction is blocked on a queue; retry later. No state
    /// changed.
    Blocked,
}

/// Converts f64 to i64 with saturating/NaN-to-zero semantics (matches the
/// timing models).
#[inline]
pub fn f64_to_i64(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else if v >= i64::MAX as f64 {
        i64::MAX
    } else if v <= i64::MIN as f64 {
        i64::MIN
    } else {
        v as i64
    }
}

/// Executes a register-only instruction (`IntOp`, `Li` and the fp
/// arithmetic, compare and convert forms) against `regs`. Returns false,
/// changing nothing, for any other instruction. The one copy of these
/// semantics, with three callers: [`step_at`], the out-of-order core's
/// dispatch (`hidisc_ooo::OooCore`) and the CMP engine
/// (`hidisc::cmp::CmpEngine`), which executes only the `IntOp` and `Li`
/// forms and rejects the fp ones.
#[inline]
pub fn exec_reg_op(instr: Instr, regs: &mut RegFile) -> bool {
    match instr {
        Instr::IntOp { op, dst, a, b } => {
            let bv = match b {
                Src::Reg(r) => regs.get_i(r),
                Src::Imm(v) => v,
            };
            regs.set_i(dst, op.eval(regs.get_i(a), bv));
        }
        Instr::Li { dst, imm } => regs.set_i(dst, imm),
        Instr::FpBin { op, dst, a, b } => regs.set_f(dst, op.eval(regs.get_f(a), regs.get_f(b))),
        Instr::FpUn { op, dst, a } => regs.set_f(dst, op.eval(regs.get_f(a))),
        Instr::FpCmp { op, dst, a, b } => {
            regs.set_i(dst, op.eval(regs.get_f(a), regs.get_f(b)) as i64)
        }
        Instr::CvtIf { dst, src } => regs.set_f(dst, regs.get_i(src) as f64),
        Instr::CvtFi { dst, src } => regs.set_i(dst, f64_to_i64(regs.get_f(src))),
        _ => return false,
    }
    true
}

/// Executes the instruction at `pc` of `prog` against the given register
/// file, memory and queue environment, reporting memory accesses to `hook`.
///
/// The annotation at `pc` participates: a control instruction with
/// [`Annot::push_cq`] pushes its outcome token to the Control Queue.
/// Blocked steps are effect-free.
pub fn step_at(
    prog: &Program,
    pc: u32,
    regs: &mut RegFile,
    mem: &mut Memory,
    env: &mut impl QueueEnv,
    hook: &mut impl FnMut(MemEvent),
) -> Result<Step> {
    let i = *prog.get(pc).ok_or_else(|| IsaError::Exec {
        pc,
        msg: "pc out of range".into(),
    })?;
    let annot: Annot = *prog.annot(pc);
    let exec_err = |msg: String| IsaError::Exec { pc, msg };
    let next = Step::Next(pc + 1);

    match i {
        _ if exec_reg_op(i, regs) => Ok(next),
        Instr::Load {
            dst,
            base,
            off,
            width,
            signed,
        } => {
            let addr = (regs.get_i(base) as u64).wrapping_add_signed(off as i64);
            hook(MemEvent {
                pc,
                addr,
                width,
                kind: MemKind::Load,
            });
            let v = mem.load(addr, width, signed)?;
            regs.set_i(dst, v);
            Ok(next)
        }
        Instr::LoadF { dst, base, off } => {
            let addr = (regs.get_i(base) as u64).wrapping_add_signed(off as i64);
            hook(MemEvent {
                pc,
                addr,
                width: Width::D,
                kind: MemKind::Load,
            });
            regs.set_f(dst, mem.read_f64(addr)?);
            Ok(next)
        }
        Instr::Store {
            src,
            base,
            off,
            width,
        } => {
            let addr = (regs.get_i(base) as u64).wrapping_add_signed(off as i64);
            hook(MemEvent {
                pc,
                addr,
                width,
                kind: MemKind::Store,
            });
            mem.store(addr, width, regs.get_i(src))?;
            Ok(next)
        }
        Instr::StoreF { src, base, off } => {
            let addr = (regs.get_i(base) as u64).wrapping_add_signed(off as i64);
            hook(MemEvent {
                pc,
                addr,
                width: Width::D,
                kind: MemKind::Store,
            });
            mem.write_f64(addr, regs.get_f(src))?;
            Ok(next)
        }
        Instr::Prefetch { base, off } => {
            let addr = (regs.get_i(base) as u64).wrapping_add_signed(off as i64);
            hook(MemEvent {
                pc,
                addr,
                width: Width::D,
                kind: MemKind::Prefetch,
            });
            Ok(next)
        }
        Instr::LoadQ {
            q,
            base,
            off,
            width,
            signed,
        } => {
            let addr = (regs.get_i(base) as u64).wrapping_add_signed(off as i64);
            let v = mem.load(addr, width, signed)?;
            match env.push(q, v as u64)? {
                PushResult::Done => {
                    hook(MemEvent {
                        pc,
                        addr,
                        width,
                        kind: MemKind::Load,
                    });
                    Ok(next)
                }
                PushResult::Blocked => Ok(Step::Blocked),
            }
        }
        Instr::StoreQ {
            q,
            base,
            off,
            width,
        } => match env.pop(q)? {
            PopResult::Value(v) => {
                let addr = (regs.get_i(base) as u64).wrapping_add_signed(off as i64);
                hook(MemEvent {
                    pc,
                    addr,
                    width,
                    kind: MemKind::Store,
                });
                mem.store(addr, width, v as i64)?;
                Ok(next)
            }
            PopResult::Blocked => Ok(Step::Blocked),
        },
        Instr::SendI { q, src } => match env.push(q, regs.get_i(src) as u64)? {
            PushResult::Done => Ok(next),
            PushResult::Blocked => Ok(Step::Blocked),
        },
        Instr::SendF { q, src } => match env.push(q, regs.get_f(src).to_bits())? {
            PushResult::Done => Ok(next),
            PushResult::Blocked => Ok(Step::Blocked),
        },
        Instr::RecvI { q, dst } => match env.pop(q)? {
            PopResult::Value(v) => {
                regs.set_i(dst, v as i64);
                Ok(next)
            }
            PopResult::Blocked => Ok(Step::Blocked),
        },
        Instr::RecvF { q, dst } => match env.pop(q)? {
            PopResult::Value(v) => {
                regs.set_f(dst, f64::from_bits(v));
                Ok(next)
            }
            PopResult::Blocked => Ok(Step::Blocked),
        },
        Instr::PutScq => match env.push(Queue::Scq, 1)? {
            PushResult::Done => Ok(next),
            PushResult::Blocked => Ok(Step::Blocked),
        },
        Instr::GetScq => match env.pop(Queue::Scq)? {
            PopResult::Value(_) => Ok(next),
            PopResult::Blocked => Ok(Step::Blocked),
        },
        Instr::Branch { cond, a, b, target } => {
            let taken = cond.eval(regs.get_i(a), regs.get_i(b));
            if annot.push_cq {
                match env.push(Queue::Cq, taken as u64)? {
                    PushResult::Done => {}
                    PushResult::Blocked => return Ok(Step::Blocked),
                }
            }
            Ok(Step::Next(if taken { target } else { pc + 1 }))
        }
        Instr::Jump { target } => {
            if annot.push_cq {
                match env.push(Queue::Cq, 1)? {
                    PushResult::Done => {}
                    PushResult::Blocked => return Ok(Step::Blocked),
                }
            }
            Ok(Step::Next(target))
        }
        Instr::CBranch { target } => match env.pop(Queue::Cq)? {
            PopResult::Value(v) => Ok(Step::Next(if v != 0 { target } else { pc + 1 })),
            PopResult::Blocked => Ok(Step::Blocked),
        },
        Instr::Halt => {
            if annot.push_cq {
                // A halting stream tells its peer the program is over; the
                // peer's matching instruction is its own halt, so no token
                // is needed. Guarded here for completeness.
                let _ = env.push(Queue::Cq, 0)?;
            }
            Ok(Step::Halt)
        }
        Instr::Nop => Ok(next),
        #[allow(unreachable_patterns)]
        _ => Err(exec_err("unimplemented instruction".into())),
    }
}

/// Statistics from a sequential functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Dynamic instructions executed (the "useful work" measure used for
    /// IPC across all machine models).
    pub instrs: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic conditional branches.
    pub branches: u64,
    /// ... of which taken.
    pub taken: u64,
}

/// Sequential reference interpreter.
///
/// Runs a conventional (queue-free) program to completion, producing the
/// golden architectural state and the dynamic-instruction statistics used
/// as the work measure by every timing model.
#[derive(Debug)]
pub struct Interp<'a> {
    /// The program being executed.
    pub prog: &'a Program,
    /// Register state.
    pub regs: RegFile,
    /// Memory state (architectural).
    pub mem: Memory,
    /// Next instruction to execute.
    pub pc: u32,
    /// Set after `halt`.
    pub halted: bool,
    /// Execution statistics.
    pub stats: RunStats,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter over `prog` with the given initial memory.
    pub fn new(prog: &'a Program, mem: Memory) -> Interp<'a> {
        Interp {
            prog,
            regs: RegFile::new(),
            mem,
            pc: 0,
            halted: false,
            stats: RunStats::default(),
        }
    }

    /// Sets an integer register (for passing workload parameters).
    pub fn set_reg(&mut self, r: IntReg, v: i64) -> &mut Self {
        self.regs.set_i(r, v);
        self
    }

    /// Runs to `halt`, erroring after `max_steps` instructions (runaway
    /// guard).
    pub fn run(&mut self, max_steps: u64) -> Result<RunStats> {
        self.run_with_hook(max_steps, &mut |_| {})
    }

    /// Runs to `halt`, reporting every memory access to `hook`.
    pub fn run_with_hook(
        &mut self,
        max_steps: u64,
        hook: &mut impl FnMut(MemEvent),
    ) -> Result<RunStats> {
        let mut env = NoQueues;
        while !self.halted {
            if self.stats.instrs >= max_steps {
                return Err(IsaError::Exec {
                    pc: self.pc,
                    msg: format!("exceeded max steps ({max_steps})"),
                });
            }
            let instr = self.prog.get(self.pc).copied();
            match step_at(
                self.prog,
                self.pc,
                &mut self.regs,
                &mut self.mem,
                &mut env,
                hook,
            )? {
                Step::Next(n) => {
                    self.stats.instrs += 1;
                    if let Some(i) = instr {
                        if i.is_load() {
                            self.stats.loads += 1;
                        } else if i.is_store() {
                            self.stats.stores += 1;
                        } else if i.is_cond_branch() {
                            self.stats.branches += 1;
                            if n != self.pc + 1 {
                                self.stats.taken += 1;
                            }
                        }
                    }
                    self.pc = n;
                }
                Step::Halt => {
                    self.stats.instrs += 1;
                    self.halted = true;
                }
                Step::Blocked => {
                    return Err(IsaError::Exec {
                        pc: self.pc,
                        msg: "sequential program blocked on a queue".into(),
                    })
                }
            }
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_src(src: &str) -> Interp<'_> {
        // Leak is fine in tests: keeps the borrow simple.
        let prog = Box::leak(Box::new(assemble("t", src).unwrap()));
        let mut i = Interp::new(prog, Memory::new());
        i.run(1_000_000).unwrap();
        // move out
        Interp {
            prog: i.prog,
            regs: i.regs,
            mem: i.mem,
            pc: i.pc,
            halted: i.halted,
            stats: i.stats,
        }
    }

    #[test]
    fn arithmetic_loop_sums() {
        let i = run_src(
            r"
            li r1, 0
            li r2, 10
        loop:
            add r1, r1, r2
            sub r2, r2, 1
            bne r2, r0, loop
            halt
        ",
        );
        assert_eq!(i.regs.get_i(IntReg::new(1)), 55);
        assert_eq!(i.stats.branches, 10);
        assert_eq!(i.stats.taken, 9);
    }

    #[test]
    fn memory_round_trip_and_stats() {
        let i = run_src(
            r"
            li r1, 0x1000
            li r2, 77
            sd r2, 0(r1)
            ld r3, 0(r1)
            add r4, r3, 1
            sd r4, 8(r1)
            halt
        ",
        );
        assert_eq!(i.mem.read_i64(0x1008).unwrap(), 78);
        assert_eq!(i.stats.loads, 1);
        assert_eq!(i.stats.stores, 2);
    }

    #[test]
    fn fp_pipeline() {
        let i = run_src(
            r"
            li r1, 3
            cvt.d.l f1, r1
            mul.d f2, f1, f1
            sqrt.d f3, f2
            cvt.l.d r2, f3
            halt
        ",
        );
        assert_eq!(i.regs.get_i(IntReg::new(2)), 3);
    }

    #[test]
    fn fp_cmp_sets_int() {
        let i = run_src(
            r"
            li r1, 1
            cvt.d.l f1, r1
            li r2, 2
            cvt.d.l f2, r2
            c.lt.d r3, f1, f2
            c.eq.d r4, f1, f2
            halt
        ",
        );
        assert_eq!(i.regs.get_i(IntReg::new(3)), 1);
        assert_eq!(i.regs.get_i(IntReg::new(4)), 0);
    }

    #[test]
    fn queue_ops_rejected_sequentially() {
        let prog = assemble("t", "recv r1, LDQ\nhalt").unwrap();
        let mut i = Interp::new(&prog, Memory::new());
        assert!(i.run(10).is_err());
    }

    #[test]
    fn step_limit_enforced() {
        let prog = assemble("t", "loop: j loop\nhalt").unwrap();
        let mut i = Interp::new(&prog, Memory::new());
        assert!(i.run(100).is_err());
    }

    #[test]
    fn mem_hook_sees_accesses() {
        let prog = assemble("t", "li r1, 0x2000\nld r2, 0(r1)\npref 8(r1)\nhalt").unwrap();
        let mut i = Interp::new(&prog, Memory::new());
        let mut events = Vec::new();
        i.run_with_hook(100, &mut |e| events.push(e)).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, MemKind::Load);
        assert_eq!(events[0].addr, 0x2000);
        assert_eq!(events[1].kind, MemKind::Prefetch);
        assert_eq!(events[1].addr, 0x2008);
    }

    #[test]
    fn cvt_fi_saturates() {
        assert_eq!(f64_to_i64(f64::NAN), 0);
        assert_eq!(f64_to_i64(1e300), i64::MAX);
        assert_eq!(f64_to_i64(-1e300), i64::MIN);
        assert_eq!(f64_to_i64(-2.9), -2);
    }
}
