//! Functional validation of stream separation.
//!
//! Runs the Computation and Access streams concurrently at the
//! architectural level (no timing, unbounded queues) and checks they
//! reproduce the sequential program's memory state. This isolates slicer
//! bugs from timing-model bugs and is fast enough for property tests.

use hidisc_isa::interp::{PopResult, PushResult, QueueEnv, RegFile, Step};
use hidisc_isa::mem::Memory;
use hidisc_isa::{IntReg, IsaError, Program, Queue, Result};
use std::collections::VecDeque;

/// Unbounded queues: pushes always succeed, pops block on empty (except
/// the SCQ, whose `getscq` is non-blocking by architecture).
#[derive(Debug, Default)]
pub struct UnboundedQueues {
    q: [VecDeque<u64>; 5],
}

impl QueueEnv for UnboundedQueues {
    fn pop(&mut self, q: Queue) -> Result<PopResult> {
        match self.q[q.index()].pop_front() {
            Some(v) => Ok(PopResult::Value(v)),
            None if q == Queue::Scq => Ok(PopResult::Value(0)),
            None => Ok(PopResult::Blocked),
        }
    }
    fn push(&mut self, q: Queue, v: u64) -> Result<PushResult> {
        self.q[q.index()].push_back(v);
        Ok(PushResult::Done)
    }
}

impl UnboundedQueues {
    /// Occupancy of one queue.
    pub fn len(&self, q: Queue) -> usize {
        self.q[q.index()].len()
    }

    /// True when all data queues are drained (SCQ may legitimately retain
    /// slip tokens).
    pub fn drained(&self) -> bool {
        [Queue::Ldq, Queue::Sdq, Queue::Cdq, Queue::Cq]
            .into_iter()
            .all(|q| self.q[q.index()].is_empty())
    }
}

/// Outcome of a decoupled functional run.
#[derive(Debug)]
pub struct DecoupledRun {
    /// Final memory (all memory traffic goes through the Access Stream).
    pub mem: Memory,
    /// Final CP register file.
    pub cp_regs: RegFile,
    /// Final AP register file.
    pub ap_regs: RegFile,
    /// Steps executed by the CP.
    pub cp_steps: u64,
    /// Steps executed by the AP.
    pub ap_steps: u64,
    /// Residual queue state.
    pub queues: UnboundedQueues,
}

struct StreamCtx<'a> {
    prog: &'a Program,
    pc: u32,
    regs: RegFile,
    halted: bool,
    steps: u64,
}

impl<'a> StreamCtx<'a> {
    fn new(prog: &'a Program, init: &[(IntReg, i64)]) -> StreamCtx<'a> {
        let mut regs = RegFile::new();
        for &(r, v) in init {
            regs.set_i(r, v);
        }
        StreamCtx {
            prog,
            pc: 0,
            regs,
            halted: false,
            steps: 0,
        }
    }
}

/// Runs the CS/AS pair functionally. Returns an error on deadlock (both
/// streams blocked) or when `max_steps` total steps are exceeded.
pub fn run_decoupled(
    cs: &Program,
    access: &Program,
    init: &[(IntReg, i64)],
    mem: Memory,
    max_steps: u64,
) -> Result<DecoupledRun> {
    let mut mem = mem;
    let mut env = UnboundedQueues::default();
    let mut cp = StreamCtx::new(cs, init);
    let mut ap = StreamCtx::new(access, init);
    let mut hook = |_e| {};

    let mut total = 0u64;
    loop {
        let mut progressed = false;
        // Let each stream run until it blocks (bounded per round so a
        // runaway loop still hits max_steps).
        for s in [&mut ap, &mut cp] {
            let mut burst = 0;
            while !s.halted && burst < 50_000 {
                match hidisc_isa::interp::step_at(
                    s.prog,
                    s.pc,
                    &mut s.regs,
                    &mut mem,
                    &mut env,
                    &mut hook,
                )? {
                    Step::Next(n) => {
                        s.pc = n;
                        s.steps += 1;
                        total += 1;
                        progressed = true;
                        burst += 1;
                    }
                    Step::Halt => {
                        s.halted = true;
                        s.steps += 1;
                        total += 1;
                        progressed = true;
                    }
                    Step::Blocked => break,
                }
                if total > max_steps {
                    return Err(IsaError::Exec {
                        pc: s.pc,
                        msg: format!("decoupled run exceeded {max_steps} steps"),
                    });
                }
            }
        }
        if cp.halted && ap.halted {
            break;
        }
        if !progressed {
            return Err(IsaError::Exec {
                pc: cp.pc,
                msg: format!(
                    "decoupled deadlock: CP blocked at {} ({}), AP blocked at {} ({})",
                    cp.pc,
                    hidisc_isa::asm::render_instr(cs.instr(cp.pc.min(cs.len() - 1)), cs),
                    ap.pc,
                    hidisc_isa::asm::render_instr(
                        access.instr(ap.pc.min(access.len() - 1)),
                        access
                    ),
                ),
            });
        }
    }

    Ok(DecoupledRun {
        mem,
        cp_regs: cp.regs,
        ap_regs: ap.regs,
        cp_steps: cp.steps,
        ap_steps: ap.steps,
        queues: env,
    })
}

/// Compiles nothing — validates an already-compiled workload: the
/// decoupled functional run must reproduce the sequential memory image.
pub fn validate(w: &hidisc_slicer::CompiledWorkload, env: &hidisc_slicer::ExecEnv) -> Result<()> {
    // Sequential golden run.
    let mut seq = hidisc_isa::interp::Interp::new(&w.original, env.mem.clone());
    for &(r, v) in &env.regs {
        seq.set_reg(r, v);
    }
    let max = if env.max_steps == 0 {
        u64::MAX
    } else {
        env.max_steps
    };
    seq.run(max)?;

    // Decoupled run.
    let d = run_decoupled(
        &w.cs,
        &w.access,
        &env.regs,
        env.mem.clone(),
        max.saturating_mul(4),
    )?;

    if d.mem.checksum() != seq.mem.checksum() {
        return Err(IsaError::Exec {
            pc: 0,
            msg: format!(
                "decoupled memory state diverged from sequential (workload {})",
                w.original.name
            ),
        });
    }
    if !d.queues.drained() {
        return Err(IsaError::Exec {
            pc: 0,
            msg: "data queues not drained at end of decoupled run".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::asm::assemble;
    use hidisc_slicer::{compile, CompilerConfig, ExecEnv};

    fn check(src: &str, mem_init: &[(u64, i64)]) {
        let p = assemble("v", src).unwrap();
        let mut mem = Memory::new();
        for &(a, v) in mem_init {
            mem.write_i64(a, v).unwrap();
        }
        let env = ExecEnv {
            regs: vec![],
            mem,
            max_steps: 10_000_000,
        };
        let w = compile(&p, &env, &CompilerConfig::default()).unwrap();
        validate(&w, &env).unwrap();
    }

    #[test]
    fn load_compute_store_kernel() {
        check(
            r"
            li r1, 0x1000
            li r2, 16
        loop:
            ld r3, 0(r1)
            add r4, r3, 7
            sd r4, 0x100(r1)
            add r1, r1, 8
            sub r2, r2, 1
            bne r2, r0, loop
            halt
        ",
            &[(0x1000, 5), (0x1008, 9)],
        );
    }

    #[test]
    fn fp_reduction_via_queues() {
        check(
            r"
            li r1, 0x1000
            li r2, 8
        loop:
            l.d f1, 0(r1)
            add.d f2, f2, f1
            add r1, r1, 8
            sub r2, r2, 1
            bne r2, r0, loop
            s.d f2, 0x2000(r0)
            halt
        ",
            &[(0x1000, 0), (0x1008, 0)],
        );
    }

    #[test]
    fn branchy_control_flow() {
        check(
            r"
            li r1, 0x1000
            li r2, 32
            li r5, 0
        loop:
            ld r3, 0(r1)
            rem r4, r3, 2
            beq r4, r0, even
            add r5, r5, r3
            j next
        even:
            sub r5, r5, r3
        next:
            add r1, r1, 8
            sub r2, r2, 1
            bne r2, r0, loop
            sd r5, 0x3000(r0)
            halt
        ",
            &[(0x1000, 3), (0x1008, 4), (0x1010, 5)],
        );
    }

    #[test]
    fn pointer_chase_with_store() {
        check(
            r"
            li r1, 0x1000
            li r2, 3
        loop:
            ld r3, 8(r1)      ; payload
            add r4, r3, 1
            sd r4, 8(r1)      ; update payload
            ld r1, 0(r1)      ; follow pointer
            sub r2, r2, 1
            bne r2, r0, loop
            halt
        ",
            &[
                (0x1000, 0x2000),
                (0x1008, 10),
                (0x2000, 0x3000),
                (0x2008, 20),
                (0x3000, 0x1000),
                (0x3008, 30),
            ],
        );
    }

    #[test]
    fn fp_derived_address_via_cdq() {
        check(
            r"
            li r1, 3
            cvt.d.l f1, r1
            mul.d f2, f1, f1
            cvt.l.d r2, f2
            sll r3, r2, 3
            ld r4, 0x1000(r3)
            sd r4, 0x2000(r0)
            halt
        ",
            &[(0x1000 + 9 * 8, 42)],
        );
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        // Hand-build a mis-matched pair: CP pops LDQ that nobody pushes.
        let cs = assemble("cs", "recv r1, LDQ\nhalt").unwrap();
        let access = assemble("as", "halt").unwrap();
        let err = run_decoupled(&cs, &access, &[], Memory::new(), 100_000).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("deadlock"), "{msg}");
    }
}
