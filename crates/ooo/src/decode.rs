//! The per-core decoded-instruction table.
//!
//! A core's program is static, so every fact the pipeline stages ask of an
//! instruction — its functional-unit class and latency, the rename slots
//! it reads and writes, its class (memory, load, store, branch, ...), the
//! queue it pushes at commit and the annotation effects of retiring it —
//! is decoded once, when the core is built, into one small `Copy` entry
//! per pc. The fetch queue and the RUU carry only a pc; fetch, dispatch,
//! issue and commit read this table instead of matching the `Instr` enum
//! again every cycle. Functional execution and the LSQ entry, which need
//! the operands, read the instruction from the program by pc.

use crate::config::CoreConfig;
use crate::fu::{latency_of, FuPool};
use hidisc_isa::instr::{FuClass, RegRef};
use hidisc_isa::reg::{NUM_FP_REGS, NUM_INT_REGS};
use hidisc_isa::{Annot, Instr, Program, Queue};

/// Rename-table slots: one per architectural register, integer file first.
pub(crate) const RENAME_SLOTS: usize = NUM_INT_REGS + NUM_FP_REGS;

/// The rename slot of a register reference.
fn rename_slot(r: RegRef) -> usize {
    match r {
        RegRef::Int(r) => r.index(),
        RegRef::Fp(r) => NUM_INT_REGS + r.index(),
    }
}

/// A `def`/`uses` entry naming no register.
pub(crate) const NO_REG: u8 = u8::MAX;

/// Reads or writes data memory (prefetches included).
pub(crate) const MEM: u16 = 1 << 0;
/// A load that returns data (`ld`, `l.d`, `l.q`).
pub(crate) const LOAD: u16 = 1 << 1;
/// A store (`sd`, `s.d`, `s.q`).
pub(crate) const STORE: u16 = 1 << 2;
/// `pref`.
pub(crate) const PREFETCH: u16 = 1 << 3;
/// A conditional branch: a compare branch or a consume-branch.
pub(crate) const COND_BRANCH: u16 = 1 << 4;
/// A consume-branch (`cbr`).
pub(crate) const CBRANCH: u16 = 1 << 5;
/// An unconditional jump.
pub(crate) const JUMP: u16 = 1 << 6;
/// `halt`.
pub(crate) const HALT: u16 = 1 << 7;
/// Commit pushes the branch outcome to the CQ (`push_cq` on control).
pub(crate) const PUSH_CQ: u16 = 1 << 8;
/// Retiring it decrements the SCQ semaphore (`scq_get`).
pub(crate) const SCQ_GET: u16 = 1 << 9;
/// Retiring it forks CMAS thread `cmas` (`trigger`).
pub(crate) const TRIGGER: u16 = 1 << 10;
/// This core has no functional unit for it: a memory instruction with no
/// memory ports, or an fp instruction with no fp unit of its class. Only
/// dispatching it is an error; an instruction on a path never taken is
/// not.
pub(crate) const UNSUPPORTED: u16 = 1 << 11;

/// What the pipeline needs of the instruction at one pc.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    /// Class and annotation bits (`MEM`, `LOAD`, ..., `UNSUPPORTED`).
    pub(crate) flags: u16,
    /// Functional-unit class.
    pub(crate) fu: FuClass,
    /// The queue the instruction itself pushes at commit.
    pub(crate) push: Option<Queue>,
    /// Rename slot of the register written, or [`NO_REG`].
    pub(crate) def: u8,
    /// Rename slots of the registers read, in operand order; unused
    /// operands are [`NO_REG`].
    pub(crate) uses: [u8; 3],
    /// Execution latency against the core's latency table.
    pub(crate) latency: u32,
    /// Branch, jump or consume-branch target (0 for anything else).
    pub(crate) target: u32,
    /// CMAS thread forked at retire (meaningful with [`TRIGGER`]).
    pub(crate) cmas: u32,
}

impl Decoded {
    /// Decodes `instr`, annotated `annot`, for a core with configuration
    /// `cfg` and functional units `fu`.
    fn new(instr: &Instr, annot: &Annot, cfg: &CoreConfig, fu: &FuPool) -> Decoded {
        let slot = |r: Option<RegRef>| r.map_or(NO_REG, |r| rename_slot(r) as u8);
        let bits = [
            (MEM, instr.is_mem()),
            (LOAD, instr.is_load()),
            (STORE, instr.is_store()),
            (PREFETCH, matches!(instr, Instr::Prefetch { .. })),
            (COND_BRANCH, instr.is_cond_branch()),
            (CBRANCH, matches!(instr, Instr::CBranch { .. })),
            (JUMP, matches!(instr, Instr::Jump { .. })),
            (HALT, matches!(instr, Instr::Halt)),
            (PUSH_CQ, annot.push_cq && instr.is_control()),
            (SCQ_GET, annot.scq_get),
            (TRIGGER, annot.trigger.is_some()),
            (
                UNSUPPORTED,
                (instr.is_mem() && !fu.exists(FuClass::Mem))
                    || (instr.is_fp() && !fu.exists(instr.fu_class())),
            ),
        ];
        Decoded {
            flags: bits
                .iter()
                .filter(|&&(_, on)| on)
                .fold(0, |acc, &(bit, _)| acc | bit),
            fu: instr.fu_class(),
            push: instr.queue_push(),
            def: slot(instr.def()),
            uses: instr.uses().map(slot),
            latency: latency_of(instr, &cfg.lat),
            target: instr.target().unwrap_or(0),
            cmas: annot.trigger.unwrap_or(0),
        }
    }

    /// True when every bit of `bits` is set.
    #[inline]
    pub(crate) fn is(&self, bits: u16) -> bool {
        self.flags & bits == bits
    }
}

/// Decodes every instruction of `prog` for a core configured `cfg`: entry
/// `pc` describes `prog.instr(pc)`.
pub(crate) fn decode(prog: &Program, cfg: &CoreConfig) -> Box<[Decoded]> {
    let fu = FuPool::new(cfg);
    prog.instrs()
        .iter()
        .zip(prog.annots())
        .map(|(i, a)| Decoded::new(i, a, cfg, &fu))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::testgen::{random_program, GenConfig, XorShift};
    use hidisc_slicer::{compile, CompilerConfig, ExecEnv};
    use hidisc_workloads::{suite, Scale};
    use proptest::prelude::*;

    /// The three Table-1 cores: their FU mixes differ, so the latency and
    /// the `UNSUPPORTED` bit do too.
    fn cores() -> [CoreConfig; 3] {
        [
            CoreConfig::paper_superscalar(),
            CoreConfig::paper_cp(),
            CoreConfig::paper_ap(),
        ]
    }

    /// Every table entry of `prog`, on every core, agrees with the
    /// `Instr`/`Annot` methods it replaces. Returns the union of the
    /// entries' flags.
    fn check_table(prog: &Program) -> u16 {
        let mut seen = 0;
        let slot = |r: Option<RegRef>| r.map_or(NO_REG, |r| rename_slot(r) as u8);
        for cfg in cores() {
            let fu = FuPool::new(&cfg);
            let table = decode(prog, &cfg);
            assert_eq!(table.len(), prog.len() as usize, "{}", prog.name);
            for (pc, d) in table.iter().enumerate() {
                let i = prog.instr(pc as u32);
                let a = prog.annot(pc as u32);
                let at = format!("{} pc {pc} ({i:?}, {a:?})", prog.name);
                assert_eq!(d.is(MEM), i.is_mem(), "is_mem: {at}");
                assert_eq!(d.is(LOAD), i.is_load(), "is_load: {at}");
                assert_eq!(d.is(STORE), i.is_store(), "is_store: {at}");
                let prefetch = matches!(i, Instr::Prefetch { .. });
                assert_eq!(d.is(PREFETCH), prefetch, "prefetch: {at}");
                assert_eq!(d.is(COND_BRANCH), i.is_cond_branch(), "cond: {at}");
                let cbranch = matches!(i, Instr::CBranch { .. });
                assert_eq!(d.is(CBRANCH), cbranch, "cbr: {at}");
                assert_eq!(d.is(JUMP), matches!(i, Instr::Jump { .. }), "j: {at}");
                assert_eq!(d.is(HALT), matches!(i, Instr::Halt), "halt: {at}");
                assert_eq!(d.fu, i.fu_class(), "fu_class: {at}");
                assert_eq!(d.latency, latency_of(i, &cfg.lat), "latency_of: {at}");
                assert_eq!(d.def, slot(i.def()), "def: {at}");
                assert_eq!(d.uses, i.uses().map(slot), "uses: {at}");
                assert_eq!(d.push, i.queue_push(), "queue_push: {at}");
                assert_eq!(d.target, i.target().unwrap_or(0), "target: {at}");
                let push_cq = a.push_cq && i.is_control();
                assert_eq!(d.is(PUSH_CQ), push_cq, "push_cq: {at}");
                assert_eq!(d.is(SCQ_GET), a.scq_get, "scq_get: {at}");
                assert_eq!(d.is(TRIGGER).then_some(d.cmas), a.trigger, "trigger: {at}");
                let unsupported = (i.is_mem() && !fu.exists(FuClass::Mem))
                    || (i.is_fp() && !fu.exists(i.fu_class()));
                assert_eq!(d.is(UNSUPPORTED), unsupported, "unsupported: {at}");
                seen |= d.flags;
            }
        }
        seen
    }

    #[test]
    fn every_workload_stream_decodes_like_the_instr_methods() {
        let mut seen = 0;
        for w in suite(Scale::Test, 42) {
            let env = ExecEnv {
                regs: w.regs.clone(),
                mem: w.mem.clone(),
                max_steps: w.max_steps,
            };
            let c = compile(&w.prog, &env, &CompilerConfig::default())
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
            for prog in [&c.original, &c.cs, &c.access] {
                seen |= check_table(prog);
            }
            for t in &c.cmas {
                seen |= check_table(&t.prog);
            }
        }
        // The compiled suite exercises every bit the table holds.
        let all = MEM | LOAD | STORE | PREFETCH | COND_BRANCH | CBRANCH | JUMP | HALT;
        let all = all | PUSH_CQ | SCQ_GET | TRIGGER | UNSUPPORTED;
        assert_eq!(seen, all, "bits never set: {:#x}", all & !seen);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Generated programs, with every annotation bit the table reads
        /// set at random (on any instruction, not only where the compiler
        /// would put it).
        #[test]
        fn random_programs_with_random_annotations_decode_like_the_instr_methods(
            seed in any::<u64>(),
            annot_seed in any::<u64>(),
        ) {
            let (mut prog, _, _) = random_program(seed, GenConfig::default());
            let mut rng = XorShift::new(annot_seed);
            for pc in 0..prog.len() {
                let a = prog.annot_mut(pc);
                a.push_cq = rng.chance(30);
                a.scq_get = rng.chance(30);
                a.trigger = rng.chance(30).then(|| rng.below(8) as u32);
            }
            check_table(&prog);
        }
    }
}
