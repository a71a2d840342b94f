//! Random structured-program generation for property tests.
//!
//! Generates terminating DISA programs with loops, branches, integer and
//! floating-point arithmetic, and loads/stores confined to a bounded
//! arena, from a single `u64` seed (a small internal xorshift keeps this
//! crate free of test-only dependencies). The whole simulation stack
//! property-tests itself against these: the out-of-order core against the
//! reference interpreter, and the stream separator + decoupled machines
//! against the sequential semantics.

use crate::asm::assemble;
use crate::mem::Memory;
use crate::op::{FpBinOp, IntOp};
use crate::program::Program;
use crate::reg::{FpReg, IntReg};
use std::fmt::{self, Write};

/// Deterministic xorshift64* generator.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Creates a generator (seed 0 is remapped).
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(2685821657736338717).max(1))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform choice from a slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Bernoulli with probability `pct`%.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Shape parameters for generated programs.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum loop nesting depth.
    pub max_depth: u32,
    /// Maximum straight-line statements per block.
    pub max_block: u32,
    /// Maximum iterations per generated loop.
    pub max_trip: i64,
    /// Include floating-point computation.
    pub with_fp: bool,
    /// Include loads/stores.
    pub with_mem: bool,
    /// Arena size in 8-byte words (memory accesses stay inside).
    pub arena_words: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 2,
            max_block: 6,
            max_trip: 6,
            with_fp: true,
            with_mem: true,
            arena_words: 64,
        }
    }
}

/// Base address of the generated programs' data arena.
pub const ARENA_BASE: u64 = 0x0004_0000;

/// Register conventions of generated programs: `r8` holds the arena base,
/// `r9` is the address register, `r1..r6` are scratch, `r20..r24` are loop
/// counters by depth.
const SCRATCH: [u8; 6] = [1, 2, 3, 4, 5, 6];
const FP_SCRATCH: [u8; 4] = [1, 2, 3, 4];

struct Gen {
    rng: XorShift,
    cfg: GenConfig,
    /// DISA source text emitted so far.
    src: String,
    label_n: u32,
}

impl Gen {
    fn fresh_label(&mut self, tag: &str) -> String {
        self.label_n += 1;
        format!("{tag}_{}", self.label_n)
    }

    fn scratch(&mut self) -> IntReg {
        IntReg::new(*self.rng.pick(&SCRATCH))
    }

    fn fp_scratch(&mut self) -> FpReg {
        FpReg::new(*self.rng.pick(&FP_SCRATCH))
    }

    /// Appends one instruction line.
    fn emit(&mut self, instr: fmt::Arguments) {
        writeln!(self.src, "    {instr}").expect("writing to a String cannot fail");
    }

    /// Defines a label at the next instruction.
    fn label(&mut self, name: &str) {
        writeln!(self.src, "{name}:").expect("writing to a String cannot fail");
    }

    /// Emits one random statement.
    fn stmt(&mut self) {
        let choice = self.rng.below(10);
        match choice {
            0..=3 => {
                // integer op
                let ops = [
                    IntOp::Add,
                    IntOp::Sub,
                    IntOp::Mul,
                    IntOp::And,
                    IntOp::Or,
                    IntOp::Xor,
                    IntOp::Slt,
                ];
                let op = *self.rng.pick(&ops);
                let (d, a, b2) = (self.scratch(), self.scratch(), self.scratch());
                if self.rng.chance(40) {
                    let imm = self.rng.below(64) as i64 - 32;
                    self.emit(format_args!("{op} {d}, {a}, {imm}"));
                } else {
                    self.emit(format_args!("{op} {d}, {a}, {b2}"));
                }
            }
            4 => {
                let d = self.scratch();
                let imm = self.rng.below(1024) as i64 - 512;
                self.emit(format_args!("li {d}, {imm}"));
            }
            5 | 6 if self.cfg.with_mem => {
                // load or store at a masked arena offset: mask the scratch
                // register into range (r9), then access.
                let v = self.scratch();
                let mask = self.cfg.arena_words - 1;
                self.emit(format_args!("and r9, {v}, {mask}"));
                self.emit(format_args!("sll r9, r9, 3"));
                self.emit(format_args!("add r9, r9, r8"));
                if self.rng.chance(50) {
                    let d = self.scratch();
                    self.emit(format_args!("ld {d}, 0(r9)"));
                } else {
                    let s = self.scratch();
                    self.emit(format_args!("sd {s}, 0(r9)"));
                }
            }
            7 if self.cfg.with_fp => {
                // fp compute chained from an integer value
                let f = self.fp_scratch();
                let g = self.fp_scratch();
                let s = self.scratch();
                self.emit(format_args!("cvt.d.l {f}, {s}"));
                let ops = [
                    FpBinOp::Add,
                    FpBinOp::Sub,
                    FpBinOp::Mul,
                    FpBinOp::Min,
                    FpBinOp::Max,
                ];
                let op = *self.rng.pick(&ops);
                self.emit(format_args!("{op} {g}, {g}, {f}"));
                if self.rng.chance(30) {
                    self.emit(format_args!("abs.d {g}, {g}"));
                }
                if self.rng.chance(40) {
                    let d = self.scratch();
                    self.emit(format_args!("cvt.l.d {d}, {g}"));
                    // keep converted values small so they can't corrupt
                    // address computation into unaligned territory
                    self.emit(format_args!("and {d}, {d}, 255"));
                }
            }
            _ => {
                // if/else diamond on a data-dependent condition
                let a = self.scratch();
                let else_l = self.fresh_label("else");
                let join_l = self.fresh_label("join");
                self.emit(format_args!("blt {a}, r0, {else_l}"));
                let d = self.scratch();
                self.emit(format_args!("add {d}, {d}, 1"));
                self.emit(format_args!("j {join_l}"));
                self.label(&else_l);
                let d = self.scratch();
                self.emit(format_args!("sub {d}, {d}, 1"));
                self.label(&join_l);
            }
        }
    }

    /// Emits a block of statements, possibly containing a nested counted
    /// loop.
    fn block(&mut self, depth: u32) {
        let n = 1 + self.rng.below(self.cfg.max_block as u64);
        for _ in 0..n {
            if depth < self.cfg.max_depth && self.rng.chance(25) {
                self.counted_loop(depth + 1);
            } else {
                self.stmt();
            }
        }
    }

    /// Emits a loop with a guaranteed-terminating counter.
    fn counted_loop(&mut self, depth: u32) {
        let counter = IntReg::new(20 + depth as u8);
        let trip = 1 + self.rng.below(self.cfg.max_trip as u64) as i64;
        let head = self.fresh_label("loop");
        self.emit(format_args!("li {counter}, {trip}"));
        self.label(&head);
        self.block(depth);
        self.emit(format_args!("sub {counter}, {counter}, 1"));
        self.emit(format_args!("bne {counter}, r0, {head}"));
    }
}

/// Generates a random structured program plus an initial memory image for
/// its arena. The program always terminates and never accesses memory
/// outside `[ARENA_BASE, ARENA_BASE + 8 * arena_words)`.
///
/// The program is emitted as DISA text and built by [`assemble`], like
/// every workload kernel.
pub fn random_program(seed: u64, cfg: GenConfig) -> (Program, Memory, Vec<(IntReg, i64)>) {
    let mut g = Gen {
        rng: XorShift::new(seed),
        cfg,
        src: String::new(),
        label_n: 0,
    };

    // Seed scratch registers with data-dependent values.
    for (i, &r) in SCRATCH.iter().enumerate() {
        let v = g.rng.below(1000) as i64 - 500 + i as i64;
        g.emit(format_args!("li r{r}, {v}"));
    }
    g.counted_loop(0);
    // Make results observable: store every scratch register to the arena.
    for (i, &r) in SCRATCH.iter().enumerate() {
        g.emit(format_args!("sd r{r}, {}(r8)", 8 * i));
    }
    g.emit(format_args!("halt"));
    let prog = assemble(format!("gen{seed}"), &g.src).expect("generated program is well-formed");

    let mut mem = Memory::new();
    let mut rng = XorShift::new(seed ^ 0xdead_beef);
    for w in 0..cfg.arena_words {
        mem.write_i64(ARENA_BASE + 8 * w, rng.below(1 << 20) as i64 - (1 << 19))
            .unwrap();
    }
    let regs = vec![(IntReg::new(8), ARENA_BASE as i64)];
    (prog, mem, regs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    #[test]
    fn generated_programs_validate_and_terminate() {
        for seed in 0..50 {
            let (p, mem, regs) = random_program(seed, GenConfig::default());
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut i = Interp::new(&p, mem);
            for &(r, v) in &regs {
                i.set_reg(r, v);
            }
            let st = i
                .run(2_000_000)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(st.instrs > 5, "seed {seed} trivially short");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, ma, _) = random_program(7, GenConfig::default());
        let (b, mb, _) = random_program(7, GenConfig::default());
        assert_eq!(a.instrs(), b.instrs());
        assert_eq!(ma.checksum(), mb.checksum());
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _, _) = random_program(1, GenConfig::default());
        let (b, _, _) = random_program(2, GenConfig::default());
        assert_ne!(a.instrs(), b.instrs());
    }

    #[test]
    fn memory_stays_in_arena() {
        use crate::interp::MemKind;
        for seed in 0..30 {
            let (p, mem, regs) = random_program(seed, GenConfig::default());
            let mut i = Interp::new(&p, mem);
            for &(r, v) in &regs {
                i.set_reg(r, v);
            }
            let hi = ARENA_BASE + 8 * GenConfig::default().arena_words;
            i.run_with_hook(2_000_000, &mut |e| {
                if e.kind != MemKind::Prefetch {
                    assert!(
                        e.addr >= ARENA_BASE && e.addr < hi,
                        "seed {seed}: access at {:#x} outside arena",
                        e.addr
                    );
                }
            })
            .unwrap();
        }
    }

    /// Pins every generated program, arena image and initial register
    /// set: the property suites driven by this generator run exactly
    /// these cases.
    #[test]
    fn generated_programs_are_pinned() {
        fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h
        }
        let int_only = GenConfig {
            with_fp: false,
            ..GenConfig::default()
        };
        let mut h = 0xcbf2_9ce4_8422_2325;
        for cfg in [GenConfig::default(), int_only] {
            for seed in 0..64 {
                let (p, mem, regs) = random_program(seed, cfg);
                h = fnv(h, p.to_string().as_bytes());
                h = fnv(h, &mem.checksum().to_le_bytes());
                for (r, v) in regs {
                    h = fnv(h, &[r.index() as u8]);
                    h = fnv(h, &v.to_le_bytes());
                }
            }
        }
        assert_eq!(h, 0xb758_eec0_3796_fddb, "generated programs changed");
    }

    #[test]
    fn int_only_config_has_no_fp() {
        let cfg = GenConfig {
            with_fp: false,
            ..GenConfig::default()
        };
        for seed in 0..20 {
            let (p, _, _) = random_program(seed, cfg);
            assert!(!p.instrs().iter().any(|i| i.is_fp()), "seed {seed}");
        }
    }
}
