//! Property tests for the ISA layer: assembler round-trips over arbitrary
//! instructions, and memory laws.

use hidisc_isa::asm::assemble;
use hidisc_isa::instr::{BranchCond, Src, Width};
use hidisc_isa::mem::Memory;
use hidisc_isa::{FpBinOp, FpCmpOp, FpReg, FpUnOp, Instr, IntOp, IntReg, Queue};
use proptest::prelude::*;

fn int_reg() -> impl Strategy<Value = IntReg> {
    (0u8..32).prop_map(IntReg::new)
}

fn fp_reg() -> impl Strategy<Value = FpReg> {
    (0u8..32).prop_map(FpReg::new)
}

fn queue() -> impl Strategy<Value = Queue> {
    prop_oneof![
        Just(Queue::Ldq),
        Just(Queue::Sdq),
        Just(Queue::Cdq),
        Just(Queue::Cq),
        Just(Queue::Scq),
    ]
}

fn int_op() -> impl Strategy<Value = IntOp> {
    prop_oneof![
        Just(IntOp::Add),
        Just(IntOp::Sub),
        Just(IntOp::Mul),
        Just(IntOp::Div),
        Just(IntOp::Rem),
        Just(IntOp::And),
        Just(IntOp::Or),
        Just(IntOp::Xor),
        Just(IntOp::Sll),
        Just(IntOp::Srl),
        Just(IntOp::Sra),
        Just(IntOp::Slt),
        Just(IntOp::Sltu),
    ]
}

fn width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::B),
        Just(Width::H),
        Just(Width::W),
        Just(Width::D)
    ]
}

fn cond() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

/// Arbitrary non-control instruction (control targets need a program
/// context, handled separately).
fn any_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (int_op(), int_reg(), int_reg(), int_reg()).prop_map(|(op, dst, a, b)| Instr::IntOp {
            op,
            dst,
            a,
            b: Src::Reg(b)
        }),
        (int_op(), int_reg(), int_reg(), any::<i32>()).prop_map(|(op, dst, a, i)| Instr::IntOp {
            op,
            dst,
            a,
            b: Src::Imm(i as i64)
        }),
        (int_reg(), any::<i32>()).prop_map(|(dst, i)| Instr::Li { dst, imm: i as i64 }),
        (fp_reg(), fp_reg(), fp_reg()).prop_map(|(d, a, b)| Instr::FpBin {
            op: FpBinOp::Mul,
            dst: d,
            a,
            b
        }),
        (fp_reg(), fp_reg()).prop_map(|(d, a)| Instr::FpUn {
            op: FpUnOp::Sqrt,
            dst: d,
            a
        }),
        (int_reg(), fp_reg(), fp_reg()).prop_map(|(d, a, b)| Instr::FpCmp {
            op: FpCmpOp::Le,
            dst: d,
            a,
            b
        }),
        (fp_reg(), int_reg()).prop_map(|(d, s)| Instr::CvtIf { dst: d, src: s }),
        (int_reg(), fp_reg()).prop_map(|(d, s)| Instr::CvtFi { dst: d, src: s }),
        (int_reg(), int_reg(), any::<i16>(), width(), any::<bool>()).prop_map(
            |(dst, base, off, width, signed)| Instr::Load {
                dst,
                base,
                off: off as i32,
                width,
                // signedness is meaningless (and not rendered) at D width
                signed: signed || width == Width::D,
            }
        ),
        (fp_reg(), int_reg(), any::<i16>()).prop_map(|(dst, base, off)| Instr::LoadF {
            dst,
            base,
            off: off as i32
        }),
        (int_reg(), int_reg(), any::<i16>(), width()).prop_map(|(src, base, off, width)| {
            Instr::Store {
                src,
                base,
                off: off as i32,
                width,
            }
        }),
        (fp_reg(), int_reg(), any::<i16>()).prop_map(|(src, base, off)| Instr::StoreF {
            src,
            base,
            off: off as i32
        }),
        (int_reg(), any::<i16>()).prop_map(|(base, off)| Instr::Prefetch {
            base,
            off: off as i32
        }),
        (queue(), int_reg(), any::<i16>(), width(), any::<bool>()).prop_map(
            |(q, base, off, width, signed)| Instr::LoadQ {
                q,
                base,
                off: off as i32,
                width,
                signed: signed || width == Width::D,
            }
        ),
        (queue(), int_reg(), any::<i16>(), width()).prop_map(|(q, base, off, width)| {
            Instr::StoreQ {
                q,
                base,
                off: off as i32,
                width,
            }
        }),
        (queue(), int_reg()).prop_map(|(q, src)| Instr::SendI { q, src }),
        (queue(), fp_reg()).prop_map(|(q, src)| Instr::SendF { q, src }),
        (queue(), int_reg()).prop_map(|(q, dst)| Instr::RecvI { q, dst }),
        (queue(), fp_reg()).prop_map(|(q, dst)| Instr::RecvF { q, dst }),
        Just(Instr::PutScq),
        Just(Instr::GetScq),
        Just(Instr::Nop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn assembler_round_trips_instruction_sequences(
        instrs in prop::collection::vec(any_instr(), 1..40)
    ) {
        let mut p = hidisc_isa::Program::new("prop");
        for i in &instrs {
            p.push(*i);
        }
        p.push(Instr::Halt);
        let text = p.to_string();
        let p2 = assemble("prop", &text).unwrap();
        prop_assert_eq!(p.instrs(), p2.instrs());
    }

    #[test]
    fn control_instructions_round_trip(
        n in 2u32..20,
        c in cond(),
        a in int_reg(),
        b in int_reg(),
    ) {
        let mut p = hidisc_isa::Program::new("prop");
        for _ in 0..n {
            p.push(Instr::Nop);
        }
        // branch backwards into the nops, jump to halt
        p.push(Instr::Branch { cond: c, a, b, target: n / 2 });
        let halt_at = p.len() + 1;
        p.push(Instr::Jump { target: halt_at });
        p.push(Instr::Halt);
        let text = p.to_string();
        let p2 = assemble("prop", &text).unwrap();
        prop_assert_eq!(p.instrs(), p2.instrs());
    }

    #[test]
    fn memory_read_back_what_you_wrote(
        writes in prop::collection::vec((0u64..1 << 20, any::<i64>()), 1..64)
    ) {
        let mut m = Memory::new();
        let mut model = std::collections::HashMap::new();
        for (slot, v) in &writes {
            let addr = slot * 8;
            m.write_i64(addr, *v).unwrap();
            model.insert(addr, *v);
        }
        for (addr, v) in &model {
            prop_assert_eq!(m.read_i64(*addr).unwrap(), *v);
        }
    }

    #[test]
    fn memory_byte_and_word_views_agree(v in any::<i64>(), slot in 0u64..1024) {
        let addr = slot * 8;
        let mut m = Memory::new();
        m.write_i64(addr, v).unwrap();
        let mut from_bytes = 0u64;
        for k in 0..8 {
            from_bytes |= (m.read_u8(addr + k) as u64) << (8 * k);
        }
        prop_assert_eq!(from_bytes as i64, v);
    }

    #[test]
    fn interp_is_deterministic(seed in any::<u64>()) {
        use hidisc_isa::testgen::{random_program, GenConfig};
        use hidisc_isa::interp::Interp;
        let (p, mem, regs) = random_program(seed, GenConfig::default());
        let run = |mem: Memory| {
            let mut i = Interp::new(&p, mem);
            for &(r, v) in &regs {
                i.set_reg(r, v);
            }
            i.run(2_000_000).unwrap();
            (i.mem.checksum(), i.stats)
        };
        let (c1, s1) = run(mem.clone());
        let (c2, s2) = run(mem);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(s1, s2);
    }
}
