//! The DISA text assembler and disassembler.
//!
//! [`assemble`] parses DISA text into a [`Program`]; [`render_instr`]
//! prints one instruction back in the canonical syntax the assembler
//! accepts (used by `Program`'s `Display`). The round-trip
//! `asm → text → asm` is property-tested. Grammar, line oriented:
//!
//! ```text
//! line      := [label ':'] [instruction] [comment]
//! comment   := (';' | '#') .*
//! operand   := reg | fpreg | queue | imm | mem | labelref
//! mem       := imm '(' reg ')'
//! reg       := 'r' 0..31      fpreg := 'f' 0..31
//! queue     := 'LDQ' | 'SDQ' | 'CDQ' | 'CQ' | 'SCQ'
//! labelref  := identifier | '@' index
//! ```
//!
//! Example:
//!
//! ```
//! use hidisc_isa::asm::assemble;
//! let p = assemble("sum", r"
//!     li   r1, 0          ; acc = 0
//!     li   r2, 10
//! loop:
//!     add  r1, r1, r2
//!     sub  r2, r2, 1
//!     bne  r2, r0, loop
//!     halt
//! ").unwrap();
//! assert_eq!(p.len(), 6);
//! ```

use crate::instr::{BranchCond, Instr, Src, Width};
use crate::op::{FpBinOp, FpCmpOp, FpUnOp, IntOp};
use crate::program::Program;
use crate::reg::{FpReg, IntReg, Queue};
use crate::{IsaError, Result};

/// One parsed operand.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Int(IntReg),
    Fp(FpReg),
    Q(Queue),
    Imm(i64),
    Mem { off: i32, base: IntReg },
    Label(String),
}

fn parse_int_reg(s: &str) -> Option<IntReg> {
    let n: u8 = s.strip_prefix('r')?.parse().ok()?;
    IntReg::try_new(n)
}

fn parse_fp_reg(s: &str) -> Option<FpReg> {
    let n: u8 = s.strip_prefix('f')?.parse().ok()?;
    FpReg::try_new(n)
}

fn parse_queue(s: &str) -> Option<Queue> {
    Some(match s.to_ascii_uppercase().as_str() {
        "LDQ" => Queue::Ldq,
        "SDQ" => Queue::Sdq,
        "CDQ" => Queue::Cdq,
        "CQ" => Queue::Cq,
        "SCQ" => Queue::Scq,
        _ => return None,
    })
}

fn parse_imm(s: &str) -> Option<i64> {
    let (neg, t) = match s.strip_prefix('-') {
        Some(t) => (true, t),
        None => (false, s),
    };
    let v = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(h, 16).ok()?
    } else {
        t.parse::<i64>().ok()?
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

fn parse_operand(s: &str, line: usize) -> Result<Tok> {
    let s = s.trim();
    if let Some(open) = s.find('(') {
        // memory operand: off(base)
        let close = s.rfind(')').ok_or_else(|| IsaError::Parse {
            line,
            msg: format!("missing ')' in `{s}`"),
        })?;
        let off_s = &s[..open];
        let base_s = &s[open + 1..close];
        let off = if off_s.is_empty() {
            0
        } else {
            parse_imm(off_s).ok_or_else(|| IsaError::Parse {
                line,
                msg: format!("bad offset `{off_s}`"),
            })?
        };
        let off = i32::try_from(off).map_err(|_| IsaError::Parse {
            line,
            msg: format!("offset {off} out of range"),
        })?;
        let base = parse_int_reg(base_s).ok_or_else(|| IsaError::Parse {
            line,
            msg: format!("bad base register `{base_s}`"),
        })?;
        return Ok(Tok::Mem { off, base });
    }
    if let Some(r) = parse_int_reg(s) {
        return Ok(Tok::Int(r));
    }
    if let Some(r) = parse_fp_reg(s) {
        return Ok(Tok::Fp(r));
    }
    if let Some(q) = parse_queue(s) {
        return Ok(Tok::Q(q));
    }
    if let Some(v) = parse_imm(s) {
        return Ok(Tok::Imm(v));
    }
    if s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '@' || c == '.')
        && !s.is_empty()
    {
        return Ok(Tok::Label(s.to_string()));
    }
    Err(IsaError::Parse {
        line,
        msg: format!("unrecognised operand `{s}`"),
    })
}

struct PendingTarget {
    pc: u32,
    label: String,
}

fn expect_n(ops: &[Tok], n: usize, line: usize, mnem: &str) -> Result<()> {
    if ops.len() != n {
        return Err(IsaError::Parse {
            line,
            msg: format!("`{mnem}` expects {n} operand(s), got {}", ops.len()),
        });
    }
    Ok(())
}

macro_rules! op_match {
    ($line:expr, $mnem:expr, $val:expr, $pat:pat => $out:expr, $want:expr) => {
        match $val.clone() {
            $pat => $out,
            other => {
                return Err(IsaError::Parse {
                    line: $line,
                    msg: format!("`{}`: expected {}, got {:?}", $mnem, $want, other),
                })
            }
        }
    };
}

/// Parses load/store mnemonics of the forms `l{b,h,w,d}[u][.q]`,
/// `s{b,h,w,d}[.q]`. Returns (is_load, width, signed, queue_form).
fn parse_mem_mnemonic(m: &str) -> Option<(bool, Width, bool, bool)> {
    let (m, queue_form) = match m.strip_suffix(".q") {
        Some(m) => (m, true),
        None => (m, false),
    };
    let mut chars = m.chars();
    let lead = chars.next()?;
    let is_load = match lead {
        'l' => true,
        's' => false,
        _ => return None,
    };
    let w = Width::from_suffix(chars.next()?)?;
    let rest: String = chars.collect();
    let signed = match rest.as_str() {
        "" => true,
        "u" if is_load => false,
        _ => return None,
    };
    Some((is_load, w, signed, queue_form))
}

/// Assembles DISA source text into a [`Program`].
pub fn assemble(name: impl Into<String>, src: &str) -> Result<Program> {
    let mut p = Program::new(name);
    let mut pending: Vec<PendingTarget> = Vec::new();

    for (lineno0, raw) in src.lines().enumerate() {
        let line = lineno0 + 1;
        let mut text = raw;
        if let Some(c) = text.find([';', '#']) {
            text = &text[..c];
        }
        let mut text = text.trim();
        // labels (possibly several on one line)
        while let Some(colon) = text.find(':') {
            let (l, rest) = text.split_at(colon);
            let l = l.trim();
            if l.is_empty()
                || !l
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                return Err(IsaError::Parse {
                    line,
                    msg: format!("bad label `{l}`"),
                });
            }
            p.add_label(l, p.len())?;
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnem, rest) = match text.find(char::is_whitespace) {
            Some(i) => (&text[..i], text[i..].trim()),
            None => (text, ""),
        };
        let ops: Vec<Tok> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',')
                .map(|s| parse_operand(s, line))
                .collect::<Result<_>>()?
        };

        // Target helper: records a pending label fixup and returns a
        // placeholder index.
        let target = |ops: &Tok, pc: u32, pending: &mut Vec<PendingTarget>| -> Result<u32> {
            match ops {
                Tok::Label(l) => {
                    if let Some(idx) = l.strip_prefix('@') {
                        idx.parse::<u32>().map_err(|_| IsaError::Parse {
                            line,
                            msg: format!("bad absolute target `{l}`"),
                        })
                    } else {
                        pending.push(PendingTarget {
                            pc,
                            label: l.clone(),
                        });
                        Ok(u32::MAX)
                    }
                }
                Tok::Imm(v) => Ok(*v as u32),
                other => Err(IsaError::Parse {
                    line,
                    msg: format!("bad branch target {other:?}"),
                }),
            }
        };

        let pc = p.len();
        let instr = if let Some(op) = IntOp::from_mnemonic(mnem) {
            expect_n(&ops, 3, line, mnem)?;
            let dst = op_match!(line, mnem, ops[0], Tok::Int(r) => r, "int register");
            let a = op_match!(line, mnem, ops[1], Tok::Int(r) => r, "int register");
            let b = match ops[2] {
                Tok::Int(r) => Src::Reg(r),
                Tok::Imm(v) => Src::Imm(v),
                ref other => {
                    return Err(IsaError::Parse {
                        line,
                        msg: format!("`{mnem}`: bad second source {other:?}"),
                    })
                }
            };
            Instr::IntOp { op, dst, a, b }
        } else if let Some(op) = FpBinOp::from_mnemonic(mnem) {
            expect_n(&ops, 3, line, mnem)?;
            let dst = op_match!(line, mnem, ops[0], Tok::Fp(r) => r, "fp register");
            let a = op_match!(line, mnem, ops[1], Tok::Fp(r) => r, "fp register");
            let b = op_match!(line, mnem, ops[2], Tok::Fp(r) => r, "fp register");
            Instr::FpBin { op, dst, a, b }
        } else if let Some(op) = FpUnOp::from_mnemonic(mnem) {
            expect_n(&ops, 2, line, mnem)?;
            let dst = op_match!(line, mnem, ops[0], Tok::Fp(r) => r, "fp register");
            let a = op_match!(line, mnem, ops[1], Tok::Fp(r) => r, "fp register");
            Instr::FpUn { op, dst, a }
        } else if let Some(op) = FpCmpOp::from_mnemonic(mnem) {
            expect_n(&ops, 3, line, mnem)?;
            let dst = op_match!(line, mnem, ops[0], Tok::Int(r) => r, "int register");
            let a = op_match!(line, mnem, ops[1], Tok::Fp(r) => r, "fp register");
            let b = op_match!(line, mnem, ops[2], Tok::Fp(r) => r, "fp register");
            Instr::FpCmp { op, dst, a, b }
        } else if let Some(cond) = BranchCond::from_mnemonic(mnem) {
            expect_n(&ops, 3, line, mnem)?;
            let a = op_match!(line, mnem, ops[0], Tok::Int(r) => r, "int register");
            let b = op_match!(line, mnem, ops[1], Tok::Int(r) => r, "int register");
            let t = target(&ops[2], pc, &mut pending)?;
            Instr::Branch {
                cond,
                a,
                b,
                target: t,
            }
        } else {
            match mnem {
                "li" => {
                    expect_n(&ops, 2, line, mnem)?;
                    let dst = op_match!(line, mnem, ops[0], Tok::Int(r) => r, "int register");
                    let imm = op_match!(line, mnem, ops[1], Tok::Imm(v) => v, "immediate");
                    Instr::Li { dst, imm }
                }
                "cvt.d.l" => {
                    expect_n(&ops, 2, line, mnem)?;
                    let dst = op_match!(line, mnem, ops[0], Tok::Fp(r) => r, "fp register");
                    let src = op_match!(line, mnem, ops[1], Tok::Int(r) => r, "int register");
                    Instr::CvtIf { dst, src }
                }
                "cvt.l.d" => {
                    expect_n(&ops, 2, line, mnem)?;
                    let dst = op_match!(line, mnem, ops[0], Tok::Int(r) => r, "int register");
                    let src = op_match!(line, mnem, ops[1], Tok::Fp(r) => r, "fp register");
                    Instr::CvtFi { dst, src }
                }
                "l.d" => {
                    expect_n(&ops, 2, line, mnem)?;
                    match (&ops[0], &ops[1]) {
                        (Tok::Fp(dst), Tok::Mem { off, base }) => Instr::LoadF {
                            dst: *dst,
                            base: *base,
                            off: *off,
                        },
                        (Tok::Q(q), Tok::Mem { off, base }) => Instr::LoadQ {
                            q: *q,
                            base: *base,
                            off: *off,
                            width: Width::D,
                            signed: true,
                        },
                        _ => {
                            return Err(IsaError::Parse {
                                line,
                                msg: "`l.d` expects fp-reg/queue, mem".into(),
                            })
                        }
                    }
                }
                "s.d" => {
                    expect_n(&ops, 2, line, mnem)?;
                    match (&ops[0], &ops[1]) {
                        (Tok::Fp(src), Tok::Mem { off, base }) => Instr::StoreF {
                            src: *src,
                            base: *base,
                            off: *off,
                        },
                        (Tok::Q(q), Tok::Mem { off, base }) => Instr::StoreQ {
                            q: *q,
                            base: *base,
                            off: *off,
                            width: Width::D,
                        },
                        _ => {
                            return Err(IsaError::Parse {
                                line,
                                msg: "`s.d` expects fp-reg/queue, mem".into(),
                            })
                        }
                    }
                }
                "pref" => {
                    expect_n(&ops, 1, line, mnem)?;
                    let (off, base) = op_match!(line, mnem, ops[0], Tok::Mem { off, base } => (off, base), "mem operand");
                    Instr::Prefetch { base, off }
                }
                "send" => {
                    expect_n(&ops, 2, line, mnem)?;
                    let q = op_match!(line, mnem, ops[0], Tok::Q(q) => q, "queue");
                    let src = op_match!(line, mnem, ops[1], Tok::Int(r) => r, "int register");
                    Instr::SendI { q, src }
                }
                "send.d" => {
                    expect_n(&ops, 2, line, mnem)?;
                    let q = op_match!(line, mnem, ops[0], Tok::Q(q) => q, "queue");
                    let src = op_match!(line, mnem, ops[1], Tok::Fp(r) => r, "fp register");
                    Instr::SendF { q, src }
                }
                "recv" => {
                    expect_n(&ops, 2, line, mnem)?;
                    let dst = op_match!(line, mnem, ops[0], Tok::Int(r) => r, "int register");
                    let q = op_match!(line, mnem, ops[1], Tok::Q(q) => q, "queue");
                    Instr::RecvI { q, dst }
                }
                "recv.d" => {
                    expect_n(&ops, 2, line, mnem)?;
                    let dst = op_match!(line, mnem, ops[0], Tok::Fp(r) => r, "fp register");
                    let q = op_match!(line, mnem, ops[1], Tok::Q(q) => q, "queue");
                    Instr::RecvF { q, dst }
                }
                "putscq" => {
                    expect_n(&ops, 0, line, mnem)?;
                    Instr::PutScq
                }
                "getscq" => {
                    expect_n(&ops, 0, line, mnem)?;
                    Instr::GetScq
                }
                "j" => {
                    expect_n(&ops, 1, line, mnem)?;
                    let t = target(&ops[0], pc, &mut pending)?;
                    Instr::Jump { target: t }
                }
                "cbr" => {
                    expect_n(&ops, 1, line, mnem)?;
                    let t = target(&ops[0], pc, &mut pending)?;
                    Instr::CBranch { target: t }
                }
                "halt" => {
                    expect_n(&ops, 0, line, mnem)?;
                    Instr::Halt
                }
                "nop" => {
                    expect_n(&ops, 0, line, mnem)?;
                    Instr::Nop
                }
                _ => {
                    if let Some((is_load, width, signed, queue_form)) = parse_mem_mnemonic(mnem) {
                        expect_n(&ops, 2, line, mnem)?;
                        match (is_load, queue_form, &ops[0], &ops[1]) {
                            (true, false, Tok::Int(dst), Tok::Mem { off, base }) => Instr::Load {
                                dst: *dst,
                                base: *base,
                                off: *off,
                                width,
                                signed,
                            },
                            (true, true, Tok::Q(q), Tok::Mem { off, base }) => Instr::LoadQ {
                                q: *q,
                                base: *base,
                                off: *off,
                                width,
                                signed,
                            },
                            (false, false, Tok::Int(src), Tok::Mem { off, base }) => Instr::Store {
                                src: *src,
                                base: *base,
                                off: *off,
                                width,
                            },
                            (false, true, Tok::Q(q), Tok::Mem { off, base }) => Instr::StoreQ {
                                q: *q,
                                base: *base,
                                off: *off,
                                width,
                            },
                            _ => {
                                return Err(IsaError::Parse {
                                    line,
                                    msg: format!("`{mnem}`: bad operand combination"),
                                })
                            }
                        }
                    } else {
                        return Err(IsaError::Parse {
                            line,
                            msg: format!("unknown mnemonic `{mnem}`"),
                        });
                    }
                }
            }
        };
        p.push(instr);
    }

    // Resolve pending label targets.
    for t in pending {
        let at = p.label(&t.label).ok_or(IsaError::UndefinedLabel(t.label))?;
        p.instr_mut(t.pc).set_target(at);
    }
    Ok(p)
}

/// Renders the target of a control instruction: a label name if one is
/// defined at the target index, else `@index`.
fn render_target(t: u32, p: &Program) -> String {
    match p.labels_at(t).next() {
        Some(l) => l.to_string(),
        None => format!("@{t}"),
    }
}

/// Renders one instruction in canonical assembler syntax.
pub fn render_instr(i: &Instr, p: &Program) -> String {
    match *i {
        Instr::IntOp { op, dst, a, b } => format!("{op} {dst}, {a}, {b}"),
        Instr::Li { dst, imm } => format!("li {dst}, {imm}"),
        Instr::FpBin { op, dst, a, b } => format!("{op} {dst}, {a}, {b}"),
        Instr::FpUn { op, dst, a } => format!("{op} {dst}, {a}"),
        Instr::FpCmp { op, dst, a, b } => format!("{op} {dst}, {a}, {b}"),
        Instr::CvtIf { dst, src } => format!("cvt.d.l {dst}, {src}"),
        Instr::CvtFi { dst, src } => format!("cvt.l.d {dst}, {src}"),
        Instr::Load {
            dst,
            base,
            off,
            width,
            signed,
        } => {
            let u = if !signed && width != Width::D {
                "u"
            } else {
                ""
            };
            format!("l{}{} {dst}, {off}({base})", width.suffix(), u)
        }
        Instr::LoadF { dst, base, off } => format!("l.d {dst}, {off}({base})"),
        Instr::Store {
            src,
            base,
            off,
            width,
        } => {
            format!("s{} {src}, {off}({base})", width.suffix())
        }
        Instr::StoreF { src, base, off } => format!("s.d {src}, {off}({base})"),
        Instr::Prefetch { base, off } => format!("pref {off}({base})"),
        Instr::LoadQ {
            q,
            base,
            off,
            width,
            signed,
        } => {
            let u = if !signed && width != Width::D {
                "u"
            } else {
                ""
            };
            format!("l{}{}.q {q}, {off}({base})", width.suffix(), u)
        }
        Instr::StoreQ {
            q,
            base,
            off,
            width,
        } => {
            format!("s{}.q {q}, {off}({base})", width.suffix())
        }
        Instr::SendI { q, src } => format!("send {q}, {src}"),
        Instr::SendF { q, src } => format!("send.d {q}, {src}"),
        Instr::RecvI { q, dst } => format!("recv {dst}, {q}"),
        Instr::RecvF { q, dst } => format!("recv.d {dst}, {q}"),
        Instr::PutScq => "putscq".into(),
        Instr::GetScq => "getscq".into(),
        Instr::Branch { cond, a, b, target } => {
            format!("{} {a}, {b}, {}", cond.mnemonic(), render_target(target, p))
        }
        Instr::Jump { target } => format!("j {}", render_target(target, p)),
        Instr::CBranch { target } => format!("cbr {}", render_target(target, p)),
        Instr::Halt => "halt".into(),
        Instr::Nop => "nop".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_basic_loop() {
        let p = assemble(
            "t",
            r"
            li r1, 0
            li r2, 4
        loop:
            add r1, r1, r2
            sub r2, r2, 1
            bne r2, r0, loop
            halt
        ",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.label("loop"), Some(2));
        assert_eq!(p.instr(4).target(), Some(2));
        p.validate().unwrap();
    }

    #[test]
    fn forward_references_resolve() {
        let p = assemble("t", "j end\nnop\nend:\nhalt").unwrap();
        assert_eq!(p.instr(0).target(), Some(2));
    }

    #[test]
    fn undefined_label_is_error() {
        assert!(matches!(
            assemble("t", "j nowhere\nhalt"),
            Err(IsaError::UndefinedLabel(_))
        ));
    }

    #[test]
    fn memory_forms() {
        let p = assemble(
            "t",
            r"
            ld   r1, 8(r2)
            lbu  r3, 0(r2)
            lw   r4, -4(r2)
            sd   r1, 16(r2)
            sb   r3, (r2)
            l.d  f1, 8(r2)
            s.d  f1, 8(r2)
            l.d  LDQ, 24(r2)
            s.d  SDQ, 32(r2)
            ld.q LDQ, 0(r2)
            pref 64(r2)
            halt
        ",
        )
        .unwrap();
        assert!(matches!(
            p.instr(0),
            Instr::Load {
                width: Width::D,
                signed: true,
                ..
            }
        ));
        assert!(matches!(
            p.instr(1),
            Instr::Load {
                width: Width::B,
                signed: false,
                ..
            }
        ));
        assert!(matches!(p.instr(2), Instr::Load { off: -4, .. }));
        assert!(matches!(
            p.instr(4),
            Instr::Store {
                off: 0,
                width: Width::B,
                ..
            }
        ));
        assert!(matches!(
            p.instr(7),
            Instr::LoadQ {
                q: Queue::Ldq,
                width: Width::D,
                ..
            }
        ));
        assert!(matches!(p.instr(8), Instr::StoreQ { q: Queue::Sdq, .. }));
        assert!(matches!(p.instr(9), Instr::LoadQ { q: Queue::Ldq, .. }));
        assert!(matches!(p.instr(10), Instr::Prefetch { off: 64, .. }));
    }

    #[test]
    fn queue_comm_forms() {
        let p = assemble(
            "t",
            r"
            send   SDQ, r3
            send.d CDQ, f3
            recv   r4, LDQ
            recv.d f4, LDQ
            putscq
            getscq
            cbr @0
            halt
        ",
        )
        .unwrap();
        assert!(matches!(p.instr(0), Instr::SendI { q: Queue::Sdq, .. }));
        assert!(matches!(p.instr(3), Instr::RecvF { q: Queue::Ldq, .. }));
        assert!(matches!(p.instr(6), Instr::CBranch { target: 0 }));
    }

    #[test]
    fn immediates_hex_and_negative() {
        let p = assemble("t", "li r1, 0x10\nli r2, -5\nadd r3, r1, -1\nhalt").unwrap();
        assert!(matches!(p.instr(0), Instr::Li { imm: 16, .. }));
        assert!(matches!(p.instr(1), Instr::Li { imm: -5, .. }));
        assert!(matches!(
            p.instr(2),
            Instr::IntOp {
                b: Src::Imm(-1),
                ..
            }
        ));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("t", "nop\nbogus r1\nhalt").unwrap_err();
        match err {
            IsaError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_round_trips() {
        let src = r"
            li r1, 0
            li r2, 100
        loop:
            ld r3, 0(r1)
            add.d f1, f2, f3
            c.lt.d r4, f1, f2
            send SDQ, r3
            recv.d f9, LDQ
            s.d SDQ, 8(r1)
            bne r2, r0, loop
            halt
        ";
        let p1 = assemble("t", src).unwrap();
        let text = p1.to_string();
        let p2 = assemble("t", &text).unwrap();
        assert_eq!(p1.instrs(), p2.instrs());
    }

    #[test]
    fn fp_ops_parse() {
        let p = assemble(
            "t",
            "add.d f1, f2, f3\nsqrt.d f4, f5\nc.eq.d r1, f1, f2\ncvt.d.l f1, r2\ncvt.l.d r2, f1\nhalt",
        )
        .unwrap();
        assert!(matches!(
            p.instr(0),
            Instr::FpBin {
                op: FpBinOp::Add,
                ..
            }
        ));
        assert!(matches!(
            p.instr(1),
            Instr::FpUn {
                op: FpUnOp::Sqrt,
                ..
            }
        ));
        assert!(matches!(
            p.instr(2),
            Instr::FpCmp {
                op: FpCmpOp::Eq,
                ..
            }
        ));
        assert!(matches!(p.instr(3), Instr::CvtIf { .. }));
        assert!(matches!(p.instr(4), Instr::CvtFi { .. }));
    }
}
