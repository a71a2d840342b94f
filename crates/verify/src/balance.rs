//! Queue-balance checking (`QB001`–`QB003`).
//!
//! Abstract interpretation of push/pop counts over the segment
//! decomposition of [`crate::skeleton`]. Because the builder keeps the two
//! control skeletons isomorphic, path-wise balance reduces to three local
//! obligations, checked per segment pair:
//!
//! * **QB002** — the skeletons actually are isomorphic: equal segment
//!   counts, and the k-th control instructions pair as
//!   (AS branch + `push_cq`) ↔ (CS consume-branch), jump ↔ jump,
//!   halt ↔ halt.
//! * **QB001** — within pair k, for every FIFO the producer stream pushes
//!   exactly as many values as the consumer stream pops.
//! * **QB003** — every control transfer preserves the correspondence: both
//!   targets land in the same segment index, and the in-segment prefixes
//!   they skip contain matching push/pop counts per FIFO. With QB001 this
//!   makes balance inductive over *all* paths, including loop back edges
//!   (a loop whose net queue delta is non-zero without a matching consumer
//!   loop necessarily fails QB001 or QB003).

use crate::skeleton::{seg_of, QOp, Segment, Side};
use crate::{Code, Diagnostic, Loc};
use hidisc_isa::{Instr, Program, Queue};

/// FIFOs balanced pairwise between the streams (the SCQ's producer is the
/// CMP, so it has no pairwise obligation here).
const PAIRED: [Queue; 4] = [Queue::Ldq, Queue::Sdq, Queue::Cdq, Queue::Cq];

/// The stream that pushes `q` under the architected direction.
fn producer(q: Queue) -> Side {
    match q {
        Queue::Ldq | Queue::Cq => Side::Access,
        Queue::Sdq | Queue::Cdq => Side::Cs,
        Queue::Scq => unreachable!("SCQ is not stream-paired"),
    }
}

fn loc(side: Side, pc: u32) -> Loc {
    match side {
        Side::Cs => Loc::Cs(pc),
        Side::Access => Loc::Access(pc),
    }
}

/// Runs the balance checks, appending diagnostics to `out`. Returns one
/// flag per paired segment: true when the pair balanced (the depth pass
/// only simulates balanced pairs — an imbalanced pair would "deadlock"
/// trivially and drown the real finding).
pub fn check(
    cs: &Program,
    access: &Program,
    seg_cs: &[Segment],
    seg_as: &[Segment],
    out: &mut Vec<Diagnostic>,
) -> Vec<bool> {
    if seg_cs.len() != seg_as.len() {
        let (longer, side, progl) = if seg_cs.len() > seg_as.len() {
            (seg_cs, Side::Cs, cs)
        } else {
            (seg_as, Side::Access, access)
        };
        let first_extra = &longer[seg_cs.len().min(seg_as.len())];
        let pc = first_extra
            .ctrl
            .unwrap_or_else(|| progl.len().saturating_sub(1));
        out.push(Diagnostic {
            code: Code::Qb002,
            loc: loc(side, pc),
            queue: None,
            msg: format!(
                "control skeletons differ: computation stream has {} segments, access stream {}",
                seg_cs.len(),
                seg_as.len()
            ),
        });
    }

    let pairs = seg_cs.len().min(seg_as.len());
    let cs_map = seg_of(seg_cs, cs.len());
    let as_map = seg_of(seg_as, access.len());
    let mut balanced = vec![true; pairs];

    for k in 0..pairs {
        let sc = &seg_cs[k];
        let sa = &seg_as[k];

        // QB002: control-kind pairing.
        let kinds_ok = match (sc.ctrl, sa.ctrl) {
            (Some(cpc), Some(apc)) => {
                let ci = cs.instr(cpc);
                let ai = access.instr(apc);
                let ok = matches!(
                    (ci, ai),
                    (Instr::CBranch { .. }, Instr::Branch { .. })
                        | (Instr::Jump { .. }, Instr::Jump { .. })
                        | (Instr::Halt, Instr::Halt)
                );
                if !ok {
                    out.push(Diagnostic {
                        code: Code::Qb002,
                        loc: Loc::Access(apc),
                        queue: None,
                        msg: format!(
                            "segment {k} ends in unpairable control: access stream `{}` \
                             vs computation stream `{}`",
                            hidisc_isa::asm::render_instr(ai, access),
                            hidisc_isa::asm::render_instr(ci, cs),
                        ),
                    });
                } else if matches!(ai, Instr::Branch { .. }) && !access.annot(apc).push_cq {
                    out.push(Diagnostic {
                        code: Code::Qb002,
                        loc: Loc::Access(apc),
                        queue: Some(Queue::Cq),
                        msg: format!(
                            "segment {k}: access-stream branch does not push a control \
                             token for the computation stream's consume-branch"
                        ),
                    });
                    balanced[k] = false;
                }
                ok
            }
            // A stream not ending in control is already structurally
            // invalid; point at whichever side is missing it.
            (None, _) => {
                out.push(Diagnostic {
                    code: Code::Qb002,
                    loc: Loc::Cs(cs.len().saturating_sub(1)),
                    queue: None,
                    msg: format!("segment {k} of the computation stream has no terminator"),
                });
                false
            }
            (_, None) => {
                out.push(Diagnostic {
                    code: Code::Qb002,
                    loc: Loc::Access(access.len().saturating_sub(1)),
                    queue: None,
                    msg: format!("segment {k} of the access stream has no terminator"),
                });
                false
            }
        };
        if !kinds_ok {
            balanced[k] = false;
        }

        // QB001: per-FIFO push/pop counts within the pair.
        for q in PAIRED {
            let (prod_seg, prod_side, cons_seg, cons_side) = match producer(q) {
                Side::Access => (sa, Side::Access, sc, Side::Cs),
                Side::Cs => (sc, Side::Cs, sa, Side::Access),
            };
            let pushes: Vec<u32> = prod_seg
                .ops
                .iter()
                .filter(|(_, op)| *op == QOp::Push(q))
                .map(|&(pc, _)| pc)
                .collect();
            let pops: Vec<u32> = cons_seg
                .ops
                .iter()
                .filter(|(_, op)| *op == QOp::Pop(q))
                .map(|&(pc, _)| pc)
                .collect();
            if pushes.len() != pops.len() {
                balanced[k] = false;
                // Point at the first operation with no counterpart.
                let n = pushes.len().min(pops.len());
                let (side, pc) = if pushes.len() > pops.len() {
                    (prod_side, pushes[n])
                } else {
                    (cons_side, pops[n])
                };
                out.push(Diagnostic {
                    code: Code::Qb001,
                    loc: loc(side, pc),
                    queue: Some(q),
                    msg: format!(
                        "segment {k} pushes {} {} value(s) but pops {}",
                        pushes.len(),
                        q.name(),
                        pops.len()
                    ),
                });
            }
        }

        // QB003: target correspondence.
        if !kinds_ok {
            continue;
        }
        let (ct, at) = match (sc.ctrl, sa.ctrl) {
            (Some(cpc), Some(apc)) => (cs.instr(cpc).target(), access.instr(apc).target()),
            _ => (None, None),
        };
        if let (Some(ct), Some(at)) = (ct, at) {
            let mc = cs_map[ct as usize];
            let ma = as_map[at as usize];
            if mc != ma {
                balanced[k] = false;
                out.push(Diagnostic {
                    code: Code::Qb003,
                    loc: Loc::Access(sa.ctrl.unwrap()),
                    queue: None,
                    msg: format!(
                        "segment {k} control transfers to segment {ma} in the access \
                         stream but segment {mc} in the computation stream"
                    ),
                });
                continue;
            }
            // Both targets enter segment m; the in-segment prefixes they
            // skip must carry matching counts per FIFO or the entry points
            // de-synchronise the queues (net non-zero loop delta lands
            // here for back edges).
            for q in PAIRED {
                let (prod_seg, prod_t, cons_seg, cons_t) = match producer(q) {
                    Side::Access => (&seg_as[ma], at, &seg_cs[mc], ct),
                    Side::Cs => (&seg_cs[mc], ct, &seg_as[ma], at),
                };
                let skipped_pushes = prod_seg
                    .ops
                    .iter()
                    .filter(|&&(pc, op)| pc < prod_t && op == QOp::Push(q))
                    .count();
                let skipped_pops = cons_seg
                    .ops
                    .iter()
                    .filter(|&&(pc, op)| pc < cons_t && op == QOp::Pop(q))
                    .count();
                if skipped_pushes != skipped_pops {
                    balanced[k] = false;
                    out.push(Diagnostic {
                        code: Code::Qb003,
                        loc: Loc::Access(sa.ctrl.unwrap()),
                        queue: Some(q),
                        msg: format!(
                            "segment {k} transfer into segment {ma} skips {skipped_pushes} \
                             {} push(es) but {skipped_pops} pop(s)",
                            q.name()
                        ),
                    });
                }
            }
        }
    }
    balanced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::segments;
    use hidisc_isa::asm::assemble;

    fn run(cs_src: &str, as_src: &str, push_cq_at: &[u32]) -> (Vec<Diagnostic>, Vec<bool>) {
        let cs = assemble("cs", cs_src).unwrap();
        let mut access = assemble("as", as_src).unwrap();
        for &pc in push_cq_at {
            access.annot_mut(pc).push_cq = true;
        }
        let sc = segments(&cs);
        let sa = segments(&access);
        let mut out = Vec::new();
        let balanced = check(&cs, &access, &sc, &sa, &mut out);
        (out, balanced)
    }

    #[test]
    fn balanced_loop_is_clean() {
        // AS: loop pushing one LDQ value per iteration; CS pops one per
        // iteration; branch paired with consume-branch.
        let (out, balanced) = run(
            "recv r4, LDQ\ncbr @0\nhalt",
            "ld.q LDQ, 0(r2)\nbne r1, r0, @0\nhalt",
            &[1],
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(balanced, vec![true, true]);
    }

    #[test]
    fn unbalanced_segment_reports_qb001() {
        let (out, balanced) = run(
            "recv r4, LDQ\nhalt",
            "ld.q LDQ, 0(r2)\nld.q LDQ, 8(r2)\nhalt",
            &[],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Code::Qb001);
        // The second (surplus) push is the first with no counterpart.
        assert_eq!(out[0].loc, Loc::Access(1));
        assert_eq!(out[0].queue, Some(Queue::Ldq));
        assert_eq!(balanced, vec![false]);
    }

    #[test]
    fn skeleton_mismatch_reports_qb002() {
        // CS has an extra control segment the AS lacks.
        let (out, _) = run("cbr @0\nhalt", "halt", &[]);
        assert!(out.iter().any(|d| d.code == Code::Qb002), "{out:?}");
    }

    #[test]
    fn branch_without_cq_token_reports_qb002() {
        let (out, balanced) = run("cbr @0\nhalt", "bne r1, r0, @0\nhalt", &[]);
        assert!(
            out.iter()
                .any(|d| d.code == Code::Qb002 && d.queue == Some(Queue::Cq)),
            "{out:?}"
        );
        assert!(!balanced[0]);
    }

    #[test]
    fn divergent_targets_report_qb003() {
        // Both streams: seg0 = branch, seg1 = nop-ish, seg2 = halt. The AS
        // branch re-enters segment 0, the CS branch jumps forward to
        // segment 1's start.
        let (out, _) = run(
            "cbr @2\nsend SDQ, r1\nj @4\nnop\nhalt",
            "bne r1, r0, @0\nrecv r3, SDQ\nj @4\nnop\nhalt",
            &[0],
        );
        assert!(out.iter().any(|d| d.code == Code::Qb003), "{out:?}");
    }

    #[test]
    fn skipping_prefix_ops_reports_qb003() {
        // Loop: the AS back edge targets the segment start, but the CS back
        // edge jumps past its LDQ pop — the skipped prefixes differ.
        let (out, _) = run(
            "recv r4, LDQ\ncbr @1\nhalt",
            "ld.q LDQ, 0(r2)\nbne r1, r0, @0\nhalt",
            &[1],
        );
        assert!(
            out.iter()
                .any(|d| d.code == Code::Qb003 && d.queue == Some(Queue::Ldq)),
            "{out:?}"
        );
    }
}
