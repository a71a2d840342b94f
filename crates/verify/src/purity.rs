//! CMAS purity checking (`CM001`–`CM004`).
//!
//! A Cache Miss Access Slice runs speculatively on the Cache Management
//! Processor for the sole purpose of warming the cache. It must therefore
//! be architecturally invisible: no stores, no traffic on the CP/AP queues
//! (its only architected side channel is the `putscq` slip-control
//! semaphore), no floating point (the CMP has no FP units), and every
//! memory operation tagged as CMAS by the compiler so the simulated
//! hardware issues it as a non-faulting prefetch access. The trigger and
//! slip-control annotations on the Access Stream must in turn reference
//! threads that exist.

use crate::{Code, Diagnostic, Loc};
use hidisc_isa::{Instr, Program, Queue};
use hidisc_slicer::CmasThread;

/// Runs the pass over the Access Stream (trigger/slip references) and every
/// CMAS thread body.
pub fn check(access: &Program, cmas: &[CmasThread], out: &mut Vec<Diagnostic>) {
    check_references(access, cmas, out);
    for t in cmas {
        check_thread(t, out);
    }
}

/// `CM004`: every trigger annotation must name an existing thread, and slip
/// control only makes sense when there are threads to pace.
fn check_references(access: &Program, cmas: &[CmasThread], out: &mut Vec<Diagnostic>) {
    for pc in 0..access.len() {
        let a = access.annot(pc);
        if let Some(t) = a.trigger {
            if !cmas.iter().any(|th| th.id == t) {
                out.push(Diagnostic {
                    code: Code::Cm004,
                    loc: Loc::Access(pc),
                    queue: None,
                    msg: format!(
                        "trigger annotation references CMAS thread {t}, which does not exist"
                    ),
                });
            }
        }
        if cmas.is_empty() && (a.scq_get || matches!(access.instr(pc), Instr::GetScq)) {
            out.push(Diagnostic {
                code: Code::Cm004,
                loc: Loc::Access(pc),
                queue: Some(Queue::Scq),
                msg: "slip control in the access stream but no CMAS threads exist to pace".into(),
            });
        }
    }
}

fn check_thread(t: &CmasThread, out: &mut Vec<Diagnostic>) {
    for pc in 0..t.prog.len() {
        let i = t.prog.instr(pc);
        let a = t.prog.annot(pc);
        let loc = Loc::Cmas(t.id, pc);

        // CM001: architectural stores. Takes precedence over the queue
        // check for `s.q` (a store first, a queue pop second).
        if i.is_store() {
            out.push(Diagnostic {
                code: Code::Cm001,
                loc,
                queue: None,
                msg: format!(
                    "CMAS performs an architectural store `{}` — prefetch slices must be side-effect free",
                    hidisc_isa::asm::render_instr(i, &t.prog)
                ),
            });
            continue;
        }

        // CM002: CP/AP queue traffic. The only queue operation a CMAS may
        // perform is the `putscq` slip-control increment.
        let bad_q = a.queue_pops(i).into_iter().flatten().next().or_else(|| {
            a.queue_pushes(i)
                .into_iter()
                .flatten()
                .find(|&q| q != Queue::Scq)
        });
        if let Some(q) = bad_q {
            let why = if q == Queue::Scq {
                "the SCQ decrement belongs to the access processor".to_string()
            } else {
                format!("{} traffic belongs to the CP/AP streams", q.name())
            };
            out.push(Diagnostic {
                code: Code::Cm002,
                loc,
                queue: Some(q),
                msg: format!("CMAS operates on a queue it does not own: {why}"),
            });
            continue;
        }

        // CM003: no floating point, and every memory op tagged.
        if i.is_fp() {
            out.push(Diagnostic {
                code: Code::Cm003,
                loc,
                queue: None,
                msg: format!(
                    "floating-point instruction `{}` in CMAS — the CMP has no FP units",
                    hidisc_isa::asm::render_instr(i, &t.prog)
                ),
            });
        } else if i.is_mem() && !a.cmas {
            out.push(Diagnostic {
                code: Code::Cm003,
                loc,
                queue: None,
                msg: format!(
                    "memory operation `{}` in CMAS is not prefetch-tagged \
                     (missing the cmas annotation; it would issue as a demand access)",
                    hidisc_isa::asm::render_instr(i, &t.prog)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::asm::assemble;

    fn thread(src: &str, tag_all: bool) -> CmasThread {
        let mut prog = assemble("cmas", src).unwrap();
        if tag_all {
            for pc in 0..prog.len() {
                if !matches!(prog.instr(pc), Instr::Halt) {
                    prog.annot_mut(pc).cmas = true;
                }
            }
        }
        CmasThread {
            id: 0,
            prog,
            loop_header: 0,
        }
    }

    fn diags(access_src: &str, threads: &[CmasThread]) -> Vec<Diagnostic> {
        let access = assemble("as", access_src).unwrap();
        let mut out = Vec::new();
        check(&access, threads, &mut out);
        out
    }

    #[test]
    fn clean_prefetch_slice_passes() {
        let t = thread("ld r1, 0(r1)\npref 8(r1)\nputscq\nhalt", true);
        assert!(diags("halt", &[t]).is_empty());
    }

    #[test]
    fn store_reports_cm001() {
        let t = thread("sd r1, 0(r2)\nhalt", true);
        let out = diags("halt", &[t]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Code::Cm001);
        assert_eq!(out[0].loc, Loc::Cmas(0, 0));
    }

    #[test]
    fn queue_traffic_reports_cm002() {
        let t = thread("send LDQ, r1\ngetscq\nhalt", true);
        let out = diags("halt", &[t]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.code == Code::Cm002));
        assert_eq!(out[0].queue, Some(Queue::Ldq));
        assert_eq!(out[1].queue, Some(Queue::Scq));
    }

    #[test]
    fn fp_and_untagged_mem_report_cm003() {
        let t = thread("add.d f1, f2, f3\nhalt", true);
        let out = diags("halt", &[t]);
        assert_eq!(out[0].code, Code::Cm003);

        let untagged = thread("ld r1, 0(r1)\nhalt", false);
        let out = diags("halt", &[untagged]);
        assert_eq!(out[0].code, Code::Cm003);
        assert!(out[0].msg.contains("not prefetch-tagged"));
    }

    #[test]
    fn dangling_trigger_and_orphan_slip_report_cm004() {
        let mut access = assemble("as", "nop\nbeq r0, r0, 2\nhalt").unwrap();
        access.annot_mut(0).trigger = Some(7);
        access.annot_mut(1).scq_get = true;
        let mut out = Vec::new();
        check(&access, &[], &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.code == Code::Cm004));
        assert_eq!(out[0].loc, Loc::Access(0));
        assert_eq!(out[1].loc, Loc::Access(1));
    }
}
