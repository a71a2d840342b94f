//! Depth bounding and capacity-deadlock detection (`DB001`, `DB002`).
//!
//! The first half computes, per FIFO, a worst-case *symbolic occupancy
//! bound* by abstract interpretation over the paired control skeleton:
//! the abstract state is one occupancy interval `[lo, hi]` per queue at
//! each segment-pair entry point, transferred by the pair's push/pop
//! counts, joined at control-flow merges, and widened to ∞ on entries
//! whose upper bound keeps growing (a loop whose net queue delta is
//! positive). The worst case *during* a pair is `entry.hi + pushes`
//! (the consumer may drain nothing until the producer blocks), and a
//! bound above the configured depth is the paper's Figure-10 deadlock
//! precondition, reported as the `DB001` warning with the bound surfaced
//! in [`crate::VerifyReport`] so `repro --scq-depth` sweeps can cite it.
//! Entry intervals make the analysis loop-aware: a branch into the middle
//! of a segment that skips pops accumulates occupancy across iterations,
//! which the old greedy per-segment maximum could never see. For balanced
//! triples every entry interval is exactly `[0, 0]` and the symbolic
//! bound coincides with the per-segment push maximum.
//!
//! The second half decides deadlock *exactly* for each balanced segment
//! pair: the two streams are run as a greedy two-thread simulation over
//! bounded FIFOs. Blocking push/pop FIFOs are confluent — if any
//! interleaving completes, maximal-progress does too — so a stuck greedy
//! run is a real deadlock under the configured depths (`DB002`). The
//! simulation doubles as the *differential oracle* for the symbolic
//! bounds: its observed per-queue peaks ([`crate::VerifyReport::greedy_peaks`])
//! can never exceed them, and `bench::prepare` debug-asserts exactly that.

use crate::skeleton::{seg_of, QOp, Segment};
use crate::{Code, DepthConfig, Diagnostic, Loc, QueueBound, VerifyReport, UNBOUNDED};
use hidisc_isa::{Instr, Program, Queue};
use hidisc_slicer::CmasThread;

/// Runs the pass, filling `report.bounds` and appending diagnostics.
/// `balanced[k]` gates the deadlock simulation of pair `k`: an imbalanced
/// pair would block trivially and bury its `QB001` under a spurious
/// `DB002`.
#[allow(clippy::too_many_arguments)]
pub fn check(
    cs: &Program,
    access: &Program,
    seg_cs: &[Segment],
    seg_as: &[Segment],
    balanced: &[bool],
    cmas: &[CmasThread],
    depths: DepthConfig,
    report: &mut VerifyReport,
) {
    bounds(cs, access, seg_cs, seg_as, cmas, depths, report);
    for (k, ok) in balanced.iter().enumerate() {
        if *ok {
            simulate_pair(
                k,
                &seg_cs[k],
                &seg_as[k],
                depths,
                &mut report.greedy_peaks,
                &mut report.diagnostics,
            );
        }
    }
}

/// An occupancy interval. `hi == UNBOUNDED` is the widened ∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iv {
    lo: usize,
    hi: usize,
}

impl Iv {
    const ZERO: Iv = Iv { lo: 0, hi: 0 };

    fn join(self, other: Iv) -> Iv {
        Iv {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Shifts the interval by a net push−pop delta, clamping at empty.
    fn shift(self, delta: i64) -> Iv {
        let mv = |x: usize| -> usize {
            if x == UNBOUNDED {
                UNBOUNDED
            } else {
                (x as i64 + delta).max(0) as usize
            }
        };
        Iv {
            lo: mv(self.lo),
            hi: mv(self.hi),
        }
    }
}

/// The paired queues the symbolic analysis covers (the SCQ's producer is
/// the asynchronous CMP; it is bounded separately).
const PAIRED: [Queue; 4] = [Queue::Ldq, Queue::Sdq, Queue::Cdq, Queue::Cq];

/// The control instruction terminating a segment, reduced to the shape
/// that matters for skeleton traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlKind {
    Cond(u32),
    Jump(u32),
    Halt,
}

fn ctrl_kind(prog: &Program, seg: &Segment) -> Option<CtrlKind> {
    let pc = seg.ctrl?;
    Some(match *prog.instr(pc) {
        Instr::Branch { target, .. } | Instr::CBranch { target } => CtrlKind::Cond(target),
        Instr::Jump { target } => CtrlKind::Jump(target),
        Instr::Halt => CtrlKind::Halt,
        _ => return None,
    })
}

/// One entry configuration of a segment pair: the pair index plus the
/// entry pc on each side (branches may enter a segment mid-way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    k: usize,
    ce: u32,
    ae: u32,
}

/// Pushes (as locations) and pop count for one queue across both halves of
/// a pair, restricted to ops at or after the entry pcs.
fn pair_traffic(sc: &Segment, sa: &Segment, ce: u32, ae: u32, q: Queue) -> (Vec<Loc>, usize) {
    let mut pushes = Vec::new();
    let mut pops = 0usize;
    for (seg, entry, mk) in [
        (sc, ce, Loc::Cs as fn(u32) -> Loc),
        (sa, ae, Loc::Access as fn(u32) -> Loc),
    ] {
        for &(pc, op) in &seg.ops {
            if pc < entry || op.queue() != q {
                continue;
            }
            match op {
                QOp::Push(_) => pushes.push(mk(pc)),
                QOp::Pop(_) => pops += 1,
            }
        }
    }
    (pushes, pops)
}

/// Interval abstract interpretation over the paired control skeleton.
/// `None` when the skeletons cannot be paired (different segment counts or
/// mismatched control kinds) — the caller falls back to the conservative
/// per-segment maximum, and the isomorphism errors are already on the
/// report as `QB002`/`QB003`.
fn symbolic(
    cs: &Program,
    access: &Program,
    seg_cs: &[Segment],
    seg_as: &[Segment],
) -> Option<Vec<(Node, [Iv; 4])>> {
    if seg_cs.len() != seg_as.len() || seg_cs.is_empty() {
        return None;
    }
    let pairs = seg_cs.len();
    let as_seg_of = seg_of(seg_as, access.len());
    let cs_seg_of = seg_of(seg_cs, cs.len());

    // Successor edges of each pair: (pair, cs entry, as entry).
    let mut succs: Vec<Vec<(usize, u32, u32)>> = vec![Vec::new(); pairs];
    for k in 0..pairs {
        let ck = ctrl_kind(cs, &seg_cs[k]);
        let ak = ctrl_kind(access, &seg_as[k]);
        let edge = |ct: u32, at: u32| -> Option<(usize, u32, u32)> {
            let m = *as_seg_of.get(at as usize)?;
            if m == usize::MAX || cs_seg_of.get(ct as usize) != Some(&m) {
                return None;
            }
            Some((m, ct, at))
        };
        match (ck, ak) {
            (Some(CtrlKind::Halt), Some(CtrlKind::Halt)) => {}
            (None, None) => {}
            (Some(CtrlKind::Jump(ct)), Some(CtrlKind::Jump(at))) => {
                succs[k].push(edge(ct, at)?);
            }
            (Some(CtrlKind::Cond(ct)), Some(CtrlKind::Cond(at))) => {
                succs[k].push(edge(ct, at)?);
                if k + 1 < pairs {
                    succs[k].push((k + 1, seg_cs[k + 1].start, seg_as[k + 1].start));
                }
            }
            _ => return None,
        }
    }

    // Work-list fixpoint with per-node widening.
    let mut states: Vec<(Node, [Iv; 4], u32)> = vec![(
        Node {
            k: 0,
            ce: seg_cs[0].start,
            ae: seg_as[0].start,
        },
        [Iv::ZERO; 4],
        0,
    )];
    let mut work = vec![0usize];
    while let Some(n) = work.pop() {
        let (node, state, _) = states[n];
        // Exit state of a traversal from this entry.
        let mut exit = state;
        for (qi, q) in PAIRED.iter().enumerate() {
            let (pushes, pops) =
                pair_traffic(&seg_cs[node.k], &seg_as[node.k], node.ce, node.ae, *q);
            exit[qi] = exit[qi].shift(pushes.len() as i64 - pops as i64);
        }
        for &(m, ct, at) in &succs[node.k] {
            let target = Node {
                k: m,
                ce: ct,
                ae: at,
            };
            match states.iter().position(|(t, _, _)| *t == target) {
                Some(i) => {
                    let joined: [Iv; 4] = std::array::from_fn(|qi| states[i].1[qi].join(exit[qi]));
                    if joined != states[i].1 {
                        states[i].2 += 1;
                        let widened = states[i].2 > 8;
                        states[i].1 = std::array::from_fn(|qi| {
                            let mut v = joined[qi];
                            if widened && v.hi > states[i].1[qi].hi {
                                v.hi = UNBOUNDED;
                            }
                            v
                        });
                        work.push(i);
                    }
                }
                None => {
                    states.push((target, exit, 0));
                    work.push(states.len() - 1);
                }
            }
        }
    }
    Some(states.into_iter().map(|(n, s, _)| (n, s)).collect())
}

/// Computes the occupancy bound for every queue and emits `DB001` where a
/// bound exceeds (or escapes) the configured depth.
fn bounds(
    cs: &Program,
    access: &Program,
    seg_cs: &[Segment],
    seg_as: &[Segment],
    cmas: &[CmasThread],
    depths: DepthConfig,
    report: &mut VerifyReport,
) {
    let states = symbolic(cs, access, seg_cs, seg_as);
    for q in Queue::ALL {
        let cap = depths.cap(q);
        let (bound, overflow) = match (&states, q) {
            (_, Queue::Scq) => scq_bound(cmas, cap),
            (Some(states), _) => {
                // Worst case at any reachable entry: everything already in
                // flight plus every push of the pair before the consumer
                // drains anything.
                let mut bound = 0usize;
                let mut overflow = None;
                for (node, state) in states {
                    let (pushes, _) =
                        pair_traffic(&seg_cs[node.k], &seg_as[node.k], node.ce, node.ae, q);
                    let entry = state[q.index()];
                    let during = entry.hi.saturating_add(pushes.len());
                    if during > bound {
                        bound = during;
                        overflow = (during > cap && !pushes.is_empty()).then(|| {
                            let idx = cap.saturating_sub(entry.lo).min(pushes.len() - 1);
                            pushes[idx]
                        });
                    }
                }
                (bound, overflow)
            }
            // Unpairable skeletons: conservative per-segment maximum on the
            // architected producer side (the pre-symbolic behaviour).
            (None, _) => {
                let producer: Vec<(Loc, &Segment)> = match q {
                    Queue::Ldq | Queue::Cq => seg_as.iter().map(|s| (Loc::Access(0), s)).collect(),
                    _ => seg_cs.iter().map(|s| (Loc::Cs(0), s)).collect(),
                };
                let mut bound = 0usize;
                let mut overflow = None;
                for (side, seg) in producer {
                    let pushes: Vec<u32> = seg
                        .ops
                        .iter()
                        .filter(|(_, op)| *op == QOp::Push(q))
                        .map(|&(pc, _)| pc)
                        .collect();
                    if pushes.len() > bound {
                        bound = pushes.len();
                        overflow = (pushes.len() > cap).then(|| {
                            let pc = pushes[cap.min(pushes.len() - 1)];
                            match side {
                                Loc::Cs(_) => Loc::Cs(pc),
                                _ => Loc::Access(pc),
                            }
                        });
                    }
                }
                (bound, overflow)
            }
        };
        report.bounds.push(QueueBound {
            queue: q,
            bound,
            cap,
        });
        if let Some(loc) = overflow {
            let msg = if bound == UNBOUNDED {
                format!(
                    "static occupancy of the {} is unbounded: a loop accumulates entries \
                     faster than the consumer drains them (interval widening reached ∞); \
                     the queue fills to its depth {cap} and the producer wedges here",
                    q.name()
                )
            } else {
                format!(
                    "static occupancy bound {bound} exceeds the configured {} depth {cap} \
                     (deadlock precondition; this push cannot commit while the consumer \
                     is still upstream)",
                    q.name()
                )
            };
            report.diagnostics.push(Diagnostic {
                code: Code::Db001,
                loc,
                queue: Some(q),
                msg,
            });
        }
    }
}

/// The SCQ bound: the most `putscq` increments any single CMAS segment can
/// commit. The SCQ is *designed* to saturate — `putscq` blocking is the
/// slip-control back-pressure, not a deadlock — so per-segment pressure is
/// the only meaningful static figure.
fn scq_bound(cmas: &[CmasThread], cap: usize) -> (usize, Option<Loc>) {
    let mut bound = 0usize;
    let mut overflow = None;
    for t in cmas {
        for seg in crate::skeleton::segments(&t.prog) {
            let pushes: Vec<u32> = seg
                .ops
                .iter()
                .filter(|(_, op)| *op == QOp::Push(Queue::Scq))
                .map(|&(pc, _)| pc)
                .collect();
            if pushes.len() > bound {
                bound = pushes.len();
                overflow = (pushes.len() > cap)
                    .then(|| Loc::Cmas(t.id, pushes[cap.min(pushes.len() - 1)]));
            }
        }
    }
    (bound, overflow)
}

/// Greedy two-thread simulation of one balanced segment pair under the
/// configured depths, recording the peak occupancy each queue reaches.
/// SCQ operations are excluded: its producer is the asynchronous CMP and
/// the AS-side `scq_get` never blocks.
fn simulate_pair(
    k: usize,
    sc: &Segment,
    sa: &Segment,
    depths: DepthConfig,
    peaks: &mut [usize; 5],
    out: &mut Vec<Diagnostic>,
) {
    let cs_ops: Vec<(u32, QOp)> = sc
        .ops
        .iter()
        .filter(|(_, op)| op.queue() != Queue::Scq)
        .copied()
        .collect();
    let as_ops: Vec<(u32, QOp)> = sa
        .ops
        .iter()
        .filter(|(_, op)| op.queue() != Queue::Scq)
        .copied()
        .collect();

    let mut occ = [0usize; Queue::ALL.len()];
    let mut ic = 0usize;
    let mut ia = 0usize;
    let mut step = |i: &mut usize, ops: &[(u32, QOp)], occ: &mut [usize; 5]| -> bool {
        let mut progressed = false;
        while *i < ops.len() {
            let (_, op) = ops[*i];
            let qi = op.queue().index();
            match op {
                QOp::Push(q) => {
                    if occ[qi] >= depths.cap(q) {
                        break;
                    }
                    occ[qi] += 1;
                    peaks[qi] = peaks[qi].max(occ[qi]);
                }
                QOp::Pop(_) => {
                    if occ[qi] == 0 {
                        break;
                    }
                    occ[qi] -= 1;
                }
            }
            *i += 1;
            progressed = true;
        }
        progressed
    };

    loop {
        let a = step(&mut ia, &as_ops, &mut occ);
        let c = step(&mut ic, &cs_ops, &mut occ);
        if ia == as_ops.len() && ic == cs_ops.len() {
            return;
        }
        if !a && !c {
            break;
        }
    }

    // Deadlock: describe both stuck sides, anchor at the blocked AS op when
    // the AS is among them.
    let describe = |ops: &[(u32, QOp)], i: usize| -> Option<String> {
        ops.get(i).map(|(_, op)| {
            let q = op.queue();
            if op.is_push() {
                format!(
                    "blocked pushing {} (full, depth {})",
                    q.name(),
                    depths.cap(q)
                )
            } else {
                format!("blocked popping {} (empty)", q.name())
            }
        })
    };
    let a_desc = describe(&as_ops, ia);
    let c_desc = describe(&cs_ops, ic);
    let (loc, queue) = match a_desc.as_ref() {
        Some(_) => (Loc::Access(as_ops[ia].0), Some(as_ops[ia].1.queue())),
        None => (Loc::Cs(cs_ops[ic].0), Some(cs_ops[ic].1.queue())),
    };
    let mut parts = Vec::new();
    if let Some(d) = a_desc {
        parts.push(format!("access stream {d}"));
    }
    if let Some(d) = c_desc {
        parts.push(format!("computation stream {d}"));
    }
    out.push(Diagnostic {
        code: Code::Db002,
        loc,
        queue,
        msg: format!(
            "segment {k} deadlocks under the configured depths: {}",
            parts.join("; ")
        ),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::segments;
    use hidisc_isa::asm::assemble;

    fn shallow(ldq: usize, sdq: usize) -> DepthConfig {
        DepthConfig {
            ldq,
            sdq,
            ..DepthConfig::paper()
        }
    }

    fn run(cs_src: &str, as_src: &str, depths: DepthConfig) -> VerifyReport {
        let cs = assemble("cs", cs_src).unwrap();
        let access = assemble("as", as_src).unwrap();
        run_progs(cs, access, depths)
    }

    fn run_progs(cs: Program, access: Program, depths: DepthConfig) -> VerifyReport {
        let sc = segments(&cs);
        let sa = segments(&access);
        let balanced = vec![true; sc.len().min(sa.len())];
        let mut report = VerifyReport::default();
        check(&cs, &access, &sc, &sa, &balanced, &[], depths, &mut report);
        report
    }

    #[test]
    fn bounds_track_max_pushes_per_segment() {
        let r = run(
            "recv r4, LDQ\nrecv r5, LDQ\nhalt",
            "ld.q LDQ, 0(r2)\nld.q LDQ, 8(r2)\nhalt",
            DepthConfig::paper(),
        );
        let ldq = r.bounds.iter().find(|b| b.queue == Queue::Ldq).unwrap();
        assert_eq!(ldq.bound, 2);
        assert_eq!(ldq.cap, 32);
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn over_depth_warns_db001() {
        let r = run(
            "recv r4, LDQ\nrecv r5, LDQ\nrecv r6, LDQ\nhalt",
            "ld.q LDQ, 0(r2)\nld.q LDQ, 8(r2)\nld.q LDQ, 16(r2)\nhalt",
            shallow(2, 32),
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::Db001)
            .expect("DB001");
        // The third push (pc 2) is the first that cannot commit.
        assert_eq!(d.loc, Loc::Access(2));
        assert_eq!(d.queue, Some(Queue::Ldq));
        // Bound still completes without deadlock: the consumer pops
        // interleave, so DB002 must NOT fire.
        assert!(!r.diagnostics.iter().any(|d| d.code == Code::Db002));
    }

    #[test]
    fn crossed_bursts_deadlock_db002() {
        // AS pushes 3 LDQ values then pops 3 SDQ; CS pushes 3 SDQ then
        // pops 3 LDQ. Balanced, but with depth 2 both sides block.
        let r = run(
            "send SDQ, r1\nsend SDQ, r1\nsend SDQ, r1\nrecv r4, LDQ\nrecv r5, LDQ\nrecv r6, LDQ\nhalt",
            "ld.q LDQ, 0(r2)\nld.q LDQ, 8(r2)\nld.q LDQ, 16(r2)\nrecv r3, SDQ\nrecv r3, SDQ\nrecv r3, SDQ\nhalt",
            shallow(2, 2),
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::Db002)
            .expect("DB002");
        // AS blocks at its third LDQ push.
        assert_eq!(d.loc, Loc::Access(2));
        assert_eq!(d.queue, Some(Queue::Ldq));
        assert!(d.msg.contains("access stream blocked pushing LDQ"));
        assert!(d.msg.contains("computation stream blocked pushing SDQ"));
    }

    #[test]
    fn same_shape_completes_at_paper_depths() {
        let r = run(
            "send SDQ, r1\nsend SDQ, r1\nsend SDQ, r1\nrecv r4, LDQ\nrecv r5, LDQ\nrecv r6, LDQ\nhalt",
            "ld.q LDQ, 0(r2)\nld.q LDQ, 8(r2)\nld.q LDQ, 16(r2)\nrecv r3, SDQ\nrecv r3, SDQ\nrecv r3, SDQ\nhalt",
            DepthConfig::paper(),
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn balanced_loop_entry_stays_zero() {
        // A lock-step producer/consumer loop: occupancy returns to 0 at
        // every boundary, so the symbolic bound equals the per-iteration
        // push count.
        let cs = assemble("cs", "l:\nrecv r4, LDQ\ncbr l\nhalt").unwrap();
        let mut access = assemble("as", "l:\nld.q LDQ, 0(r2)\nbne r9, r0, l\nhalt").unwrap();
        access.annot_mut(1).push_cq = true;
        let r = run_progs(cs, access, DepthConfig::paper());
        let ldq = r.bounds.iter().find(|b| b.queue == Queue::Ldq).unwrap();
        assert_eq!(ldq.bound, 1);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn pop_skipping_back_edge_widens_to_unbounded() {
        // The CS consume-branch re-enters its segment *after* the recv:
        // every iteration pushes one LDQ value and pops nothing. The
        // interval analysis must widen the entry to ∞ and warn, where the
        // old per-segment maximum saw a harmless bound of 1.
        let cs = assemble("cs", "recv r4, LDQ\nl:\ncbr l\nhalt").unwrap();
        let mut access = assemble("as", "l:\nld.q LDQ, 0(r2)\nbne r9, r0, l\nhalt").unwrap();
        access.annot_mut(1).push_cq = true;
        let r = run_progs(cs, access, DepthConfig::paper());
        let ldq = r.bounds.iter().find(|b| b.queue == Queue::Ldq).unwrap();
        assert!(ldq.is_unbounded(), "bound = {}", ldq.bound);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::Db001)
            .expect("DB001");
        assert!(d.msg.contains("unbounded"), "{}", d.msg);
        assert_eq!(d.queue, Some(Queue::Ldq));
    }

    #[test]
    fn greedy_peaks_recorded_and_dominated() {
        let r = run(
            "send SDQ, r1\nsend SDQ, r1\nrecv r4, LDQ\nhalt",
            "ld.q LDQ, 0(r2)\nrecv r3, SDQ\nrecv r3, SDQ\nhalt",
            DepthConfig::paper(),
        );
        assert_eq!(r.greedy_peaks[Queue::Ldq.index()], 1);
        assert_eq!(r.greedy_peaks[Queue::Sdq.index()], 2);
        for b in &r.bounds {
            assert!(
                b.bound >= r.greedy_peaks[b.queue.index()],
                "symbolic {} bound {} below greedy peak",
                b.queue.name(),
                b.bound,
            );
        }
    }
}
