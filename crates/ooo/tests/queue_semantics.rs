//! Direct tests of the decoupled-queue semantics in the out-of-order
//! core: blocking pops at dispatch, pushes at commit with backpressure,
//! store-data pairing through the LSQ, CQ tokens and trigger forks —
//! which stall counter each stop reason moves, and that warm cycles count
//! a retired instruction the way detailed cycles do.

use hidisc_isa::asm::assemble;
use hidisc_isa::mem::Memory;
use hidisc_isa::{IntReg, Queue};
use hidisc_mem::{MemConfig, MemSystem};
use hidisc_ooo::{CoreConfig, CoreCtx, OooCore, QueueConfig, QueueFile, TriggerFork};
use hidisc_telemetry::Telemetry;

struct Rig {
    mem_sys: MemSystem,
    queues: QueueFile,
    data: Memory,
    triggers: Vec<TriggerFork>,
    trace: Telemetry,
    now: u64,
}

impl Rig {
    fn new(qcfg: QueueConfig) -> Rig {
        Rig {
            mem_sys: MemSystem::new(MemConfig::paper()),
            queues: QueueFile::new(qcfg),
            data: Memory::new(),
            triggers: Vec::new(),
            trace: Telemetry::disabled(),
            now: 0,
        }
    }

    fn ctx(&mut self) -> CoreCtx<'_> {
        CoreCtx {
            mem_sys: &mut self.mem_sys,
            queues: &mut self.queues,
            data: &mut self.data,
            triggers: &mut self.triggers,
            trace: &mut self.trace,
        }
    }

    fn step(&mut self, core: &mut OooCore) {
        core.step(self.now, &mut self.ctx()).unwrap();
        self.now += 1;
    }

    fn warm_step(&mut self, core: &mut OooCore) {
        core.warm_step(self.now, &mut self.ctx()).unwrap();
        self.now += 1;
    }

    fn run_until_done(&mut self, core: &mut OooCore, limit: u64) {
        while !core.is_done() {
            self.step(core);
            assert!(self.now < limit, "exceeded {limit} cycles");
        }
    }
}

/// Asserts that each stop counter named in `moved` is non-zero and every
/// other one is zero, so a stop reason routed to the wrong counter fails
/// by name.
fn assert_only_moved(core: &OooCore, moved: &[&str]) {
    let s = core.stats();
    let mut counters = vec![
        ("ruu_full_cycles".to_string(), s.ruu_full_cycles),
        ("lsq_full_cycles".to_string(), s.lsq_full_cycles),
        ("mem_dep_stalls".to_string(), s.mem_dep_stalls),
        ("lod_events".to_string(), s.lod_events),
    ];
    for (i, q) in ["LDQ", "SDQ", "CDQ", "CQ", "SCQ"].iter().enumerate() {
        counters.push((format!("dispatch_stall_q[{q}]"), s.dispatch_stall_q[i]));
        counters.push((format!("commit_stall_q[{q}]"), s.commit_stall_q[i]));
    }
    for (name, v) in counters {
        if moved.contains(&name.as_str()) {
            assert!(v > 0, "{name} should have moved");
        } else {
            assert_eq!(v, 0, "{name} should not have moved");
        }
    }
}

/// `li r1, 0x10000`, a cold-miss load, then `body` repeated `n` times and
/// `halt`: everything behind the load waits for it to commit.
fn behind_a_miss(body: &str, n: usize) -> String {
    format!(
        "li r1, 0x10000\nld r2, 0(r1)\n{}halt",
        format!("{body}\n").repeat(n)
    )
}

#[test]
fn full_ruu_counts_only_ruu_full_cycles() {
    // 70 independent ops behind the miss overflow the 64-entry RUU.
    let prog = assemble("t", &behind_a_miss("add r3, r0, 1", 70)).unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    rig.run_until_done(&mut core, 2_000);
    assert_only_moved(&core, &["ruu_full_cycles"]);
}

#[test]
fn full_lsq_counts_only_lsq_full_cycles() {
    // 40 loads behind the miss overflow the 32-entry LSQ long before the
    // 64-entry RUU fills.
    let prog = assemble("t", &behind_a_miss("ld r3, 8(r1)", 40)).unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    rig.run_until_done(&mut core, 2_000);
    assert_only_moved(&core, &["lsq_full_cycles"]);
}

#[test]
fn load_behind_unfilled_storeq_is_one_mem_dep_episode() {
    // The load reads the address the `s.q` store writes, whose SDQ data
    // has not arrived: dispatch stops on the memory dependence every
    // cycle, and once the store reaches the head commit waits on the SDQ.
    let prog = assemble("t", "li r1, 0x4000\ns.d SDQ, 0(r1)\nld r2, 0(r1)\nhalt").unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_ap(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    for _ in 0..50 {
        rig.step(&mut core);
    }
    assert!(core.stats().mem_dep_stalls > 40, "stalls every cycle");
    rig.queues.try_push(Queue::Sdq, 77);
    rig.run_until_done(&mut core, 500);
    assert_eq!(core.regs.get_i(IntReg::new(2)), 77);
    assert_eq!(core.stats().lod_events, 1, "one blocking episode");
    assert_only_moved(
        &core,
        &["mem_dep_stalls", "lod_events", "commit_stall_q[SDQ]"],
    );
}

#[test]
fn recv_blocks_until_data_arrives() {
    let prog = assemble("t", "recv r1, LDQ\nadd r2, r1, 1\nhalt").unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    // 50 cycles with an empty LDQ: no commit possible.
    for _ in 0..50 {
        rig.step(&mut core);
    }
    assert_eq!(core.stats().committed, 0);
    assert!(
        core.stats().dispatch_stall_q[0] > 40,
        "LDQ stall cycles must accrue"
    );
    assert_eq!(core.stats().lod_events, 1, "one blocking episode");
    // Provide the value: execution completes and sees it.
    rig.queues.try_push(Queue::Ldq, 41);
    rig.run_until_done(&mut core, 200);
    assert_eq!(core.regs.get_i(IntReg::new(2)), 42);
}

#[test]
fn send_stalls_commit_on_full_queue() {
    // Push more values than the queue holds; nobody drains it.
    let prog = assemble(
        "t",
        "li r1, 7\nsend LDQ, r1\nsend LDQ, r1\nsend LDQ, r1\nsend LDQ, r1\nhalt",
    )
    .unwrap();
    let qcfg = QueueConfig {
        ldq: 2,
        ..QueueConfig::paper()
    };
    let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
    let mut rig = Rig::new(qcfg);
    for _ in 0..100 {
        rig.step(&mut core);
    }
    assert!(!core.is_done(), "core must be stuck on the full LDQ");
    assert_eq!(rig.queues.len(Queue::Ldq), 2);
    assert!(core.stats().commit_stall_q[0] > 50);
    // Drain one: exactly one more push goes through.
    rig.queues.try_pop(Queue::Ldq);
    for _ in 0..20 {
        rig.step(&mut core);
    }
    assert_eq!(rig.queues.stats(Queue::Ldq).pushes, 3);
    // Drain the rest: the program finishes.
    rig.queues.try_pop(Queue::Ldq);
    rig.queues.try_pop(Queue::Ldq);
    rig.run_until_done(&mut core, 500);
    assert_eq!(rig.queues.stats(Queue::Ldq).pushes, 4);
}

#[test]
fn storeq_pairs_address_with_queue_data() {
    // The store address is ready immediately (SAQ role of the LSQ); the
    // data arrives later through the SDQ.
    let prog = assemble("t", "li r1, 0x4000\ns.d SDQ, 0(r1)\nli r2, 5\nhalt").unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    for _ in 0..30 {
        rig.step(&mut core);
    }
    // Younger instructions dispatched fine (r2 computed), but the store
    // cannot commit.
    assert!(!core.is_done());
    assert_eq!(core.regs.get_i(IntReg::new(2)), 5);
    rig.queues.try_push(Queue::Sdq, 0xfeed);
    rig.run_until_done(&mut core, 200);
    assert_eq!(rig.data.read_i64(0x4000).unwrap(), 0xfeed);
}

#[test]
fn cq_tokens_steer_cbranches() {
    // cbr taken, then cbr not-taken: lands on the add at the fallthrough.
    let prog = assemble(
        "t",
        r"
        cbr over
        li r1, 111     ; skipped (first token: taken)
    over:
        cbr end
        li r2, 222     ; executed (second token: not taken)... wait
        halt
    end:
        halt
    ",
    )
    .unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_cp(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    rig.queues.try_push(Queue::Cq, 1); // taken
    rig.queues.try_push(Queue::Cq, 0); // not taken
    rig.run_until_done(&mut core, 500);
    assert_eq!(
        core.regs.get_i(IntReg::new(1)),
        0,
        "taken branch skips li r1"
    );
    assert_eq!(
        core.regs.get_i(IntReg::new(2)),
        222,
        "not-taken falls through"
    );
}

#[test]
fn push_cq_annotation_emits_tokens_at_commit() {
    let mut prog = assemble(
        "t",
        r"
        li r1, 3
    loop:
        sub r1, r1, 1
        bne r1, r0, loop
        halt
    ",
    )
    .unwrap();
    // Annotate the branch to push CQ tokens.
    let branch_pc = 2;
    prog.annot_mut(branch_pc).push_cq = true;
    let mut core = OooCore::new("t", CoreConfig::paper_ap(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    rig.run_until_done(&mut core, 500);
    // 3 executions: taken, taken, not-taken.
    assert_eq!(rig.queues.stats(Queue::Cq).pushes, 3);
    assert_eq!(rig.queues.try_pop(Queue::Cq), Some(1));
    assert_eq!(rig.queues.try_pop(Queue::Cq), Some(1));
    assert_eq!(rig.queues.try_pop(Queue::Cq), Some(0));
}

#[test]
fn trigger_annotation_forks_with_register_snapshot() {
    let mut prog = assemble("t", "li r5, 99\nli r6, 7\nnop\nhalt").unwrap();
    prog.annot_mut(2).trigger = Some(4);
    let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    rig.run_until_done(&mut core, 200);
    assert_eq!(rig.triggers.len(), 1);
    let t = &rig.triggers[0];
    assert_eq!(t.cmas, 4);
    assert_eq!(t.regs.get_i(IntReg::new(5)), 99);
    assert_eq!(t.regs.get_i(IntReg::new(6)), 7);
    assert_eq!(core.stats().triggers_fired, 1);
}

#[test]
fn getscq_never_blocks_and_drains() {
    let prog = assemble("t", "getscq\ngetscq\nli r1, 1\nhalt").unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    rig.queues.try_push(Queue::Scq, 1);
    rig.run_until_done(&mut core, 200);
    // One token drained; the second getscq found it empty and proceeded.
    assert_eq!(rig.queues.len(Queue::Scq), 0);
    assert_eq!(core.regs.get_i(IntReg::new(1)), 1);
}

#[test]
fn loadq_pushes_loaded_value_at_commit() {
    let prog = assemble("t", "li r1, 0x8000\nl.d LDQ, 0(r1)\nhalt").unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    rig.data.write_f64(0x8000, 2.75).unwrap();
    rig.run_until_done(&mut core, 500);
    let bits = rig.queues.try_pop(Queue::Ldq).expect("value pushed");
    assert_eq!(f64::from_bits(bits), 2.75);
}

#[test]
fn cdq_recv_blocks_the_access_stream() {
    // An AP that needs a CS-produced address: dispatch blocks on the CDQ.
    let prog = assemble("t", "recv r4, CDQ\nld r5, 0(r4)\nhalt").unwrap();
    let mut core = OooCore::new("t", CoreConfig::paper_ap(), prog);
    let mut rig = Rig::new(QueueConfig::paper());
    rig.data.write_i64(0x9000, 123).unwrap();
    for _ in 0..40 {
        rig.step(&mut core);
    }
    assert!(!core.is_done());
    assert!(core.stats().dispatch_stall_q[2] > 30, "CDQ stalls accrue");
    rig.queues.try_push(Queue::Cdq, 0x9000);
    rig.run_until_done(&mut core, 500);
    assert_eq!(core.regs.get_i(IntReg::new(5)), 123);
}

#[test]
fn warm_and_detailed_cycles_count_a_retired_instruction_the_same_way() {
    // Memory ops in a loop whose branch carries the slip-control GET_SCQ,
    // then a trigger on the last instruction before `halt`: nothing
    // younger changes a register, so both runs fork the same context.
    let src = r"
        li r1, 0x5000
        li r2, 3
    loop:
        sd r2, 0(r1)
        ld r3, 0(r1)
        add r1, r1, 8
        sub r2, r2, 1
        bne r2, r0, loop
        li r4, 9
        halt
    ";
    let run = |warm: bool| {
        let mut prog = assemble("t", src).unwrap();
        prog.annot_mut(6).scq_get = true;
        prog.annot_mut(7).trigger = Some(3);
        let mut core = OooCore::new("t", CoreConfig::paper_superscalar(), prog);
        let mut rig = Rig::new(QueueConfig::paper());
        for _ in 0..5 {
            rig.queues.try_push(Queue::Scq, 1);
        }
        if warm {
            assert!(core.try_enter_warm());
            while !core.is_done() {
                rig.warm_step(&mut core);
                assert!(rig.now < 100, "warm run did not finish");
            }
        } else {
            rig.run_until_done(&mut core, 1_000);
        }
        (core, rig)
    };
    let (detailed, d_rig) = run(false);
    let (warm, w_rig) = run(true);
    let (d, w) = (detailed.stats(), warm.stats());
    assert_eq!(d.committed, 19);
    assert_eq!(d.committed_mem, 6);
    assert_eq!(d.triggers_fired, 1);
    assert_eq!(
        (d.committed, d.committed_mem, d.dispatched, d.triggers_fired),
        (w.committed, w.committed_mem, w.dispatched, w.triggers_fired)
    );
    let forks = |rig: &Rig| -> Vec<_> {
        rig.triggers
            .iter()
            .map(|t| (t.cmas, t.regs.clone()))
            .collect()
    };
    assert_eq!(forks(&d_rig), forks(&w_rig));
    assert_eq!(d_rig.queues.len(Queue::Scq), 2);
    assert_eq!(w_rig.queues.len(Queue::Scq), 2);
    assert_eq!(detailed.regs, warm.regs);
}
