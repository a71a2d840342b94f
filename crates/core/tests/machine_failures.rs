//! Failure-injection tests for the machine driver: a mis-sliced program
//! must be *diagnosed* (deadlock watchdog, cycle budget), never silently
//! wedged.

use hidisc::{Machine, MachineConfig, Model};
use hidisc_isa::asm::assemble;
use hidisc_isa::mem::Memory;
use hidisc_slicer::profile::MissProfile;
use hidisc_slicer::{CompiledWorkload, ExecEnv};

/// Hand-builds a (deliberately broken) compiled workload.
fn bogus_workload(cs_src: &str, as_src: &str) -> CompiledWorkload {
    let original = assemble("orig", "nop\nhalt").unwrap();
    CompiledWorkload {
        original,
        cs: assemble("cs", cs_src).unwrap(),
        access: assemble("as", as_src).unwrap(),
        cmas: vec![],
        profile: MissProfile::default(),
    }
}

fn env() -> ExecEnv {
    ExecEnv {
        regs: vec![],
        mem: Memory::new(),
        max_steps: 1000,
    }
}

#[test]
fn unmatched_recv_deadlocks_with_diagnosis() {
    // CP pops an LDQ value nobody ever pushes.
    let w = bogus_workload("recv r1, LDQ\nhalt", "nop\nhalt");
    let mut cfg = MachineConfig::paper();
    cfg.deadlock_cycles = 2_000;
    cfg.max_cycles = 50_000;
    let mut m = Machine::new(Model::CpAp, &w, &env(), cfg);
    let err = m.run(2).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("no progress") || msg.contains("deadlock"),
        "{msg}"
    );

    // The watchdog belongs to the machine, not to one call: segments
    // shorter than `deadlock_cycles` must trip it on the same cycle, with
    // the same idle count and pc, instead of running into the budget.
    let mut m = Machine::new(Model::CpAp, &w, &env(), cfg);
    let mut stop = 0;
    let segmented = loop {
        stop += 500;
        match m.run_to_cycle(stop) {
            Ok(false) => continue,
            done => break done,
        }
    };
    assert_eq!(segmented, Err(err));
}

#[test]
fn unmatched_sdq_store_deadlocks() {
    // AP stores data from an SDQ that the CS never feeds.
    let w = bogus_workload("halt", "li r1, 0x4000\ns.d SDQ, 0(r1)\nhalt");
    let mut cfg = MachineConfig::paper();
    cfg.deadlock_cycles = 2_000;
    let mut m = Machine::new(Model::CpAp, &w, &env(), cfg);
    assert!(m.run(3).is_err());
}

#[test]
fn cycle_budget_is_enforced() {
    // An infinite loop trips max_cycles even though it keeps committing.
    let spin = "loop:\nadd r1, r1, 1\nj loop\nhalt";
    let w = bogus_workload("halt", spin);
    let mut cfg = MachineConfig::paper();
    cfg.max_cycles = 5_000;
    let mut m = Machine::new(Model::CpAp, &w, &env(), cfg);
    let err = m.run(1).unwrap_err();
    assert!(format!("{err}").contains("budget"), "{err}");
}

#[test]
fn fp_on_access_processor_is_rejected() {
    // The separator guarantees no FP compute in the AS; feeding some in by
    // hand must produce a clean configuration error, not a wedge.
    let w = bogus_workload("halt", "add.d f1, f2, f3\nhalt");
    let mut m = Machine::new(Model::CpAp, &w, &env(), MachineConfig::paper());
    let err = m.run(1).unwrap_err();
    assert!(format!("{err}").contains("fp"), "{err}");
}

#[test]
fn memory_instruction_on_cp_is_rejected() {
    let w = bogus_workload("ld r1, 0(r2)\nhalt", "halt");
    let mut m = Machine::new(Model::CpAp, &w, &env(), MachineConfig::paper());
    let err = m.run(1).unwrap_err();
    assert!(format!("{err}").contains("memory"), "{err}");
}

#[test]
fn unsupported_instruction_never_dispatched_is_not_an_error() {
    // The AP has no fp units, but this `add.d` sits behind a jump and
    // never dispatches: only dispatching an unsupported instruction is an
    // error, not having one in the program.
    let w = bogus_workload("halt", "j over\nadd.d f1, f2, f3\nover:\nhalt");
    let mut m = Machine::new(Model::CpAp, &w, &env(), MachineConfig::paper());
    let stats = m.run(3).unwrap();
    let committed: Vec<u64> = stats.cores.iter().map(|(_, s)| s.committed).collect();
    assert_eq!(
        committed,
        [1, 2],
        "CP commits its halt, AP the jump and halt"
    );
}

#[test]
fn mismatched_cq_direction_is_wrong_but_terminates_or_deadlocks() {
    // CS consumes two tokens, AS produces one: the second cbranch blocks
    // forever → watchdog.
    let mut access = assemble("as", "li r1, 1\nbne r1, r0, over\nnop\nover:\nhalt").unwrap();
    access.annot_mut(1).push_cq = true;
    let cs = assemble("cs", "cbr a\na:\ncbr b\nb:\nhalt").unwrap();
    let original = assemble("orig", "nop\nhalt").unwrap();
    let w = CompiledWorkload {
        original,
        cs,
        access,
        cmas: vec![],
        profile: MissProfile::default(),
    };
    let mut cfg = MachineConfig::paper();
    cfg.deadlock_cycles = 2_000;
    let mut m = Machine::new(Model::CpAp, &w, &env(), cfg);
    assert!(m.run(4).is_err());
}
