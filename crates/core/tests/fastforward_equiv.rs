//! Differential proof that the idle-cycle fast-forward is invisible: for
//! every benchmark of the suite and every machine model, a run with
//! fast-forward enabled (including per-jump differential checking against
//! a cycle-stepped shadow machine) must produce exactly the statistics,
//! cycle count and final memory of the plain per-cycle loop.
//!
//! See DESIGN.md, "Idle-cycle fast-forward", for the invariant this test
//! pins down.

use hidisc::{Machine, MachineConfig, Model};
use hidisc_slicer::{compile, CompilerConfig, ExecEnv};
use hidisc_workloads::{suite, Scale, Workload};

fn env_of(w: &Workload) -> ExecEnv {
    ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    }
}

/// Every `Scale::Test` workload × every model: fast-forward on (with the
/// expensive per-jump differential check also on) versus fast-forward off
/// must be simulation-identical.
#[test]
fn fast_forward_is_stat_identical_across_suite_and_models() {
    let mut jumps_total = 0u64;
    let mut skipped_total = 0u64;
    for w in suite(Scale::Test, 42) {
        let env = env_of(&w);
        let compiled = compile(&w.prog, &env, &CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
        for model in Model::ALL {
            let mut plain_cfg = MachineConfig::paper();
            plain_cfg.fast_forward = false;
            let mut ff_cfg = MachineConfig::paper();
            ff_cfg.fast_forward = true;

            let plain = Machine::new(model, &compiled, &env, plain_cfg)
                .run(compiled.profile.dyn_instrs)
                .unwrap_or_else(|e| panic!("{}/{model}: plain run failed: {e}", w.name));
            let ff = Machine::new(model, &compiled, &env, ff_cfg)
                .with_ff_check()
                .run(compiled.profile.dyn_instrs)
                .unwrap_or_else(|e| panic!("{}/{model}: ff run failed: {e}", w.name));

            assert_eq!(
                plain.ff_jumps, 0,
                "{}/{model}: plain run took jumps",
                w.name
            );
            assert_eq!(
                plain.cycles, ff.cycles,
                "{}/{model}: cycle count diverged under fast-forward",
                w.name
            );
            assert_eq!(
                plain.mem_checksum, ff.mem_checksum,
                "{}/{model}: memory diverged under fast-forward",
                w.name
            );
            assert!(
                plain.sim_eq(&ff),
                "{}/{model}: statistics diverged under fast-forward:\n\
                 plain: {plain:#?}\nff: {ff:#?}",
                w.name
            );
            assert!(
                ff.ff_skipped_cycles <= ff.cycles,
                "{}/{model}: skipped more cycles than were simulated",
                w.name
            );
            jumps_total += ff.ff_jumps;
            skipped_total += ff.ff_skipped_cycles;
        }
    }
    // The suite at test scale must actually exercise the jump machinery —
    // a fast-forward that never fires would make this test vacuous.
    assert!(
        jumps_total > 0,
        "no fast-forward jump fired anywhere in the suite (vacuous test)"
    );
    assert!(skipped_total >= jumps_total);
}

/// The paper's high-latency point (Figure 10) stalls far more, so jumps
/// are longer and more frequent; equivalence must hold there too.
#[test]
fn fast_forward_is_stat_identical_at_high_latency() {
    let w = &suite(Scale::Test, 7)[2]; // pointer: serial chase, stall-heavy
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    for model in Model::ALL {
        let mut plain_cfg = MachineConfig::paper_with_latency(16, 160);
        plain_cfg.fast_forward = false;
        let mut ff_cfg = MachineConfig::paper_with_latency(16, 160);
        ff_cfg.fast_forward = true;
        let plain = Machine::new(model, &compiled, &env, plain_cfg)
            .run(compiled.profile.dyn_instrs)
            .unwrap();
        let ff = Machine::new(model, &compiled, &env, ff_cfg)
            .with_ff_check()
            .run(compiled.profile.dyn_instrs)
            .unwrap();
        assert!(
            plain.sim_eq(&ff),
            "pointer/{model} @ high latency: fast-forward diverged"
        );
    }
}
