//! Differential proof that snapshot/restore is invisible: for every
//! benchmark of the suite and every machine model, a run interrupted at
//! mid-flight — whether resumed in place or restored from an in-memory
//! clone of the machine (a snapshot is `Machine::clone()`) — must produce
//! exactly the statistics, cycle count and final memory of the
//! uninterrupted run.
//!
//! See DESIGN.md §16, "State snapshots and sampled simulation", for the
//! invariant this test pins down.

use hidisc::{Machine, MachineConfig, Model};
use hidisc_slicer::{compile, CompiledWorkload, CompilerConfig, ExecEnv};
use hidisc_workloads::{suite, Scale, Workload};

fn env_of(w: &Workload) -> ExecEnv {
    ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    }
}

/// Runs the interrupted-and-resumed variants against the uninterrupted
/// baseline for one (workload, model, config) point.
fn check_point(
    name: &str,
    model: Model,
    compiled: &CompiledWorkload,
    env: &ExecEnv,
    cfg: MachineConfig,
) {
    let work = compiled.profile.dyn_instrs;
    let baseline = Machine::new(model, compiled, env, cfg)
        .run(work)
        .unwrap_or_else(|e| panic!("{name}/{model}: baseline run failed: {e}"));
    let stop_at = baseline.cycles / 2;

    // Split run: stop at the midpoint, clone, keep going in place.
    let mut split = Machine::new(model, compiled, env, cfg);
    let finished = split
        .run_to_cycle(stop_at)
        .unwrap_or_else(|e| panic!("{name}/{model}: run_to_cycle failed: {e}"));
    assert!(!finished, "{name}/{model}: finished before the midpoint");
    assert_eq!(split.now(), stop_at, "{name}/{model}: stop overshot");
    let mut restored = split.clone();
    let split_stats = split
        .run(work)
        .unwrap_or_else(|e| panic!("{name}/{model}: resumed run failed: {e}"));
    assert!(
        baseline.sim_eq(&split_stats),
        "{name}/{model}: split run diverged:\nbase: {baseline:#?}\nsplit: {split_stats:#?}"
    );

    // Resume the clone taken at the midpoint and run to the end again.
    assert_eq!(restored.now(), stop_at);
    let restored_stats = restored
        .run(work)
        .unwrap_or_else(|e| panic!("{name}/{model}: restored run failed: {e}"));
    assert!(
        baseline.sim_eq(&restored_stats),
        "{name}/{model}: restored clone diverged"
    );
}

/// Every `Scale::Test` workload × every model, fast-forward off and on:
/// interrupting at the midpoint (resume in place / resume a clone) is
/// simulation-identical to never stopping.
#[test]
fn snapshot_restore_is_stat_identical_across_suite_and_models() {
    for w in suite(Scale::Test, 42) {
        let env = env_of(&w);
        let compiled = compile(&w.prog, &env, &CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
        for model in Model::ALL {
            for ff in [false, true] {
                let mut cfg = MachineConfig::paper();
                cfg.fast_forward = ff;
                check_point(w.name, model, &compiled, &env, cfg);
            }
        }
    }
}

/// The paper's Figure-10 high-latency point stalls far more (long
/// in-flight MSHR state crosses the snapshot boundary); equivalence must
/// hold there too.
#[test]
fn snapshot_restore_is_stat_identical_at_high_latency() {
    let w = &suite(Scale::Test, 7)[2]; // pointer: serial chase, stall-heavy
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    for model in Model::ALL {
        let mut cfg = MachineConfig::paper_with_latency(16, 160);
        cfg.fast_forward = true;
        check_point(w.name, model, &compiled, &env, cfg);
    }
}
