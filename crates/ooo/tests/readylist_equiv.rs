//! Differential proof that the wakeup-driven ready-list issue scheduler is
//! invisible: for every benchmark of the suite and every machine model,
//! the default [`Scheduler::ReadyList`] must produce exactly the
//! statistics, cycle count and final memory of the retained
//! [`Scheduler::Scan`] path — the seed implementation's per-cycle walk of
//! the whole RUU.
//!
//! See DESIGN.md, "Ready-list issue scheduling", for the invariants
//! (wakeup completeness, oldest-first order, completion-wheel/next_event
//! agreement) this test pins down.

use hidisc::{Machine, MachineConfig, Model};
use hidisc_ooo::Scheduler;
use hidisc_slicer::{compile, CompiledWorkload, CompilerConfig, ExecEnv};
use hidisc_workloads::{suite, Scale, Workload};

fn env_of(w: &Workload) -> ExecEnv {
    ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    }
}

/// A paper-preset machine with a scheduler override. The differential
/// ff shadow re-checks every jump, so it is kept on whenever fast-forward
/// is: the grid then also covers the ready-list × fast-forward
/// interaction (DESIGN.md §11 ↔ §10).
fn machine_with(
    model: Model,
    compiled: &CompiledWorkload,
    env: &ExecEnv,
    scheduler: Scheduler,
    fast_forward: bool,
) -> Machine {
    let mut cfg = MachineConfig::paper();
    cfg.superscalar.scheduler = scheduler;
    cfg.cp.scheduler = scheduler;
    cfg.ap.scheduler = scheduler;
    cfg.fast_forward = fast_forward;
    let m = Machine::new(model, compiled, env, cfg);
    if fast_forward {
        m.with_ff_check()
    } else {
        m
    }
}

/// Every `Scale::Test` workload × every model: the ready-list scheduler
/// versus the seed scan scheduler must be simulation-identical, with
/// fast-forward disabled (pure per-cycle stepping on both sides).
#[test]
fn ready_list_is_stat_identical_across_suite_and_models() {
    compare_schedulers(false);
}

/// The same grid with fast-forward (and its differential shadow check)
/// enabled on both sides: the ready-list `next_event`/progress-token
/// implementations must agree with the scan ones about skip legality.
#[test]
fn ready_list_is_stat_identical_under_fast_forward() {
    compare_schedulers(true);
}

fn compare_schedulers(fast_forward: bool) {
    for w in suite(Scale::Test, 42) {
        let env = env_of(&w);
        let compiled = compile(&w.prog, &env, &CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
        for model in Model::ALL {
            let scan = machine_with(model, &compiled, &env, Scheduler::Scan, fast_forward)
                .run(compiled.profile.dyn_instrs)
                .unwrap_or_else(|e| panic!("{}/{model}: scan run failed: {e}", w.name));
            let ready = machine_with(model, &compiled, &env, Scheduler::ReadyList, fast_forward)
                .run(compiled.profile.dyn_instrs)
                .unwrap_or_else(|e| panic!("{}/{model}: ready-list run failed: {e}", w.name));

            assert_eq!(
                scan.cycles, ready.cycles,
                "{}/{model}: cycle count diverged under the ready list (ff={fast_forward})",
                w.name
            );
            assert_eq!(
                scan.mem_checksum, ready.mem_checksum,
                "{}/{model}: memory diverged under the ready list (ff={fast_forward})",
                w.name
            );
            assert!(
                scan.sim_eq(&ready),
                "{}/{model}: statistics diverged under the ready list (ff={fast_forward}):\n\
                 scan: {scan:#?}\nready: {ready:#?}",
                w.name
            );
        }
    }
}

/// The paper's high-latency point (Figure 10) keeps the window fuller for
/// longer, exercising deep wakeup chains; equivalence must hold there too.
/// A memory latency of 400 puts misses past the completion wheel's
/// 256-cycle horizon, so the overflow path is compared against the scan as
/// well — per cycle and under fast-forward with its shadow check.
#[test]
fn ready_list_is_stat_identical_at_high_latency() {
    let w = &suite(Scale::Test, 7)[2]; // pointer: serial chase, stall-heavy
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    for (l2, mem) in [(16, 160), (16, 400)] {
        for fast_forward in [false, true] {
            for model in Model::ALL {
                let run = |scheduler| {
                    let mut cfg = MachineConfig::paper_with_latency(l2, mem);
                    cfg.superscalar.scheduler = scheduler;
                    cfg.cp.scheduler = scheduler;
                    cfg.ap.scheduler = scheduler;
                    cfg.fast_forward = fast_forward;
                    let m = Machine::new(model, &compiled, &env, cfg);
                    let mut m = if fast_forward { m.with_ff_check() } else { m };
                    m.run(compiled.profile.dyn_instrs).unwrap()
                };
                let (scan, ready) = (run(Scheduler::Scan), run(Scheduler::ReadyList));
                assert!(
                    scan.sim_eq(&ready),
                    "pointer/{model} @ {l2}/{mem} (ff={fast_forward}): \
                     ready list diverged from scan"
                );
            }
        }
    }
}
