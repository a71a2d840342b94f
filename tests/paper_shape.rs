//! Paper-shape regression tests: the qualitative results of the paper's
//! evaluation must hold on reduced-size (CI-friendly) instances.
//!
//! These assertions are deliberately loose — they pin the *shape* (who
//! wins, and why) rather than exact factors, so legitimate model tuning
//! does not break them while a regression in prefetching, decoupling or
//! the compiler does.

use hidisc::{run_model, MachineConfig, Model};
use hidisc_bench::env_of;
use hidisc_slicer::{compile, CompilerConfig};
use hidisc_workloads::{field, neighborhood, update, Workload};

fn run_all(w: &Workload) -> Vec<hidisc::MachineStats> {
    let env = env_of(w);
    let c = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    Model::ALL
        .into_iter()
        .map(|m| run_model(m, &c, &env, MachineConfig::paper()).unwrap())
        .collect()
}

/// A miss-heavy Update instance small enough for debug-mode CI.
fn update_instance() -> Workload {
    update::build(
        &update::Params {
            table: 16_384,
            updates: 2_000,
        },
        11,
    )
}

fn neighborhood_instance() -> Workload {
    // Enough pairs that the histogram-update aliasing dominates warmup
    // effects (the CP+AP degradation only shows past a few thousand).
    neighborhood::build(
        &neighborhood::Params {
            pixels: 16_384,
            levels: 5,
            distance: 331,
            pairs: 8_000,
        },
        11,
    )
}

#[test]
fn hidisc_beats_baseline_on_update() {
    let w = update_instance();
    let r = run_all(&w);
    let speedup = r[3].speedup_over(&r[0]);
    assert!(
        speedup > 1.10,
        "HiDISC speed-up on update = {speedup:.3}, expected > 1.10"
    );
}

#[test]
fn prefetching_dominates_decoupling() {
    // The paper's Table-2 ranking: the CMP models clearly beat CP+AP,
    // whose contribution is marginal.
    let w = update_instance();
    let r = run_all(&w);
    let cp_ap = r[1].speedup_over(&r[0]);
    let cp_cmp = r[2].speedup_over(&r[0]);
    let hidisc = r[3].speedup_over(&r[0]);
    assert!(
        cp_cmp > cp_ap + 0.05,
        "CP+CMP {cp_cmp:.3} must clearly beat CP+AP {cp_ap:.3}"
    );
    assert!(
        hidisc > cp_ap + 0.05,
        "HiDISC {hidisc:.3} must clearly beat CP+AP {cp_ap:.3}"
    );
    assert!(
        (0.85..1.15).contains(&cp_ap),
        "CP+AP alone is marginal, got {cp_ap:.3}"
    );
}

#[test]
fn cmp_models_eliminate_misses() {
    let w = update_instance();
    let r = run_all(&w);
    // CP+AP does not change the miss rate; the CMP models reduce it.
    let ap_ratio = r[1].miss_rate_ratio(&r[0]);
    assert!(
        (0.95..1.05).contains(&ap_ratio),
        "CP+AP miss ratio {ap_ratio:.3}"
    );
    let hd_ratio = r[3].miss_rate_ratio(&r[0]);
    assert!(
        hd_ratio < 1.0,
        "HiDISC must eliminate some misses, ratio {hd_ratio:.3}"
    );
}

#[test]
fn field_gains_nothing_from_the_cmp() {
    // Figure 8's Field bar: almost no cache misses, so prefetching cannot
    // help (paper: "cannot benefit much from the data prefetching").
    let w = field::build(&field::Params { len: 32 * 1024 }, 11);
    let r = run_all(&w);
    assert!(r[0].l1_miss_rate() < 0.05, "field must be low-miss");
    let cp_cmp = r[2].speedup_over(&r[0]);
    assert!(
        (0.97..1.03).contains(&cp_cmp),
        "CMP must be neutral on field, got {cp_cmp:.3}"
    );
}

#[test]
fn neighborhood_decoupling_degrades() {
    // The paper's loss-of-decoupling case: CP+AP loses to the baseline on
    // Neighborhood because histogram updates force AP-CP synchronisation.
    let w = neighborhood_instance();
    let r = run_all(&w);
    let cp_ap = r[1].speedup_over(&r[0]);
    assert!(cp_ap < 1.02, "NB CP+AP should not gain, got {cp_ap:.3}");
    // The memory-carried cross-stream dependence must actually occur.
    let ap_stats = r[1]
        .cores
        .iter()
        .find(|(n, _)| *n == "AP")
        .map(|(_, s)| *s)
        .expect("CP+AP has an AP core");
    assert!(
        ap_stats.mem_dep_stalls > 0,
        "NB must exhibit cross-stream memory dependences"
    );
}

#[test]
fn latency_tolerance_of_cmp_models() {
    // Figure 10's shape on Neighborhood: the CMP models retain more of
    // their fast-memory IPC when memory slows 4x.
    let w = neighborhood_instance();
    let env = env_of(&w);
    let c = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let fast = MachineConfig::paper_with_latency(4, 40);
    let slow = MachineConfig::paper_with_latency(16, 160);
    let retained = |m: Model| {
        let f = run_model(m, &c, &env, fast).unwrap().ipc();
        let s = run_model(m, &c, &env, slow).unwrap().ipc();
        s / f
    };
    let base = retained(Model::Superscalar);
    let hidisc = retained(Model::HiDisc);
    assert!(
        hidisc > base,
        "HiDISC must tolerate latency better: retains {hidisc:.3} vs baseline {base:.3}"
    );
}

#[test]
fn loss_of_decoupling_accounting_is_visible() {
    // The CP must report LoD stall cycles on the LDQ when the AP cannot
    // feed it fast enough (any miss-heavy workload).
    let w = update_instance();
    let env = env_of(&w);
    let c = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let st = run_model(Model::CpAp, &c, &env, MachineConfig::paper()).unwrap();
    let cp = st
        .cores
        .iter()
        .find(|(n, _)| *n == "CP")
        .map(|(_, s)| *s)
        .unwrap();
    assert!(
        cp.dispatch_stall_q[0] > 0,
        "CP must stall on the LDQ sometimes"
    );
}
