//! Byte-identity pins for the statistics encoding: the stats JSON of a
//! full run and of a half-finished one, for one Test-scale workload on all
//! four models (and on the superscalar with its hardware stride
//! prefetcher). Any change to a counter, its JSON key or the simulated
//! behaviour behind it moves one of these digests; a refactor of how the
//! counters are encoded must leave all of them unchanged.

use hidisc::{fnv1a, Machine, MachineConfig, Model, FNV_OFFSET};
use hidisc_mem::RptConfig;
use hidisc_slicer::{compile, CompilerConfig, ExecEnv};
use hidisc_workloads::Scale;

/// Cycle at which the mid-run statistics are taken (every model is still
/// running).
const MID_RUN_CYCLE: u64 = 3000;

/// `(model, stride prefetcher on, fnv1a of MachineStats::to_json after the
/// full run, fnv1a of MachineStats::to_json at MID_RUN_CYCLE)`. Pointer
/// chasing has no strides, so the prefetcher never fires and the last row
/// matches the first.
const PINNED: [(Model, bool, u64, u64); 5] = [
    (
        Model::Superscalar,
        false,
        0x5b09_d52e_0106_bfc4,
        0x182b_ba72_8a9e_5625,
    ),
    (
        Model::CpAp,
        false,
        0x4580_5122_5963_b5e8,
        0x05ef_bfd0_5f0d_1db6,
    ),
    (
        Model::CpCmp,
        false,
        0xabb2_d532_f66a_b23c,
        0xb8d4_5c67_6ddb_375e,
    ),
    (
        Model::HiDisc,
        false,
        0x2530_b5f2_1261_2f25,
        0xcc4b_b1b3_0b2f_6bdf,
    ),
    (
        Model::Superscalar,
        true,
        0x5b09_d52e_0106_bfc4,
        0x182b_ba72_8a9e_5625,
    ),
];

#[test]
fn stats_json_is_pinned_at_the_end_and_mid_run() {
    let w = hidisc_workloads::by_name("pointer", Scale::Test, 2003).unwrap();
    let env = ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    };
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
    let work = compiled.profile.dyn_instrs;
    let mut got = Vec::new();
    for (model, rpt, _, _) in PINNED {
        let mut cfg = MachineConfig::paper();
        if rpt {
            cfg.superscalar.hw_prefetcher = Some(RptConfig::default());
        }
        let stats = Machine::new(model, &compiled, &env, cfg).run(work).unwrap();
        let mut m = Machine::new(model, &compiled, &env, cfg);
        assert!(
            !m.run_to_cycle(MID_RUN_CYCLE).unwrap(),
            "{model} finished early"
        );
        got.push((
            model,
            rpt,
            fnv1a(FNV_OFFSET, stats.to_json().as_bytes()),
            fnv1a(FNV_OFFSET, m.stats(work).to_json().as_bytes()),
        ));
    }
    assert_eq!(got, PINNED, "\n{got:#x?}");
}
