//! Byte-identity pins for the statistics encoding: the stats JSON of a
//! full run and of a half-finished one, for one Test-scale workload on all
//! four models, and for a strided one on the superscalar with its
//! hardware stride prefetcher. Any change to a counter, its JSON key or
//! the simulated behaviour behind it moves one of these digests; a
//! refactor of how the counters are encoded must leave all of them
//! unchanged.

use hidisc::{fnv1a, Machine, MachineConfig, Model, FNV_OFFSET};
use hidisc_mem::RptConfig;
use hidisc_slicer::{compile, CompilerConfig, ExecEnv};
use hidisc_workloads::Scale;

/// Cycle at which the mid-run statistics are taken (every model is still
/// running).
const MID_RUN_CYCLE: u64 = 3000;

/// `(workload, model, stride prefetcher on, fnv1a of
/// MachineStats::to_json after the full run, fnv1a of
/// MachineStats::to_json at MID_RUN_CYCLE)`. Pointer chasing has no
/// strides, so the prefetcher row runs `field`, whose strided sweeps it
/// does predict.
const PINNED: [(&str, Model, bool, u64, u64); 5] = [
    (
        "pointer",
        Model::Superscalar,
        false,
        0x5b09_d52e_0106_bfc4,
        0x182b_ba72_8a9e_5625,
    ),
    (
        "pointer",
        Model::CpAp,
        false,
        0x4580_5122_5963_b5e8,
        0x05ef_bfd0_5f0d_1db6,
    ),
    (
        "pointer",
        Model::CpCmp,
        false,
        0xabb2_d532_f66a_b23c,
        0xb8d4_5c67_6ddb_375e,
    ),
    (
        "pointer",
        Model::HiDisc,
        false,
        0x2530_b5f2_1261_2f25,
        0xcc4b_b1b3_0b2f_6bdf,
    ),
    (
        "field",
        Model::Superscalar,
        true,
        0xb955_2c7f_ab55_67fb,
        0x89d7_3eef_9f44_aaf0,
    ),
];

#[test]
fn stats_json_is_pinned_at_the_end_and_mid_run() {
    let mut got = Vec::new();
    for (name, model, rpt, _, _) in PINNED {
        let w = hidisc_workloads::by_name(name, Scale::Test, 2003).unwrap();
        let env = ExecEnv {
            regs: w.regs.clone(),
            mem: w.mem.clone(),
            max_steps: w.max_steps,
        };
        let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
        let work = compiled.profile.dyn_instrs;
        let mut cfg = MachineConfig::paper();
        if rpt {
            cfg.superscalar.hw_prefetcher = Some(RptConfig::default());
        }
        let stats = Machine::new(model, &compiled, &env, cfg).run(work).unwrap();
        // The superscalar has no CMP, so every L1 prefetch access of the
        // prefetcher row came from the stride table: the row pins it.
        assert!(
            !rpt || stats.mem.l1.prefetch_accesses > 0,
            "the stride prefetcher never fired on {name}"
        );
        let mut m = Machine::new(model, &compiled, &env, cfg);
        assert!(
            !m.run_to_cycle(MID_RUN_CYCLE).unwrap(),
            "{name} on {model} finished early"
        );
        got.push((
            name,
            model,
            rpt,
            fnv1a(FNV_OFFSET, stats.to_json().as_bytes()),
            fnv1a(FNV_OFFSET, m.stats(work).to_json().as_bytes()),
        ));
    }
    assert_eq!(got, PINNED, "\n{got:#x?}");
}
