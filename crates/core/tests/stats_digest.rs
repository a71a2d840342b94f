//! Byte-identity pins for the statistics encodings: the stats JSON of a
//! full run and the checkpoint bytes of a half-finished one, for one
//! Test-scale workload on all four models (and on the superscalar with
//! its hardware stride prefetcher, whose table is part of the checkpoint).
//! Any change to a counter, its
//! JSON key, its wire position or the simulated behaviour behind it moves
//! one of these digests; a refactor of how the counters are encoded must
//! leave all of them unchanged.

use hidisc::{fnv1a, Machine, MachineConfig, Model, FNV_OFFSET};
use hidisc_mem::RptConfig;
use hidisc_slicer::{compile, CompilerConfig, ExecEnv};
use hidisc_workloads::Scale;

/// Cycle at which the checkpoint is taken (every model is still running).
const CHECKPOINT_CYCLE: u64 = 3000;

/// Workload id bound into the checkpoint header.
const WORKLOAD_ID: u64 = 0x1517_c0de;

/// `(model, stride prefetcher on, fnv1a of MachineStats::to_json,
/// fnv1a of save_checkpoint)`. Pointer chasing has no strides, so the
/// prefetcher never fires and only its table and counters in the
/// checkpoint tell the last row from the first.
const PINNED: [(Model, bool, u64, u64); 5] = [
    (
        Model::Superscalar,
        false,
        0x5b09_d52e_0106_bfc4,
        0x339b_2f5d_6736_915d,
    ),
    (
        Model::CpAp,
        false,
        0x4580_5122_5963_b5e8,
        0xd871_2342_977a_ae80,
    ),
    (
        Model::CpCmp,
        false,
        0xabb2_d532_f66a_b23c,
        0x9a74_0de5_af66_f4ca,
    ),
    (
        Model::HiDisc,
        false,
        0x2530_b5f2_1261_2f25,
        0x176f_8e7d_bcdb_2803,
    ),
    (
        Model::Superscalar,
        true,
        0x5b09_d52e_0106_bfc4,
        0xa9d2_7d9d_bf9f_d72b,
    ),
];

#[test]
fn stats_json_and_checkpoint_bytes_are_pinned() {
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
            !m.run_to_cycle(CHECKPOINT_CYCLE).unwrap(),
            "{model} finished early"
        );
        got.push((
            model,
            rpt,
            fnv1a(FNV_OFFSET, stats.to_json().as_bytes()),
            fnv1a(FNV_OFFSET, &m.save_checkpoint(WORKLOAD_ID)),
        ));
    }
    assert_eq!(got, PINNED, "\n{got:#x?}");
}
