//! End-to-end correctness: every benchmark, compiled by the HiDISC
//! compiler and executed on every machine model, must reproduce the
//! sequential reference results exactly.
//!
//! This is the master test of the whole stack: workload generators →
//! stream separator → CMAS extraction → functional decoupled execution →
//! all four cycle-level machine models.

use hidisc::funcval;
use hidisc::{run_model, MachineConfig, Model};
use hidisc_bench::env_of;
use hidisc_isa::interp::Interp;
use hidisc_slicer::{compile, CompilerConfig};
use hidisc_workloads::{suite, Scale, Workload};

fn golden_checksum(w: &Workload) -> (u64, u64) {
    let mut i = Interp::new(&w.prog, w.mem.clone());
    for &(r, v) in &w.regs {
        i.set_reg(r, v);
    }
    let stats = i
        .run(w.max_steps)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    if let Some((addr, want)) = w.expected {
        assert_eq!(
            i.mem.read_i64(addr).unwrap(),
            want,
            "{}: reference mismatch",
            w.name
        );
    }
    (i.mem.checksum(), stats.instrs)
}

#[test]
fn every_workload_compiles_and_validates_functionally() {
    for w in suite(Scale::Test, 2024) {
        let env = env_of(&w);
        let c = compile(&w.prog, &env, &CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
        funcval::validate(&c, &env)
            .unwrap_or_else(|e| panic!("{}: functional validation failed: {e}", w.name));
    }
}

#[test]
fn every_workload_matches_golden_on_every_model() {
    for w in suite(Scale::Test, 7)
        .into_iter()
        .chain(hidisc_workloads::extras(Scale::Test, 7))
    {
        let env = env_of(&w);
        let (want, work) = golden_checksum(&w);
        let c = compile(&w.prog, &env, &CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
        assert_eq!(
            c.profile.dyn_instrs, work,
            "{}: profiler work count differs",
            w.name
        );
        for model in Model::ALL {
            let stats = run_model(model, &c, &env, MachineConfig::paper())
                .unwrap_or_else(|e| panic!("{} on {model}: {e}", w.name));
            assert_eq!(
                stats.mem_checksum, want,
                "{} on {model}: memory diverged",
                w.name
            );
            assert!(stats.cycles > 0 && stats.ipc() > 0.0);
        }
    }
}

#[test]
fn decoupled_models_exercise_the_queues() {
    for w in suite(Scale::Test, 99) {
        let env = env_of(&w);
        let c = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
        let st = run_model(Model::CpAp, &c, &env, MachineConfig::paper()).unwrap();
        // Control-queue tokens must flow for every workload; push == pop.
        assert!(st.queues[3].pushes > 0, "{}: CQ unused", w.name);
        assert_eq!(
            st.queues[3].pushes, st.queues[3].pops,
            "{}: CQ imbalance",
            w.name
        );
        // Data queues drain (LDQ, SDQ, CDQ).
        for qi in 0..3 {
            assert_eq!(
                st.queues[qi].pushes, st.queues[qi].pops,
                "{}: queue {qi} imbalance",
                w.name
            );
        }
    }
}

#[test]
fn cmp_models_fork_threads_on_miss_heavy_workloads() {
    // Test-scale footprints fit in the L1, so build instances whose data
    // exceeds it (the profiler only marks loads that actually miss).
    let heavy = [
        hidisc_workloads::update::build(
            &hidisc_workloads::update::Params {
                table: 65_536,
                updates: 800,
            },
            5,
        ),
        hidisc_workloads::dm::build(
            &hidisc_workloads::dm::Params {
                records: 8_192,
                buckets: 1024,
                queries: 500,
            },
            5,
        ),
    ];
    for w in heavy {
        let name = w.name;
        let env = env_of(&w);
        let c = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();
        assert!(!c.cmas.is_empty(), "{name}: no CMAS extracted");
        let st = run_model(Model::HiDisc, &c, &env, MachineConfig::paper()).unwrap();
        let cmp = st.cmp.expect("HiDISC has a CMP");
        assert!(cmp.forks > 0, "{name}: CMP never forked");
        assert!(cmp.prefetches > 0, "{name}: CMP never prefetched");
    }
}
