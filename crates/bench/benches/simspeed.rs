//! Simulator-throughput benchmarks: how many simulated cycles per second
//! each layer of the stack achieves. These measure the *simulator*, not
//! the simulated machine — useful for tracking performance regressions in
//! the hot pipeline loops.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hidisc::{Machine, MachineConfig, Model};
use hidisc_bench::env_of;
use hidisc_mem::{AccessKind, MemConfig, MemSystem};
use hidisc_slicer::{compile, CompilerConfig};
use hidisc_workloads::{by_name, Scale};

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("simspeed");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("mem_system_accesses_10k", |b| {
        let mut sys = MemSystem::new(MemConfig::paper());
        let mut now = 0u64;
        b.iter(|| {
            for k in 0..10_000u64 {
                let addr = (k * 8) % (1 << 20);
                std::hint::black_box(sys.access(addr, AccessKind::Load, now));
                now += 1;
            }
        })
    });
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    let w = by_name("update", Scale::Test, 3).unwrap();
    let env = env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();

    let mut g = c.benchmark_group("simspeed");
    g.sample_size(20);
    for model in [Model::Superscalar, Model::HiDisc] {
        g.bench_function(format!("machine_{model}_update"), |b| {
            b.iter(|| {
                let mut m = Machine::new(model, &compiled, &env, MachineConfig::paper());
                m.run(compiled.profile.dyn_instrs).unwrap()
            })
        });
    }
    // The seed scan scheduler on the commit-heavy case, as the reference
    // point for the ready-list speed-up (asserted bit-identical first).
    let mut scan_cfg = MachineConfig::paper();
    scan_cfg.superscalar.scheduler = hidisc_ooo::Scheduler::Scan;
    let run = |cfg: MachineConfig| {
        let mut m = Machine::new(Model::Superscalar, &compiled, &env, cfg);
        m.run(compiled.profile.dyn_instrs).unwrap()
    };
    assert!(
        run(scan_cfg).sim_eq(&run(MachineConfig::paper())),
        "scan and ready-list schedulers diverged on update"
    );
    g.bench_function("machine_Superscalar_update_scan", |b| {
        b.iter(|| run(scan_cfg))
    });
    g.finish();
}

/// The fast-forward payoff case: a memory-bound serial pointer chase,
/// both at the Table-1 latencies and at the paper's Figure-10 high-memory
/// point (l2 16 / mem 160), where stall windows are longest. The
/// event-driven jump must cut simulation time while producing bit-identical
/// statistics (asserted here before timing starts).
fn bench_fast_forward(c: &mut Criterion) {
    let w = by_name("pointer", Scale::Test, 3).unwrap();
    let env = env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();

    let run = |base: MachineConfig, ff: bool| {
        let mut cfg = base;
        cfg.fast_forward = ff;
        let mut m = Machine::new(Model::Superscalar, &compiled, &env, cfg);
        m.run(compiled.profile.dyn_instrs).unwrap()
    };

    let mut g = c.benchmark_group("simspeed");
    g.sample_size(20);
    for (tag, base) in [
        ("", MachineConfig::paper()),
        ("_f10", MachineConfig::paper_with_latency(16, 160)),
    ] {
        let reference = run(base, false);
        assert!(
            reference.sim_eq(&run(base, true)),
            "fast-forward diverged on pointer{tag}"
        );
        for (state, ff) in [("off", false), ("on", true)] {
            g.bench_function(format!("machine_pointer{tag}_ff_{state}"), |b| {
                b.iter(|| run(base, ff))
            });
        }
    }
    g.finish();
}

/// Telemetry overhead check: the disabled path must cost nothing (it is
/// one untaken branch per emission site) and full recording bounds the
/// worst case. Both runs are asserted statistics-identical to each other
/// before timing starts — telemetry may never perturb the simulation.
fn bench_telemetry(c: &mut Criterion) {
    use hidisc::telemetry::TraceConfig;
    let w = by_name("update", Scale::Test, 3).unwrap();
    let env = env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).unwrap();

    let run = |trace: TraceConfig| {
        let mut cfg = MachineConfig::paper();
        cfg.trace = trace;
        let mut m = Machine::new(Model::HiDisc, &compiled, &env, cfg);
        m.run(compiled.profile.dyn_instrs).unwrap()
    };
    let full = TraceConfig::ALL_EVENTS.with_metrics_interval(1000);
    assert!(
        run(TraceConfig::OFF).sim_eq(&run(full)),
        "telemetry perturbed the simulation on update"
    );

    let mut g = c.benchmark_group("simspeed");
    g.sample_size(20);
    for (tag, trace) in [("off", TraceConfig::OFF), ("full", full)] {
        g.bench_function(format!("machine_HiDisc_update_telemetry_{tag}"), |b| {
            b.iter(|| run(trace))
        });
    }
    g.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let w = by_name("tc", Scale::Test, 3).unwrap();
    let env = env_of(&w);
    let mut g = c.benchmark_group("simspeed");
    g.bench_function("compile_tc_test", |b| {
        b.iter(|| compile(&w.prog, &env, &CompilerConfig::default()).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_machine,
    bench_fast_forward,
    bench_telemetry,
    bench_compiler
);
criterion_main!(benches);
