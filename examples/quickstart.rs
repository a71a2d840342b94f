//! Quickstart: compile one benchmark with the HiDISC compiler and run it
//! on all four machine models of the paper.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hidisc_bench::env_of;
use hidisc_suite::hidisc::{run_model, MachineConfig, Model};
use hidisc_suite::slicer::{compile, CompilerConfig};
use hidisc_suite::workloads::{by_name, Scale};

fn main() {
    // 1. Pick a workload: the Update stressmark (indexed
    //    gather-modify-scatter — the paper's best case).
    let w = by_name("update", Scale::Test, 42).expect("update is in the suite");
    println!(
        "workload: {} ({} static instructions)",
        w.name,
        w.prog.len()
    );

    // 2. Compile: stream separation + cache profiling + CMAS extraction.
    let env = env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).expect("compiles");
    println!(
        "compiled: CS {} instrs, AS {} instrs, {} CMAS thread(s), {} probable-miss load(s)",
        compiled.cs.len(),
        compiled.access.len(),
        compiled.cmas.len(),
        (0..compiled.original.len())
            .filter(|&pc| compiled.original.annot(pc).probable_miss)
            .count(),
    );

    // 3. Simulate every model and compare.
    println!(
        "\n{:<14} {:>10} {:>8} {:>9} {:>10}",
        "model", "cycles", "IPC", "L1 miss", "speed-up"
    );
    let mut baseline_cycles = 0;
    for model in Model::ALL {
        let st = run_model(model, &compiled, &env, MachineConfig::paper()).expect("runs");
        if model == Model::Superscalar {
            baseline_cycles = st.cycles;
        }
        println!(
            "{:<14} {:>10} {:>8.3} {:>8.1}% {:>9.2}x",
            model.name(),
            st.cycles,
            st.ipc(),
            100.0 * st.l1_miss_rate(),
            baseline_cycles as f64 / st.cycles as f64,
        );
    }

    // 4. The architectural results are identical across models — the
    //    machine is checked against the sequential reference.
    let (addr, want) = w.expected.expect("update checks its result");
    println!("\nresult word at {addr:#x} = {want} (verified on every model)");
}
