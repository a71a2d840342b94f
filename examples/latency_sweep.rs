//! Latency-tolerance sweep — the paper's Figure 10 on a single workload.
//!
//! Sweeps the L2/memory latency pairs {4/40, 8/80, 12/120, 16/160} and
//! prints the IPC of each machine model, showing how the CMP-equipped
//! models degrade less as memory gets slower.
//!
//! ```text
//! cargo run --release --example latency_sweep [workload]
//! ```

use hidisc_bench::env_of;
use hidisc_suite::hidisc::{run_model, MachineConfig, Model};
use hidisc_suite::slicer::{compile, CompilerConfig};
use hidisc_suite::workloads::{by_name, Scale};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "neighborhood".into());
    let w = by_name(&name, Scale::Test, 7).unwrap_or_else(|| {
        eprintln!("unknown workload `{name}` (try dm, raytrace, pointer, update, field, neighborhood, tc)");
        std::process::exit(2);
    });
    let env = env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).expect("compiles");

    println!("{}: IPC across the latency sweep\n", w.name);
    println!(
        "{:<10} {:>12} {:>8} {:>8} {:>8}",
        "L2/mem", "Superscalar", "CP+AP", "CP+CMP", "HiDISC"
    );
    let mut first: Option<[f64; 4]> = None;
    let mut last = [0.0f64; 4];
    for (l2, mem) in [(4, 40), (8, 80), (12, 120), (16, 160)] {
        let cfg = MachineConfig::paper_with_latency(l2, mem);
        let mut row = [0.0f64; 4];
        for (i, model) in Model::ALL.into_iter().enumerate() {
            let st = run_model(model, &compiled, &env, cfg).expect("runs");
            row[i] = st.ipc();
        }
        println!(
            "{:>2}/{:<7} {:>12.3} {:>8.3} {:>8.3} {:>8.3}",
            l2, mem, row[0], row[1], row[2], row[3]
        );
        first.get_or_insert(row);
        last = row;
    }

    let first = first.unwrap();
    println!("\nIPC retained from the fastest to the slowest memory:");
    for (i, model) in Model::ALL.into_iter().enumerate() {
        println!(
            "  {:<12} {:>5.1}%",
            model.name(),
            100.0 * last[i] / first[i]
        );
    }
}
