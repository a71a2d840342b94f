//! `perfbench` — end-to-end and per-layer benchmark of the HiDISC
//! simulator, its experiment harness and its HTTP service.
//!
//! ```text
//! perfbench --workload <suite_paper|serve_mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints one `metric <name> = <value> <unit> (n=<samples>)` line per
//! metric and, last, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See README.md in this directory.

mod batch;
mod calib;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Report, END_TO_END};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a non-negative integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    match args.workload.as_str() {
        "suite_paper" => batch::run(args.seed, args.seconds, args.trace, &mut rep),
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace, &mut rep),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (use suite_paper|serve_mix)");
            std::process::exit(2);
        }
    }
    let names: Vec<(String, &str)> = if args.trace {
        // Layers a workload bypasses read zero.
        let names = report::per_layer();
        for (name, unit) in &names {
            if !rep.metrics.contains_key(name) {
                rep.set(name, 0.0, unit, 0);
            }
        }
        names
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    rep.print(&names);
}

#[cfg(test)]
mod tests {
    /// The metric lists in the code and in BENCHMARK.json agree.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let quoted = |s: &str| format!("\"name\": \"{s}\"");
        for (name, unit) in super::END_TO_END {
            assert!(json.contains(&quoted(name)), "{name} missing");
            assert!(
                json.contains(&format!("{}, \"unit\": \"{unit}\"", quoted(name))),
                "{name} unit"
            );
        }
        let layers = super::report::per_layer();
        for (name, unit) in &layers {
            assert!(
                json.contains(&format!("{}, \"unit\": \"{unit}\"", quoted(name))),
                "{name}"
            );
        }
        let listed = json.matches("\"name\": ").count();
        assert_eq!(
            listed,
            json.matches("\"why\": ").count() + super::END_TO_END.len() + layers.len(),
            "no extra metrics"
        );
    }
}
