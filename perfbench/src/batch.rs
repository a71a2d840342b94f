//! The batch workload `suite_paper`: the seven kernels × four models at
//! Paper scale and Table-1 latencies, through `hidisc_bench::run_suite`,
//! with Figures 8 and 9 and Table 2 rendered.

use std::time::Instant;

use hidisc::{run_model, MachineConfig, MachineStats, Model};
use hidisc_bench::{pool, prepare, Prepared, Report as _};
use hidisc_isa::interp::Interp;
use hidisc_workloads::{Scale, Workload};

use crate::calib;
use crate::report::{peak_rss_mb, Fnv, Report, MODELS};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};

/// The scale the grid runs at.
const SCALE: Scale = Scale::Paper;

/// Table 2 of the paper: average speed-up (%) of CP+AP, CP+CMP, HiDISC.
const PAPER_TABLE2_PCT: [f64; 3] = [1.3, 10.7, 11.9];

/// Worker threads for the grids. Two threads on a 2-vCPU virtual
/// machine drifted by ±25% from run to run (the two vCPUs contend with
/// each other and with the host), one thread by about half that; the
/// benchmark takes the steadier figure. The pool layer stays measured
/// (`bench.pool_idle_s`, traced).
const POOL_THREADS: usize = 1;

/// Set-up timings before each grid: generation and compile are cheap
/// next to a grid, and timing them between grids spreads the samples
/// over the run as the host's speed drifts.
const SETUPS_PER_GRID: usize = 3;

/// Spans that only group others: the grid and its pool phases. Their
/// self time is pool idle or time no layer span covers.
const GROUPING: [&str; 3] = ["bench.grid", "bench.pool_compile", "bench.pool_sim"];
const POOL_PHASES: [&str; 2] = ["bench.pool_compile", "bench.pool_sim"];

/// The cells of a grid as (workload index, model), in the order
/// `run_suite` runs them: model innermost.
fn cells(n_workloads: usize) -> Vec<(usize, Model)> {
    (0..n_workloads)
        .flat_map(|w| Model::ALL.map(|m| (w, m)))
        .collect()
}

fn model_index(m: Model) -> usize {
    Model::ALL
        .iter()
        .position(|&x| x == m)
        .expect("known model")
}

pub const SIM_SPANS: [&str; 4] = [
    "core.sim.superscalar",
    "core.sim.cp_ap",
    "core.sim.cp_cmp",
    "core.sim.hidisc",
];

/// Generation and compile, as `run_suite` does them before the first
/// simulation: `suite`, then a pooled `prepare` per workload.
fn setup(scale: Scale, seed: u64, t: &Tracer, parent: Option<u64>, run: u64) -> Vec<Prepared> {
    let ws = t.span("workloads.gen", parent, run, |_| {
        hidisc_workloads::suite(scale, seed)
    });
    t.span("bench.pool_compile", parent, run, |pc| {
        pool::run_indexed(ws.len(), |i| {
            t.span("slicer.compile", Some(pc), run, |_| prepare(&ws[i]))
        })
    })
}

/// Renders the artifacts a user of the grid reads.
fn render(names: &[&'static str], stats: &[MachineStats]) -> String {
    let results = suite_results(names, stats);
    let mut out = hidisc_bench::Fig8Report(hidisc_bench::fig8(&results)).render_csv();
    out.push_str(&hidisc_bench::Fig9Report(hidisc_bench::fig9(&results)).render_csv());
    out.push_str(&hidisc_bench::Table2Report(hidisc_bench::table2(&results)).render_csv());
    out
}

fn suite_results(names: &[&'static str], stats: &[MachineStats]) -> Vec<hidisc_bench::SuiteResult> {
    names
        .iter()
        .zip(stats.chunks(Model::ALL.len()))
        .map(|(&name, per_model)| hidisc_bench::SuiteResult {
            name,
            per_model: per_model.to_vec(),
        })
        .collect()
}

/// One traced grid through the benchmark's own copy of the harness
/// loop: the same public calls `run_suite` makes, each inside a span.
fn grid(seed: u64, t: &Tracer, run: u64) -> Vec<MachineStats> {
    t.span("bench.grid", None, run, |root| {
        let prepared = setup(SCALE, seed, t, Some(root), run);
        let cells = cells(prepared.len());
        let stats = t.span("bench.pool_sim", Some(root), run, |ps| {
            pool::run_indexed(cells.len(), |k| {
                let (w, model) = cells[k];
                let p = &prepared[w];
                t.span(SIM_SPANS[model_index(model)], Some(ps), run, |_| {
                    run_model(model, &p.compiled, &p.env, MachineConfig::paper())
                        .unwrap_or_else(|e| panic!("{} on {model}: {e}", p.name))
                })
            })
        });
        t.span("bench.check", Some(root), run, |_| {
            assert!(
                models_agree(&stats),
                "models computed different final memory"
            )
        });
        let names: Vec<&'static str> = prepared.iter().map(|p| p.name).collect();
        std::hint::black_box(t.span("bench.render", Some(root), run, |_| render(&names, &stats)));
        stats
    })
}

/// The cross-model check `run_suite` makes on its grid: every model of a
/// workload ends with the same final memory. Cells run model-innermost,
/// so each chunk is one workload.
fn models_agree(stats: &[MachineStats]) -> bool {
    stats
        .chunks(Model::ALL.len())
        .all(|c| c.iter().all(|s| s.mem_checksum == c[0].mem_checksum))
}

/// One untimed grid through `run_suite`, the public entry point users
/// run.
fn public_grid(scale: Scale, seed: u64) -> Vec<MachineStats> {
    hidisc_bench::run_suite(scale, seed, MachineConfig::paper())
        .into_iter()
        .flat_map(|r| r.per_model)
        .collect()
}

/// One timed grid: the calls `run_suite` makes, on one thread, in its
/// order — generation and compile, each cell, the cross-model check —
/// then the rendering, with the calibration kernel timed between each
/// two (see [`calib`]). Returns the cells' statistics, the grid's host
/// and reference seconds, and each cell's reference seconds.
fn timed_grid(
    scale: Scale,
    seed: u64,
    clock: &mut calib::Clock,
) -> (Vec<MachineStats>, f64, f64, Vec<f64>) {
    let quiet = Tracer::new(false);
    let (prepared, mut host, mut reference) = clock.time(|| setup(scale, seed, &quiet, None, 0));
    let mut stats = Vec::new();
    let mut cell_s = Vec::new();
    for (w, model) in cells(prepared.len()) {
        let p = &prepared[w];
        let (s, h, r) = clock.time(|| {
            run_model(model, &p.compiled, &p.env, MachineConfig::paper())
                .unwrap_or_else(|e| panic!("{} on {model}: {e}", p.name))
        });
        stats.push(s);
        cell_s.push(r);
        host += h;
        reference += r;
    }
    let names: Vec<&'static str> = prepared.iter().map(|p| p.name).collect();
    let (_, h, r) = clock.time(|| {
        assert!(
            models_agree(&stats),
            "models computed different final memory"
        );
        std::hint::black_box(render(&names, &stats))
    });
    (stats, host + h, reference + r, cell_s)
}

/// The sequential interpreter's final-memory checksum for `w`, after
/// checking the workload's expected result word.
fn reference_checksum(w: &Workload) -> Result<u64, String> {
    let mut it = Interp::new(&w.prog, w.mem.clone());
    for &(r, v) in &w.regs {
        it.set_reg(r, v);
    }
    it.run(w.max_steps)
        .map_err(|e| format!("{}: interpreter failed: {e}", w.name))?;
    if let Some((addr, want)) = w.expected {
        let got = it
            .mem
            .read_i64(addr)
            .map_err(|e| format!("{}: result word unreadable: {e}", w.name))?;
        if got != want {
            return Err(format!("{}: result word {got} != expected {want}", w.name));
        }
    }
    Ok(it.mem.checksum())
}

/// Digest of every simulated statistic (the canonical stats JSON, which
/// leaves out host-side timings) in grid order.
fn digest(stats: &[MachineStats]) -> u64 {
    let mut h = Fnv::default();
    for s in stats {
        h.write(s.to_json().as_bytes());
        h.write(b"\n");
    }
    h.0
}

/// Runs `suite_paper` and fills `rep`.
pub fn run(seed: u64, seconds: u64, traced: bool, rep: &mut Report) {
    let start = Instant::now();
    pool::set_threads(POOL_THREADS);
    let threads = pool::threads();
    rep.note(format!("pool threads: {threads}"));

    // Set-up time: generation plus compile, timed several times before
    // each grid so the median spans the run, as the host's speed drifts.
    let mut clock = calib::Clock::new();
    let mut setups = Vec::new();

    // Untimed references: the interpreter's checksum per workload.
    let workloads = hidisc_workloads::suite(SCALE, seed);
    let refs: Vec<Result<u64, String>> = workloads.iter().map(reference_checksum).collect();
    for r in &refs {
        if let Err(e) = r {
            rep.check(false, || e.clone());
        }
    }
    let wl_of: Vec<usize> = cells(workloads.len()).iter().map(|c| c.0).collect();

    // The timed grid makes `run_suite`'s calls itself, to calibrate
    // between cells; at Test scale, both must give the same statistics.
    let (copy, ..) = timed_grid(Scale::Test, seed, &mut clock);
    rep.check(
        digest(&copy) == digest(&public_grid(Scale::Test, seed)),
        || "run_suite and the benchmark's copy of its grid disagree".into(),
    );

    // Grid walls in host seconds (for the tracing overhead) and in
    // reference seconds; cell times and speeds in reference units.
    let mut walls = Vec::new();
    let mut ref_walls = Vec::new();
    let mut factors = Vec::new();
    let mut traced_walls = Vec::new();
    let mut cell_ms = Vec::new();
    let mut grid_msips = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<Vec<MachineStats>> = None;
    let tracer = Tracer::new(traced);
    let check_cells = |stats: &[MachineStats], rep: &mut Report| {
        for (k, s) in stats.iter().enumerate() {
            rep.attempted += 1;
            let want = refs[wl_of[k]].as_ref().ok();
            if want != Some(&s.mem_checksum) {
                rep.failed += 1;
                rep.check(false, || {
                    format!(
                        "cell {k} ({}): checksum {} != interpreter {:?}",
                        s.model, s.mem_checksum, want
                    )
                });
            }
        }
    };
    // Rounds of set-ups and a grid repeat while the median round still
    // fits in `--seconds`, counted from the start of the run. Traced runs
    // add a traced grid to each round, so the overhead is measured under
    // the same conditions.
    let mut rounds = Vec::new();
    let mut round = 0u64;
    while rounds.is_empty() || start.elapsed().as_secs_f64() + median(&rounds) <= seconds as f64 {
        let round_start = Instant::now();
        for _ in 0..SETUPS_PER_GRID {
            setups.push(
                clock
                    .time(|| setup(SCALE, seed, &Tracer::new(false), None, 0))
                    .2,
            );
        }
        let (stats, wall, ref_wall, cell_s) = timed_grid(SCALE, seed, &mut clock);
        walls.push(wall);
        ref_walls.push(ref_wall);
        factors.push(ref_wall / wall);
        check_cells(&stats, rep);
        cell_ms.extend(cell_s.iter().map(|s| s * 1e3));
        let committed: u64 = stats.iter().map(MachineStats::total_committed).sum();
        grid_msips.push(committed as f64 / 1e6 / cell_s.iter().sum::<f64>());
        digests.push(digest(&stats));
        first.get_or_insert(stats);
        round += 1;
        if traced {
            let t0 = Instant::now();
            let stats = grid(seed, &tracer, round);
            traced_walls.push(t0.elapsed().as_secs_f64());
            check_cells(&stats, rep);
            digests.push(digest(&stats));
        }
        rounds.push(round_start.elapsed().as_secs_f64());
    }
    rep.set("setup_s", median(&setups), "s", setups.len());
    let stats = first.expect("at least one repetition");
    rep.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("simulated statistics differ between repetitions: {digests:x?}")
    });
    rep.note(format!("stats digest: {:016x}", digests[0]));
    let list = |v: &[f64]| {
        v.iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    rep.note(format!("grid walls (host s): {}", list(&walls)));
    rep.note(format!("grid walls (reference s): {}", list(&ref_walls)));
    rep.note(format!("host speed over reference: {}", list(&factors)));

    let n = cell_ms.len();
    rep.set("wall_s", median(&ref_walls), "s", ref_walls.len());
    rep.set("msips", median(&grid_msips), "Minstr/s", grid_msips.len());
    rep.set("p50_ms", median(&cell_ms), "ms", n);
    rep.note(format!(
        "cell simulation p90: {:.1} ms of {n}",
        percentile(&cell_ms, 90)
    ));
    let good = rep.attempted - rep.failed;
    rep.set(
        "goodput_share",
        good as f64 / rep.attempted.max(1) as f64,
        "share",
        rep.attempted as usize,
    );

    let names: Vec<&'static str> = workloads.iter().map(|w| w.name).collect();
    shares(&names, &stats, rep);
    counts(&stats, rep);
    let avg = hidisc_bench::table2(&suite_results(&names, &stats));
    let err = (1..4)
        .map(|i| ((avg[i] - 1.0) * 100.0 - PAPER_TABLE2_PCT[i - 1]).abs())
        .sum::<f64>()
        / 3.0;
    rep.set("bench.table2_err_pp", err, "pp", 3);

    if traced {
        let spans = tracer.spans();
        let k = traced_walls.len() as f64;
        let per = |x: f64| x / k;
        rep.set(
            "workloads.gen_s",
            per(trace::total_s(&spans, "workloads.gen")),
            "s",
            spans.len(),
        );
        rep.set(
            "slicer.compile_s",
            per(trace::total_s(&spans, "slicer.compile")),
            "s",
            spans.len(),
        );
        sim_layer(&spans, k, &stats, rep);
        let idle = trace::pool_idle_s(&spans, &POOL_PHASES, threads);
        rep.set("bench.pool_idle_s", per(idle), "s", traced_walls.len());
        rep.set(
            "bench.render_s",
            per(trace::total_s(&spans, "bench.render")),
            "s",
            traced_walls.len(),
        );
        let untraced = median(&walls);
        let overhead = median(&traced_walls) - untraced;
        rep.set("trace.overhead_s", overhead, "s", traced_walls.len());
        // Thread-seconds of one grid: its wall, plus the other pool
        // threads over the pool phases.
        let pool_wall: f64 = spans
            .iter()
            .filter(|s| POOL_PHASES.contains(&s.name))
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum();
        let capacity = untraced + overhead + (threads as f64 - 1.0) * per(pool_wall);
        let by_layer = trace::self_by_layer(&spans, &GROUPING);
        let share = self_time_table(&by_layer, per(idle), capacity, k, rep);
        rep.set("trace.accounted_share", share, "share", spans.len());
        rep.note(format!(
            "traced grid {:.3} s vs untraced {untraced:.3} s: tracing overhead {overhead:.3} s; \
             layers and pool idle account for {:.3} s per grid, {:.3} s off the untraced wall; \
             compile is {:.1}% of the traced grids",
            median(&traced_walls),
            share * capacity,
            share * capacity - untraced,
            100.0 * trace::total_s(&spans, "slicer.compile") / traced_walls.iter().sum::<f64>()
        ));
        write_spans(&tracer, "suite_paper", seed);
    }
    rep.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

/// The property shares later claims cite: each benchmark's share of the
/// simulation CPU and the share of its cycles fast-forward skipped.
fn shares(names: &[&'static str], stats: &[MachineStats], rep: &mut Report) {
    let total: u64 = stats.iter().map(|s| s.host_wall_ns).sum();
    let parts: Vec<String> = names
        .iter()
        .zip(stats.chunks(Model::ALL.len()))
        .map(|(n, c)| {
            let ns: u64 = c.iter().map(|s| s.host_wall_ns).sum();
            let cyc: u64 = c.iter().map(|s| s.cycles).sum();
            let skip: u64 = c.iter().map(|s| s.ff_skipped_cycles).sum();
            format!(
                "{n} {:.1}% (ff skip {:.1}%)",
                100.0 * ns as f64 / total.max(1) as f64,
                100.0 * skip as f64 / cyc.max(1) as f64
            )
        })
        .collect();
    rep.note(format!(
        "simulation CPU share by benchmark: {}",
        parts.join(", ")
    ));
}

/// Simulation time per model from the `core.sim.<model>` spans (over
/// `runs` grids whose cells are `stats`), and host ns per simulated and
/// per stepped (not fast-forwarded) cycle.
pub fn sim_layer(spans: &[trace::Span], runs: f64, stats: &[MachineStats], rep: &mut Report) {
    for (i, m) in MODELS.iter().enumerate() {
        let sim_s = trace::total_s(spans, SIM_SPANS[i]) / runs;
        let of_model = stats.iter().filter(|s| model_index(s.model) == i);
        let cycles: u64 = of_model.clone().map(|s| s.cycles).sum();
        let stepped: u64 = of_model.map(|s| s.cycles - s.ff_skipped_cycles).sum();
        let n = stats.len();
        rep.set(&format!("core.sim_s.{m}"), sim_s, "s", n);
        rep.set(
            &format!("core.ns_per_cycle.{m}"),
            sim_s * 1e9 / cycles.max(1) as f64,
            "ns",
            n,
        );
        rep.set(
            &format!("core.ns_per_stepped_cycle.{m}"),
            sim_s * 1e9 / stepped.max(1) as f64,
            "ns",
            n,
        );
    }
}

/// Simulated work counts, summed over one grid.
pub fn counts(stats: &[MachineStats], rep: &mut Report) {
    let n = stats.len();
    let sum = |f: &dyn Fn(&MachineStats) -> u64| stats.iter().map(f).sum::<u64>();
    let cycles = sum(&|s| s.cycles);
    rep.set("core.cycles", cycles as f64, "count", n);
    rep.set(
        "core.ff_skip_share",
        sum(&|s| s.ff_skipped_cycles) as f64 / cycles.max(1) as f64,
        "share",
        n,
    );
    rep.set(
        "core.committed",
        sum(&|s| s.total_committed()) as f64,
        "count",
        n,
    );
    rep.set(
        "core.cmp_threads",
        sum(&|s| s.cmp.map_or(0, |c| c.forks)) as f64,
        "count",
        n,
    );
    let cmp_prefetches = sum(&|s| s.cmp.map_or(0, |c| c.prefetches));
    let useful = sum(&|s| {
        if s.cmp.is_some() {
            s.mem.l1.useful_prefetch_hits
        } else {
            0
        }
    });
    rep.set(
        "core.cmp_useful_prefetch_share",
        useful as f64 / cmp_prefetches.max(1) as f64,
        "share",
        n,
    );
    rep.set(
        "ooo.lod_events",
        sum(&|s| s.lod_events()) as f64,
        "count",
        n,
    );
    let stalls = sum(&|s| {
        s.cores
            .iter()
            .map(|(_, c)| {
                c.dispatch_stall_q
                    .iter()
                    .chain(&c.commit_stall_q)
                    .sum::<u64>()
            })
            .sum()
    });
    rep.set("ooo.queue_stall_cycles", stalls as f64, "count", n);
    let l1_acc = sum(&|s| s.mem.l1.demand_accesses);
    rep.set(
        "mem.l1_accesses",
        (l1_acc + sum(&|s| s.mem.l1.prefetch_accesses)) as f64,
        "count",
        n,
    );
    rep.set(
        "mem.l1_miss_share",
        sum(&|s| s.mem.l1.demand_misses) as f64 / l1_acc.max(1) as f64,
        "share",
        n,
    );
    let l2_acc = sum(&|s| s.mem.l2.demand_accesses);
    rep.set(
        "mem.l2_miss_share",
        sum(&|s| s.mem.l2.demand_misses) as f64 / l2_acc.max(1) as f64,
        "share",
        n,
    );
}

/// Prints each layer's self time per run, the pool's idle time and the
/// time no layer span covers, as shares of `capacity_s` (the
/// thread-seconds of one run: untraced wall plus tracing overhead), and
/// returns the share the layers and the pool's idle time account for.
pub fn self_time_table(
    by_layer: &std::collections::BTreeMap<&'static str, f64>,
    idle_s: f64,
    capacity_s: f64,
    runs: f64,
    rep: &mut Report,
) -> f64 {
    let pct = |s: f64| 100.0 * s / capacity_s.max(1e-12);
    let mut accounted = idle_s;
    for (layer, s) in by_layer {
        let s = s / runs;
        accounted += s;
        rep.note(format!(
            "self time {layer:<10} {s:>10.4} s per run  {:>5.1}%",
            pct(s)
        ));
    }
    rep.note(format!(
        "pool idle            {idle_s:>10.4} s per run  {:>5.1}%",
        pct(idle_s)
    ));
    let uncovered = capacity_s - accounted;
    rep.note(format!(
        "uncovered            {uncovered:>10.4} s per run  {:>5.1}% (of {capacity_s:.4} s)",
        pct(uncovered)
    ));
    accounted / capacity_s.max(1e-12)
}

/// Writes the spans to `.perfbench_out/` in the working directory.
pub fn write_spans(t: &Tracer, workload: &str, seed: u64) {
    let dir = std::path::Path::new(".perfbench_out");
    let written = std::fs::create_dir_all(dir).and_then(|_| {
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        t.write_jsonl(&mut f)?;
        Ok(path)
    });
    match written {
        Ok(p) => eprintln!("spans written to {}", p.display()),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
}
