//! # hidisc-bench — the paper-reproduction harness
//!
//! Runs the experiments of the HiDISC paper's evaluation section and
//! regenerates every table and figure:
//!
//! * **Figure 8** — speed-up of CP+AP, CP+CMP and HiDISC over the baseline
//!   superscalar, per benchmark ([`fig8`]);
//! * **Table 2** — average speed-up of the three models ([`table2`]);
//! * **Figure 9** — relative L1 demand miss rate per benchmark
//!   ([`fig9`]);
//! * **Figure 10** — IPC under the L2/memory latency sweep
//!   {4/40, 8/80, 12/120, 16/160} for Pointer and Neighborhood
//!   ([`fig10`]);
//! * **Table 1** — the simulation parameters ([`Table1Report`]).
//!
//! Runs are deterministic for a given seed. Every artifact renders through
//! the [`Report`] trait — an aligned text table or CSV — so the `repro`
//! binary's `--format {text,csv}` flag works uniformly.

#![forbid(unsafe_code)]

use hidisc::telemetry::{json_escape, Category, IntervalMetrics, StreamingSink, TraceConfig};
use hidisc::{run_model, Machine, MachineConfig, MachineStats, Model};
use hidisc_slicer::{compile, CompiledWorkload, CompilerConfig, ExecEnv};
use hidisc_workloads::{suite, Scale, Workload};
use std::sync::Arc;

pub mod pool;
pub mod sampling;

/// All four models of one benchmark under one machine configuration.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Statistics per model, in [`Model::ALL`] order.
    pub per_model: Vec<MachineStats>,
}

impl SuiteResult {
    /// The baseline (superscalar) run.
    pub fn baseline(&self) -> &MachineStats {
        &self.per_model[0]
    }

    /// Statistics of one model.
    pub fn of(&self, m: Model) -> &MachineStats {
        self.per_model
            .iter()
            .find(|s| s.model == m)
            .expect("all models present")
    }
}

/// Execution environment of a workload.
pub fn env_of(w: &Workload) -> ExecEnv {
    ExecEnv {
        regs: w.regs.clone(),
        mem: w.mem.clone(),
        max_steps: w.max_steps,
    }
}

/// A workload compiled once and shared (read-only) by every grid cell
/// that simulates it, so latency sweeps and model grids never recompile.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Benchmark name.
    pub name: &'static str,
    /// Execution environment (initial registers/memory).
    pub env: ExecEnv,
    /// The compiled program, shared across worker threads.
    pub compiled: Arc<CompiledWorkload>,
}

/// Generates the named workload and compiles it with the default
/// compiler configuration. Panics with `unknown workload <name>` or
/// `<name>: compile failed: <error>`.
pub fn compile_named(name: &str, scale: Scale, seed: u64) -> (Workload, ExecEnv, CompiledWorkload) {
    let w = hidisc_workloads::by_name(name, scale, seed)
        .unwrap_or_else(|| panic!("unknown workload {name}"));
    let (env, compiled) = compile_default(&w);
    (w, env, compiled)
}

fn compile_default(w: &Workload) -> (ExecEnv, CompiledWorkload) {
    let env = env_of(w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default())
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name));
    (env, compiled)
}

/// Compiles one workload for grid running.
pub fn prepare(w: &Workload) -> Prepared {
    let (env, compiled) = compile_default(w);
    Prepared::new(w.name, env, compiled)
}

impl Prepared {
    /// Debug builds run the static stream-slice verifier as a compiler
    /// post-pass: a slicer bug should be a located diagnostic here, not a
    /// hung or diverging simulation later.
    fn new(name: &'static str, env: ExecEnv, compiled: CompiledWorkload) -> Prepared {
        #[cfg(debug_assertions)]
        {
            let report = hidisc_verify::verify(&hidisc_verify::VerifyInput::of(
                &compiled,
                hidisc_verify::DepthConfig::paper(),
            ));
            let first_error = report.errors().next().map(|d| d.to_string());
            if let Some(d) = first_error {
                panic!("{name}: slicer output failed verification: {d}");
            }
            // The symbolic occupancy bounds must dominate the greedy oracle's
            // observed peaks — a peak above its bound means the interval
            // analysis is unsound for this triple.
            for b in &report.bounds {
                let peak = report.greedy_peaks[hidisc_verify::queue_index(b.queue)];
                assert!(
                    b.bound >= peak,
                    "{name}: symbolic {} bound {} below greedy peak {peak}",
                    b.queue.name(),
                    b.bound,
                );
            }
        }
        Prepared {
            name,
            env,
            compiled: Arc::new(compiled),
        }
    }
}

/// Runs every model of one prepared workload under `cfg`, cross-checking
/// that all models compute the same final memory.
fn run_prepared(p: &Prepared, cfg: MachineConfig) -> SuiteResult {
    let per_model: Vec<MachineStats> = Model::ALL
        .into_iter()
        .map(|m| {
            run_model(m, &p.compiled, &p.env, cfg)
                .unwrap_or_else(|e| panic!("{} on {m}: {e}", p.name))
        })
        .collect();
    check_models_agree(p.name, &per_model);
    SuiteResult {
        name: p.name,
        per_model,
    }
}

/// Cross-model safety net: every model must compute the same final memory.
fn check_models_agree(name: &str, per_model: &[MachineStats]) {
    for s in &per_model[1..] {
        assert_eq!(
            s.mem_checksum, per_model[0].mem_checksum,
            "{}: {} diverged from baseline memory",
            name, s.model
        );
    }
}

/// Compiles and runs one workload on every model.
pub fn run_workload(w: &Workload, cfg: MachineConfig) -> SuiteResult {
    run_prepared(&prepare(w), cfg)
}

/// Runs the full seven-benchmark suite on the worker pool: compilation is
/// parallel over benchmarks, then the flattened (benchmark × model) grid
/// is parallel over all cells.
pub fn run_suite(scale: Scale, seed: u64, cfg: MachineConfig) -> Vec<SuiteResult> {
    let workloads = suite(scale, seed);
    let prepared = pool::run_indexed(workloads.len(), |i| prepare(&workloads[i]));
    let nm = Model::ALL.len();
    let stats = pool::run_indexed(prepared.len() * nm, |k| {
        let p = &prepared[k / nm];
        let m = Model::ALL[k % nm];
        run_model(m, &p.compiled, &p.env, cfg).unwrap_or_else(|e| panic!("{} on {m}: {e}", p.name))
    });
    prepared
        .iter()
        .zip(stats.chunks(nm))
        .map(|(p, per_model)| {
            check_models_agree(p.name, per_model);
            SuiteResult {
                name: p.name,
                per_model: per_model.to_vec(),
            }
        })
        .collect()
}

/// Simulator-performance summary of a set of runs: committed instructions,
/// host wall time (summed across runs — with a worker pool the wall clock
/// of the whole sweep is shorter), aggregate MSIPS, and how much of the
/// simulated time the idle-cycle fast-forward skipped.
pub fn msips_line(results: &[SuiteResult]) -> String {
    let all = || results.iter().flat_map(|r| r.per_model.iter());
    let committed: u64 = all().map(|s| s.total_committed()).sum();
    let wall_ns: u64 = all().map(|s| s.host_wall_ns).sum();
    let cycles: u64 = all().map(|s| s.cycles).sum();
    let skipped: u64 = all().map(|s| s.ff_skipped_cycles).sum();
    let jumps: u64 = all().map(|s| s.ff_jumps).sum();
    let msips = if wall_ns == 0 {
        0.0
    } else {
        committed as f64 * 1e3 / wall_ns as f64
    };
    let pct = if cycles == 0 {
        0.0
    } else {
        100.0 * skipped as f64 / cycles as f64
    };
    format!(
        "sim speed: {committed} instrs in {:.3} s CPU = {msips:.2} MSIPS \
         (fast-forward skipped {pct:.1}% of {cycles} cycles in {jumps} jumps)",
        wall_ns as f64 / 1e9
    )
}

/// Runs the full suite like [`run_suite`] while also timing the whole
/// parallel sweep on the calling thread. The two clocks answer different
/// questions: each run's `host_wall_ns` is measured inside `Machine::run`
/// on whichever pool worker executed that cell (so summing them gives CPU
/// cost), while the value returned here is the wall-clock time the sweep
/// actually took across all workers.
pub fn run_suite_timed(scale: Scale, seed: u64, cfg: MachineConfig) -> (Vec<SuiteResult>, u64) {
    let t0 = std::time::Instant::now();
    let results = run_suite(scale, seed, cfg);
    (results, (t0.elapsed().as_nanos() as u64).max(1))
}

/// The [`msips_line`] per-run (CPU) summary extended with the parallel
/// sweep's aggregate throughput: the same committed-instruction total
/// divided by the sweep's wall-clock time.
pub fn suite_speed_line(results: &[SuiteResult], sweep_wall_ns: u64) -> String {
    let committed: u64 = results
        .iter()
        .flat_map(|r| r.per_model.iter())
        .map(|s| s.total_committed())
        .sum();
    let aggregate = committed as f64 * 1e3 / sweep_wall_ns as f64;
    format!(
        "{}\nsweep wall: {:.3} s on {} worker(s) = {aggregate:.2} MSIPS aggregate",
        msips_line(results),
        sweep_wall_ns as f64 / 1e9,
        pool::threads()
    )
}

// ---------------------------------------------------------------------------
// Reports: every figure/table artifact renders through one trait
// ---------------------------------------------------------------------------

/// A paper artifact — a figure or table — that renders both as the aligned
/// text table `repro` prints by default and as CSV for plotting. Every
/// artifact-producing `repro` subcommand goes through this trait, which is
/// what makes `--format {text,csv}` work uniformly.
pub trait Report {
    /// Aligned, human-readable text table.
    fn render_text(&self) -> String;
    /// Machine-readable CSV: a header line plus one row per data point.
    fn render_csv(&self) -> String;
    /// Renders in the format selected by `repro --format`.
    fn render(&self, csv: bool) -> String {
        if csv {
            self.render_csv()
        } else {
            self.render_text()
        }
    }
}

/// One Figure-8 row: speed-up over the baseline per model.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    pub name: &'static str,
    /// Speed-ups in [`Model::ALL`] order (baseline is 1.0 by definition).
    pub speedup: [f64; 4],
}

/// Figure 8: per-benchmark speed-up over the baseline superscalar.
pub fn fig8(results: &[SuiteResult]) -> Vec<Fig8Row> {
    results
        .iter()
        .map(|r| {
            let base = r.baseline();
            let mut speedup = [0.0; 4];
            for (i, s) in r.per_model.iter().enumerate() {
                speedup[i] = s.speedup_over(base);
            }
            Fig8Row {
                name: r.name,
                speedup,
            }
        })
        .collect()
}

/// [`Report`] for Figure 8 (see [`fig8`]).
#[derive(Debug, Clone)]
pub struct Fig8Report(pub Vec<Fig8Row>);

impl Report for Fig8Report {
    fn render_text(&self) -> String {
        let mut out = String::from(
            "Figure 8: speed-up over the baseline superscalar\n\
             benchmark     Superscalar   CP+AP    CP+CMP   HiDISC\n",
        );
        for r in &self.0 {
            out.push_str(&format!(
                "{:<13} {:>10.3} {:>8.3} {:>8.3} {:>8.3}\n",
                r.name, r.speedup[0], r.speedup[1], r.speedup[2], r.speedup[3]
            ));
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("benchmark,superscalar,cp_ap,cp_cmp,hidisc\n");
        for r in &self.0 {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6}\n",
                r.name, r.speedup[0], r.speedup[1], r.speedup[2], r.speedup[3]
            ));
        }
        out
    }
}

/// Table 2: average speed-up of the three non-baseline models (arithmetic
/// mean of per-benchmark speed-ups, as the paper reports).
pub fn table2(results: &[SuiteResult]) -> [f64; 4] {
    let rows = fig8(results);
    let mut avg = [0.0; 4];
    for row in &rows {
        for (a, s) in avg.iter_mut().zip(row.speedup) {
            *a += s;
        }
    }
    for a in &mut avg {
        *a /= rows.len() as f64;
    }
    avg
}

/// [`Report`] for Table 2 (see [`table2`]).
#[derive(Debug, Clone)]
pub struct Table2Report(pub [f64; 4]);

impl Report for Table2Report {
    fn render_text(&self) -> String {
        let avg = &self.0;
        format!(
            "Table 2: average speed-up over the baseline\n\
             CP+AP   (access/execute decoupling): {:+.1}%\n\
             CP+CMP  (cache prefetching):         {:+.1}%\n\
             HiDISC  (decoupling + prefetching):  {:+.1}%\n",
            (avg[1] - 1.0) * 100.0,
            (avg[2] - 1.0) * 100.0,
            (avg[3] - 1.0) * 100.0
        )
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("model,avg_speedup\n");
        for (label, v) in ["superscalar", "cp_ap", "cp_cmp", "hidisc"]
            .into_iter()
            .zip(self.0)
        {
            out.push_str(&format!("{label},{v:.6}\n"));
        }
        out
    }
}

/// One Figure-9 row: L1 demand miss rate relative to the baseline.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    pub name: &'static str,
    /// `miss_rate(model) / miss_rate(baseline)` in [`Model::ALL`] order.
    pub ratio: [f64; 4],
    /// Absolute baseline miss rate (context for the table).
    pub base_miss_rate: f64,
}

/// Figure 9: relative cache miss rate per benchmark.
pub fn fig9(results: &[SuiteResult]) -> Vec<Fig9Row> {
    results
        .iter()
        .map(|r| {
            let base = r.baseline();
            let mut ratio = [0.0; 4];
            for (i, s) in r.per_model.iter().enumerate() {
                ratio[i] = s.miss_rate_ratio(base);
            }
            Fig9Row {
                name: r.name,
                ratio,
                base_miss_rate: base.l1_miss_rate(),
            }
        })
        .collect()
}

/// [`Report`] for Figure 9 (see [`fig9`]).
#[derive(Debug, Clone)]
pub struct Fig9Report(pub Vec<Fig9Row>);

impl Report for Fig9Report {
    fn render_text(&self) -> String {
        let mut out = String::from(
            "Figure 9: L1 demand miss rate relative to the baseline (1.0 = baseline)\n\
             benchmark     base-rate   CP+AP    CP+CMP   HiDISC\n",
        );
        for r in &self.0 {
            out.push_str(&format!(
                "{:<13} {:>9.4} {:>8.3} {:>8.3} {:>8.3}\n",
                r.name, r.base_miss_rate, r.ratio[1], r.ratio[2], r.ratio[3]
            ));
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("benchmark,base_miss_rate,cp_ap,cp_cmp,hidisc\n");
        for r in &self.0 {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6}\n",
                r.name, r.base_miss_rate, r.ratio[1], r.ratio[2], r.ratio[3]
            ));
        }
        out
    }
}

/// The Figure-10 latency sweep points `(l2_latency, memory_latency)`.
pub const FIG10_LATENCIES: [(u32, u32); 4] = [(4, 40), (8, 80), (12, 120), (16, 160)];

/// One Figure-10 series: IPC of each model across the latency sweep.
#[derive(Debug, Clone)]
pub struct Fig10Series {
    pub name: &'static str,
    /// `ipc[lat][model]` with latencies in [`FIG10_LATENCIES`] order and
    /// models in [`Model::ALL`] order.
    pub ipc: Vec<[f64; 4]>,
}

/// Figure 10: latency tolerance for the given benchmarks (the paper uses
/// Pointer and Neighborhood).
pub fn fig10(names: &[&str], scale: Scale, seed: u64) -> Vec<Fig10Series> {
    let prepared = pool::run_indexed(names.len(), |i| {
        let (w, env, compiled) = compile_named(names[i], scale, seed);
        Prepared::new(w.name, env, compiled)
    });
    // One flat grid over (benchmark × latency point × model): each cell is
    // an independent simulation sharing the Arc'd compiled program.
    let nl = FIG10_LATENCIES.len();
    let nm = Model::ALL.len();
    let stats = pool::run_indexed(prepared.len() * nl * nm, |k| {
        let p = &prepared[k / (nl * nm)];
        let (l2, mem) = FIG10_LATENCIES[(k / nm) % nl];
        let m = Model::ALL[k % nm];
        run_model(
            m,
            &p.compiled,
            &p.env,
            MachineConfig::paper_with_latency(l2, mem),
        )
        .unwrap_or_else(|e| panic!("{} on {m} at {l2}/{mem}: {e}", p.name))
    });
    prepared
        .iter()
        .zip(stats.chunks(nl * nm))
        .map(|(p, per_point)| {
            let ipc = per_point
                .chunks(nm)
                .map(|per_model| {
                    check_models_agree(p.name, per_model);
                    let mut row = [0.0; 4];
                    for (i, st) in per_model.iter().enumerate() {
                        row[i] = st.ipc();
                    }
                    row
                })
                .collect();
            Fig10Series { name: p.name, ipc }
        })
        .collect()
}

/// [`Report`] for Figure 10 (see [`fig10`]).
#[derive(Debug, Clone)]
pub struct Fig10Report(pub Vec<Fig10Series>);

impl Report for Fig10Report {
    fn render_text(&self) -> String {
        let mut out = String::from("Figure 10: IPC under the L2/memory latency sweep\n");
        for s in &self.0 {
            out.push_str(&format!(
                "\n{} — IPC\nL2/mem      Superscalar   CP+AP    CP+CMP   HiDISC\n",
                s.name
            ));
            for (li, (l2, mem)) in FIG10_LATENCIES.into_iter().enumerate() {
                let r = s.ipc[li];
                out.push_str(&format!(
                    "{:>2}/{:<6} {:>11.3} {:>8.3} {:>8.3} {:>8.3}\n",
                    l2, mem, r[0], r[1], r[2], r[3]
                ));
            }
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out =
            String::from("benchmark,l2_latency,mem_latency,superscalar,cp_ap,cp_cmp,hidisc\n");
        for s in &self.0 {
            for (li, (l2, mem)) in FIG10_LATENCIES.into_iter().enumerate() {
                let r = s.ipc[li];
                out.push_str(&format!(
                    "{},{},{},{:.6},{:.6},{:.6},{:.6}\n",
                    s.name, l2, mem, r[0], r[1], r[2], r[3]
                ));
            }
        }
        out
    }
}

/// [`Report`] for Table 1, the simulation parameters, rendered as the
/// paper presents them.
#[derive(Debug, Clone)]
pub struct Table1Report(pub MachineConfig);

impl Table1Report {
    /// The parameter table as (name, value) rows, shared by both formats.
    fn rows(&self) -> Vec<(&'static str, String)> {
        let cfg = &self.0;
        let s = &cfg.superscalar;
        vec![
            ("Branch predict mode", "Bimodal".into()),
            ("Branch table size", s.predictor_entries.to_string()),
            ("Issue/commit width", s.issue_width.to_string()),
            (
                "Instruction window",
                format!(
                    "Superscalar {} / AP {} / CP {}",
                    s.ruu_size, cfg.ap.ruu_size, cfg.cp.ruu_size
                ),
            ),
            (
                "Integer functional units",
                format!("ALU x{}, MUL/DIV x{}", s.int_alu, s.int_mul),
            ),
            (
                "FP functional units",
                format!(
                    "ALU x{}, MUL/DIV x{} (superscalar and CP)",
                    s.fp_alu, s.fp_mul
                ),
            ),
            (
                "Memory ports",
                format!("{} per memory-capable processor", s.mem_ports),
            ),
            (
                "L1 data cache",
                format!(
                    "{} sets, {}B blocks, {}-way, LRU",
                    cfg.mem.l1.sets, cfg.mem.l1.block_bytes, cfg.mem.l1.ways
                ),
            ),
            ("L1 latency", format!("{} cycle(s)", cfg.mem.l1.latency)),
            (
                "Unified L2",
                format!(
                    "{} sets, {}B blocks, {}-way, LRU",
                    cfg.mem.l2.sets, cfg.mem.l2.block_bytes, cfg.mem.l2.ways
                ),
            ),
            ("L2 latency", format!("{} cycles", cfg.mem.l2.latency)),
            ("Memory latency", format!("{} cycles", cfg.mem.mem_latency)),
            (
                "Queues (LDQ/SDQ/CDQ/CQ/SCQ)",
                format!(
                    "{}/{}/{}/{}/{} entries",
                    cfg.queues.ldq, cfg.queues.sdq, cfg.queues.cdq, cfg.queues.cq, cfg.queues.scq
                ),
            ),
        ]
    }
}

impl Report for Table1Report {
    fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.rows() {
            out.push_str(&format!("{k:<29}{v}\n"));
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("parameter,value\n");
        for (k, v) in self.rows() {
            let v = if v.contains(',') {
                format!("\"{v}\"")
            } else {
                v
            };
            out.push_str(&format!("{k},{v}\n"));
        }
        out
    }
}

/// Per-benchmark speed-up table for the auxiliary suites (`repro micro`
/// and `repro extras`): one row per workload, models in [`Model::ALL`]
/// order.
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    /// Table heading.
    pub title: &'static str,
    /// `(benchmark, speed-up per model)` rows.
    pub rows: Vec<(&'static str, [f64; 4])>,
}

impl SpeedupReport {
    /// Builds the table by running every workload on all four models.
    pub fn from_workloads(title: &'static str, workloads: &[Workload], cfg: MachineConfig) -> Self {
        let rows = workloads
            .iter()
            .map(|w| {
                let r = run_workload(w, cfg);
                let mut s = [0.0; 4];
                for (i, st) in r.per_model.iter().enumerate() {
                    s[i] = st.speedup_over(r.baseline());
                }
                (r.name, s)
            })
            .collect();
        SpeedupReport { title, rows }
    }
}

impl Report for SpeedupReport {
    fn render_text(&self) -> String {
        let mut out = format!("{}\n", self.title);
        for (name, s) in &self.rows {
            out.push_str(&format!("{name:<13}"));
            for (m, v) in Model::ALL.into_iter().zip(s) {
                out.push_str(&format!(" {m}={v:.3}"));
            }
            out.push('\n');
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("benchmark,superscalar,cp_ap,cp_cmp,hidisc\n");
        for (name, s) in &self.rows {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6}\n",
                name, s[0], s[1], s[2], s[3]
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Static verification behind `repro check`
// ---------------------------------------------------------------------------

/// One `repro check` run: the verifier's findings for a workload compiled
/// at the given scale, rendered through [`Report`] like every other
/// artifact. The CSV form also carries one `DB000` info row per queue with
/// the computed static occupancy bound, so `--scq-depth` sweeps can cite
/// the bound that makes a configuration safe.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Workload name.
    pub name: String,
    /// The verifier's findings and bounds.
    pub report: hidisc_verify::VerifyReport,
}

/// Compiles `name` and statically verifies the resulting triple against
/// the given queue depths.
pub fn check_workload(
    name: &str,
    scale: Scale,
    seed: u64,
    depths: hidisc_verify::DepthConfig,
) -> CheckReport {
    let (_, _, compiled) = compile_named(name, scale, seed);
    CheckReport {
        name: name.to_string(),
        report: hidisc_verify::verify(&hidisc_verify::VerifyInput::of(&compiled, depths)),
    }
}

/// The queue depths of a machine configuration, as the verifier's mirror
/// type (so `repro check --scq-depth N` bounds against the same depths the
/// simulation would run with).
pub fn depths_of(cfg: &MachineConfig) -> hidisc_verify::DepthConfig {
    hidisc_verify::DepthConfig {
        ldq: cfg.queues.ldq,
        sdq: cfg.queues.sdq,
        cdq: cfg.queues.cdq,
        cq: cfg.queues.cq,
        scq: cfg.queues.scq,
    }
}

impl CheckReport {
    /// True when the workload verified without errors (warnings allowed).
    pub fn passed(&self) -> bool {
        self.report.no_errors()
    }

    /// [`Self::passed`], optionally promoting warnings to failures
    /// (`repro check --deny-warnings`).
    pub fn passed_with(&self, deny_warnings: bool) -> bool {
        self.passed() && (!deny_warnings || self.report.warnings().count() == 0)
    }
}

fn csv_quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl Report for CheckReport {
    fn render_text(&self) -> String {
        use std::fmt::Write;
        let r = &self.report;
        let mut out = format!(
            "verification of {}: {} error(s), {} warning(s) over {} segment pair(s), {} queue(s) analysed\n",
            self.name,
            r.errors().count(),
            r.warnings().count(),
            r.segments,
            r.queues_analysed
        );
        for d in &r.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        let _ = write!(out, "static occupancy bounds:");
        for b in &r.bounds {
            let _ = write!(out, "  {} {}/{}", b.queue.name(), b.bound, b.cap);
        }
        out.push('\n');
        let disambiguated = r.loads.iter().filter(|l| l.stores > 0);
        let _ = writeln!(
            out,
            "alias analysis: {} AS load(s), {} compared against upstream stores",
            r.loads.len(),
            disambiguated.clone().count()
        );
        for l in disambiguated {
            let _ = write!(
                out,
                "  as@{}: {} ({} store(s)",
                l.pc,
                l.verdict.name(),
                l.stores
            );
            match l.against {
                Some(s) => {
                    let _ = writeln!(out, ", worst as@{s})");
                }
                None => {
                    let _ = writeln!(out, ")");
                }
            }
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("workload,code,severity,stream,pc,queue,message\n");
        let r = &self.report;
        for l in r.loads.iter().filter(|l| l.stores > 0) {
            out.push_str(&format!(
                "{},AL000,info,as,{},,{}\n",
                csv_quote(&self.name),
                l.pc,
                csv_quote(&format!(
                    "load classified {} against {} upstream store(s){}",
                    l.verdict.name(),
                    l.stores,
                    l.against
                        .map(|s| format!(", worst at as@{s}"))
                        .unwrap_or_default()
                )),
            ));
        }
        for d in &r.diagnostics {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                csv_quote(&self.name),
                d.code,
                d.severity(),
                d.loc.stream_name(),
                d.loc.pc(),
                d.queue.map(|q| q.name()).unwrap_or(""),
                csv_quote(&d.msg)
            ));
        }
        for b in &r.bounds {
            out.push_str(&format!(
                "{},DB000,info,,,{},{}\n",
                csv_quote(&self.name),
                b.queue.name(),
                csv_quote(&format!(
                    "static occupancy bound {} of configured depth {}",
                    b.bound, b.cap
                ))
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Speculation analysis behind `repro check --speculation`
// ---------------------------------------------------------------------------

/// One `repro check <workload> --speculation` run: the advisory run-ahead
/// analysis ([`hidisc_verify::speculation`]) for a compiled workload —
/// squash safety and hoistable-load counts for both edges of every AS
/// conditional branch, plus the per-load alias classification backing
/// them. Renders as text, CSV (one row per region and per disambiguated
/// load) and, via [`SpecCheckReport::to_json`], as a JSON document.
#[derive(Debug, Clone)]
pub struct SpecCheckReport {
    /// Workload name.
    pub name: String,
    /// The speculation analysis.
    pub spec: hidisc_verify::SpeculationReport,
}

/// Compiles `name` and runs the speculation analysis on the resulting
/// triple.
pub fn speculation_workload(
    name: &str,
    scale: Scale,
    seed: u64,
    depths: hidisc_verify::DepthConfig,
) -> SpecCheckReport {
    let (_, _, compiled) = compile_named(name, scale, seed);
    SpecCheckReport {
        name: name.to_string(),
        spec: hidisc_verify::speculation(&hidisc_verify::VerifyInput::of(&compiled, depths)),
    }
}

impl SpecCheckReport {
    /// The whole analysis as a JSON document (`--format json`).
    pub fn to_json(&self) -> String {
        let regions: Vec<String> = self
            .spec
            .regions
            .iter()
            .map(|r| {
                format!(
                    "{{\"branch_pc\":{},\"edge\":\"{}\",\"start\":{},\"end\":{},\
                     \"marked\":{},\"safe\":{},\"hazard\":{},\"loads\":{},\"hoistable\":{}}}",
                    r.branch_pc,
                    r.dir.name(),
                    r.start,
                    r.end,
                    r.marked,
                    r.safe,
                    r.hazard
                        .as_deref()
                        .map(|h| format!("\"{}\"", json_escape(h)))
                        .unwrap_or_else(|| "null".into()),
                    r.loads,
                    r.hoistable,
                )
            })
            .collect();
        let loads: Vec<String> = self
            .spec
            .loads
            .iter()
            .map(|l| {
                format!(
                    "{{\"pc\":{},\"verdict\":\"{}\",\"stores\":{},\"against\":{}}}",
                    l.pc,
                    l.verdict.name(),
                    l.stores,
                    l.against
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "null".into()),
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"regions\":[{}],\"loads\":[{}],\
             \"region_loads\":{},\"hoistable\":{},\"recovery_score\":{:.6}}}\n",
            json_escape(&self.name),
            regions.join(","),
            loads.join(","),
            self.spec.region_loads,
            self.spec.hoistable,
            self.spec.recovery_score(),
        )
    }
}

impl Report for SpecCheckReport {
    fn render_text(&self) -> String {
        use std::fmt::Write;
        let s = &self.spec;
        let mut out = format!(
            "speculation analysis of {}: {} region(s), {} squash-safe, {} profitable; \
             {}/{} region load(s) hoistable (decoupling-recovery score {:.3})\n",
            self.name,
            s.regions.len(),
            s.regions.iter().filter(|r| r.safe).count(),
            s.profitable_regions().count(),
            s.hoistable,
            s.region_loads,
            s.recovery_score(),
        );
        for r in &s.regions {
            let _ = write!(
                out,
                "  as@{} {} [{}, {}):",
                r.branch_pc,
                r.dir.name(),
                r.start,
                r.end
            );
            match &r.hazard {
                None => {
                    let _ = write!(out, " safe, {} load(s), {} hoistable", r.loads, r.hoistable);
                }
                Some(h) => {
                    let _ = write!(out, " unsafe ({h}), {} load(s)", r.loads);
                }
            }
            if r.marked {
                out.push_str(" [declared]");
            }
            out.push('\n');
        }
        let compared = s.loads.iter().filter(|l| l.stores > 0);
        let _ = writeln!(
            out,
            "alias classification: {} AS load(s), {} compared against upstream stores",
            s.loads.len(),
            compared.clone().count()
        );
        for l in compared {
            let _ = writeln!(
                out,
                "  as@{}: {} ({} store(s){})",
                l.pc,
                l.verdict.name(),
                l.stores,
                l.against
                    .map(|a| format!(", worst as@{a}"))
                    .unwrap_or_default()
            );
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out =
            String::from("workload,kind,pc,edge,start,end,safe,loads,hoistable,verdict,detail\n");
        for r in &self.spec.regions {
            out.push_str(&format!(
                "{},region,{},{},{},{},{},{},{},,{}\n",
                csv_quote(&self.name),
                r.branch_pc,
                r.dir.name(),
                r.start,
                r.end,
                r.safe,
                r.loads,
                r.hoistable,
                csv_quote(r.hazard.as_deref().unwrap_or("")),
            ));
        }
        for l in &self.spec.loads {
            out.push_str(&format!(
                "{},load,{},,,,,,,{},{}\n",
                csv_quote(&self.name),
                l.pc,
                l.verdict.name(),
                csv_quote(&format!(
                    "{} upstream store(s){}",
                    l.stores,
                    l.against
                        .map(|a| format!(", worst as@{a}"))
                        .unwrap_or_default()
                )),
            ));
        }
        out.push_str(&format!(
            "{},score,,,,,,{},{},,{}\n",
            csv_quote(&self.name),
            self.spec.region_loads,
            self.spec.hoistable,
            csv_quote(&format!("recovery_score={:.6}", self.spec.recovery_score())),
        ));
        out
    }
}

#[cfg(test)]
mod check_tests {
    use super::*;

    #[test]
    fn shipped_workloads_check_clean() {
        let depths = depths_of(&MachineConfig::paper());
        for name in ["dm", "pointer"] {
            let c = check_workload(name, Scale::Test, 3, depths);
            assert!(c.passed(), "{name}: {}", c.render_text());
            assert!(c.report.queues_analysed >= 1);
        }
    }

    #[test]
    fn check_report_renders_both_formats() {
        let c = check_workload("update", Scale::Test, 3, depths_of(&MachineConfig::paper()));
        let text = c.render_text();
        assert!(text.starts_with("verification of update:"));
        assert!(text.contains("static occupancy bounds:"));
        let csv = c.render_csv();
        assert!(csv.starts_with("workload,code,severity,stream,pc,queue,message\n"));
        // Five DB000 bound rows, one per queue, whatever the findings.
        assert_eq!(csv.matches(",DB000,info,").count(), 5);
    }

    #[test]
    fn csv_quoting_escapes_commas_and_quotes() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn deny_warnings_promotes_warnings_to_failure() {
        let c = check_workload(
            "pointer",
            Scale::Test,
            3,
            depths_of(&MachineConfig::paper()),
        );
        assert!(c.passed_with(false));
        // Shipped workloads carry no warnings either, so strict mode also
        // passes; a synthetic warning must flip it.
        assert!(c.passed_with(true));
        let mut strict = c.clone();
        strict.report.diagnostics.push(hidisc_verify::Diagnostic {
            code: hidisc_verify::Code::Al001,
            loc: hidisc_verify::Loc::Access(0),
            queue: None,
            msg: "synthetic".into(),
        });
        assert!(strict.passed_with(false));
        assert!(!strict.passed_with(true));
    }

    #[test]
    fn pointer_speculation_finds_hoistable_runahead_regions() {
        for name in ["pointer", "tc"] {
            let s = speculation_workload(name, Scale::Test, 3, depths_of(&MachineConfig::paper()));
            let profitable: Vec<_> = s.spec.profitable_regions().collect();
            assert!(
                !profitable.is_empty(),
                "{name}: no squash-safe region with hoistable loads\n{}",
                s.render_text()
            );
            assert!(s.spec.recovery_score() > 0.0, "{name}");
        }
    }

    #[test]
    fn speculation_report_renders_all_formats() {
        let s = speculation_workload(
            "pointer",
            Scale::Test,
            3,
            depths_of(&MachineConfig::paper()),
        );
        let text = s.render_text();
        assert!(text.starts_with("speculation analysis of pointer:"));
        assert!(text.contains("decoupling-recovery score"));
        let csv = s.render_csv();
        assert!(csv
            .starts_with("workload,kind,pc,edge,start,end,safe,loads,hoistable,verdict,detail\n"));
        // At least one squash-safe region row with a hoistable load: the
        // pointer chase's loop latch (the row CI greps for).
        assert!(
            csv.lines().any(|l| {
                let f: Vec<&str> = l.split(',').collect();
                f.get(1) == Some(&"region")
                    && f.get(6) == Some(&"true")
                    && f.get(8)
                        .is_some_and(|h| h.parse::<usize>().is_ok_and(|n| n > 0))
            }),
            "{csv}"
        );
        assert_eq!(csv.lines().filter(|l| l.contains(",score,")).count(), 1);
        let json = s.to_json();
        assert!(json.starts_with("{\"workload\":\"pointer\""));
        assert!(json.contains("\"recovery_score\":"));
        assert!(json.contains("\"regions\":[{"));
    }

    /// The differential satellite: across every workload, seed, and depth
    /// configuration, the symbolic occupancy bounds must dominate the peaks
    /// the greedy two-thread oracle actually observes.
    #[test]
    fn symbolic_bounds_dominate_greedy_peaks_everywhere() {
        let deep = hidisc_verify::DepthConfig {
            ldq: 256,
            sdq: 256,
            cdq: 256,
            cq: 256,
            scq: 64,
        };
        for name in hidisc_workloads::names() {
            for seed in [3, 2003] {
                for depths in [depths_of(&MachineConfig::paper()), deep] {
                    let c = check_workload(name, Scale::Test, seed, depths);
                    for b in &c.report.bounds {
                        let peak = c.report.greedy_peaks[hidisc_verify::queue_index(b.queue)];
                        assert!(
                            b.bound >= peak,
                            "{name} seed {seed}: symbolic {} bound {} below greedy peak {peak}",
                            b.queue.name(),
                            b.bound,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_accepted_latency_finishes_the_test_suite() {
        // The builder admits l2 + mem up to (deadlock_cycles - 1) / 2, and
        // every Test-scale run at that sum must finish without tripping the
        // watchdog; one cycle more is rejected up front.
        let deadlock = MachineConfig::paper().deadlock_cycles;
        let sum = u32::try_from((deadlock - 1) / 2).unwrap();
        let (l2, mem) = (sum / 2, sum - sum / 2);
        let cfg = MachineConfig::builder().latency(l2, mem).build().unwrap();
        assert_eq!(fig8(&run_suite(Scale::Test, 3, cfg)).len(), 7);

        let err = MachineConfig::builder()
            .latency(l2, mem + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            hidisc::ConfigError::LatencyPastWatchdog {
                l2,
                mem: mem + 1,
                deadlock_cycles: deadlock
            }
        );
        assert_eq!(err.code(), "CFG003");
    }

    #[test]
    fn small_suite_runs_and_tables_render() {
        let results = run_suite(Scale::Test, 3, MachineConfig::paper());
        assert_eq!(results.len(), 7);
        let f8 = fig8(&results);
        assert!(f8.iter().all(|r| (r.speedup[0] - 1.0).abs() < 1e-12));
        let t2 = table2(&results);
        assert!((t2[0] - 1.0).abs() < 1e-12);
        let f9 = fig9(&results);
        assert_eq!(f9.len(), 7);
        assert!(!Fig8Report(f8).render_text().is_empty());
        assert!(!Table2Report(t2).render_text().is_empty());
        assert!(!Fig9Report(f9).render_text().is_empty());
        let t1 = Table1Report(MachineConfig::paper());
        assert!(t1.render_text().contains("Bimodal"));
        assert!(t1.render_csv().starts_with("parameter,value\n"));
    }

    #[test]
    fn reports_render_both_formats() {
        let r = Fig8Report(vec![Fig8Row {
            name: "update",
            speedup: [1.0, 1.1, 1.2, 1.3],
        }]);
        // CSV: header + one line per row; text: title + header + rows.
        assert_eq!(r.render_csv().lines().count(), 1 + r.0.len());
        assert_eq!(r.render_text().lines().count(), 2 + r.0.len());
        assert_eq!(r.render(true), r.render_csv());
        assert_eq!(r.render(false), r.render_text());
        let t2 = Table2Report([1.0, 1.2, 1.1, 1.4]);
        assert!(t2.render_csv().contains("hidisc,1.400000"));
    }

    #[test]
    fn reports_rebuild_byte_identically_from_minimal_stats() {
        // The sweep endpoint reassembles figures from cached points; the
        // contract is that a report built from `MachineStats::minimal`
        // (carrying only cycles, work and L1 demand behaviour) renders
        // byte-for-byte like one built from the full run.
        let results = run_suite(Scale::Test, 3, MachineConfig::paper());
        let rebuilt: Vec<SuiteResult> = results
            .iter()
            .map(|r| SuiteResult {
                name: r.name,
                per_model: r
                    .per_model
                    .iter()
                    .map(|s| {
                        MachineStats::minimal(
                            s.model,
                            s.cycles,
                            s.work_instrs,
                            s.mem.l1.demand_accesses,
                            s.mem.l1.demand_misses,
                        )
                    })
                    .collect(),
            })
            .collect();
        assert_eq!(
            Fig8Report(fig8(&results)).render_csv(),
            Fig8Report(fig8(&rebuilt)).render_csv()
        );
        assert_eq!(
            Fig9Report(fig9(&results)).render_csv(),
            Fig9Report(fig9(&rebuilt)).render_csv()
        );
    }

    #[test]
    fn fig10_shapes() {
        let series = fig10(&["pointer"], Scale::Test, 3);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].ipc.len(), 4);
        let report = Fig10Report(series);
        assert!(!report.render_text().is_empty());
        assert_eq!(
            report.render_csv().lines().count(),
            1 + FIG10_LATENCIES.len()
        );
        // IPC should not increase as latency grows, for any model.
        for m in 0..4 {
            assert!(
                report.0[0].ipc[0][m] >= report.0[0].ipc[3][m] * 0.98,
                "model {m}: IPC grew with latency"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One ablation variant of the HiDISC machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ablation {
    /// The full default HiDISC.
    Full,
    /// Compiler does not extract CMAS threads (pure access/execute
    /// decoupling — should collapse onto CP+AP).
    NoCmas,
    /// CMP with the next-line assist on its own load misses (extension).
    NextLineAssist,
    /// Slip Control Queue depth override (prefetch run-ahead distance).
    ScqDepth(usize),
    /// A single-issue, single-ported CMP (weakest engine).
    WeakCmp,
    /// The paper's future-work extensions: adaptive prefetch distance and
    /// selective triggering.
    Dynamic,
}

impl Ablation {
    /// All variants evaluated by `repro ablate`.
    pub fn all() -> Vec<Ablation> {
        vec![
            Ablation::Full,
            Ablation::NoCmas,
            Ablation::NextLineAssist,
            Ablation::ScqDepth(4),
            Ablation::ScqDepth(64),
            Ablation::WeakCmp,
            Ablation::Dynamic,
        ]
    }

    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            Ablation::Full => "full HiDISC".into(),
            Ablation::NoCmas => "no CMAS (CP+AP only)".into(),
            Ablation::NextLineAssist => "next-line assist on".into(),
            Ablation::ScqDepth(d) => format!("SCQ depth {d}"),
            Ablation::WeakCmp => "1-wide 1-port CMP".into(),
            Ablation::Dynamic => "dynamic slip + selective triggers".into(),
        }
    }
}

/// Ablation results for one workload: HiDISC speed-up over the baseline
/// superscalar under each variant.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub name: &'static str,
    pub speedup: Vec<(Ablation, f64)>,
}

/// Runs the ablation study over the given workloads: per-workload
/// compilation and baselines in one pooled pass, then the flattened
/// (workload × variant) grid in a second.
pub fn ablate(names: &[&str], scale: Scale, seed: u64) -> Vec<AblationRow> {
    use hidisc::{DynamicConfig, Model};

    struct AblatePrep {
        name: &'static str,
        env: ExecEnv,
        compiled: Arc<CompiledWorkload>,
        no_cmas: Arc<CompiledWorkload>,
        base: MachineStats,
    }

    let prepared = pool::run_indexed(names.len(), |i| {
        let (w, env, compiled) = compile_named(names[i], scale, seed);
        let no_cmas = compile(
            &w.prog,
            &env,
            &CompilerConfig {
                enable_cmas: false,
                ..CompilerConfig::default()
            },
        )
        .unwrap();
        let base =
            hidisc::run_model(Model::Superscalar, &compiled, &env, MachineConfig::paper()).unwrap();
        AblatePrep {
            name: w.name,
            env,
            compiled: Arc::new(compiled),
            no_cmas: Arc::new(no_cmas),
            base,
        }
    });

    let variants = Ablation::all();
    let nv = variants.len();
    let cells = pool::run_indexed(prepared.len() * nv, |k| {
        let p = &prepared[k / nv];
        let a = variants[k % nv];
        let mut cfg = MachineConfig::paper();
        let c = match a {
            Ablation::Full => &p.compiled,
            Ablation::NoCmas => &p.no_cmas,
            Ablation::NextLineAssist => {
                cfg.cmp.next_line_assist = true;
                &p.compiled
            }
            Ablation::ScqDepth(d) => {
                cfg.queues.scq = d;
                &p.compiled
            }
            Ablation::WeakCmp => {
                cfg.cmp.issue_width = 1;
                cfg.cmp.thread_width = 1;
                cfg.cmp.mem_ports = 1;
                cfg.cmp.next_line_assist = false;
                &p.compiled
            }
            Ablation::Dynamic => {
                cfg.cmp.dynamic = DynamicConfig::all_on();
                &p.compiled
            }
        };
        let st = hidisc::run_model(Model::HiDisc, c, &p.env, cfg)
            .unwrap_or_else(|e| panic!("{} ablation {}: {e}", p.name, a.label()));
        assert_eq!(
            st.mem_checksum, p.base.mem_checksum,
            "{}: ablation diverged",
            p.name
        );
        (a, st.speedup_over(&p.base))
    });

    prepared
        .iter()
        .zip(cells.chunks(nv))
        .map(|(p, speedup)| AblationRow {
            name: p.name,
            speedup: speedup.to_vec(),
        })
        .collect()
}

/// [`Report`] for the ablation study (see [`ablate`]).
#[derive(Debug, Clone)]
pub struct AblationReport(pub Vec<AblationRow>);

impl Report for AblationReport {
    fn render_text(&self) -> String {
        let rows = &self.0;
        let mut out =
            String::from("Ablation study: HiDISC speed-up over the baseline superscalar\n");
        if let Some(first) = rows.first() {
            out.push_str(&format!("{:<34}", "variant"));
            for r in rows.iter() {
                out.push_str(&format!("{:>13}", r.name));
            }
            out.push('\n');
            for (i, (a, _)) in first.speedup.iter().enumerate() {
                out.push_str(&format!("{:<34}", a.label()));
                for r in rows.iter() {
                    out.push_str(&format!("{:>13.3}", r.speedup[i].1));
                }
                out.push('\n');
            }
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("benchmark,variant,speedup\n");
        for r in &self.0 {
            for (a, s) in &r.speedup {
                out.push_str(&format!("{},{},{s:.6}\n", r.name, a.label()));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Inspection helpers behind `repro report` / `repro diag` / `repro trace`
// ---------------------------------------------------------------------------

/// The compiler's separation report (Figures 3/5-7 walkthrough) for one
/// suite workload.
pub fn separation_report(name: &str, scale: Scale, seed: u64) -> String {
    let (_, _, c) = compile_named(name, scale, seed);
    hidisc_slicer::report::render(&c)
}

/// Per-cycle observer behind [`diagnostics`]: records live-machine peaks
/// that the end-of-run statistics cannot reconstruct — the high-water
/// mark of speculative CMP threads and the cycle it was first reached.
/// Passed to [`Machine::run_observed`] as `|m: &Machine| obs.on_cycle(m)`.
#[derive(Debug, Default)]
pub struct CmpPeakObserver {
    /// Highest live CMP thread count seen so far.
    pub peak_threads: usize,
    /// Cycle at which the peak was first reached.
    pub peak_cycle: u64,
}

impl CmpPeakObserver {
    /// The per-cycle hook; always keeps observing.
    pub fn on_cycle(&mut self, m: &Machine) -> bool {
        if let Some(t) = m.cmp_threads() {
            if t > self.peak_threads {
                self.peak_threads = t;
                self.peak_cycle = m.now();
            }
        }
        true
    }
}

/// Runs every model on one workload and renders the machine-level
/// diagnostics (stall breakdowns, queue traffic, CMP behaviour). Each run
/// is observed cycle-by-cycle with a [`CmpPeakObserver`] so the report
/// includes live-occupancy peaks alongside the end-of-run counters.
pub fn diagnostics(name: &str, scale: Scale, seed: u64) -> String {
    use std::fmt::Write;
    let (w, env, compiled) = compile_named(name, scale, seed);
    let mut per_model = Vec::new();
    let mut peaks = Vec::new();
    let mut queue_peaks = Vec::new();
    // Queue-category telemetry feeds the peak-depth column; recording is
    // simulation-invisible (see the telemetry_equiv test in `hidisc`).
    let mut cfg = MachineConfig::paper();
    cfg.trace = TraceConfig {
        mask: Category::Queue.bit(),
        ..TraceConfig::OFF
    };
    for m in Model::ALL {
        let mut obs = CmpPeakObserver::default();
        let mut machine = Machine::new(m, &compiled, &env, cfg);
        let st = machine
            .run_observed(compiled.profile.dyn_instrs, |mach: &Machine| {
                obs.on_cycle(mach)
            })
            .unwrap_or_else(|e| panic!("{} on {m}: {e}", w.name));
        per_model.push(st);
        peaks.push(obs);
        queue_peaks.push(machine.telemetry().queue_peaks());
    }
    check_models_agree(w.name, &per_model);
    let mut out = String::new();
    let base = &per_model[0];
    let _ = writeln!(
        out,
        "=== {} (work = {} dynamic instructions) ===",
        w.name, base.work_instrs
    );
    for ((st, peak), qp) in per_model.iter().zip(&peaks).zip(&queue_peaks) {
        let _ = writeln!(
            out,
            "\n{}: {} cycles, IPC {:.3}, L1 miss {:.2}%, speed-up {:.3}x",
            st.model,
            st.cycles,
            st.ipc(),
            100.0 * st.l1_miss_rate(),
            st.speedup_over(base)
        );
        for (n, cs) in &st.cores {
            let _ = writeln!(
                out,
                "  core {n:<12} committed {:>9}  lod {:>6}  q-stalls[LDQ,SDQ,CDQ,CQ,SCQ] {:?}  mem-dep {:>6}  mispred {:>6}",
                cs.committed, cs.lod_events, cs.dispatch_stall_q, cs.mem_dep_stalls, cs.mispredicts
            );
        }
        if let Some(c) = &st.cmp {
            let _ = writeln!(
                out,
                "  cmp  forks {} (dropped {})  instrs {}  prefetches {} (dropped {})  scq-block {}  done {}",
                c.forks, c.dropped_forks, c.instrs, c.prefetches, c.dropped_prefetches,
                c.scq_block_cycles, c.completed_threads
            );
            let _ = writeln!(
                out,
                "  cmp  peak live threads {} (cycle {})",
                peak.peak_threads, peak.peak_cycle
            );
        }
        let _ = writeln!(
            out,
            "  mem  useful-pref {}  late-pref {}  pref-accesses {}  mshr-rejects {}",
            st.mem.l1.useful_prefetch_hits,
            st.mem.l1.late_prefetch_hits,
            st.mem.l1.prefetch_accesses,
            st.mem.mshr_rejects
        );
        let q = &st.queues;
        let _ = writeln!(
            out,
            "  queues pushes/pops  LDQ {}/{}  SDQ {}/{}  CDQ {}/{}  CQ {}/{}  SCQ {}/{}",
            q[0].pushes,
            q[0].pops,
            q[1].pushes,
            q[1].pops,
            q[2].pushes,
            q[2].pops,
            q[3].pushes,
            q[3].pops,
            q[4].pushes,
            q[4].pops
        );
        let _ = writeln!(
            out,
            "  queues peak depth   LDQ {}  SDQ {}  CDQ {}  CQ {}  SCQ {}",
            qp[0], qp[1], qp[2], qp[3], qp[4]
        );
        // Cycles any core spent stalled popping (dispatch) or pushing
        // (commit) each queue, summed across the model's cores.
        let mut stall = [0u64; 5];
        for (_, cs) in &st.cores {
            for (acc, (d, c)) in stall
                .iter_mut()
                .zip(cs.dispatch_stall_q.iter().zip(&cs.commit_stall_q))
            {
                *acc += d + c;
            }
        }
        let _ = writeln!(
            out,
            "  queues stall cycles LDQ {}  SDQ {}  CDQ {}  CQ {}  SCQ {}",
            stall[0], stall[1], stall[2], stall[3], stall[4]
        );
    }
    out
}

/// Per-cycle observer behind [`pipeline_trace`]: renders one line per
/// cycle (the pipeline snapshot of every core plus the live CMP thread
/// count) and stops observing — not the simulation — after `limit`
/// cycles.
#[derive(Debug)]
pub struct TraceObserver {
    out: String,
    limit: u64,
}

impl TraceObserver {
    /// A tracer that observes the first `limit` cycles.
    pub fn new(limit: u64) -> Self {
        TraceObserver {
            out: String::new(),
            limit,
        }
    }

    /// The per-cycle hook; `false` once `limit` cycles are traced.
    pub fn on_cycle(&mut self, m: &Machine) -> bool {
        use std::fmt::Write;
        let _ = write!(self.out, "cycle {:>6}", m.now());
        for s in m.snapshots() {
            let _ = write!(self.out, " | {s}");
        }
        if let Some(t) = m.cmp_threads() {
            let _ = write!(self.out, " | CMP threads {t}");
        }
        let _ = writeln!(self.out);
        m.now() < self.limit
    }

    /// Closes the trace with the end-of-run summary line.
    pub fn finish(mut self, st: &MachineStats) -> String {
        use std::fmt::Write;
        let _ = writeln!(
            self.out,
            "... ran to completion in {} cycles (IPC {:.3})",
            st.cycles,
            st.ipc()
        );
        self.out
    }
}

/// Renders the first `cycles` cycles of a HiDISC run as a pipeline trace
/// (one line per cycle per core), behind `repro trace`.
pub fn pipeline_trace(name: &str, scale: Scale, seed: u64, cycles: u64) -> String {
    let (_, env, c) = compile_named(name, scale, seed);
    let mut m = Machine::new(Model::HiDisc, &c, &env, MachineConfig::paper());
    let mut tracer = TraceObserver::new(cycles);
    let st = m
        .run_observed(c.profile.dyn_instrs, |mach: &Machine| tracer.on_cycle(mach))
        .unwrap();
    tracer.finish(&st)
}

// ---------------------------------------------------------------------------
// Structured telemetry: Chrome-trace export and interval-metrics report
// ---------------------------------------------------------------------------

/// One traced HiDISC run behind `repro telemetry`: the trace went to the
/// writer as the machine ran, so only the summary counters remain here.
#[derive(Debug)]
pub struct StreamedRun<W> {
    /// The writer, returned after the document tail was flushed.
    pub out: W,
    /// End-of-run statistics of the traced machine.
    pub stats: MachineStats,
    /// Events serialised per category, in [`Category::ALL`] order.
    pub counts: [u64; 5],
    /// Events discarded before a flush could happen (only possible when
    /// one cycle emits more than half the buffer cap).
    pub dropped: u64,
    /// The buffer cap the run streamed under.
    pub cap: usize,
    /// Interval metrics, when `trace.metrics_interval > 0`.
    pub metrics: Option<IntervalMetrics>,
}

impl<W> StreamedRun<W> {
    /// One summary line per category plus the drop counter — the stderr
    /// companion of the trace document.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (c, n) in Category::ALL.into_iter().zip(self.counts) {
            let _ = writeln!(out, "{:>9}: {n} events", c.name());
        }
        let _ = writeln!(out, "  dropped: {} (buffer cap {})", self.dropped, self.cap);
        out
    }
}

/// Runs one workload on the HiDISC model with the given trace
/// configuration and serialises the recording as Chrome-trace JSON into
/// `out` *while* the machine runs, with the interval metrics (when
/// sampled) embedded as the `hidiscMetrics` side table. The event buffer
/// is drained at half its cap instead of growing for the whole run, so
/// arbitrarily long traces stream in bounded memory, and the bytes do not
/// depend on the cap.
pub fn telemetry_stream<W: std::io::Write>(
    name: &str,
    scale: Scale,
    seed: u64,
    mut cfg: MachineConfig,
    trace: TraceConfig,
    out: W,
) -> std::io::Result<StreamedRun<W>> {
    let (w, env, compiled) = compile_named(name, scale, seed);
    cfg.trace = trace;
    let mut m = Machine::new(Model::HiDisc, &compiled, &env, cfg);
    let core_names: Vec<&str> = m.snapshots().iter().map(|s| s.name).collect();
    let mut sink = StreamingSink::new(out, &core_names);
    let stats = m
        .run_streamed(compiled.profile.dyn_instrs, &mut sink)
        .unwrap_or_else(|e| panic!("{} streamed run failed: {e}", w.name));
    let tel = m.telemetry();
    let counts = sink.counts();
    let out = sink.finish(tel.metrics())?;
    Ok(StreamedRun {
        out,
        stats,
        counts,
        dropped: tel.dropped(),
        cap: tel.config().event_cap,
        metrics: tel.metrics().cloned(),
    })
}

/// [`Report`] over the interval-metrics recorder: the text form is a
/// percentile summary per histogram, the CSV form is the raw sample
/// series for plotting.
#[derive(Debug, Clone)]
pub struct MetricsReport(pub IntervalMetrics);

impl Report for MetricsReport {
    fn render_text(&self) -> String {
        use std::fmt::Write;
        let m = &self.0;
        let mut out = format!(
            "interval metrics: {} sample(s) every {} cycles ({} dropped)\n",
            m.len(),
            m.interval,
            m.dropped()
        );
        let mut line = |name: &str, h: &hidisc::telemetry::Histogram| {
            let _ = writeln!(
                out,
                "{name:<22} count {:>8}  p50 {:>5}  p95 {:>5}  p99 {:>5}  max {:>5}",
                h.total(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            );
        };
        line("miss latency (cycles)", &m.miss_latency);
        for (i, q) in hidisc_isa::Queue::ALL.into_iter().enumerate() {
            line(&format!("{} occupancy", q.name()), &m.queue_occupancy[i]);
        }
        line("MSHR occupancy", &m.mshr_occupancy);
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("cycle,committed,ldq,sdq,cdq,cq,scq,mshr,live_threads\n");
        for s in self.0.samples() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                s.cycle,
                s.committed,
                s.queue_depth[0],
                s.queue_depth[1],
                s.queue_depth[2],
                s.queue_depth[3],
                s.queue_depth[4],
                s.mshr,
                s.live_threads
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Related-work comparison (paper §2): hardware and software prefetching
// ---------------------------------------------------------------------------

/// One row of the related-work comparison: cycles normalised to the plain
/// superscalar (higher = faster).
#[derive(Debug, Clone)]
pub struct RelatedRow {
    pub name: &'static str,
    /// Speed-up over the plain superscalar for:
    /// [RPT hardware prefetch, software prefetch, CP+CMP, HiDISC].
    pub speedup: [f64; 4],
}

/// Compares HiDISC against the two prefetching families of the paper's
/// Section 2: a Chen-Baer stride prefetcher (the paper's reference \[3\])
/// and Mowry-style compiler-inserted prefetching (reference \[9\]).
pub fn related_work(names: &[&str], scale: Scale, seed: u64) -> Vec<RelatedRow> {
    use hidisc_mem::RptConfig;
    use hidisc_slicer::swpref::insert_software_prefetch;

    names
        .iter()
        .map(|&name| {
            let (w, env, compiled) = compile_named(name, scale, seed);

            let base =
                run_model(Model::Superscalar, &compiled, &env, MachineConfig::paper()).unwrap();

            // 1. superscalar + hardware stride prefetcher
            let mut hw_cfg = MachineConfig::paper();
            hw_cfg.superscalar.hw_prefetcher = Some(RptConfig::default());
            let hw = run_model(Model::Superscalar, &compiled, &env, hw_cfg).unwrap();
            assert_eq!(hw.mem_checksum, base.mem_checksum, "{name}: RPT diverged");

            // 2. superscalar running the software-prefetched binary
            let (sw_prog, _) = insert_software_prefetch(&w.prog, 8);
            let sw_compiled = compile(&sw_prog, &env, &CompilerConfig::default()).unwrap();
            let sw = run_model(
                Model::Superscalar,
                &sw_compiled,
                &env,
                MachineConfig::paper(),
            )
            .unwrap();
            assert_eq!(
                sw.mem_checksum, base.mem_checksum,
                "{name}: swpref diverged"
            );

            // 3 & 4. the paper's models
            let cp_cmp = run_model(Model::CpCmp, &compiled, &env, MachineConfig::paper()).unwrap();
            let hidisc = run_model(Model::HiDisc, &compiled, &env, MachineConfig::paper()).unwrap();

            let s = |v: &hidisc::MachineStats| base.cycles as f64 / v.cycles as f64;
            RelatedRow {
                name: w.name,
                speedup: [s(&hw), s(&sw), s(&cp_cmp), s(&hidisc)],
            }
        })
        .collect()
}

/// [`Report`] for the related-work comparison (see [`related_work`]).
#[derive(Debug, Clone)]
pub struct RelatedReport(pub Vec<RelatedRow>);

impl Report for RelatedReport {
    fn render_text(&self) -> String {
        let mut out = String::from(
            "Related-work comparison: speed-up over the plain superscalar\n\
             benchmark     HW-stride  SW-pref   CP+CMP   HiDISC\n",
        );
        for r in &self.0 {
            out.push_str(&format!(
                "{:<13} {:>9.3} {:>8.3} {:>8.3} {:>8.3}\n",
                r.name, r.speedup[0], r.speedup[1], r.speedup[2], r.speedup[3]
            ));
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from("benchmark,hw_stride,sw_pref,cp_cmp,hidisc\n");
        for r in &self.0 {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6}\n",
                r.name, r.speedup[0], r.speedup[1], r.speedup[2], r.speedup[3]
            ));
        }
        out
    }
}

#[cfg(test)]
mod related_tests {
    use super::*;

    #[test]
    fn related_work_comparators_run_and_validate() {
        let rows = related_work(&["update", "dm"], Scale::Test, 5);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            for (i, s) in r.speedup.iter().enumerate() {
                assert!(*s > 0.5 && *s < 5.0, "{} variant {i} speedup {s}", r.name);
            }
        }
        let report = RelatedReport(rows);
        assert!(!report.render_text().is_empty());
        assert_eq!(report.render_csv().lines().count(), 1 + report.0.len());
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;

    fn stream(trace: TraceConfig) -> (StreamedRun<Vec<u8>>, String) {
        let run = telemetry_stream(
            "dm",
            Scale::Test,
            7,
            MachineConfig::paper(),
            trace,
            Vec::new(),
        )
        .expect("stream to a Vec cannot fail");
        let json = String::from_utf8(run.out.clone()).unwrap();
        (run, json)
    }

    #[test]
    fn telemetry_stream_exports_and_summarises() {
        let (run, json) = stream(TraceConfig::ALL_EVENTS.with_metrics_interval(500));
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"hidiscMetrics\":"));
        assert!(run.counts[Category::Pipeline as usize] > 0);
        assert!(run.counts[Category::Queue as usize] > 0);
        assert!(
            run.counts[Category::Cmp as usize] > 0,
            "dm forks no threads?"
        );
        assert!(run.summary().contains("pipeline"));
        assert!(run.stats.cycles > 0);
        let rep = MetricsReport(run.metrics.expect("metrics sampled"));
        assert!(rep.render_text().contains("miss latency"));
        assert!(rep.render_csv().starts_with("cycle,committed,"));
        assert!(rep.render_csv().lines().count() > 1);
    }

    #[test]
    fn trace_bytes_do_not_depend_on_the_event_cap() {
        // Default cap: the whole dm run fits in one buffer.
        let trace = TraceConfig::ALL_EVENTS.with_metrics_interval(500);
        let (whole, expect) = stream(trace);
        assert_eq!(whole.dropped, 0, "cap too small for this workload");

        // Small cap so the buffer flushes many times mid-run (a busy
        // cycle can emit a few dozen events, so the half-cap flush
        // threshold must stay comfortably above that).
        let (flushed, got) = stream(trace.with_event_cap(1024));
        assert_eq!(flushed.dropped, 0, "streaming must flush, not drop");
        assert!(
            flushed.counts.iter().sum::<u64>() > 1024,
            "expected multiple flush batches"
        );
        assert_eq!(flushed.counts, whole.counts);
        assert!(flushed.stats.sim_eq(&whole.stats), "runs diverged");
        assert_eq!(got, expect, "trace bytes depend on the event cap");
    }

    #[test]
    fn forced_event_drops_are_counted_and_surfaced() {
        // A cap too small for one busy cycle must drop events and say so
        // in the `repro telemetry` stderr summary.
        let (run, _) = stream(TraceConfig::ALL_EVENTS.with_event_cap(16));
        assert!(run.dropped > 0, "a 16-event cap cannot hold a dm cycle");
        assert_eq!(run.cap, 16);
        assert!(
            run.summary()
                .contains(&format!("dropped: {} (buffer cap 16)", run.dropped)),
            "summary was: {}",
            run.summary()
        );
    }

    #[test]
    fn suite_speed_line_reports_both_clocks() {
        let (results, wall) = run_suite_timed(Scale::Test, 3, MachineConfig::paper());
        assert!(wall > 0);
        let line = suite_speed_line(&results, wall);
        assert!(line.starts_with("sim speed:"));
        assert!(line.contains("MSIPS aggregate"));
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;

    #[test]
    fn diagnostics_reports_queue_peaks_and_stalls() {
        let out = diagnostics("update", Scale::Test, 3);
        // New telemetry-sourced columns…
        assert!(out.contains("queues peak depth"));
        assert!(out.contains("queues stall cycles"));
        // …without disturbing the legacy layout.
        assert!(out.contains("queues pushes/pops"));
    }

    #[test]
    fn trace_observer_renders_and_stops() {
        let out = pipeline_trace("update", Scale::Test, 3, 10);
        assert!(out.starts_with("cycle"));
        assert!(out.contains("ran to completion"));
        // One line per observed cycle (10) plus the summary line.
        assert_eq!(out.lines().count(), 11);
    }

    #[test]
    fn diagnostics_reports_live_peaks() {
        let out = diagnostics("update", Scale::Test, 3);
        assert!(out.contains("=== update"));
        assert!(out.contains("peak live threads"));
    }
}
