//! SMARTS-style sampled simulation and first-divergence bisection,
//! behind `repro --sample`, `repro sample` and `repro bisect`.
//!
//! Sampling trades cycle accuracy for wall-clock speed: detailed windows
//! measure CPI, functional warm phases execute the instructions in
//! between, and the total cycle count is extrapolated with a reported
//! confidence band ([`hidisc::SampledStats`]). Architectural results stay
//! exact — every instruction executes — so the figure pipelines
//! (`fig8`/`fig9`) work unchanged on sampled statistics.

use crate::{compile_named, model_grid, Report, SuiteResult};
use hidisc::{Machine, MachineConfig, MachineStats, Model};
use hidisc_workloads::Scale;

/// Default sampling regime of `repro --sample` (detail:skip pacing-core
/// instructions). One detailed window of 2 000 instructions per 20 000
/// skipped keeps the detailed fraction under 10%.
pub const DEFAULT_SAMPLE: (u64, u64) = (2000, 20_000);

/// The documented relative error band of sampled cycle estimates on the
/// shipped suite (see DESIGN.md §16): CI and `repro sample` fail a run
/// whose estimate misses the exact count by more than
/// `max(rel_error_band, SAMPLE_ERROR_BUDGET)`.
pub const SAMPLE_ERROR_BUDGET: f64 = 0.02;

/// Wall-clock repetitions inside [`compare_sampled`]: the reported
/// milliseconds are the minimum over this many runs. Simulated results are
/// deterministic across repetitions; only the host timing varies, and
/// Paper-scale runs finish in tens of milliseconds where scheduler jitter
/// would otherwise dominate the recorded speed-up.
const TIMING_REPS: u32 = 3;

/// Sampled variant of [`crate::run_suite`]: every (benchmark × model)
/// cell runs in sampling mode on the worker pool. The cross-model memory
/// check still applies — sampling must not change architectural results.
pub fn run_suite_sampled(
    scale: Scale,
    seed: u64,
    cfg: MachineConfig,
    detail: u64,
    skip: u64,
) -> Vec<SuiteResult> {
    model_grid(&hidisc_workloads::suite(scale, seed), |m, p| {
        let mut machine = Machine::new(m, &p.compiled, &p.env, cfg);
        let s = machine
            .run_sampled(p.compiled.profile.dyn_instrs, detail, skip)
            .unwrap_or_else(|e| panic!("{} on {m} (sampled): {e}", p.name));
        // The figures read the extrapolated cycle count, not the raw mixed
        // (detailed + warm) iteration count.
        MachineStats {
            cycles: s.est_cycles,
            ..s.stats
        }
    })
}

/// One exact-vs-sampled comparison of a workload on one model.
#[derive(Debug, Clone)]
pub struct SampleComparison {
    pub name: String,
    pub model: Model,
    /// Cycle count of the exact detailed run.
    pub exact_cycles: u64,
    /// Extrapolated cycle count of the sampled run.
    pub est_cycles: u64,
    /// Reported 95% confidence half-width (relative) of the estimate.
    pub rel_error_band: f64,
    /// Detailed windows that contributed to the estimate.
    pub windows: usize,
    /// Host milliseconds of the exact run.
    pub exact_ms: f64,
    /// Host milliseconds of the sampled run.
    pub sampled_ms: f64,
}

impl SampleComparison {
    /// Signed relative error of the estimate against the exact count.
    pub fn rel_error(&self) -> f64 {
        self.est_cycles as f64 / self.exact_cycles as f64 - 1.0
    }

    /// Wall-clock speed-up of sampling over the exact run.
    pub fn speedup(&self) -> f64 {
        if self.sampled_ms > 0.0 {
            self.exact_ms / self.sampled_ms
        } else {
            0.0
        }
    }

    /// True when the estimate lands inside the acceptance band
    /// (`max(rel_error_band, SAMPLE_ERROR_BUDGET)`).
    pub fn within_band(&self) -> bool {
        self.rel_error().abs() <= self.rel_error_band.max(SAMPLE_ERROR_BUDGET)
    }
}

/// Runs `name` on `model` both exact and sampled and compares. The
/// sampled run must reproduce the exact memory checksum and committed
/// instruction counts (sampling idealises timing, never results). Each
/// variant runs `TIMING_REPS` (3) times and reports the minimum wall
/// clock.
pub fn compare_sampled(
    name: &str,
    scale: Scale,
    seed: u64,
    model: Model,
    cfg: MachineConfig,
    detail: u64,
    skip: u64,
) -> SampleComparison {
    let (_, env, compiled) = compile_named(name, scale, seed);
    let work = compiled.profile.dyn_instrs;

    let mut exact_ms = f64::INFINITY;
    let mut exact = None;
    for _ in 0..TIMING_REPS {
        let s = hidisc::run_model(model, &compiled, &env, cfg)
            .unwrap_or_else(|e| panic!("{name} on {model}: {e}"));
        exact_ms = exact_ms.min(s.host_wall_ns as f64 / 1e6);
        exact = Some(s);
    }
    let exact = exact.expect("TIMING_REPS >= 1");

    let mut sampled_ms = f64::INFINITY;
    let mut sampled = None;
    for _ in 0..TIMING_REPS {
        let mut machine = Machine::new(model, &compiled, &env, cfg);
        let s = machine
            .run_sampled(work, detail, skip)
            .unwrap_or_else(|e| panic!("{name} on {model} (sampled): {e}"));
        sampled_ms = sampled_ms.min(s.stats.host_wall_ns as f64 / 1e6);
        sampled = Some(s);
    }
    let sampled = sampled.expect("TIMING_REPS >= 1");

    assert_eq!(
        sampled.stats.mem_checksum, exact.mem_checksum,
        "{name} on {model}: sampling changed architectural results"
    );
    assert_eq!(
        sampled.stats.total_committed(),
        exact.total_committed(),
        "{name} on {model}: sampling changed committed instruction counts"
    );

    SampleComparison {
        name: name.to_string(),
        model,
        exact_cycles: exact.cycles,
        est_cycles: sampled.est_cycles,
        rel_error_band: sampled.rel_error_band,
        windows: sampled.windows,
        exact_ms,
        sampled_ms,
    }
}

/// [`Report`] for `repro sample`: exact-vs-sampled rows for one workload
/// across all models.
#[derive(Debug, Clone)]
pub struct SampleReport(pub Vec<SampleComparison>);

impl SampleReport {
    /// True when every row's estimate is inside its acceptance band.
    pub fn passed(&self) -> bool {
        self.0.iter().all(|c| c.within_band())
    }
}

impl Report for SampleReport {
    fn render_text(&self) -> String {
        let mut out = String::from(
            "Sampled simulation vs exact (cycle estimate, 95% band, wall clock)\n\
             model         exact-cyc    est-cyc   err%   band%  win  exact-ms  sampled-ms  speedup\n",
        );
        for c in &self.0 {
            out.push_str(&format!(
                "{:<12} {:>10} {:>10} {:>6.2} {:>7.2} {:>4} {:>9.1} {:>11.1} {:>7.2}x {}\n",
                format!("{}", c.model),
                c.exact_cycles,
                c.est_cycles,
                100.0 * c.rel_error(),
                100.0 * c.rel_error_band,
                c.windows,
                c.exact_ms,
                c.sampled_ms,
                c.speedup(),
                if c.within_band() { "ok" } else { "MISS" },
            ));
        }
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::from(
            "workload,model,exact_cycles,est_cycles,rel_error,rel_error_band,windows,\
             exact_ms,sampled_ms,speedup,within_band\n",
        );
        for c in &self.0 {
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{},{:.3},{:.3},{:.3},{}\n",
                c.name,
                c.model,
                c.exact_cycles,
                c.est_cycles,
                c.rel_error(),
                c.rel_error_band,
                c.windows,
                c.exact_ms,
                c.sampled_ms,
                c.speedup(),
                c.within_band(),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Bisecting the first architectural divergence of two configurations
// ---------------------------------------------------------------------------

/// Result of [`bisect`]: the first cycle at which two configurations'
/// architectural state digests differ.
#[derive(Debug, Clone)]
pub struct BisectResult {
    pub name: String,
    pub model: Model,
    /// End-of-run cycle count under configuration A.
    pub end_a: u64,
    /// End-of-run cycle count under configuration B.
    pub end_b: u64,
    /// First cycle (≤ `min(end_a, end_b)`) where
    /// [`Machine::state_digest`] differs, or `None` when the digests still
    /// match at the comparison horizon.
    pub first_divergence: Option<u64>,
    /// Bisection probes performed.
    pub probes: u32,
}

/// Binary-searches the first cycle at which running `name` under `cfg_a`
/// and `cfg_b` produces different architectural state ([`Machine::state_digest`]:
/// committed counts, registers, resume pcs, queue contents, memory).
///
/// The search keeps a snapshot of both machines at the highest cycle
/// known to agree and probes by restore + [`Machine::run_to_cycle`], so
/// each probe replays only the `lo..mid` segment. Divergence is assumed
/// to persist up to the comparison horizon `min(end_a, end_b)` — true for
/// timing divergences, which is what differing configurations produce; if
/// the digests match at the horizon the result is `None`.
pub fn bisect(
    name: &str,
    scale: Scale,
    seed: u64,
    model: Model,
    cfg_a: MachineConfig,
    cfg_b: MachineConfig,
) -> BisectResult {
    let (_, env, compiled) = compile_named(name, scale, seed);

    let run_end = |cfg: MachineConfig| {
        hidisc::run_model(model, &compiled, &env, cfg)
            .unwrap_or_else(|e| panic!("{name} on {model}: {e}"))
            .cycles
    };
    let (end_a, end_b) = (run_end(cfg_a), run_end(cfg_b));
    let horizon = end_a.min(end_b);

    // Machines pinned at `lo`, the highest cycle known to agree.
    let mut lo_a = Machine::new(model, &compiled, &env, cfg_a);
    let mut lo_b = Machine::new(model, &compiled, &env, cfg_b);
    assert_eq!(
        lo_a.state_digest(),
        lo_b.state_digest(),
        "{name} on {model}: initial states differ — nothing to bisect"
    );
    let mut lo = 0u64;
    let mut probes = 0u32;

    // One probe: advance clones of the `lo` machines to cycle `c` and
    // compare digests, returning the advanced machines for reuse.
    let probe = |lo_a: &Machine, lo_b: &Machine, c: u64| -> (bool, Machine, Machine) {
        let mut a = lo_a.clone();
        let mut b = lo_b.clone();
        a.run_to_cycle(c)
            .unwrap_or_else(|e| panic!("{name} on {model} (A): {e}"));
        b.run_to_cycle(c)
            .unwrap_or_else(|e| panic!("{name} on {model} (B): {e}"));
        (a.state_digest() != b.state_digest(), a, b)
    };

    let (diverged_at_horizon, _, _) = probe(&lo_a, &lo_b, horizon);
    probes += 1;
    if !diverged_at_horizon {
        return BisectResult {
            name: name.to_string(),
            model,
            end_a,
            end_b,
            first_divergence: None,
            probes,
        };
    }

    let mut hi = horizon;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (diverged, a, b) = probe(&lo_a, &lo_b, mid);
        probes += 1;
        if diverged {
            hi = mid;
        } else {
            lo = mid;
            lo_a = a;
            lo_b = b;
        }
    }
    BisectResult {
        name: name.to_string(),
        model,
        end_a,
        end_b,
        first_divergence: Some(hi),
        probes,
    }
}

/// [`Report`] for `repro bisect`.
#[derive(Debug, Clone)]
pub struct BisectReport(pub BisectResult);

impl Report for BisectReport {
    fn render_text(&self) -> String {
        let r = &self.0;
        let verdict = match r.first_divergence {
            Some(c) => format!(
                "first architectural divergence at cycle {c} \
                 (digests agree through cycle {})",
                c - 1
            ),
            None => format!(
                "no architectural divergence through cycle {} (comparison horizon)",
                r.end_a.min(r.end_b)
            ),
        };
        format!(
            "bisect {} on {}: config A ends at cycle {}, config B at {}\n{verdict} — {} probe(s)\n",
            r.name, r.model, r.end_a, r.end_b, r.probes
        )
    }

    fn render_csv(&self) -> String {
        let r = &self.0;
        format!(
            "workload,model,end_a,end_b,first_divergence,probes\n{},{},{},{},{},{}\n",
            r.name,
            r.model,
            r.end_a,
            r.end_b,
            r.first_divergence
                .map(|c| c.to_string())
                .unwrap_or_default(),
            r.probes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_run_estimates_cycles_and_preserves_results() {
        // `field` has stable per-window CPI, so even the small Test scale
        // yields several windows and an estimate inside the reported band.
        let c = compare_sampled(
            "field",
            Scale::Test,
            7,
            Model::HiDisc,
            MachineConfig::paper(),
            500,
            2000,
        );
        assert!(
            c.windows >= 5,
            "expected several windows, got {}",
            c.windows
        );
        assert!(c.rel_error_band.is_finite());
        assert!(
            c.within_band(),
            "estimate off by {:.1}% (band {:.1}%)",
            100.0 * c.rel_error(),
            100.0 * c.rel_error_band
        );
        // compare_sampled itself asserts the memory checksum and committed
        // counts match the exact run.

        // Sampling is cheaper than the exact run in simulated work, not just
        // host time: functional warm phases step the machine fewer times
        // than the detailed run has cycles.
        let (_, env, compiled) = compile_named("field", Scale::Test, 7);
        let mut m = Machine::new(Model::HiDisc, &compiled, &env, MachineConfig::paper());
        let s = m
            .run_sampled(compiled.profile.dyn_instrs, 500, 2000)
            .expect("sampled run");
        assert!(
            s.stats.cycles < c.exact_cycles,
            "sampled run stepped {} iterations, exact run {} cycles",
            s.stats.cycles,
            c.exact_cycles
        );
    }

    #[test]
    fn sampled_band_is_honest_on_phased_workloads() {
        // `pointer` has strongly phased CPI: few windows, each seeing a
        // different phase. The point estimate is allowed to be far off —
        // but the reported confidence band must cover the truth.
        let c = compare_sampled(
            "pointer",
            Scale::Test,
            7,
            Model::HiDisc,
            MachineConfig::paper(),
            200,
            1000,
        );
        assert!(
            c.windows >= 2,
            "expected several windows, got {}",
            c.windows
        );
        assert!(
            c.rel_error().abs() <= c.rel_error_band,
            "estimate off by {:.1}% but band is only {:.1}%",
            100.0 * c.rel_error(),
            100.0 * c.rel_error_band
        );
    }

    #[test]
    fn sampled_suite_agrees_across_models() {
        // The cross-model memory check inside run_suite_sampled is the
        // assertion; a panic here means sampling corrupted execution.
        let results = run_suite_sampled(Scale::Test, 3, MachineConfig::paper(), 500, 2000);
        assert_eq!(results.len(), 7);
        for r in &results {
            for s in &r.per_model {
                assert!(s.cycles > 0, "{}: zero estimated cycles", r.name);
            }
        }
    }

    #[test]
    fn bisect_finds_reproducible_divergence() {
        let a = MachineConfig::paper_with_latency(4, 40);
        let b = MachineConfig::paper_with_latency(16, 160);
        let r1 = bisect("pointer", Scale::Test, 7, Model::HiDisc, a, b);
        let c1 = r1
            .first_divergence
            .expect("a 4x latency change must diverge");
        assert!(c1 <= r1.end_a.min(r1.end_b));
        // Deterministic: a second search lands on the same cycle.
        let r2 = bisect("pointer", Scale::Test, 7, Model::HiDisc, a, b);
        assert_eq!(r2.first_divergence, Some(c1));
        assert!(!BisectReport(r1).render_text().is_empty());
    }

    #[test]
    fn bisect_of_identical_configs_reports_no_divergence() {
        let cfg = MachineConfig::paper();
        let r = bisect("update", Scale::Test, 3, Model::Superscalar, cfg, cfg);
        assert_eq!(r.first_divergence, None);
        assert_eq!(r.end_a, r.end_b);
        assert!(BisectReport(r).render_csv().ends_with(",,1\n"));
    }
}
