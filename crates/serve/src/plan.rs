//! The batch sweep planner behind `POST /v1/sweep` (DESIGN.md §19).
//!
//! `POST /v1/run` evaluates one [`JobSpec`]; the paper's headline
//! artifacts (fig8/fig9/fig10, table 1) are *grids* of them. This module
//! expands a parameter grid into deduplicated, content-addressed
//! [`ResolvedJob`]s, derives an order-independent sweep id from the
//! expanded point set, and re-assembles figure/table CSV from completed
//! points via `hidisc-bench`'s [`Report`] types. It is pure: no sockets,
//! no threads.
//!
//! Three properties carry the design:
//!
//! * **Shared content addressing.** A grid point *is* a [`JobSpec`], so
//!   it builds its config and key through the same methods as a
//!   `/v1/run` request and shares its cache entries.
//! * **Order-independent identity.** [`sweep_id`] hashes the *sorted*
//!   deduplicated key set, so the same grid written with axes in a
//!   different order names the same sweep and coalesces server-side.
//! * **Byte-identical rendering.** [`render_csv`] rebuilds report inputs
//!   with [`MachineStats::minimal`] and renders through the same
//!   `hidisc-bench` report types the `repro` CLI uses — same `f64`
//!   arithmetic, same formatting — so a sweep-rendered figure compares
//!   byte-for-byte (`cmp`) against `repro --format csv` output.

use std::collections::HashSet;

use hidisc::{fnv1a, ConfigError, MachineStats, Model, FNV_OFFSET};
use hidisc_bench::{
    fig8, fig9, Fig10Report, Fig10Series, Fig8Report, Fig9Report, Report, SuiteResult,
    Table1Report, FIG10_LATENCIES,
};
use hidisc_workloads::Scale;

use crate::{workload_name, JobSpec, ResolvedJob};

/// Upper bound on expanded points per sweep. Large enough for every
/// paper grid (fig10 is 2 workloads x 4 latencies x 4 models = 32) with
/// two orders of magnitude of headroom; small enough that a single
/// request cannot queue unbounded work.
pub const MAX_POINTS: usize = 4096;

/// The order-independent sweep identity: an FNV-1a fold over the
/// *sorted, deduplicated* point-key set under a domain-separation tag.
/// Axis order, point order and duplicate points cannot change it.
pub fn sweep_id(keys: &[u64]) -> u64 {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut h = fnv1a(FNV_OFFSET, b"hidisc-sweep-v1");
    for k in &sorted {
        h = fnv1a(h, &k.to_le_bytes());
    }
    h
}

// ---------------------------------------------------------------------
// Grids and expansion
// ---------------------------------------------------------------------

/// A parameter grid: the cartesian product of its axes. Every axis but
/// `workloads` has a default (see [`Grid::default`]); override axes are
/// `Option`-valued with `None` meaning the paper configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Workload names (required, non-empty).
    pub workloads: Vec<String>,
    /// Models to evaluate; defaults to all four.
    pub models: Vec<Model>,
    /// Problem scales; defaults to `[test]`.
    pub scales: Vec<Scale>,
    /// Workload seeds; defaults to `[2003]` (the CLI default).
    pub seeds: Vec<u64>,
    /// Paired `(l2, mem)` latency points — paired, not a product, so the
    /// fig10 sweep is 4 points, not 16. `None` = paper latencies.
    pub latencies: Vec<Option<(u32, u32)>>,
    /// SCQ depth overrides; `None` = paper depth.
    pub scq_depths: Vec<Option<usize>>,
    /// Per-point cycle budget, applied to every point (scalar, not an
    /// axis: budgets bound the grid, they are not an experiment axis).
    pub max_cycles: Option<u64>,
}

impl Default for Grid {
    fn default() -> Grid {
        Grid {
            workloads: Vec::new(),
            models: Model::ALL.to_vec(),
            scales: vec![Scale::Test],
            seeds: vec![2003],
            latencies: vec![None],
            scq_depths: vec![None],
            max_cycles: None,
        }
    }
}

/// True when two points differ at most in the model axis — the grouping
/// figure assembly relies on (a figure compares models of one
/// otherwise-identical experiment).
fn same_experiment(a: &JobSpec, b: &JobSpec) -> bool {
    JobSpec {
        model: b.model,
        ..a.clone()
    } == *b
}

/// A planned sweep: deduplicated points in deterministic expansion
/// order (workload-major, model innermost) and the order-independent
/// sweep id.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Order-independent identity of the point set (see [`sweep_id`]).
    pub id: u64,
    /// Unique points, first occurrence kept, in expansion order.
    pub points: Vec<ResolvedJob>,
    /// How many expanded points were dropped as duplicates.
    pub duplicates: usize,
}

/// Why a grid does not plan.
#[derive(Debug, Clone)]
pub enum PlanError {
    /// The grid is malformed: no workloads, an unknown workload, an
    /// empty axis, or too many points.
    Grid(String),
    /// A point's machine configuration is invalid.
    Config(ConfigError),
}

impl PlanError {
    /// The error-envelope code: the typed [`ConfigError::code`] for an
    /// invalid configuration (as `POST /v1/run` answers), `bad_request`
    /// otherwise.
    pub fn code(&self) -> &'static str {
        match self {
            PlanError::Grid(_) => "bad_request",
            PlanError::Config(e) => e.code(),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Grid(msg) => f.write_str(msg),
            PlanError::Config(e) => e.fmt(f),
        }
    }
}

/// Expands a grid into a deduplicated, content-addressed [`Plan`].
///
/// Expansion order is workload-major with the model axis innermost, so
/// each workload's model block is contiguous and workloads appear in the
/// request's order — a grid listing the suite in presentation order
/// renders figures in presentation order. A point is the `/v1/run` spec
/// with no timeout and no telemetry, so it hashes (and caches) like its
/// plain `/v1/run` twin. Errors (unknown workload, empty axis, invalid
/// configuration, too many points) are returned as the same diagnostics
/// `repro`'s flag validation would print.
pub fn plan(grid: &Grid) -> Result<Plan, PlanError> {
    if grid.workloads.is_empty() {
        return Err(PlanError::Grid(
            "grid has no workloads (field `workloads` must be a non-empty array)".into(),
        ));
    }
    for w in &grid.workloads {
        workload_name(w).map_err(PlanError::Grid)?;
    }
    for (axis, len) in [
        ("models", grid.models.len()),
        ("scales", grid.scales.len()),
        ("seeds", grid.seeds.len()),
        ("latencies", grid.latencies.len()),
        ("scq_depths", grid.scq_depths.len()),
    ] {
        if len == 0 {
            return Err(PlanError::Grid(format!(
                "axis `{axis}` is empty (omit it to use the default)"
            )));
        }
    }
    let total = [
        grid.workloads.len(),
        grid.models.len(),
        grid.scales.len(),
        grid.seeds.len(),
        grid.latencies.len(),
        grid.scq_depths.len(),
    ]
    .iter()
    .try_fold(1usize, |acc, &n| {
        acc.checked_mul(n).filter(|&t| t <= MAX_POINTS)
    })
    .ok_or_else(|| PlanError::Grid(format!("grid expands to more than {MAX_POINTS} points")))?;
    debug_assert!(total <= MAX_POINTS);

    let mut points = Vec::with_capacity(total);
    let mut seen = HashSet::with_capacity(total);
    let mut duplicates = 0;
    for workload in &grid.workloads {
        for &latency in &grid.latencies {
            for &scq_depth in &grid.scq_depths {
                for &scale in &grid.scales {
                    for &seed in &grid.seeds {
                        for &model in &grid.models {
                            let job = JobSpec {
                                workload: workload.clone(),
                                scale,
                                seed,
                                model,
                                l2_lat: latency.map(|(l2, _)| l2),
                                mem_lat: latency.map(|(_, mem)| mem),
                                scq_depth,
                                max_cycles: grid.max_cycles,
                                ..JobSpec::default()
                            }
                            .resolve()
                            .map_err(PlanError::Config)?;
                            if seen.insert(job.key) {
                                points.push(job);
                            } else {
                                duplicates += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    let keys: Vec<u64> = points.iter().map(|p| p.key).collect();
    Ok(Plan {
        id: sweep_id(&keys),
        points,
        duplicates,
    })
}

// ---------------------------------------------------------------------
// Figure assembly from completed points
// ---------------------------------------------------------------------

/// Which artifact to assemble from the completed point set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Render {
    Fig8,
    Fig9,
    Fig10,
    Table1,
}

impl Render {
    /// All render targets, for diagnostics.
    pub const ALL: [Render; 4] = [Render::Fig8, Render::Fig9, Render::Fig10, Render::Table1];

    /// The wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Render::Fig8 => "fig8",
            Render::Fig9 => "fig9",
            Render::Fig10 => "fig10",
            Render::Table1 => "table1",
        }
    }

    /// Parses a wire/CLI name.
    pub fn parse(s: &str) -> Result<Render, String> {
        Render::ALL
            .into_iter()
            .find(|r| r.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Render::ALL.iter().map(|r| r.name()).collect();
                format!("unknown render target `{s}` (use {})", names.join("|"))
            })
    }
}

/// The per-point measures figure assembly needs, as parsed back from a
/// completed job's serialised stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointStats {
    pub cycles: u64,
    pub work_instrs: u64,
    pub l1_demand_accesses: u64,
    pub l1_demand_misses: u64,
}

impl PointStats {
    /// Rebuilds a [`MachineStats`] carrying exactly these measures.
    pub fn to_machine_stats(self, model: Model) -> MachineStats {
        MachineStats::minimal(
            model,
            self.cycles,
            self.work_instrs,
            self.l1_demand_accesses,
            self.l1_demand_misses,
        )
    }
}

/// Workloads in first-appearance order with the indices of their points.
fn group_by_workload<'a>(points: &[&'a ResolvedJob]) -> Vec<(&'a str, Vec<usize>)> {
    let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        match groups.iter_mut().find(|(w, _)| *w == p.spec.workload) {
            Some((_, idx)) => idx.push(i),
            None => groups.push((&p.spec.workload, vec![i])),
        }
    }
    groups
}

/// Rebuilds fig8/fig9 inputs: one [`SuiteResult`] per workload, models
/// in [`Model::ALL`] order. Requires exactly one point per
/// `(workload, model)` and a single experiment per workload.
fn suites(points: &[&ResolvedJob], stats: &[PointStats]) -> Result<Vec<SuiteResult>, String> {
    let mut out = Vec::new();
    for (workload, idx) in group_by_workload(points) {
        if idx.len() != Model::ALL.len() {
            return Err(format!(
                "figure rendering needs exactly one point per (workload, model); \
                 `{workload}` has {} points (narrow the grid or drop `render`)",
                idx.len()
            ));
        }
        let first = &points[idx[0]].spec;
        if let Some(&i) = idx
            .iter()
            .find(|&&i| !same_experiment(&points[i].spec, first))
        {
            return Err(format!(
                "figure rendering compares models of one experiment; `{workload}` \
                 points differ beyond the model axis (e.g. point {:016x})",
                points[i].key
            ));
        }
        let mut per_model = Vec::with_capacity(Model::ALL.len());
        for model in Model::ALL {
            let &i = idx
                .iter()
                .find(|&&i| points[i].spec.model == model)
                .ok_or_else(|| {
                    format!(
                        "figure rendering needs model `{}` for `{workload}`",
                        model.name()
                    )
                })?;
            per_model.push(stats[i].to_machine_stats(model));
        }
        out.push(SuiteResult {
            name: workload_name(workload)?,
            per_model,
        });
    }
    Ok(out)
}

/// Rebuilds fig10 input: each workload must cover exactly
/// [`FIG10_LATENCIES`] x [`Model::ALL`].
fn fig10_series(points: &[&ResolvedJob], stats: &[PointStats]) -> Result<Vec<Fig10Series>, String> {
    let mut out = Vec::new();
    for (workload, idx) in group_by_workload(points) {
        let want = FIG10_LATENCIES.len() * Model::ALL.len();
        if idx.len() != want {
            return Err(format!(
                "fig10 rendering needs exactly the {} latency x model points per workload; \
                 `{workload}` has {}",
                want,
                idx.len()
            ));
        }
        let mut ipc = Vec::with_capacity(FIG10_LATENCIES.len());
        for (l2, mem) in FIG10_LATENCIES {
            let mut row = [0.0; 4];
            for (mi, model) in Model::ALL.into_iter().enumerate() {
                let &i = idx
                    .iter()
                    .find(|&&i| {
                        let p = &points[i].spec;
                        p.model == model && p.l2_lat == Some(l2) && p.mem_lat == Some(mem)
                    })
                    .ok_or_else(|| {
                        format!(
                            "fig10 rendering needs latency {l2}/{mem} for `{workload}` \
                             on `{}` (use the fig10 latency axis)",
                            model.name()
                        )
                    })?;
                row[mi] = stats[i].to_machine_stats(model).ipc();
            }
            ipc.push(row);
        }
        out.push(Fig10Series {
            name: workload_name(workload)?,
            ipc,
        });
    }
    Ok(out)
}

/// Assembles the requested artifact as CSV from the completed point set.
/// `stats[i]` must correspond to `points[i]`. Rendering goes through the
/// same `hidisc-bench` [`Report`] types as the `repro` CLI, so output is
/// byte-identical to `repro --format csv`.
pub fn render_csv(
    render: Render,
    points: &[&ResolvedJob],
    stats: &[PointStats],
) -> Result<String, String> {
    if points.is_empty() {
        return Err("nothing to render: the sweep has no points".into());
    }
    if points.len() != stats.len() {
        return Err(format!(
            "render needs stats for every point ({} points, {} stats)",
            points.len(),
            stats.len()
        ));
    }
    match render {
        Render::Fig8 => Ok(Fig8Report(fig8(&suites(points, stats)?)).render_csv()),
        Render::Fig9 => Ok(Fig9Report(fig9(&suites(points, stats)?)).render_csv()),
        Render::Fig10 => Ok(Fig10Report(fig10_series(points, stats)?).render_csv()),
        Render::Table1 => Ok(Table1Report(points[0].cfg).render_csv()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc::MachineConfig;

    fn grid(workloads: &[&str]) -> Grid {
        Grid {
            workloads: workloads.iter().map(|w| w.to_string()).collect(),
            ..Grid::default()
        }
    }

    /// The planned points as `render_csv` takes them.
    fn refs(points: &[ResolvedJob]) -> Vec<&ResolvedJob> {
        points.iter().collect()
    }

    #[test]
    fn expansion_is_workload_major_with_models_innermost() {
        let p = plan(&grid(&["dm", "pointer"])).unwrap();
        assert_eq!(p.points.len(), 8);
        assert_eq!(p.duplicates, 0);
        let labels: Vec<(String, Model)> = p
            .points
            .iter()
            .map(|pp| (pp.spec.workload.clone(), pp.spec.model))
            .collect();
        let mut want = Vec::new();
        for w in ["dm", "pointer"] {
            for m in Model::ALL {
                want.push((w.to_string(), m));
            }
        }
        assert_eq!(labels, want);
    }

    #[test]
    fn duplicate_points_are_dropped_keeping_first() {
        let once = plan(&grid(&["dm"])).unwrap();
        let twice = plan(&grid(&["dm", "dm"])).unwrap();
        assert_eq!(twice.points.len(), once.points.len());
        assert_eq!(twice.duplicates, once.points.len());
        assert_eq!(twice.id, once.id);
    }

    #[test]
    fn sweep_id_ignores_order_and_duplicates() {
        let keys = [3u64, 1, 2];
        let id = sweep_id(&keys);
        assert_eq!(id, sweep_id(&[1, 2, 3]));
        assert_eq!(id, sweep_id(&[2, 3, 1, 1, 2]));
        assert_ne!(id, sweep_id(&[1, 2]));
        assert_ne!(id, sweep_id(&[]));
    }

    #[test]
    fn explicit_paper_values_hash_like_defaults() {
        // None and Some(paper value) build the same config, so the
        // planner's dedup also collapses them onto one point.
        let paper = MachineConfig::paper();
        let mut g = grid(&["dm"]);
        g.latencies = vec![None, Some((paper.mem.l2.latency, paper.mem.mem_latency))];
        let p = plan(&g).unwrap();
        assert_eq!(p.points.len(), 4);
        assert_eq!(p.duplicates, 4);
        assert_eq!(p.id, plan(&grid(&["dm"])).unwrap().id);
    }

    #[test]
    fn planner_rejects_bad_grids() {
        assert!(plan(&grid(&[]))
            .unwrap_err()
            .to_string()
            .contains("no workloads"));
        assert!(plan(&grid(&["nope"]))
            .unwrap_err()
            .to_string()
            .contains("unknown workload"));
        let mut empty_axis = grid(&["dm"]);
        empty_axis.seeds.clear();
        assert!(plan(&empty_axis)
            .unwrap_err()
            .to_string()
            .contains("`seeds` is empty"));
        let mut huge = grid(&["dm"]);
        huge.seeds = (0..2048).collect();
        assert!(plan(&huge).unwrap_err().to_string().contains("more than"));
        let mut bad_cfg = grid(&["dm"]);
        bad_cfg.scq_depths = vec![Some(0)];
        assert!(plan(&bad_cfg).is_err());
    }

    #[test]
    fn job_key_matches_the_run_endpoint_contract() {
        // Golden structure: changing any identity axis changes the key.
        let dm = JobSpec {
            workload: "dm".into(),
            ..JobSpec::default()
        };
        let cfg = dm.config().unwrap();
        let key = |edit: fn(&mut JobSpec)| {
            let mut s = dm.clone();
            edit(&mut s);
            s.key(&cfg)
        };
        let base = dm.key(&cfg);
        assert_ne!(base, key(|s| s.workload = "tc".into()));
        assert_ne!(base, key(|s| s.scale = Scale::Paper));
        assert_ne!(base, key(|s| s.seed = 7));
        assert_ne!(base, key(|s| s.model = Model::CpAp));
        assert_ne!(base, key(|s| s.program = Some("nop".into())));
        assert_eq!(base, key(|_| {}));
    }

    #[test]
    fn render_rebuilds_fig8_csv_from_minimal_stats() {
        let p = plan(&grid(&["dm"])).unwrap();
        // Synthetic measures: model i finishes in fewer cycles.
        let stats: Vec<PointStats> = (0..4)
            .map(|i| PointStats {
                cycles: 1000 - 100 * i,
                work_instrs: 500,
                l1_demand_accesses: 100,
                l1_demand_misses: 10 - i,
            })
            .collect();
        let csv = render_csv(Render::Fig8, &refs(&p.points), &stats).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "benchmark,superscalar,cp_ap,cp_cmp,hidisc"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("dm,1.000000,"), "{row}");
        let fig9 = render_csv(Render::Fig9, &refs(&p.points), &stats).unwrap();
        assert!(fig9.starts_with("benchmark,base_miss_rate,"), "{fig9}");
        let table1 = render_csv(Render::Table1, &refs(&p.points), &stats).unwrap();
        assert!(table1.contains("L2 latency"), "{table1}");
    }

    #[test]
    fn render_fig10_requires_the_latency_axis() {
        // The fig10 grid: the paper's two latency-tolerance workloads
        // across FIG10_LATENCIES.
        let fig10_grid = Grid {
            workloads: vec!["pointer".into(), "neighborhood".into()],
            latencies: FIG10_LATENCIES.iter().map(|&p| Some(p)).collect(),
            ..Grid::default()
        };
        let p = plan(&fig10_grid).unwrap();
        assert_eq!(p.points.len(), 32);
        let stats: Vec<PointStats> = (0..32)
            .map(|i| PointStats {
                cycles: 1000 + i,
                work_instrs: 500,
                l1_demand_accesses: 100,
                l1_demand_misses: 5,
            })
            .collect();
        let csv = render_csv(Render::Fig10, &refs(&p.points), &stats).unwrap();
        assert!(
            csv.starts_with("benchmark,l2_latency,mem_latency,"),
            "{csv}"
        );
        assert_eq!(csv.lines().count(), 1 + 8);
        // A grid without the latency axis cannot render fig10.
        let flat = plan(&grid(&["pointer"])).unwrap();
        assert!(render_csv(Render::Fig10, &refs(&flat.points), &stats[..4]).is_err());
    }

    #[test]
    fn render_validates_shape() {
        let p = plan(&grid(&["dm"])).unwrap();
        let stats = vec![
            PointStats {
                cycles: 1,
                work_instrs: 1,
                l1_demand_accesses: 0,
                l1_demand_misses: 0,
            };
            3
        ];
        assert!(render_csv(Render::Fig8, &refs(&p.points), &stats).is_err());
        assert!(render_csv(Render::Fig8, &[], &[]).is_err());
        let mut partial = plan(&grid(&["dm"])).unwrap();
        partial.points.truncate(3);
        let err = render_csv(Render::Fig8, &refs(&partial.points), &stats).unwrap_err();
        assert!(err.contains("one point per"), "{err}");
    }
}
