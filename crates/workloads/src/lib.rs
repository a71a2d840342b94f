//! # hidisc-workloads — the DIS benchmark and Stressmark kernels
//!
//! The paper evaluates HiDISC on the Atlantic Aerospace *Data-Intensive
//! Systems* benchmark suite and *DIS Stressmark* suite. The original
//! distributions are long gone; this crate reimplements the seven kernels
//! the paper reports (its Figures 8-10) directly in DISA assembly from the
//! published kernel definitions, with seeded synthetic data generators
//! that reproduce each kernel's memory-access class:
//!
//! | name | suite | access pattern |
//! |------|-------|----------------|
//! | `dm` | DIS | hash-index lookup + record gather (database) |
//! | `raytrace` | DIS | grid traversal + object gather + FP intersection |
//! | `pointer` | Stressmark | serial pointer chasing with window scans |
//! | `update` | Stressmark | indexed gather-modify-scatter |
//! | `field` | Stressmark | streaming byte scan (token matching) |
//! | `neighborhood` | Stressmark | image pair sampling + histogram update |
//! | `tc` | Stressmark | Floyd-Warshall transitive closure |
//!
//! Two further Stressmark members the paper did not plot are provided as
//! [`extras`]: `cornerturn` (matrix transpose) and `matrix` (sparse
//! matrix-vector products, the CG kernel).
//!
//! Every workload is a [`Workload`]: a sequential DISA program, an initial
//! register/memory state, and a Rust *reference result* recomputed
//! natively so tests can verify the kernel end-to-end.

#![forbid(unsafe_code)]

pub mod cornerturn;
pub mod dm;
pub mod field;
pub mod gen;
pub mod matrix;
pub mod micro;
pub mod neighborhood;
pub mod pointer;
pub mod raytrace;
pub mod tc;
pub mod update;

use hidisc_isa::mem::Memory;
use hidisc_isa::{IntReg, Program};

/// A ready-to-run benchmark kernel.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// The sequential DISA binary.
    pub prog: Program,
    /// Initial integer registers (parameters and base addresses).
    pub regs: Vec<(IntReg, i64)>,
    /// Initial data image.
    pub mem: Memory,
    /// Functional step budget (generously above the expected dynamic
    /// instruction count).
    pub max_steps: u64,
    /// Address of the 8-byte result word the kernel writes, and the value
    /// a correct run must leave there (computed natively by the
    /// generator).
    pub expected: Option<(u64, i64)>,
}

/// Problem-size scaling for the whole suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for unit tests (thousands of dynamic instructions).
    Test,
    /// The sizes used by the paper-reproduction experiments.
    Paper,
    /// ~4x the paper sizes, for longer-running studies.
    Large,
}

impl Scale {
    /// The lowercase name the CLI and the service's JSON use.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Paper => "paper",
            Scale::Large => "large",
        }
    }

    /// Parses a [`Scale::name`]; the error is the message the CLI prints
    /// and the service answers with.
    pub fn parse(s: &str) -> Result<Scale, String> {
        [Scale::Test, Scale::Paper, Scale::Large]
            .into_iter()
            .find(|scale| scale.name() == s)
            .ok_or_else(|| format!("unknown scale `{s}` (use test|paper|large)"))
    }
}

/// Builds the full seven-benchmark suite in the paper's presentation
/// order (DM, RayTrace, Pointer, Update, Field, Neighborhood, TC).
pub fn suite(scale: Scale, seed: u64) -> Vec<Workload> {
    vec![
        dm::build(&dm::Params::at(scale), seed),
        raytrace::build(&raytrace::Params::at(scale), seed),
        pointer::build(&pointer::Params::at(scale), seed),
        update::build(&update::Params::at(scale), seed),
        field::build(&field::Params::at(scale), seed),
        neighborhood::build(&neighborhood::Params::at(scale), seed),
        tc::build(&tc::Params::at(scale), seed),
    ]
}

/// The remaining DIS Stressmark suite members the paper did not plot
/// (Corner-Turn, Matrix), provided for suite completeness. Not part of
/// [`suite`] — the paper-reproduction experiments use exactly its seven.
pub fn extras(scale: Scale, seed: u64) -> Vec<Workload> {
    vec![
        cornerturn::build(&cornerturn::Params::at(scale), seed),
        matrix::build(&matrix::Params::at(scale), seed),
    ]
}

/// Looks up one workload by name, searching the paper suite first and the
/// extras second.
pub fn by_name(name: &str, scale: Scale, seed: u64) -> Option<Workload> {
    suite(scale, seed)
        .into_iter()
        .chain(extras(scale, seed))
        .chain(micro::micro_suite(scale, seed))
        .find(|w| w.name == name)
}

/// Every workload name [`by_name`] accepts, in suite/extras/micro order.
/// Built once (from the cheap Test-scale generators) so request
/// validation doesn't regenerate workload memory images.
pub fn names() -> &'static [&'static str] {
    static NAMES: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    NAMES.get_or_init(|| {
        suite(Scale::Test, 0)
            .into_iter()
            .chain(extras(Scale::Test, 0))
            .chain(micro::micro_suite(Scale::Test, 0))
            .map(|w| w.name)
            .collect()
    })
}

/// Common memory-layout constants shared by the generators: workloads
/// place their data well apart so accidental overlap is impossible.
pub mod layout {
    /// First data region.
    pub const REGION_A: u64 = 0x0010_0000;
    /// Second data region.
    pub const REGION_B: u64 = 0x0080_0000;
    /// Third data region.
    pub const REGION_C: u64 = 0x00F0_0000;
    /// Result cell.
    pub const RESULT: u64 = 0x0200_0000;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::interp::Interp;

    /// Every suite member must run functionally and produce its expected
    /// result.
    #[test]
    fn suite_runs_and_validates_at_test_scale() {
        for w in suite(Scale::Test, 42) {
            let mut i = Interp::new(&w.prog, w.mem.clone());
            for &(r, v) in &w.regs {
                i.set_reg(r, v);
            }
            let stats = i
                .run(w.max_steps)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                stats.instrs > 100,
                "{} trivially short: {}",
                w.name,
                stats.instrs
            );
            if let Some((addr, want)) = w.expected {
                let got = i.mem.read_i64(addr).unwrap();
                assert_eq!(got, want, "{} wrong result", w.name);
            }
        }
    }

    #[test]
    fn suite_has_seven_distinct_names() {
        let names: Vec<&str> = suite(Scale::Test, 1).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "dm",
                "raytrace",
                "pointer",
                "update",
                "field",
                "neighborhood",
                "tc"
            ]
        );
    }

    #[test]
    fn by_name_finds_members() {
        assert!(by_name("tc", Scale::Test, 1).is_some());
        assert!(by_name("cornerturn", Scale::Test, 1).is_some());
        assert!(by_name("matrix", Scale::Test, 1).is_some());
        assert!(by_name("nope", Scale::Test, 1).is_none());
    }

    #[test]
    fn names_match_by_name() {
        let ns = names();
        assert!(ns.contains(&"dm") && ns.contains(&"matrix"));
        for n in ns {
            assert!(by_name(n, Scale::Test, 1).is_some(), "{n} not resolvable");
        }
    }

    #[test]
    fn extras_run_and_validate_at_test_scale() {
        for w in extras(Scale::Test, 42) {
            let mut i = Interp::new(&w.prog, w.mem.clone());
            for &(r, v) in &w.regs {
                i.set_reg(r, v);
            }
            i.run(w.max_steps)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            if let Some((addr, want)) = w.expected {
                assert_eq!(
                    i.mem.read_i64(addr).unwrap(),
                    want,
                    "{} wrong result",
                    w.name
                );
            }
        }
    }

    #[test]
    fn seeds_change_data_but_not_structure() {
        let a = by_name("pointer", Scale::Test, 1).unwrap();
        let b = by_name("pointer", Scale::Test, 2).unwrap();
        assert_eq!(a.prog.len(), b.prog.len());
        assert_ne!(a.mem.checksum(), b.mem.checksum());
    }

    #[test]
    fn programs_validate() {
        for w in suite(Scale::Test, 7) {
            w.prog
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
