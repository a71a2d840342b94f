//! # hidisc-verify — static verification of sliced program triples
//!
//! The HiDISC compiler's correctness contract is only *asserted* by the
//! paper: every value the Access Processor pushes into an architectural
//! FIFO is popped exactly once by the Computation Processor on every
//! control-flow path, the Cache Miss Access Slice is a pure speculative
//! prefetch slice, and static queue occupancy stays within the configured
//! depths or the processors deadlock (the paper's Figure 10). This crate
//! checks that contract statically over a [`CompiledWorkload`] triple
//! (Computation Stream, Access Stream, CMAS threads) and reports typed,
//! located diagnostics instead of letting a slicer bug surface as a hung
//! or wrong simulation.
//!
//! Four passes (see DESIGN.md §15 for the lattices and the soundness
//! argument):
//!
//! 1. **queue-balance** ([`balance`]) — the two streams are segmented at
//!    control instructions; corresponding segments must push and pop each
//!    FIFO the same number of times, control skeletons must be isomorphic,
//!    and branch targets must transfer to corresponding points
//!    (codes `QB001`–`QB004`).
//! 2. **depth bounding** ([`depth`]) — the worst-case static occupancy of
//!    each FIFO is computed and compared against the configured depths;
//!    a greedy two-thread simulation of each segment pair detects
//!    capacity-induced deadlock exactly (`DB001`, `DB002`).
//! 3. **CMAS purity** ([`purity`]) — prefetch threads must have no
//!    architectural side effects (`CM001`–`CM004`).
//! 4. **slice-liveness** ([`liveness`]) — a register live across the CP/AP
//!    cut must arrive through a queue or duplicated computation, never be
//!    read uninitialised (`LV001`).
//!
//! The speculation-safety suite (see DESIGN.md §20) extends these with
//! three more passes built for the speculative-slicing refactor:
//!
//! 5. **may-alias / address disambiguation** ([`alias`]) — a flow-sensitive
//!    base+offset abstract domain over the address registers classifies
//!    every AS load against its upstream stores as provably-disjoint,
//!    must-alias, or ambiguous; declared run-ahead windows whose loads
//!    cross a pending may-alias store are flagged (`AL001`, `AL002`).
//! 6. **run-ahead regions** ([`specregion`]) — every conditional branch the
//!    compiler marks [`hidisc_isa::Annot::speculate`] opens a run-ahead
//!    window down the predicted edge; the window's queue traffic must be
//!    squash-safe (`SP001`–`SP003`).
//! 7. **poison liveness** ([`liveness::poison_check`]) — a register defined
//!    inside a speculative window must not be live into the squash path,
//!    or a poison value leaks into committed state (`LV002`).
//!
//! The depth pass computes symbolic loop-aware occupancy intervals
//! (abstract interpretation with widening over the control skeleton); the
//! greedy two-thread simulation is kept as a differential oracle whose
//! observed peaks the symbolic bounds must dominate.
//!
//! The verifier is exposed three ways: `repro check <workload>` in the CLI,
//! a compile-time post-pass ([`compile_verified`]) used by the benchmark
//! harness, and the `POST /v1/run` pre-flight of `hidisc-serve`. The
//! advisory [`speculation`] analysis behind `repro check --speculation`
//! additionally classifies *every* AS branch region — annotated or not —
//! to quantify how much loss-of-decoupling a speculative slicer could
//! recover.

#![forbid(unsafe_code)]

pub mod alias;
pub mod balance;
pub mod depth;
pub mod liveness;
pub mod purity;
pub mod skeleton;
pub mod specregion;

use hidisc_isa::{Program, Queue, SpecDir};
use hidisc_slicer::{CmasThread, CompiledWorkload, CompilerConfig, ExecEnv};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The triple violates the decoupling contract: running it will hang,
    /// diverge from the original program, or have unintended side effects.
    Error,
    /// The triple is correct but fragile (e.g. a static occupancy bound
    /// exceeds a configured queue depth).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// Diagnostic codes, stable across releases (documented in DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    /// Segment push/pop imbalance between producer and consumer stream.
    Qb001,
    /// Control skeletons of the two streams are not isomorphic.
    Qb002,
    /// Control transfer breaks segment correspondence (includes loops whose
    /// net queue delta is non-zero without a matching consumer loop).
    Qb003,
    /// Queue operation in the wrong stream for its transfer direction.
    Qb004,
    /// Static occupancy bound exceeds the configured queue depth.
    Db001,
    /// A segment pair deadlocks under the configured queue depths.
    Db002,
    /// CMAS performs an architectural store.
    Cm001,
    /// CMAS operates on a CP/AP queue (or decrements the SCQ).
    Cm002,
    /// CMAS contains floating-point compute or an untagged memory op.
    Cm003,
    /// Dangling trigger annotation or slip control without CMAS threads.
    Cm004,
    /// Register read maybe-uninitialised in a stream but never in the
    /// original program (a value lost across the CP/AP cut).
    Lv001,
    /// A load in a declared run-ahead window crosses a pending store the
    /// alias pass cannot disambiguate.
    Al001,
    /// A load in a declared run-ahead window must-aliases a pending store:
    /// hoisting it recovers nothing (the value must be forwarded).
    Al002,
    /// A declared run-ahead window pushes a queue whose speculative tail
    /// cannot be flushed on a squash.
    Sp001,
    /// A declared run-ahead window pops a queue: pops are destructive and
    /// cannot be replayed after a squash.
    Sp002,
    /// A declared run-ahead window forks a CMAS thread, which cannot be
    /// recalled once triggered.
    Sp003,
    /// A register defined in a declared run-ahead window is live into the
    /// squash path: a maybe-poisoned value would leak into committed state.
    Lv002,
}

impl Code {
    /// The stable textual form, e.g. `"QB001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Qb001 => "QB001",
            Code::Qb002 => "QB002",
            Code::Qb003 => "QB003",
            Code::Qb004 => "QB004",
            Code::Db001 => "DB001",
            Code::Db002 => "DB002",
            Code::Cm001 => "CM001",
            Code::Cm002 => "CM002",
            Code::Cm003 => "CM003",
            Code::Cm004 => "CM004",
            Code::Lv001 => "LV001",
            Code::Al001 => "AL001",
            Code::Al002 => "AL002",
            Code::Sp001 => "SP001",
            Code::Sp002 => "SP002",
            Code::Sp003 => "SP003",
            Code::Lv002 => "LV002",
        }
    }

    /// The severity every diagnostic with this code carries.
    pub fn severity(self) -> Severity {
        match self {
            // AL00x are advisory: an ambiguous or must-alias load makes the
            // declared window unprofitable (the load cannot issue early),
            // not incorrect — the hardware simply holds it back.
            Code::Db001 | Code::Al001 | Code::Al002 => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: a program of the triple plus an instruction
/// index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// The annotated original binary.
    Original(u32),
    /// The Computation Stream binary.
    Cs(u32),
    /// The Access Stream binary.
    Access(u32),
    /// CMAS thread `id`, instruction index.
    Cmas(u32, u32),
}

impl Loc {
    /// The stream name as used in reports (`"cs"`, `"as"`, `"orig"`,
    /// `"cmas<id>"`).
    pub fn stream_name(self) -> String {
        match self {
            Loc::Original(_) => "orig".into(),
            Loc::Cs(_) => "cs".into(),
            Loc::Access(_) => "as".into(),
            Loc::Cmas(id, _) => format!("cmas{id}"),
        }
    }

    /// The instruction index within the stream.
    pub fn pc(self) -> u32 {
        match self {
            Loc::Original(pc) | Loc::Cs(pc) | Loc::Access(pc) | Loc::Cmas(_, pc) => pc,
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.stream_name(), self.pc())
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub loc: Loc,
    /// The queue involved, when the finding is about a specific FIFO.
    pub queue: Option<Queue>,
    pub msg: String,
}

impl Diagnostic {
    /// Severity, derived from the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    /// `error[QB001] as@5 (LDQ): pushes 3 values the CS pops 2 of`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity(), self.code, self.loc)?;
        if let Some(q) = self.queue {
            write!(f, " ({})", q.name())?;
        }
        write!(f, ": {}", self.msg)
    }
}

/// Configured queue depths the depth-bounding pass checks against. Mirrors
/// the simulator's queue configuration without depending on the timing
/// crates; the CLI and the service convert their `QueueConfig` into this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthConfig {
    pub ldq: usize,
    pub sdq: usize,
    pub cdq: usize,
    pub cq: usize,
    pub scq: usize,
}

impl DepthConfig {
    /// The paper's configuration (Table 2 / Figure 10 sweep default).
    pub fn paper() -> DepthConfig {
        DepthConfig {
            ldq: 32,
            sdq: 32,
            cdq: 32,
            cq: 64,
            scq: 12,
        }
    }

    /// Capacity of one queue.
    pub fn cap(&self, q: Queue) -> usize {
        match q {
            Queue::Ldq => self.ldq,
            Queue::Sdq => self.sdq,
            Queue::Cdq => self.cdq,
            Queue::Cq => self.cq,
            Queue::Scq => self.scq,
        }
    }
}

impl Default for DepthConfig {
    fn default() -> Self {
        DepthConfig::paper()
    }
}

/// Sentinel occupancy bound: the widening operator proved nothing — the
/// queue's occupancy can grow without limit along some loop.
pub const UNBOUNDED: usize = usize::MAX;

/// The static occupancy bound computed for one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueBound {
    pub queue: Queue,
    /// Worst-case occupancy across every reachable point of the control
    /// skeleton (symbolic interval analysis, [`UNBOUNDED`] when a loop's
    /// net delta widens to infinity).
    pub bound: usize,
    /// The configured capacity the bound was checked against.
    pub cap: usize,
}

impl QueueBound {
    /// True when widening gave up: occupancy grows without limit.
    pub fn is_unbounded(&self) -> bool {
        self.bound == UNBOUNDED
    }
}

/// How an AS load relates to the stores that may execute before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AliasVerdict {
    /// Provably disjoint from every upstream store (or no upstream stores).
    Disjoint,
    /// Provably overlaps at least one upstream store; the overlapping
    /// store's value must be forwarded, so hoisting recovers nothing.
    MustAlias,
    /// At least one upstream store cannot be disambiguated.
    Ambiguous,
}

impl AliasVerdict {
    /// Stable lowercase name used in reports ("disjoint", ...).
    pub fn name(self) -> &'static str {
        match self {
            AliasVerdict::Disjoint => "disjoint",
            AliasVerdict::MustAlias => "must-alias",
            AliasVerdict::Ambiguous => "ambiguous",
        }
    }
}

/// Per-load alias classification, one entry per AS load in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadClass {
    /// AS instruction index of the load.
    pub pc: u32,
    /// Worst classification against any upstream store.
    pub verdict: AliasVerdict,
    /// Number of upstream stores the load was compared against.
    pub stores: usize,
    /// AS instruction index of the worst-classified store, when any.
    pub against: Option<u32>,
}

/// One run-ahead region analysed by the speculation report: the window the
/// AS would execute down one edge of a conditional branch before that
/// branch resolves.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionInfo {
    /// AS instruction index of the guarding conditional branch.
    pub branch_pc: u32,
    /// The successor edge the window follows.
    pub dir: SpecDir,
    /// First instruction of the window.
    pub start: u32,
    /// One past the last instruction of the window (exclusive; the window
    /// ends *before* the next control instruction, which is the next
    /// resolution point and never commits speculatively).
    pub end: u32,
    /// True when the compiler declared this window via
    /// [`hidisc_isa::Annot::speculate`].
    pub marked: bool,
    /// True when every commit in the window is squash-safe.
    pub safe: bool,
    /// Description of the first squash hazard when `!safe`.
    pub hazard: Option<String>,
    /// Architectural loads inside the window.
    pub loads: usize,
    /// Loads the AP could issue before the branch resolves: the window is
    /// squash-safe and every pending store is provably disjoint.
    pub hoistable: usize,
}

/// The advisory speculation analysis produced by [`speculation`]: what a
/// speculative slicer could recover on this triple.
#[derive(Debug, Clone, Default)]
pub struct SpeculationReport {
    /// Both edges of every AS conditional branch, in program order.
    pub regions: Vec<RegionInfo>,
    /// Per-load alias classifications for the whole Access Stream.
    pub loads: Vec<LoadClass>,
    /// Total hoistable loads across squash-safe regions.
    pub hoistable: usize,
    /// Total loads inside analysed regions.
    pub region_loads: usize,
}

impl SpeculationReport {
    /// Estimated decoupling-recovery score: the fraction of region loads a
    /// speculative slicer could issue ahead of the guarding branch. Loads
    /// are the decoupling currency — every hoisted load is a load the AP
    /// keeps streaming while a conventional slice would stall at the
    /// unresolved branch (the paper's loss-of-decoupling events).
    pub fn recovery_score(&self) -> f64 {
        if self.region_loads == 0 {
            0.0
        } else {
            self.hoistable as f64 / self.region_loads as f64
        }
    }

    /// Regions that are squash-safe and contain at least one hoistable
    /// load — the regions a speculative slicer would actually annotate.
    pub fn profitable_regions(&self) -> impl Iterator<Item = &RegionInfo> {
        self.regions.iter().filter(|r| r.safe && r.hoistable > 0)
    }
}

/// Everything one [`verify`] run produced.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All findings, in pass order (balance, depth, purity, liveness).
    pub diagnostics: Vec<Diagnostic>,
    /// Static occupancy bound per queue (all five, whether or not used).
    pub bounds: Vec<QueueBound>,
    /// Number of distinct queues with at least one static operation across
    /// the triple — lets callers assert the analysis was non-vacuous.
    pub queues_analysed: usize,
    /// Number of control segments paired between the two streams.
    pub segments: usize,
    /// Per-load alias classifications for the Access Stream, in program
    /// order (always computed; surfaced by `repro check`).
    pub loads: Vec<LoadClass>,
    /// Peak per-queue occupancy observed by the greedy two-thread oracle
    /// (indexed by [`Queue::index`]). The symbolic [`Self::bounds`] must
    /// dominate these — `bench::prepare` debug-asserts it and the
    /// differential tests prove it across every workload.
    pub greedy_peaks: [usize; 5],
}

impl VerifyReport {
    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// True when no diagnostics of any severity were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when no error-severity diagnostics were produced.
    pub fn no_errors(&self) -> bool {
        self.errors().next().is_none()
    }
}

/// A program triple to verify. Borrowed so callers can verify hand-built
/// stream pairs (the negative test corpus) without a full compile.
#[derive(Debug, Clone, Copy)]
pub struct VerifyInput<'a> {
    /// The annotated original binary, when available. Used as the baseline
    /// for the liveness pass; without it `LV001` cannot be decided and the
    /// pass is skipped.
    pub original: Option<&'a Program>,
    /// The Computation Stream binary.
    pub cs: &'a Program,
    /// The Access Stream binary.
    pub access: &'a Program,
    /// CMAS prefetch threads.
    pub cmas: &'a [CmasThread],
    /// Queue depths to bound against.
    pub depths: DepthConfig,
}

impl<'a> VerifyInput<'a> {
    /// Borrows a compiled workload as verifier input.
    pub fn of(w: &'a CompiledWorkload, depths: DepthConfig) -> VerifyInput<'a> {
        VerifyInput {
            original: Some(&w.original),
            cs: &w.cs,
            access: &w.access,
            cmas: &w.cmas,
            depths,
        }
    }
}

/// Runs all four passes over a triple and collects the findings.
pub fn verify(input: &VerifyInput) -> VerifyReport {
    let mut report = VerifyReport::default();

    let seg_cs = skeleton::segments(input.cs);
    let seg_as = skeleton::segments(input.access);

    if let Some(orig) = input.original {
        skeleton::check_original(orig, &mut report.diagnostics);
    }
    skeleton::check_directions(&seg_cs, &seg_as, &mut report.diagnostics);
    let balanced = balance::check(
        input.cs,
        input.access,
        &seg_cs,
        &seg_as,
        &mut report.diagnostics,
    );
    depth::check(
        input.cs,
        input.access,
        &seg_cs,
        &seg_as,
        &balanced,
        input.cmas,
        input.depths,
        &mut report,
    );
    purity::check(input.access, input.cmas, &mut report.diagnostics);
    if let Some(orig) = input.original {
        liveness::check(orig, input.cs, input.access, &mut report.diagnostics);
    }
    report.loads = alias::classify_loads(input.access);
    specregion::check(input.access, &mut report.diagnostics);
    alias::check(input.access, &mut report.diagnostics);
    liveness::poison_check(input.access, &mut report.diagnostics);

    report.segments = seg_cs.len().min(seg_as.len());
    let mut used = [false; Queue::ALL.len()];
    for seg in seg_cs.iter().chain(seg_as.iter()) {
        for &(_, op) in &seg.ops {
            used[op.queue().index()] = true;
        }
    }
    for t in input.cmas {
        for seg in skeleton::segments(&t.prog) {
            for &(_, op) in &seg.ops {
                used[op.queue().index()] = true;
            }
        }
    }
    report.queues_analysed = used.iter().filter(|&&u| u).count();
    report
}

/// Runs the advisory speculation analysis over a triple: classifies both
/// edges of every AS conditional branch as a prospective run-ahead region
/// (squash-safe or not, hoistable-load counts) and every AS load against
/// its upstream stores. This is the planning data for the speculative
/// slicer: `repro check <workload> --speculation` renders it.
pub fn speculation(input: &VerifyInput) -> SpeculationReport {
    let mut report = SpeculationReport {
        regions: specregion::analyse(input.access),
        loads: alias::classify_loads(input.access),
        ..SpeculationReport::default()
    };
    for r in &report.regions {
        report.region_loads += r.loads;
        if r.safe {
            report.hoistable += r.hoistable;
        }
    }
    report
}

/// Why [`compile_verified`] failed.
#[derive(Debug)]
pub enum VerifyError {
    /// The compiler itself rejected the program.
    Compile(hidisc_isa::IsaError),
    /// The compiled triple failed verification; the report holds every
    /// diagnostic (at least one error).
    Rejected(Box<VerifyReport>),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Compile(e) => write!(f, "compile error: {e}"),
            VerifyError::Rejected(r) => match r.errors().next() {
                Some(d) => write!(f, "{d}"),
                None => write!(f, "verification rejected the program"),
            },
        }
    }
}

impl std::error::Error for VerifyError {}

/// Compiles a sequential program and verifies the resulting triple: the
/// slicer post-pass. Returns the workload together with the (error-free)
/// report — warnings and depth bounds remain available to the caller.
pub fn compile_verified(
    prog: &Program,
    env: &ExecEnv,
    cfg: &CompilerConfig,
    depths: DepthConfig,
) -> Result<(CompiledWorkload, VerifyReport), VerifyError> {
    // A source program operating on the architectural queues would fail
    // deep inside the profiler with an opaque interpreter error; reject it
    // here with the located QB004 diagnostic instead.
    let mut pre = Vec::new();
    skeleton::check_original(prog, &mut pre);
    if !pre.is_empty() {
        return Err(VerifyError::Rejected(Box::new(VerifyReport {
            diagnostics: pre,
            ..VerifyReport::default()
        })));
    }
    let compiled = hidisc_slicer::compile(prog, env, cfg).map_err(VerifyError::Compile)?;
    let report = verify(&VerifyInput::of(&compiled, depths));
    if report.no_errors() {
        Ok((compiled, report))
    } else {
        Err(VerifyError::Rejected(Box::new(report)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::asm::assemble;

    #[test]
    fn code_strings_and_severities() {
        assert_eq!(Code::Qb001.as_str(), "QB001");
        assert_eq!(Code::Lv001.as_str(), "LV001");
        assert_eq!(Code::Db001.severity(), Severity::Warning);
        assert_eq!(Code::Db002.severity(), Severity::Error);
        assert_eq!(Code::Cm001.severity(), Severity::Error);
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            code: Code::Qb001,
            loc: Loc::Access(5),
            queue: Some(Queue::Ldq),
            msg: "pushes 3, CS pops 2".into(),
        };
        assert_eq!(
            d.to_string(),
            "error[QB001] as@5 (LDQ): pushes 3, CS pops 2"
        );
        let d2 = Diagnostic {
            code: Code::Db001,
            loc: Loc::Cmas(1, 4),
            queue: None,
            msg: "m".into(),
        };
        assert_eq!(d2.to_string(), "warning[DB001] cmas1@4: m");
    }

    #[test]
    fn depth_config_caps() {
        let d = DepthConfig::paper();
        assert_eq!(d.cap(Queue::Ldq), 32);
        assert_eq!(d.cap(Queue::Cq), 64);
        assert_eq!(d.cap(Queue::Scq), 12);
    }

    #[test]
    fn compile_verified_rejects_queue_ops_in_the_source() {
        let prog = assemble("t", "li r1, 1\nsend LDQ, r1\nhalt").unwrap();
        let env = ExecEnv {
            regs: vec![],
            mem: hidisc_isa::mem::Memory::new(),
            max_steps: 100,
        };
        let err = compile_verified(
            &prog,
            &env,
            &CompilerConfig::default(),
            DepthConfig::paper(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("QB004"), "{msg}");
        assert!(msg.contains("orig@1"), "{msg}");
    }

    #[test]
    fn trivially_balanced_pair_is_clean() {
        // AS pushes one LDQ value, CS pops it; both halt.
        let access = assemble("as", "ld.q LDQ, 0(r2)\nhalt").unwrap();
        let cs = assemble("cs", "recv r4, LDQ\nhalt").unwrap();
        let input = VerifyInput {
            original: None,
            cs: &cs,
            access: &access,
            cmas: &[],
            depths: DepthConfig::paper(),
        };
        let r = verify(&input);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.segments, 1);
        assert!(r.queues_analysed >= 1);
        assert_eq!(r.bounds.len(), Queue::ALL.len());
    }
}
