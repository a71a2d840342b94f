//! Machine-level configuration: the four models of the paper and the
//! Table-1 parameter presets.

use crate::cmp::CmpConfig;
use hidisc_mem::{CacheConfig, MemConfig};
use hidisc_ooo::{CoreConfig, QueueConfig, MAX_RUU_SIZE};
use hidisc_telemetry::TraceConfig;

/// One FNV-1a 64-bit step over `bytes`, continuing from `state` (seed
/// with [`FNV_OFFSET`]). Exposed so callers can extend a configuration's
/// content-address with more key material (workload name, seed, model).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a 64-bit offset basis (initial `state` for [`fnv1a`]).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The four architecture models evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// The 8-issue baseline superscalar.
    Superscalar,
    /// Conventional access/execute decoupling: CP + AP.
    CpAp,
    /// Cache prefetching only: the superscalar core plus the CMP
    /// (the paper notes this model is "quite close to DDMT and Speculative
    /// Precomputation").
    CpCmp,
    /// The complete HiDISC: CP + AP + CMP.
    HiDisc,
}

impl Model {
    /// All four models, in the paper's presentation order.
    pub const ALL: [Model; 4] = [Model::Superscalar, Model::CpAp, Model::CpCmp, Model::HiDisc];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Model::Superscalar => "Superscalar",
            Model::CpAp => "CP+AP",
            Model::CpCmp => "CP+CMP",
            Model::HiDisc => "HiDISC",
        }
    }

    /// True when the model includes the Cache Management Processor.
    pub fn has_cmp(self) -> bool {
        matches!(self, Model::CpCmp | Model::HiDisc)
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full configuration of one simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Baseline / merged-stream core (Superscalar and CP+CMP models).
    pub superscalar: CoreConfig,
    /// Computation Processor core.
    pub cp: CoreConfig,
    /// Access Processor core.
    pub ap: CoreConfig,
    /// Cache Management Processor engine.
    pub cmp: CmpConfig,
    /// Memory hierarchy.
    pub mem: MemConfig,
    /// Architectural queue capacities.
    pub queues: QueueConfig,
    /// Abort if no instruction commits for this many cycles (deadlock or
    /// livelock in a mis-sliced program).
    pub deadlock_cycles: u64,
    /// Hard cycle budget.
    pub max_cycles: u64,
    /// Event-driven idle-cycle fast-forward: when a full machine cycle
    /// makes zero architectural progress twice in a row, jump the clock to
    /// the next pending event instead of re-simulating identical stall
    /// cycles. Statistics and cycle counts are exactly those of the
    /// per-cycle loop (see DESIGN.md, "Idle-cycle fast-forward").
    pub fast_forward: bool,
    /// Telemetry: which event categories to record and the interval-metrics
    /// sampling period. [`TraceConfig::OFF`] (the default) makes every
    /// emission site a single untaken branch.
    pub trace: TraceConfig,
}

/// A machine configuration rejected by [`MachineConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural parameter that must be at least 1 is zero (cache sets
    /// or ways, pipeline widths, window sizes, queue capacities, ...).
    Zero {
        /// Dotted path of the offending field, e.g. `"queues.cq"`.
        what: &'static str,
    },
    /// A geometry parameter that the address math requires to be a power
    /// of two (cache sets, block sizes, predictor entries) is not.
    NotPowerOfTwo {
        /// Dotted path of the offending field, e.g. `"mem.l1.block_bytes"`.
        what: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// The L2 and memory latencies are too long for the progress watchdog:
    /// a run needs `2·(l2 + mem) < deadlock_cycles`, or a core that is only
    /// waiting on memory can be reported as deadlocked.
    LatencyPastWatchdog {
        /// L2 hit latency in cycles.
        l2: u32,
        /// Main-memory latency in cycles.
        mem: u32,
        /// The watchdog threshold the latencies were checked against.
        deadlock_cycles: u64,
    },
    /// An instruction window is larger than the issue stage's bit masks
    /// hold ([`MAX_RUU_SIZE`] entries, one bit each in a `u64`).
    WindowTooLarge {
        /// Dotted path of the offending field, e.g. `"ap.ruu_size"`.
        what: &'static str,
        /// The rejected size.
        size: u32,
    },
}

impl ConfigError {
    /// Stable diagnostic code, in the same style as the verifier's
    /// `QB001`-family codes; carried as the `code` of hidisc-serve's
    /// structured error envelope.
    pub fn code(&self) -> &'static str {
        match self {
            ConfigError::Zero { .. } => "CFG001",
            ConfigError::NotPowerOfTwo { .. } => "CFG002",
            ConfigError::LatencyPastWatchdog { .. } => "CFG003",
            ConfigError::WindowTooLarge { .. } => "CFG004",
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero { what } => {
                write!(f, "invalid machine config: {what} must be at least 1")
            }
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(
                    f,
                    "invalid machine config: {what} must be a power of two (got {value})"
                )
            }
            ConfigError::LatencyPastWatchdog {
                l2,
                mem,
                deadlock_cycles,
            } => {
                write!(
                    f,
                    "invalid machine config: l2 latency {l2} + memory latency {mem} is too long \
                     for deadlock_cycles {deadlock_cycles} (need 2*(l2 + mem) < deadlock_cycles)"
                )
            }
            ConfigError::WindowTooLarge { what, size } => {
                write!(
                    f,
                    "invalid machine config: {what} is {size}, more than the \
                     {MAX_RUU_SIZE} entries the issue window holds"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`MachineConfig`], obtained from
/// [`MachineConfig::builder`]. Starts from the Table-1 paper preset; every
/// setter overrides one piece, and [`build`](MachineConfigBuilder::build)
/// checks the result instead of panicking deep inside a construction.
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Baseline / merged-stream core configuration.
    pub fn superscalar(mut self, c: CoreConfig) -> Self {
        self.cfg.superscalar = c;
        self
    }

    /// Computation Processor core configuration.
    pub fn cp(mut self, c: CoreConfig) -> Self {
        self.cfg.cp = c;
        self
    }

    /// Access Processor core configuration.
    pub fn ap(mut self, c: CoreConfig) -> Self {
        self.cfg.ap = c;
        self
    }

    /// Cache Management Processor configuration.
    pub fn cmp(mut self, c: CmpConfig) -> Self {
        self.cfg.cmp = c;
        self
    }

    /// Memory-hierarchy configuration.
    pub fn mem(mut self, m: MemConfig) -> Self {
        self.cfg.mem = m;
        self
    }

    /// The Figure-10 latency override: `(l2_latency, mem_latency)`.
    pub fn latency(mut self, l2: u32, mem: u32) -> Self {
        self.cfg.mem = MemConfig::paper_with_latency(l2, mem);
        self
    }

    /// Architectural queue capacities.
    pub fn queues(mut self, q: QueueConfig) -> Self {
        self.cfg.queues = q;
        self
    }

    /// Progress-watchdog threshold in commit-free cycles.
    pub fn deadlock_cycles(mut self, n: u64) -> Self {
        self.cfg.deadlock_cycles = n;
        self
    }

    /// Hard cycle budget.
    pub fn max_cycles(mut self, n: u64) -> Self {
        self.cfg.max_cycles = n;
        self
    }

    /// Enables or disables idle-cycle fast-forward.
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.cfg.fast_forward = on;
        self
    }

    /// Telemetry configuration (event-category mask + metrics interval).
    pub fn trace(mut self, t: TraceConfig) -> Self {
        self.cfg.trace = t;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        fn nonzero(v: u64, what: &'static str) -> Result<(), ConfigError> {
            if v == 0 {
                return Err(ConfigError::Zero { what });
            }
            Ok(())
        }
        fn pow2(v: u64, what: &'static str) -> Result<(), ConfigError> {
            nonzero(v, what)?;
            if !v.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { what, value: v });
            }
            Ok(())
        }
        fn cache(
            c: &CacheConfig,
            sets: &'static str,
            ways: &'static str,
            block: &'static str,
        ) -> Result<(), ConfigError> {
            pow2(c.sets as u64, sets)?;
            nonzero(c.ways as u64, ways)?;
            pow2(c.block_bytes as u64, block)
        }
        fn core(
            c: &CoreConfig,
            widths: [&'static str; 4],
            ruu: &'static str,
            pred: &'static str,
        ) -> Result<(), ConfigError> {
            nonzero(c.fetch_width as u64, widths[0])?;
            nonzero(c.dispatch_width as u64, widths[1])?;
            nonzero(c.issue_width as u64, widths[2])?;
            nonzero(c.commit_width as u64, widths[3])?;
            nonzero(c.ruu_size as u64, ruu)?;
            if c.ruu_size > MAX_RUU_SIZE {
                return Err(ConfigError::WindowTooLarge {
                    what: ruu,
                    size: c.ruu_size,
                });
            }
            pow2(c.predictor_entries as u64, pred)
        }

        let c = &self.cfg;
        cache(
            &c.mem.l1,
            "mem.l1.sets",
            "mem.l1.ways",
            "mem.l1.block_bytes",
        )?;
        cache(
            &c.mem.l2,
            "mem.l2.sets",
            "mem.l2.ways",
            "mem.l2.block_bytes",
        )?;
        nonzero(c.mem.mshrs as u64, "mem.mshrs")?;
        core(
            &c.superscalar,
            [
                "superscalar.fetch_width",
                "superscalar.dispatch_width",
                "superscalar.issue_width",
                "superscalar.commit_width",
            ],
            "superscalar.ruu_size",
            "superscalar.predictor_entries",
        )?;
        core(
            &c.cp,
            [
                "cp.fetch_width",
                "cp.dispatch_width",
                "cp.issue_width",
                "cp.commit_width",
            ],
            "cp.ruu_size",
            "cp.predictor_entries",
        )?;
        core(
            &c.ap,
            [
                "ap.fetch_width",
                "ap.dispatch_width",
                "ap.issue_width",
                "ap.commit_width",
            ],
            "ap.ruu_size",
            "ap.predictor_entries",
        )?;
        nonzero(c.queues.ldq as u64, "queues.ldq")?;
        nonzero(c.queues.sdq as u64, "queues.sdq")?;
        nonzero(c.queues.cdq as u64, "queues.cdq")?;
        nonzero(c.queues.cq as u64, "queues.cq")?;
        nonzero(c.queues.scq as u64, "queues.scq")?;
        nonzero(c.cmp.max_threads as u64, "cmp.max_threads")?;
        nonzero(c.cmp.issue_width as u64, "cmp.issue_width")?;
        nonzero(c.cmp.thread_width as u64, "cmp.thread_width")?;
        // Empirical: at the default 100 000, the Test-scale suite finishes
        // with l2 + mem = 49 999 and reports a deadlock at 70 001.
        let (l2, mem) = (c.mem.l2.latency, c.mem.mem_latency);
        if 2 * (l2 as u64 + mem as u64) >= c.deadlock_cycles {
            return Err(ConfigError::LatencyPastWatchdog {
                l2,
                mem,
                deadlock_cycles: c.deadlock_cycles,
            });
        }
        Ok(self.cfg)
    }
}

impl MachineConfig {
    /// A validating builder seeded with the Table-1 paper preset.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder {
            cfg: MachineConfig::paper_unchecked(),
        }
    }

    /// The Table-1 configuration.
    pub fn paper() -> MachineConfig {
        MachineConfig::builder()
            .build()
            .expect("the paper preset is valid")
    }

    /// Table-1 configuration with the Figure-10 latency override.
    ///
    /// # Panics
    ///
    /// If the latencies fail the watchdog check of
    /// [`MachineConfigBuilder::build`]; use the builder for untrusted values.
    pub fn paper_with_latency(l2: u32, mem: u32) -> MachineConfig {
        MachineConfig::builder()
            .latency(l2, mem)
            .build()
            .expect("latencies within the deadlock watchdog")
    }

    /// Canonical byte serialisation of every simulation-relevant field,
    /// for content-addressed result caching: two configurations with the
    /// same field values always produce the same bytes, regardless of
    /// how or in what order they were built. Two fields are excluded
    /// because they cannot change results: the `trace` block (telemetry
    /// is proven simulation-invisible by `telemetry_equiv.rs`) and each
    /// core's `scheduler` (the scan scheduler is proven issue-identical
    /// by `readylist_equiv.rs`).
    ///
    /// Every struct is destructured exhaustively, so adding a field
    /// anywhere in the configuration tree is a compile error here until
    /// the encoding is extended (bump the version tag when it is).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        fn u32_(out: &mut Vec<u8>, v: u32) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn u64_(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn usize_(out: &mut Vec<u8>, v: usize) {
            u64_(out, v as u64);
        }
        fn bool_(out: &mut Vec<u8>, v: bool) {
            out.push(v as u8);
        }
        fn f64_(out: &mut Vec<u8>, v: f64) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        fn lat(out: &mut Vec<u8>, l: &hidisc_ooo::Latencies) {
            let hidisc_ooo::Latencies {
                int_alu,
                int_mul,
                int_div,
                fp_alu,
                fp_mul,
                fp_div,
                branch,
                agen,
            } = *l;
            for v in [
                int_alu, int_mul, int_div, fp_alu, fp_mul, fp_div, branch, agen,
            ] {
                u32_(out, v);
            }
        }
        fn core(out: &mut Vec<u8>, c: &CoreConfig) {
            let CoreConfig {
                fetch_width,
                dispatch_width,
                issue_width,
                commit_width,
                ruu_size,
                lsq_size,
                ifq_size,
                int_alu,
                int_mul,
                fp_alu,
                fp_mul,
                mem_ports,
                predictor_entries,
                hw_prefetcher,
                frontend_penalty,
                scheduler: _,
                lat: latencies,
            } = *c;
            for v in [
                fetch_width,
                dispatch_width,
                issue_width,
                commit_width,
                ruu_size,
                lsq_size,
                ifq_size,
                int_alu,
                int_mul,
                fp_alu,
                fp_mul,
                mem_ports,
                predictor_entries,
            ] {
                u32_(out, v);
            }
            // The retired predictor-kind tag (always bimodal), kept so
            // existing content addresses do not move.
            out.push(0);
            match hw_prefetcher {
                None => out.push(0),
                Some(hidisc_mem::RptConfig { entries, distance }) => {
                    out.push(1);
                    usize_(out, entries);
                    u32_(out, distance);
                }
            }
            u32_(out, frontend_penalty);
            lat(out, &latencies);
        }
        fn cache(out: &mut Vec<u8>, c: &CacheConfig) {
            let CacheConfig {
                sets,
                block_bytes,
                ways,
                latency,
            } = *c;
            for v in [sets, block_bytes, ways, latency] {
                u32_(out, v);
            }
        }

        let MachineConfig {
            superscalar,
            cp,
            ap,
            cmp,
            mem,
            queues,
            deadlock_cycles,
            max_cycles,
            fast_forward,
            trace: _,
        } = self;

        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(b"HDC2");
        core(&mut out, superscalar);
        core(&mut out, cp);
        core(&mut out, ap);

        let CmpConfig {
            max_threads,
            issue_width,
            thread_width,
            mem_ports,
            int_latency,
            next_line_assist,
            dynamic,
        } = *cmp;
        usize_(&mut out, max_threads);
        for v in [issue_width, thread_width, mem_ports, int_latency] {
            u32_(&mut out, v);
        }
        bool_(&mut out, next_line_assist);
        let crate::dynamic::DynamicConfig {
            adaptive_slip,
            min_slip,
            max_slip,
            sample_period,
            late_threshold,
            selective_trigger,
            usefulness_floor,
            min_observations,
            probation_period,
        } = dynamic;
        bool_(&mut out, adaptive_slip);
        usize_(&mut out, min_slip);
        usize_(&mut out, max_slip);
        u64_(&mut out, sample_period);
        f64_(&mut out, late_threshold);
        bool_(&mut out, selective_trigger);
        f64_(&mut out, usefulness_floor);
        u64_(&mut out, min_observations);
        u32_(&mut out, probation_period);

        let MemConfig {
            l1,
            l2,
            mem_latency,
            mshrs,
        } = mem;
        cache(&mut out, l1);
        cache(&mut out, l2);
        u32_(&mut out, *mem_latency);
        u32_(&mut out, *mshrs);

        let QueueConfig {
            ldq,
            sdq,
            cdq,
            cq,
            scq,
        } = *queues;
        for v in [ldq, sdq, cdq, cq, scq] {
            usize_(&mut out, v);
        }

        u64_(&mut out, *deadlock_cycles);
        u64_(&mut out, *max_cycles);
        bool_(&mut out, *fast_forward);
        out
    }

    /// FNV-1a 64-bit hash of [`MachineConfig::canonical_bytes`] — the
    /// configuration's content-address for result caching.
    pub fn canonical_hash(&self) -> u64 {
        fnv1a(FNV_OFFSET, &self.canonical_bytes())
    }

    /// The raw Table-1 literal the builder starts from.
    fn paper_unchecked() -> MachineConfig {
        MachineConfig {
            superscalar: CoreConfig::paper_superscalar(),
            cp: CoreConfig::paper_cp(),
            ap: CoreConfig::paper_ap(),
            cmp: CmpConfig::default(),
            mem: MemConfig::paper(),
            queues: QueueConfig::paper(),
            deadlock_cycles: 100_000,
            max_cycles: 2_000_000_000,
            fast_forward: true,
            trace: TraceConfig::OFF,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_properties() {
        assert!(!Model::Superscalar.has_cmp());
        assert!(!Model::CpAp.has_cmp());
        assert!(Model::CpCmp.has_cmp());
        assert!(Model::HiDisc.has_cmp());
        assert_eq!(Model::ALL.len(), 4);
    }

    #[test]
    fn paper_preset_sane() {
        let c = MachineConfig::paper();
        assert_eq!(c.mem.mem_latency, 120);
        assert_eq!(c.cp.ruu_size, 16);
        assert_eq!(c.ap.ruu_size, 64);
        let f10 = MachineConfig::paper_with_latency(16, 160);
        assert_eq!(f10.mem.l2.latency, 16);
    }

    #[test]
    fn builder_accepts_paper_overrides() {
        let c = MachineConfig::builder()
            .latency(16, 160)
            .deadlock_cycles(5_000)
            .fast_forward(false)
            .build()
            .unwrap();
        assert_eq!(c.mem.l2.latency, 16);
        assert_eq!(c.mem.mem_latency, 160);
        assert_eq!(c.deadlock_cycles, 5_000);
        assert!(!c.fast_forward);
    }

    #[test]
    fn builder_rejects_zero_cache_geometry() {
        let mut mem = MemConfig::paper();
        mem.l1.sets = 0;
        let err = MachineConfig::builder().mem(mem).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::Zero {
                what: "mem.l1.sets"
            }
        );

        let mut mem = MemConfig::paper();
        mem.l2.ways = 0;
        let err = MachineConfig::builder().mem(mem).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::Zero {
                what: "mem.l2.ways"
            }
        );
    }

    #[test]
    fn builder_rejects_non_power_of_two_blocks() {
        let mut mem = MemConfig::paper();
        mem.l1.block_bytes = 48;
        let err = MachineConfig::builder().mem(mem).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::NotPowerOfTwo {
                what: "mem.l1.block_bytes",
                value: 48
            }
        );
        assert!(err.to_string().contains("power of two"));
        assert!(err.to_string().contains("48"));
    }

    #[test]
    fn builder_rejects_zero_widths_and_windows() {
        let mut core = CoreConfig::paper_superscalar();
        core.issue_width = 0;
        let err = MachineConfig::builder()
            .superscalar(core)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::Zero {
                what: "superscalar.issue_width"
            }
        );

        let mut cp = CoreConfig::paper_cp();
        cp.ruu_size = 0;
        let err = MachineConfig::builder().cp(cp).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::Zero {
                what: "cp.ruu_size"
            }
        );
    }

    #[test]
    fn builder_rejects_windows_past_the_issue_masks() {
        let mut ap = CoreConfig::paper_ap();
        ap.ruu_size = MAX_RUU_SIZE;
        assert!(MachineConfig::builder().ap(ap).build().is_ok());
        ap.ruu_size = MAX_RUU_SIZE + 1;
        let err = MachineConfig::builder().ap(ap).build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::WindowTooLarge {
                what: "ap.ruu_size",
                size: 65
            }
        );
        assert_eq!(err.code(), "CFG004");
        assert!(err.to_string().contains("ap.ruu_size is 65"));
    }

    #[test]
    fn builder_rejects_zero_queue_capacities() {
        let mut q = QueueConfig::paper();
        q.cq = 0;
        let err = MachineConfig::builder().queues(q).build().unwrap_err();
        assert_eq!(err, ConfigError::Zero { what: "queues.cq" });
        assert!(err.to_string().contains("queues.cq"));
    }
}
