//! Dynamic CMAS control — the paper's future-work extensions.
//!
//! Section 6 of the paper proposes two runtime refinements, both
//! implemented here as optional features of the CMP engine:
//!
//! 1. **Runtime control of the prefetching distance** ([`SlipController`]):
//!    instead of a fixed Slip Control Queue depth, the effective run-ahead
//!    bound adapts to observed prefetch timeliness — grow it while
//!    prefetches arrive late, shrink it while they risk polluting the
//!    cache long before use.
//! 2. **Selective CMAS triggering** ([`SliceFilter`]): "not every probable
//!    cache miss instruction would be triggered as CMAS. Depending on the
//!    previous prefetching history, we can choose only the necessary
//!    prefetching at run time." Slices whose prefetches almost always hit
//!    in the L1 (the data was already resident) are suppressed, with
//!    periodic probation so phase changes are noticed.

use hidisc_mem::MemStats;

/// Configuration for the dynamic extensions (all off by default — the
/// paper's headline experiments use the static machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// Enable runtime prefetch-distance control.
    pub adaptive_slip: bool,
    /// Lower bound of the adaptive slip window (loop iterations).
    pub min_slip: usize,
    /// Upper bound of the adaptive slip window (clamped to the SCQ
    /// capacity at runtime).
    pub max_slip: usize,
    /// Prefetches between adaptation steps.
    pub sample_period: u64,
    /// Fraction of late prefetches above which the distance grows.
    pub late_threshold: f64,
    /// Enable selective triggering.
    pub selective_trigger: bool,
    /// Minimum prefetch-miss fraction for a slice to stay enabled (below
    /// this, its prefetches were already cached — the slice is
    /// unnecessary).
    pub usefulness_floor: f64,
    /// Prefetches observed per slice before it can be judged.
    pub min_observations: u64,
    /// Every `probation_period`-th suppressed fork runs anyway, so a
    /// suppressed slice can rehabilitate after a phase change.
    pub probation_period: u32,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            adaptive_slip: false,
            min_slip: 4,
            max_slip: 64,
            sample_period: 256,
            late_threshold: 0.25,
            selective_trigger: false,
            usefulness_floor: 0.05,
            min_observations: 128,
            probation_period: 16,
        }
    }
}

impl DynamicConfig {
    /// Both extensions on, with default tuning.
    pub fn all_on() -> DynamicConfig {
        DynamicConfig {
            adaptive_slip: true,
            selective_trigger: true,
            ..DynamicConfig::default()
        }
    }
}

/// Runtime prefetch-distance controller.
///
/// Observes the memory system's late-vs-useful prefetch counters and
/// adjusts the effective slip bound multiplicatively: late prefetches ⇒
/// the CMAS is not far enough ahead ⇒ double the distance; almost no late
/// prefetches ⇒ the distance can shrink, reducing occupancy and pollution.
#[derive(Debug, Clone)]
pub struct SlipController {
    cfg: DynamicConfig,
    limit: usize,
    last_useful: u64,
    last_late: u64,
    seen_prefetches: u64,
    next_sample_at: u64,
    /// Number of adaptation steps taken (for reports/tests).
    pub adaptations: u64,
}

impl SlipController {
    /// Creates a controller starting in the middle of its window.
    pub fn new(cfg: DynamicConfig) -> SlipController {
        let start = if cfg.adaptive_slip {
            usize::midpoint(cfg.min_slip, cfg.max_slip)
        } else {
            usize::MAX
        };
        SlipController {
            cfg,
            limit: start,
            last_useful: 0,
            last_late: 0,
            seen_prefetches: 0,
            next_sample_at: cfg.sample_period,
            adaptations: 0,
        }
    }

    /// Current slip bound in SCQ tokens. `usize::MAX` when the controller
    /// is disabled (the SCQ capacity alone bounds run-ahead).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Notes one issued prefetch; adapts every `sample_period` prefetches
    /// using the memory system's counters.
    pub fn on_prefetch(&mut self, mem: &MemStats) {
        if !self.cfg.adaptive_slip {
            return;
        }
        self.seen_prefetches += 1;
        if self.seen_prefetches < self.next_sample_at {
            return;
        }
        self.next_sample_at = self.seen_prefetches + self.cfg.sample_period;

        let useful = mem.l1.useful_prefetch_hits;
        let late = mem.l1.late_prefetch_hits;
        let d_useful = useful.saturating_sub(self.last_useful);
        let d_late = late.saturating_sub(self.last_late);
        self.last_useful = useful;
        self.last_late = late;

        let total = d_useful.max(1);
        let late_frac = d_late as f64 / total as f64;
        let old = self.limit;
        if late_frac > self.cfg.late_threshold {
            self.limit = (self.limit * 2).min(self.cfg.max_slip);
        } else if late_frac < self.cfg.late_threshold / 4.0 {
            self.limit = (self.limit / 2).max(self.cfg.min_slip);
        }
        if self.limit != old {
            self.adaptations += 1;
        }
    }
}

/// Per-slice trigger filter (selective CMAS execution).
#[derive(Debug, Clone, Default)]
struct SliceHistory {
    issued: u64,
    missed: u64,
    suppressed: bool,
    suppressed_forks: u32,
}

/// Decides, from prefetching history, which CMAS slices are worth forking.
#[derive(Debug, Clone)]
pub struct SliceFilter {
    cfg: DynamicConfig,
    slices: Vec<SliceHistory>,
    /// Forks suppressed so far (for reports/tests).
    pub suppressed_forks: u64,
}

impl SliceFilter {
    /// Creates a filter for `n` slices.
    pub fn new(cfg: DynamicConfig, n: usize) -> SliceFilter {
        SliceFilter {
            cfg,
            slices: vec![SliceHistory::default(); n],
            suppressed_forks: 0,
        }
    }

    /// Records the outcome of one prefetch issued by slice `id`
    /// (`did_work` = the prefetch actually missed and fetched something).
    pub fn record(&mut self, id: usize, did_work: bool) {
        if !self.cfg.selective_trigger || id >= self.slices.len() {
            return;
        }
        let s = &mut self.slices[id];
        s.issued += 1;
        if did_work {
            s.missed += 1;
        }
        if s.issued >= self.cfg.min_observations {
            let frac = s.missed as f64 / s.issued as f64;
            s.suppressed = frac < self.cfg.usefulness_floor;
            // Exponential forgetting so history does not dominate forever.
            s.issued /= 2;
            s.missed /= 2;
        }
    }

    /// Should a fork of slice `id` run? Suppressed slices let every
    /// `probation_period`-th fork through to keep sampling.
    pub fn allow(&mut self, id: usize) -> bool {
        if !self.cfg.selective_trigger || id >= self.slices.len() {
            return true;
        }
        let s = &mut self.slices[id];
        if !s.suppressed {
            return true;
        }
        s.suppressed_forks += 1;
        if s.suppressed_forks >= self.cfg.probation_period {
            s.suppressed_forks = 0;
            return true; // probation run
        }
        self.suppressed_forks += 1;
        false
    }

    /// True when slice `id` is currently suppressed.
    pub fn is_suppressed(&self, id: usize) -> bool {
        self.slices.get(id).map(|s| s.suppressed).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_mem::CacheStats;

    fn mem(useful: u64, late: u64) -> MemStats {
        MemStats {
            l1: CacheStats {
                useful_prefetch_hits: useful,
                late_prefetch_hits: late,
                ..CacheStats::default()
            },
            ..MemStats::default()
        }
    }

    fn cfg() -> DynamicConfig {
        DynamicConfig {
            adaptive_slip: true,
            sample_period: 4,
            ..DynamicConfig::default()
        }
    }

    #[test]
    fn disabled_controller_never_limits() {
        let c = SlipController::new(DynamicConfig::default());
        assert_eq!(c.limit(), usize::MAX);
    }

    #[test]
    fn grows_on_late_prefetches() {
        let mut c = SlipController::new(cfg());
        let start = c.limit();
        // All prefetch hits are late.
        for i in 1..=8 {
            c.on_prefetch(&mem(i, i));
        }
        assert!(c.limit() > start, "{} should grow past {start}", c.limit());
        assert!(c.adaptations >= 1);
    }

    #[test]
    fn shrinks_when_comfortably_early() {
        let mut c = SlipController::new(cfg());
        let start = c.limit();
        for i in 1..=8 {
            c.on_prefetch(&mem(i * 100, 0));
        }
        assert!(c.limit() < start);
        assert!(c.limit() >= cfg().min_slip);
    }

    #[test]
    fn respects_bounds() {
        let mut c = SlipController::new(cfg());
        for i in 1..=100 {
            c.on_prefetch(&mem(i, i)); // always late → keeps doubling
        }
        assert!(c.limit() <= cfg().max_slip);
    }

    #[test]
    fn filter_suppresses_useless_slice() {
        let dc = DynamicConfig {
            selective_trigger: true,
            min_observations: 8,
            usefulness_floor: 0.25,
            ..DynamicConfig::default()
        };
        let mut f = SliceFilter::new(dc, 2);
        // Slice 0: all prefetches already cached (did_work = false).
        for _ in 0..8 {
            f.record(0, false);
        }
        assert!(f.is_suppressed(0));
        // Slice 1: always useful.
        for _ in 0..8 {
            f.record(1, true);
        }
        assert!(!f.is_suppressed(1));
        assert!(f.allow(1));
    }

    #[test]
    fn probation_lets_samples_through() {
        let dc = DynamicConfig {
            selective_trigger: true,
            min_observations: 4,
            usefulness_floor: 0.5,
            probation_period: 3,
            ..DynamicConfig::default()
        };
        let mut f = SliceFilter::new(dc, 1);
        for _ in 0..4 {
            f.record(0, false);
        }
        assert!(f.is_suppressed(0));
        let outcomes: Vec<bool> = (0..6).map(|_| f.allow(0)).collect();
        assert!(
            outcomes.iter().any(|&a| a),
            "probation must admit some forks"
        );
        assert!(
            outcomes.iter().any(|&a| !a),
            "suppression must reject some forks"
        );
    }

    #[test]
    fn rehabilitation_after_phase_change() {
        let dc = DynamicConfig {
            selective_trigger: true,
            min_observations: 4,
            usefulness_floor: 0.5,
            probation_period: 1, // every fork is a probation run
            ..DynamicConfig::default()
        };
        let mut f = SliceFilter::new(dc, 1);
        for _ in 0..4 {
            f.record(0, false);
        }
        assert!(f.is_suppressed(0));
        // Phase change: prefetches start doing work again.
        for _ in 0..8 {
            f.record(0, true);
        }
        assert!(!f.is_suppressed(0));
    }

    #[test]
    fn disabled_filter_allows_everything() {
        let mut f = SliceFilter::new(DynamicConfig::default(), 1);
        for _ in 0..100 {
            f.record(0, false);
        }
        assert!(!f.is_suppressed(0));
        assert!(f.allow(0));
    }
}
