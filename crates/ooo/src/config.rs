//! Core configuration and the Table-1 presets.

/// Functional-unit and operation latencies in cycles (SimpleScalar
/// defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Integer ALU (and queue moves).
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide/remainder.
    pub int_div: u32,
    /// FP add/sub/compare/convert.
    pub fp_alu: u32,
    /// FP multiply.
    pub fp_mul: u32,
    /// FP divide / sqrt.
    pub fp_div: u32,
    /// Branch resolution.
    pub branch: u32,
    /// Address generation for loads/stores (before the cache access).
    pub agen: u32,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_alu: 2,
            fp_mul: 4,
            fp_div: 12,
            branch: 1,
            agen: 1,
        }
    }
}

/// The largest instruction window (`ruu_size`): the ready-list scheduler
/// keeps one bit per window entry in a `u64`. Table 1's windows are 64
/// (superscalar, AP) and 16 (CP).
pub const MAX_RUU_SIZE: u32 = crate::ruu::SLOTS as u32;

/// Instruction-scheduling strategy of the issue stage.
///
/// Both produce bit-identical timing (`readylist_equiv.rs` proves it);
/// `Scan` is retained as the reference implementation for that proof and
/// for debugging the wakeup bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Wakeup-driven ready list: per-slot bit masks of consumer links
    /// registered at dispatch, completions drained from a timing wheel,
    /// issue picks from a ready mask. O(ready + completions) per cycle.
    #[default]
    ReadyList,
    /// The seed implementation: walk the whole RUU every cycle for issue
    /// candidates and completion harvest. O(window) per cycle.
    Scan,
}

/// Configuration of one out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions dispatched (decoded into the RUU) per cycle.
    pub dispatch_width: u32,
    /// Instructions issued to functional units per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Register-update-unit (instruction window) size.
    pub ruu_size: u32,
    /// Load/store queue size.
    pub lsq_size: u32,
    /// Fetch-queue depth.
    pub ifq_size: u32,
    /// Integer ALUs.
    pub int_alu: u32,
    /// Integer multiply/divide units.
    pub int_mul: u32,
    /// FP adders.
    pub fp_alu: u32,
    /// FP multiply/divide units.
    pub fp_mul: u32,
    /// Cache ports (memory accesses started per cycle).
    pub mem_ports: u32,
    /// Bimodal predictor entries (Table 1: the predictor is bimodal).
    pub predictor_entries: u32,
    /// Attach a Chen-Baer stride prefetcher (RPT) to this core's demand
    /// loads — the related-work hardware-prefetching comparator, not part
    /// of any paper configuration.
    pub hw_prefetcher: Option<hidisc_mem::RptConfig>,
    /// Pipeline refill penalty after a front-end redirect, in cycles
    /// (decode depth between fetch and dispatch).
    pub frontend_penalty: u32,
    /// Issue-stage scheduling strategy.
    pub scheduler: Scheduler,
    /// Operation latencies.
    pub lat: Latencies,
}

impl CoreConfig {
    /// The Table-1 baseline: 8-issue superscalar, 64-entry RUU, 32-entry
    /// LSQ, 4 int ALUs + MUL/DIV, 4 FP ALUs + MUL/DIV, 2 memory ports,
    /// 2048-entry bimodal predictor.
    pub fn paper_superscalar() -> CoreConfig {
        CoreConfig {
            fetch_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            ruu_size: 64,
            lsq_size: 32,
            ifq_size: 16,
            int_alu: 4,
            int_mul: 1,
            fp_alu: 4,
            fp_mul: 1,
            mem_ports: 2,
            predictor_entries: 2048,
            hw_prefetcher: None,
            frontend_penalty: 2,
            scheduler: Scheduler::default(),
            lat: Latencies::default(),
        }
    }

    /// The Computation Processor: 16-entry window, FP + integer units, no
    /// load/store units (mem_ports = 0 — the separator guarantees the
    /// Computation Stream contains no memory instructions). Its front-end
    /// refill penalty is zero: the CP consumes pre-separated instructions
    /// from the Computation Instruction Queue (Figure 2 of the paper), so
    /// a consume-branch redirect only moves the dequeue pointer.
    pub fn paper_cp() -> CoreConfig {
        CoreConfig {
            ruu_size: 16,
            lsq_size: 0,
            mem_ports: 0,
            frontend_penalty: 0,
            ..CoreConfig::paper_superscalar()
        }
    }

    /// The Access Processor: 64-entry window, integer + load/store units
    /// only (fp_alu = fp_mul = 0 — the separator keeps FP computation in
    /// the Computation Stream).
    pub fn paper_ap() -> CoreConfig {
        CoreConfig {
            ruu_size: 64,
            lsq_size: 32,
            fp_alu: 0,
            fp_mul: 0,
            ..CoreConfig::paper_superscalar()
        }
    }

    /// Sanity checks.
    pub fn validate(&self) {
        assert!(self.fetch_width > 0 && self.dispatch_width > 0);
        assert!(self.issue_width > 0 && self.commit_width > 0);
        assert!(self.ruu_size > 0, "RUU must be non-empty");
        assert!(
            self.ruu_size <= MAX_RUU_SIZE,
            "CFG004: RUU of {} entries, more than the {MAX_RUU_SIZE} the issue window holds",
            self.ruu_size
        );
        // The completion wheel schedules every result after the cycle it
        // issues in.
        let l = self.lat;
        assert!(
            [l.int_alu, l.int_mul, l.int_div, l.fp_alu, l.fp_mul, l.fp_div, l.branch, l.agen]
                .iter()
                .all(|&c| c > 0),
            "every latency must be at least one cycle"
        );
        assert!(self.predictor_entries.is_power_of_two());
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper_superscalar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_table1() {
        let s = CoreConfig::paper_superscalar();
        assert_eq!(s.issue_width, 8);
        assert_eq!(s.ruu_size, 64);
        assert_eq!(s.lsq_size, 32);
        assert_eq!(s.int_alu, 4);
        assert_eq!(s.mem_ports, 2);
        assert_eq!(s.predictor_entries, 2048);

        let cp = CoreConfig::paper_cp();
        assert_eq!(cp.ruu_size, 16);
        assert_eq!(cp.mem_ports, 0);
        assert!(cp.fp_alu > 0);

        let ap = CoreConfig::paper_ap();
        assert_eq!(ap.ruu_size, 64);
        assert_eq!(ap.fp_alu, 0);
        assert_eq!(ap.mem_ports, 2);
    }

    #[test]
    fn presets_validate() {
        CoreConfig::paper_superscalar().validate();
        CoreConfig::paper_cp().validate();
        CoreConfig::paper_ap().validate();
        CoreConfig {
            ruu_size: MAX_RUU_SIZE,
            ..CoreConfig::paper_cp()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "CFG004")]
    fn windows_past_the_issue_masks_are_rejected() {
        CoreConfig {
            ruu_size: MAX_RUU_SIZE + 1,
            ..CoreConfig::paper_superscalar()
        }
        .validate();
    }
}
