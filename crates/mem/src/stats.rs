//! Cache and memory-system statistics.

use hidisc_isa::wire::Counters;
use std::slice::from_mut as one;

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand (load/store) accesses.
    pub demand_accesses: u64,
    /// Demand accesses that missed.
    pub demand_misses: u64,
    /// Prefetch accesses (issued by the CMP or `pref` instructions).
    pub prefetch_accesses: u64,
    /// Prefetch accesses that missed (i.e. prefetches that did work).
    pub prefetch_misses: u64,
    /// First demand touches of lines that were brought in by a prefetch
    /// (useful prefetches, timely or late).
    pub useful_prefetch_hits: u64,
    /// Demand accesses that hit an in-flight prefetch fill and had to wait
    /// for it (late prefetches: a subset of `useful_prefetch_hits` whose
    /// latency was only partially hidden).
    pub late_prefetch_hits: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand miss rate in `[0, 1]`; 0 when there were no accesses.
    pub fn demand_miss_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_misses as f64 / self.demand_accesses as f64
        }
    }
}

impl Counters for CacheStats {
    fn fields(&mut self, mut f: impl FnMut(&'static str, bool, &mut [u64])) {
        let CacheStats {
            demand_accesses,
            demand_misses,
            prefetch_accesses,
            prefetch_misses,
            useful_prefetch_hits,
            late_prefetch_hits,
            writebacks,
        } = self;
        f("demandAccesses", false, one(demand_accesses));
        f("demandMisses", false, one(demand_misses));
        f("prefetchAccesses", false, one(prefetch_accesses));
        f("prefetchMisses", false, one(prefetch_misses));
        f("usefulPrefetchHits", false, one(useful_prefetch_hits));
        f("latePrefetchHits", false, one(late_prefetch_hits));
        f("writebacks", false, one(writebacks));
    }
}

/// Statistics for the whole memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 data cache.
    pub l1: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Accesses that had to go to main memory.
    pub mem_accesses: u64,
    /// Accesses rejected because all MSHRs were busy (the requester
    /// retries).
    pub mshr_rejects: u64,
    /// Misses merged into an already outstanding MSHR for the same block.
    pub mshr_merges: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero() {
        assert_eq!(CacheStats::default().demand_miss_rate(), 0.0);
        let s = CacheStats {
            demand_accesses: 4,
            demand_misses: 1,
            ..Default::default()
        };
        assert!((s.demand_miss_rate() - 0.25).abs() < 1e-12);
    }
}
