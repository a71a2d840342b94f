//! The two-level memory system with MSHRs.
//!
//! [`MemSystem::access`] is the single entry point used by the timing
//! cores: given an address, an access kind and the current cycle it returns
//! the cycle at which the access completes, updating cache state and
//! statistics. Misses allocate an MSHR; when all MSHRs are busy the access
//! is rejected and the requester must retry on a later cycle (this is how
//! the cores model limited memory-level parallelism).
//!
//! Fills update tags immediately but carry a `ready_at` time in their MSHR,
//! so a demand access that touches a block whose fill is still in flight
//! completes when the fill does — this is what makes *late* prefetches only
//! partially effective, as in the paper.

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::stats::MemStats;
use hidisc_isa::counters::{token_mix as mix, Counters};
use hidisc_telemetry::{Category, EventData, MissKind, Telemetry};
use std::slice::from_mut as one;

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load.
    Load,
    /// Demand store (write-allocate, write-back).
    Store,
    /// Prefetch (from the CMP or a `pref` instruction): fills the caches
    /// but is not a demand access.
    Prefetch,
}

impl AccessKind {
    fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
    fn is_prefetch(self) -> bool {
        matches!(self, AccessKind::Prefetch)
    }
    fn miss_kind(self) -> MissKind {
        match self {
            AccessKind::Load => MissKind::Load,
            AccessKind::Store => MissKind::Store,
            AccessKind::Prefetch => MissKind::Prefetch,
        }
    }
}

/// Trace-only side facts of one access that [`AccessResult`] does not
/// carry (dirty-victim writebacks per level).
#[derive(Debug, Clone, Copy, Default)]
struct AccessSide {
    l1_writeback: bool,
    l2_writeback: bool,
}

/// Completion information for an accepted access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is available (load) or the access retires
    /// (store/prefetch).
    pub complete_at: u64,
    /// The access hit in L1 (including hits on in-flight fills).
    pub l1_hit: bool,
    /// On an L1 miss: the access hit in L2.
    pub l2_hit: bool,
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    block: u64,
    ready_at: u64,
    was_prefetch: bool,
}

/// The system-level counters outside the two caches, in field order.
/// [`MemSystem::stats`] folds the late prefetch hits into the L1 record,
/// and `late_merge_misses` into its demand misses.
#[derive(Debug, Clone, Copy, Default)]
struct SysCounters {
    mem_accesses: u64,
    mshr_rejects: u64,
    mshr_merges: u64,
    late_prefetch_hits: u64,
    late_merge_misses: u64,
}

impl Counters for SysCounters {
    fn fields(&mut self, mut f: impl FnMut(&'static str, bool, &mut [u64])) {
        let SysCounters {
            mem_accesses,
            mshr_rejects,
            mshr_merges,
            late_prefetch_hits,
            late_merge_misses,
        } = self;
        f("memAccesses", false, one(mem_accesses));
        f("mshrRejects", true, one(mshr_rejects));
        f("mshrMerges", false, one(mshr_merges));
        f("latePrefetchHits", false, one(late_prefetch_hits));
        f("lateMergeMisses", false, one(late_merge_misses));
    }
}

/// The memory system: L1 data cache + unified L2 + DRAM latency + MSHRs.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemConfig,
    l1: Cache,
    l2: Cache,
    mshrs: Vec<Mshr>,
    counters: SysCounters,
}

impl MemSystem {
    /// Creates a memory system with the given configuration.
    pub fn new(cfg: MemConfig) -> MemSystem {
        MemSystem {
            cfg,
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            mshrs: Vec::with_capacity(cfg.mshrs as usize),
            counters: SysCounters::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    fn retire_expired(&mut self, now: u64) {
        self.mshrs.retain(|m| m.ready_at > now);
    }

    fn inflight(&self, block: u64) -> Option<&Mshr> {
        self.mshrs.iter().find(|m| m.block == block)
    }

    /// Performs an access at cycle `now`. Returns `None` when all MSHRs
    /// are busy and the access would need a new one (the caller retries on
    /// a later cycle).
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> Option<AccessResult> {
        self.access_impl(addr, kind, now).map(|(r, _)| r)
    }

    /// [`MemSystem::access`] plus telemetry: records miss, eviction and
    /// MSHR-occupancy events ([`Category::Mem`]) and feeds demand-miss
    /// fill latencies into the interval metrics. Behaviourally identical
    /// to `access` — telemetry reads the outcome, it never changes it.
    pub fn access_traced(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
        trace: &mut Telemetry,
    ) -> Option<AccessResult> {
        let (r, side) = self.access_impl(addr, kind, now)?;
        if trace.on(Category::Mem) && !r.l1_hit {
            trace.emit(EventData::MemMiss {
                addr,
                kind: kind.miss_kind(),
                l2_hit: r.l2_hit,
                ready_at: r.complete_at,
            });
            if side.l1_writeback {
                trace.emit(EventData::Eviction { level: 1 });
            }
            if side.l2_writeback {
                trace.emit(EventData::Eviction { level: 2 });
            }
            trace.emit(EventData::MshrOccupancy {
                n: self.mshrs.len() as u32,
            });
        }
        if !r.l1_hit && !kind.is_prefetch() {
            trace.record_miss_latency(r.complete_at.saturating_sub(now));
        }
        Some(r)
    }

    fn access_impl(
        &mut self,
        addr: u64,
        kind: AccessKind,
        now: u64,
    ) -> Option<(AccessResult, AccessSide)> {
        self.retire_expired(now);
        let block = self.l1.block_of(addr);

        // If the line is absent and no MSHR slot is free, reject before
        // touching any state.
        if !self.l1.peek(addr)
            && self.inflight(block).is_none()
            && self.mshrs.len() >= self.cfg.mshrs as usize
        {
            self.counters.mshr_rejects += 1;
            return None;
        }

        let l1_lat = self.cfg.l1.latency as u64;
        let probe = self.l1.access(addr, kind.is_store(), kind.is_prefetch());
        if probe.hit {
            // Possibly a hit on an in-flight fill.
            if let Some(m) = self.inflight(block) {
                let ready = m.ready_at;
                let was_prefetch = m.was_prefetch;
                self.counters.mshr_merges += 1;
                if was_prefetch
                    && !kind.is_prefetch()
                    && ready > now + l1_lat
                    && probe.first_touch_of_prefetch
                {
                    // The *first* demand touch still waits for the
                    // prefetch fill: a late prefetch. Architecturally this
                    // is a (partially hidden) miss and the statistics
                    // report it as one — otherwise a prefetcher running
                    // barely ahead of the demand stream would look like a
                    // perfect cache. Later touches of the same in-flight
                    // block merge without extra miss accounting, exactly
                    // as they would behind an ordinary demand miss.
                    self.counters.late_prefetch_hits += 1;
                    self.counters.late_merge_misses += 1;
                }
                return Some((
                    AccessResult {
                        complete_at: ready.max(now + l1_lat),
                        l1_hit: true,
                        l2_hit: false,
                    },
                    AccessSide::default(),
                ));
            }
            return Some((
                AccessResult {
                    complete_at: now + l1_lat,
                    l1_hit: true,
                    l2_hit: false,
                },
                AccessSide::default(),
            ));
        }

        // L1 miss: consult L2. (Writebacks of dirty victims update the
        // writeback counter inside the caches; their latency is absorbed by
        // the write buffer, as in sim-outorder.)
        let probe2 = self.l2.access(addr, false, kind.is_prefetch());
        let mut lat = l1_lat + self.cfg.l2.latency as u64;
        if !probe2.hit {
            lat += self.cfg.mem_latency as u64;
            self.counters.mem_accesses += 1;
        }
        let ready_at = now + lat;
        self.mshrs.push(Mshr {
            block,
            ready_at,
            was_prefetch: kind.is_prefetch(),
        });
        Some((
            AccessResult {
                complete_at: ready_at,
                l1_hit: false,
                l2_hit: probe2.hit,
            },
            AccessSide {
                l1_writeback: probe.evicted_dirty,
                l2_writeback: probe2.evicted_dirty,
            },
        ))
    }

    /// Functional (latency-free) access for sampled simulation's warm
    /// phases: tags, LRU state, hit/miss statistics and the memory-access
    /// counter update exactly as in [`MemSystem::access`], but no MSHR is
    /// occupied and nothing is ever rejected. Warm-mode code commits many
    /// instructions per cycle, so routing its traffic through the timed
    /// path would exhaust the MSHR file and silently stop warming the
    /// caches — the systematic bias this entry point exists to avoid.
    /// Returns whether the access hit in L1.
    pub fn warm_access(&mut self, addr: u64, kind: AccessKind) -> bool {
        let probe = self.l1.access(addr, kind.is_store(), kind.is_prefetch());
        if !probe.hit {
            let probe2 = self.l2.access(addr, false, kind.is_prefetch());
            if !probe2.hit {
                self.counters.mem_accesses += 1;
            }
        }
        probe.hit
    }

    /// Number of MSHRs currently outstanding at cycle `now`.
    pub fn outstanding(&mut self, now: u64) -> usize {
        self.retire_expired(now);
        self.mshrs.len()
    }

    /// The earliest cycle strictly after `now` at which an in-flight fill
    /// completes. A full MSHR file rejects requesters until then, so this
    /// is the wake-up time for every core retrying a rejected access.
    /// `None` when nothing is in flight beyond `now`.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.mshrs
            .iter()
            .map(|m| m.ready_at)
            .filter(|&t| t > now)
            .min()
    }

    /// Structural-progress fingerprint (see `hidisc::Machine`). Every
    /// counter here moves only inside an *accepted* access; `mshr_rejects`
    /// — the one counter a rejected access bumps — is excluded, because
    /// rejected retries are precisely what idle cycles repeat.
    pub fn progress_token(&self) -> u64 {
        let cache = |mut h: u64, s: &crate::stats::CacheStats| {
            h = mix(h, s.demand_accesses);
            h = mix(h, s.prefetch_accesses);
            h = mix(h, s.writebacks);
            h
        };
        let mut h = mix(0, self.counters.mem_accesses);
        h = mix(h, self.counters.mshr_merges);
        h = mix(h, self.counters.late_prefetch_hits);
        h = cache(h, self.l1.stats());
        h = cache(h, self.l2.stats());
        h
    }

    /// Replays the MSHR rejects of `k` identical idle cycles
    /// (`rejects_per_cycle` rejected retries happened on the measured idle
    /// cycle and would repeat every skipped cycle).
    pub fn add_idle_rejects(&mut self, rejects_per_cycle: u64, k: u64) {
        let per_cycle = SysCounters {
            mshr_rejects: rejects_per_cycle,
            ..SysCounters::default()
        };
        self.counters.add_idle_scaled(&per_cycle, k);
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> MemStats {
        let c = &self.counters;
        let mut l1 = *self.l1.stats();
        l1.late_prefetch_hits = c.late_prefetch_hits;
        l1.demand_misses += c.late_merge_misses;
        MemStats {
            l1,
            l2: *self.l2.stats(),
            mem_accesses: c.mem_accesses,
            mshr_rejects: c.mshr_rejects,
            mshr_merges: c.mshr_merges,
        }
    }

    /// Clears cache contents and statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.mshrs.clear();
        self.counters = SysCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, MemConfig};

    fn sys() -> MemSystem {
        MemSystem::new(MemConfig {
            l1: CacheConfig {
                sets: 4,
                block_bytes: 16,
                ways: 2,
                latency: 1,
            },
            l2: CacheConfig {
                sets: 16,
                block_bytes: 32,
                ways: 2,
                latency: 10,
            },
            mem_latency: 100,
            mshrs: 2,
        })
    }

    #[test]
    fn latency_tiers() {
        let mut s = sys();
        // Cold: L1 miss + L2 miss → 1 + 10 + 100
        let r = s.access(0x1000, AccessKind::Load, 0).unwrap();
        assert_eq!(r.complete_at, 111);
        assert!(!r.l1_hit && !r.l2_hit);
        // Warm L1 (after fill time): pure hit
        let r = s.access(0x1000, AccessKind::Load, 200).unwrap();
        assert_eq!(r.complete_at, 201);
        assert!(r.l1_hit);
    }

    #[test]
    fn l2_hit_latency() {
        let mut s = sys();
        s.access(0x1000, AccessKind::Load, 0).unwrap();
        // Evict from tiny L1 by filling the set (stride 64 = sets*block)
        s.access(0x1040, AccessKind::Load, 300).unwrap();
        s.access(0x1080, AccessKind::Load, 600).unwrap();
        // 0x1000 now out of L1 but still in L2 (L2 is bigger)
        let r = s.access(0x1000, AccessKind::Load, 900).unwrap();
        assert!(!r.l1_hit && r.l2_hit);
        assert_eq!(r.complete_at, 900 + 1 + 10);
    }

    #[test]
    fn in_flight_fill_gates_completion() {
        let mut s = sys();
        let r1 = s.access(0x1000, AccessKind::Load, 0).unwrap();
        // A second access to the same block 5 cycles later merges with the
        // outstanding fill rather than hitting in 1 cycle.
        let r2 = s.access(0x1008, AccessKind::Load, 5).unwrap();
        assert!(r2.l1_hit);
        assert_eq!(r2.complete_at, r1.complete_at);
        assert_eq!(s.stats().mshr_merges, 1);
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut s = sys();
        assert!(s.access(0x0, AccessKind::Load, 0).is_some());
        assert!(s.access(0x100, AccessKind::Load, 0).is_some());
        // Third distinct miss at the same cycle: no MSHR left.
        assert!(s.access(0x200, AccessKind::Load, 0).is_none());
        assert_eq!(s.stats().mshr_rejects, 1);
        // After the fills complete, it goes through.
        assert!(s.access(0x200, AccessKind::Load, 500).is_some());
    }

    #[test]
    fn late_prefetch_partial_benefit() {
        let mut s = sys();
        let p = s.access(0x1000, AccessKind::Prefetch, 0).unwrap();
        // Demand load arrives before the prefetch fill completes: it waits
        // until the fill, not a full miss, and is counted as a late
        // prefetch hit.
        let d = s.access(0x1000, AccessKind::Load, 10).unwrap();
        assert_eq!(d.complete_at, p.complete_at);
        assert_eq!(s.stats().l1.late_prefetch_hits, 1);
        // A late hit is still a useful (first-touch) prefetch hit.
        assert_eq!(s.stats().l1.useful_prefetch_hits, 1);
        // Timely prefetch: another block, demand long after.
        s.access(0x2000, AccessKind::Prefetch, 1000).unwrap();
        let d = s.access(0x2000, AccessKind::Load, 2000).unwrap();
        assert_eq!(d.complete_at, 2001);
        assert_eq!(s.stats().l1.useful_prefetch_hits, 2);
        assert_eq!(s.stats().l1.late_prefetch_hits, 1);
    }

    #[test]
    fn prefetch_does_not_inflate_demand_stats() {
        let mut s = sys();
        s.access(0x1000, AccessKind::Prefetch, 0).unwrap();
        let st = s.stats();
        assert_eq!(st.l1.demand_accesses, 0);
        assert_eq!(st.l1.prefetch_accesses, 1);
        assert_eq!(st.l1.prefetch_misses, 1);
    }

    #[test]
    fn outstanding_tracks_mshr_retirement() {
        let mut s = sys();
        s.access(0x0, AccessKind::Load, 0).unwrap();
        assert_eq!(s.outstanding(5), 1);
        assert_eq!(s.outstanding(1000), 0);
    }
}
