//! Set-associative, tag-only cache with true-LRU replacement.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use hidisc_isa::wire::{Counters, Dec, Enc, WireError, WireResult};

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    /// Line was filled by a prefetch and has not yet been touched by a
    /// demand access.
    prefetched: bool,
    tag: u64,
    /// Monotonic timestamp of last touch, for LRU.
    lru: u64,
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// The access hit.
    pub hit: bool,
    /// On a hit: the line had been brought in by a prefetch and this is the
    /// first demand touch.
    pub first_touch_of_prefetch: bool,
    /// On a miss with an eviction: the victim was dirty (writeback).
    pub evicted_dirty: bool,
}

/// A tag-only set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
    set_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Cache {
        cfg.validate();
        Cache {
            cfg,
            lines: vec![Line::default(); (cfg.sets * cfg.ways) as usize],
            tick: 0,
            stats: CacheStats::default(),
            set_shift: cfg.block_bytes.trailing_zeros(),
            set_mask: (cfg.sets - 1) as u64,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The block-aligned address of `addr`.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr & !((self.cfg.block_bytes - 1) as u64)
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.set_shift >> self.cfg.sets.trailing_zeros()
    }

    /// Probes and updates the cache for an access at `addr`.
    ///
    /// * On a hit the line's LRU position is refreshed; stores mark it
    ///   dirty.
    /// * On a miss the line is allocated (write-allocate), evicting the LRU
    ///   way.
    ///
    /// `is_store` marks the line dirty; `is_prefetch` updates the prefetch
    /// statistics instead of the demand statistics and tags the filled line
    /// as prefetched.
    pub fn access(&mut self, addr: u64, is_store: bool, is_prefetch: bool) -> Probe {
        self.tick += 1;
        let tick = self.tick;
        let tag = self.tag_of(addr);
        let set = self.set_index(addr);
        if is_prefetch {
            self.stats.prefetch_accesses += 1;
        } else {
            self.stats.demand_accesses += 1;
        }
        let w = self.cfg.ways as usize;
        let lines = &mut self.lines[set * w..(set + 1) * w];
        let stats = &mut self.stats;

        // Hit path.
        if let Some(l) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = tick;
            if is_store {
                l.dirty = true;
            }
            let first_touch = l.prefetched && !is_prefetch;
            if first_touch {
                l.prefetched = false;
                stats.useful_prefetch_hits += 1;
            }
            return Probe {
                hit: true,
                first_touch_of_prefetch: first_touch,
                evicted_dirty: false,
            };
        }

        // Miss: allocate over LRU (or an invalid way).
        if is_prefetch {
            stats.prefetch_misses += 1;
        } else {
            stats.demand_misses += 1;
        }
        let victim = lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("associativity is positive");
        let evicted_dirty = victim.valid && victim.dirty;
        if evicted_dirty {
            stats.writebacks += 1;
        }
        *victim = Line {
            valid: true,
            dirty: is_store,
            prefetched: is_prefetch,
            tag,
            lru: tick,
        };
        Probe {
            hit: false,
            first_touch_of_prefetch: false,
            evicted_dirty,
        }
    }

    /// Probes without modifying state (no LRU update, no allocation, no
    /// statistics). Used by the profiling pass to ask "would this hit?".
    pub fn peek(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        let set = self.set_index(addr);
        let w = self.cfg.ways as usize;
        self.lines[set * w..(set + 1) * w]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates all lines and forgets statistics.
    pub fn reset(&mut self) {
        self.lines.fill(Line::default());
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Serialises the dynamic state (lines, LRU clock, statistics). The
    /// geometry is not stored: the checkpoint header pins the config and
    /// the receiving cache must be built with the same one.
    pub fn save_state(&self, e: &mut Enc) {
        e.usize(self.lines.len());
        for l in &self.lines {
            e.bool(l.valid);
            e.bool(l.dirty);
            e.bool(l.prefetched);
            e.u64(l.tag);
            e.u64(l.lru);
        }
        e.u64(self.tick);
        self.stats.save_state(e);
    }

    /// Restores the dynamic state saved by [`Cache::save_state`]; the
    /// receiver must have the same geometry.
    pub fn load_state(&mut self, d: &mut Dec) -> WireResult<()> {
        let n = d.usize()?;
        if n != self.lines.len() {
            return Err(WireError {
                pos: 0,
                what: "cache line count mismatch",
            });
        }
        for l in &mut self.lines {
            l.valid = d.bool()?;
            l.dirty = d.bool()?;
            l.prefetched = d.bool()?;
            l.tag = d.u64()?;
            l.lru = d.u64()?;
        }
        self.tick = d.u64()?;
        self.stats.load_state(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets, 2 ways, 16-byte blocks → 128 B
        Cache::new(CacheConfig {
            sets: 4,
            block_bytes: 16,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x100, false, false).hit);
        assert!(c.access(0x100, false, false).hit);
        assert!(c.access(0x10f, false, false).hit); // same block
        assert!(!c.access(0x110, false, false).hit); // next block
        assert_eq!(c.stats().demand_accesses, 4);
        assert_eq!(c.stats().demand_misses, 2);
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut c = small();
        // Three blocks mapping to the same set (set stride = sets*block = 64)
        let a = 0x000;
        let b = 0x040;
        let d = 0x080;
        c.access(a, false, false);
        c.access(b, false, false);
        c.access(a, false, false); // refresh a: b is now LRU
        c.access(d, false, false); // evicts b
        assert!(c.access(a, false, false).hit);
        assert!(!c.access(b, false, false).hit);
    }

    #[test]
    fn store_marks_dirty_and_writeback_counted() {
        let mut c = small();
        c.access(0x000, true, false); // dirty
        c.access(0x040, false, false);
        c.access(0x080, false, false); // evicts 0x000 (dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_statistics() {
        let mut c = small();
        c.access(0x100, false, true); // prefetch fill
        assert_eq!(c.stats().prefetch_accesses, 1);
        assert_eq!(c.stats().prefetch_misses, 1);
        let p = c.access(0x100, false, false); // first demand touch
        assert!(p.hit && p.first_touch_of_prefetch);
        assert_eq!(c.stats().useful_prefetch_hits, 1);
        let p = c.access(0x100, false, false); // second touch: not "first"
        assert!(p.hit && !p.first_touch_of_prefetch);
    }

    #[test]
    fn peek_does_not_disturb() {
        let mut c = small();
        c.access(0x200, false, false);
        let before = *c.stats();
        assert!(c.peek(0x200));
        assert!(!c.peek(0x300));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = small();
        c.access(0x100, true, false);
        c.reset();
        assert!(!c.peek(0x100));
        assert_eq!(c.stats().demand_accesses, 0);
    }

    #[test]
    fn block_of_masks_low_bits() {
        let c = small();
        assert_eq!(c.block_of(0x123), 0x120);
        assert_eq!(c.block_of(0x120), 0x120);
    }
}
