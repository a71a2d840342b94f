//! A hardware stride prefetcher (reference prediction table) in the style
//! of Chen & Baer, "Effective Hardware-Based Data Prefetching for
//! High-Performance Processors" — the paper's reference \[3\] for hardware
//! prefetching. Used as a *related-work comparator*: a conventional
//! superscalar equipped with this prefetcher is the machine the paper's
//! Section 2 says "still suffers when faced with irregular memory access
//! patterns".
//!
//! Classic four-state RPT entry per load PC:
//!
//! ```text
//! initial --same stride--> transient --same stride--> steady
//!    ^                         |                         |
//!    +----stride changed-------+          stride changed +--> no-pred
//! ```
//!
//! Prefetches are emitted only in the *steady* state, `distance` strides
//! ahead of the current access.

use hidisc_isa::wire::{Counters, Dec, Enc, WireError, WireResult};
use std::slice::from_mut as one;

/// RPT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RptConfig {
    /// Table entries (direct-mapped by load pc).
    pub entries: usize,
    /// How many strides ahead to prefetch.
    pub distance: u32,
}

impl Default for RptConfig {
    fn default() -> Self {
        RptConfig {
            entries: 64,
            distance: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Initial,
    Transient,
    Steady,
    NoPred,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    pc: u32,
    valid: bool,
    last_addr: u64,
    stride: i64,
    state: State,
}

impl Default for Entry {
    fn default() -> Self {
        Entry {
            pc: 0,
            valid: false,
            last_addr: 0,
            stride: 0,
            state: State::Initial,
        }
    }
}

/// Statistics of the stride prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RptStats {
    /// Loads observed.
    pub observed: u64,
    /// Prefetch addresses emitted (steady-state hits).
    pub emitted: u64,
    /// Entry replacements (pc conflicts).
    pub replacements: u64,
}

impl Counters for RptStats {
    fn fields(&mut self, mut f: impl FnMut(&'static str, bool, &mut [u64])) {
        let RptStats {
            observed,
            emitted,
            replacements,
        } = self;
        f("observed", false, one(observed));
        f("emitted", false, one(emitted));
        f("replacements", false, one(replacements));
    }
}

/// The reference prediction table.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: RptConfig,
    table: Vec<Entry>,
    stats: RptStats,
}

impl StridePrefetcher {
    /// Creates an empty table.
    pub fn new(cfg: RptConfig) -> StridePrefetcher {
        assert!(cfg.entries > 0);
        StridePrefetcher {
            cfg,
            table: vec![Entry::default(); cfg.entries],
            stats: RptStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &RptStats {
        &self.stats
    }

    /// Observes a demand load at `pc` touching `addr`; returns an address
    /// to prefetch when the entry predicts confidently.
    pub fn observe(&mut self, pc: u32, addr: u64) -> Option<u64> {
        self.stats.observed += 1;
        let slot = (pc as usize) % self.cfg.entries;
        let e = &mut self.table[slot];

        if !e.valid || e.pc != pc {
            if e.valid {
                self.stats.replacements += 1;
            }
            *e = Entry {
                pc,
                valid: true,
                last_addr: addr,
                stride: 0,
                state: State::Initial,
            };
            return None;
        }

        let stride = addr.wrapping_sub(e.last_addr) as i64;
        let matched = stride == e.stride && stride != 0;
        e.state = match (e.state, matched) {
            (State::Initial, true) => State::Transient,
            (State::Initial, false) => State::Initial,
            (State::Transient, true) => State::Steady,
            (State::Transient, false) => State::NoPred,
            (State::Steady, true) => State::Steady,
            (State::Steady, false) => State::Initial,
            (State::NoPred, true) => State::Transient,
            (State::NoPred, false) => State::NoPred,
        };
        if !matched {
            e.stride = stride;
        }
        e.last_addr = addr;

        if e.state == State::Steady {
            self.stats.emitted += 1;
            Some(addr.wrapping_add((e.stride * self.cfg.distance as i64) as u64))
        } else {
            None
        }
    }

    /// Serialises the table and statistics (geometry comes from the
    /// config, which the checkpoint header pins).
    pub fn save_state(&self, e: &mut Enc) {
        e.usize(self.table.len());
        for entry in &self.table {
            e.u32(entry.pc);
            e.bool(entry.valid);
            e.u64(entry.last_addr);
            e.i64(entry.stride);
            e.u8(match entry.state {
                State::Initial => 0,
                State::Transient => 1,
                State::Steady => 2,
                State::NoPred => 3,
            });
        }
        self.stats.save_state(e);
    }

    /// Restores the state saved by [`StridePrefetcher::save_state`]; the
    /// receiver must have the same table size.
    pub fn load_state(&mut self, d: &mut Dec) -> WireResult<()> {
        let n = d.usize()?;
        if n != self.table.len() {
            return Err(WireError {
                pos: 0,
                what: "prefetch table size mismatch",
            });
        }
        for entry in &mut self.table {
            entry.pc = d.u32()?;
            entry.valid = d.bool()?;
            entry.last_addr = d.u64()?;
            entry.stride = d.i64()?;
            entry.state = match d.u8()? {
                0 => State::Initial,
                1 => State::Transient,
                2 => State::Steady,
                3 => State::NoPred,
                _ => {
                    return Err(WireError {
                        pos: 0,
                        what: "prefetch entry state out of range",
                    })
                }
            };
        }
        self.stats.load_state(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_steady_stride() {
        let mut p = StridePrefetcher::new(RptConfig {
            entries: 8,
            distance: 2,
        });
        assert_eq!(p.observe(5, 1000), None); // allocate
        assert_eq!(p.observe(5, 1064), None); // initial -> transient
        assert_eq!(p.observe(5, 1128), None); // transient -> steady
                                              // steady: prefetch 2 strides ahead
        assert_eq!(p.observe(5, 1192), Some(1192 + 128));
        assert_eq!(p.observe(5, 1256), Some(1256 + 128));
    }

    #[test]
    fn random_addresses_never_predict() {
        let mut p = StridePrefetcher::new(RptConfig::default());
        let addrs = [100u64, 7000, 320, 99999, 12, 4096, 777];
        let mut emitted = 0;
        for &a in &addrs {
            if p.observe(9, a).is_some() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, 0, "irregular stream must not trigger prefetches");
    }

    #[test]
    fn stride_change_backs_off_then_relearns() {
        let mut p = StridePrefetcher::new(RptConfig {
            entries: 8,
            distance: 1,
        });
        for k in 0..4 {
            p.observe(3, 1000 + 8 * k);
        }
        // change stride: steady -> initial (no prefetch)
        assert_eq!(p.observe(3, 5000), None);
        // relearn the new stride
        p.observe(3, 5016);
        p.observe(3, 5032);
        assert_eq!(p.observe(3, 5048), Some(5048 + 16));
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::new(RptConfig {
            entries: 8,
            distance: 1,
        });
        for k in 0..3i64 {
            p.observe(1, (10_000 - 64 * k) as u64);
        }
        let got = p.observe(1, 10_000 - 192);
        assert_eq!(got, Some((10_000 - 256) as u64));
    }

    #[test]
    fn pc_conflicts_replace() {
        let mut p = StridePrefetcher::new(RptConfig {
            entries: 1,
            distance: 1,
        });
        p.observe(1, 100);
        p.observe(2, 200); // evicts pc 1
        assert_eq!(p.stats().replacements, 1);
        // pc 1 must retrain from scratch
        p.observe(1, 108);
        p.observe(1, 116);
        p.observe(1, 124);
        // entry was reallocated at the second observe; two matching
        // strides later it is steady again
        assert!(p.observe(1, 132).is_some());
    }

    #[test]
    fn distinct_pcs_track_independently() {
        let mut p = StridePrefetcher::new(RptConfig {
            entries: 16,
            distance: 1,
        });
        for k in 0..4u64 {
            p.observe(1, 1000 + 8 * k);
            p.observe(2, 9000 + 256 * k);
        }
        assert_eq!(p.observe(1, 1032), Some(1040));
        assert_eq!(p.observe(2, 10024), Some(10280));
    }
}
