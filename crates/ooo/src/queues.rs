//! The architectural FIFO queues of the decoupled machine.
//!
//! One [`QueueFile`] is shared by all processors of a machine
//! configuration. Each queue is a bounded FIFO of raw 64-bit values with
//! occupancy statistics; the Slip Control Queue is a counting semaphore
//! realised as a queue of unit tokens.
//!
//! The Store Address Queue of the paper is not modelled as a separate
//! structure: store addresses wait in the Access Processor's load/store
//! queue, which plays exactly the SAQ role (address buffered, store
//! performs when the SDQ provides data).

use hidisc_isa::wire::{Counters, Dec, Enc, WireResult};
use hidisc_isa::Queue;
use std::collections::VecDeque;
use std::slice::from_mut as one;

/// Capacity of each queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Load Data Queue capacity.
    pub ldq: usize,
    /// Store Data Queue capacity.
    pub sdq: usize,
    /// Computation Data Queue capacity.
    pub cdq: usize,
    /// Control Queue capacity.
    pub cq: usize,
    /// Slip Control Queue capacity — this is the CMAS prefetch run-ahead
    /// distance in loop iterations (the analogue of the paper's
    /// 512-instruction trigger window).
    pub scq: usize,
}

impl QueueConfig {
    /// Default capacities used by the experiments (data queues 32 entries
    /// as in Table 1's "32 entries load store queues"; CQ 64; SCQ 64
    /// iterations).
    pub fn paper() -> QueueConfig {
        QueueConfig {
            ldq: 32,
            sdq: 32,
            cdq: 32,
            cq: 64,
            scq: 12,
        }
    }

    fn cap(&self, q: Queue) -> usize {
        match q {
            Queue::Ldq => self.ldq,
            Queue::Sdq => self.sdq,
            Queue::Cdq => self.cdq,
            Queue::Cq => self.cq,
            Queue::Scq => self.scq,
        }
    }
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig::paper()
    }
}

/// Per-queue statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successful pushes.
    pub pushes: u64,
    /// Successful pops.
    pub pops: u64,
    /// Push attempts rejected because the queue was full.
    pub full_rejects: u64,
    /// Pop attempts rejected because the queue was empty.
    pub empty_rejects: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: u64,
}

/// The set of architectural queues.
#[derive(Debug, Clone)]
pub struct QueueFile {
    cfg: QueueConfig,
    queues: [VecDeque<u64>; 5],
    stats: [QueueStats; 5],
}

#[inline]
fn qi(q: Queue) -> usize {
    match q {
        Queue::Ldq => 0,
        Queue::Sdq => 1,
        Queue::Cdq => 2,
        Queue::Cq => 3,
        Queue::Scq => 4,
    }
}

impl QueueFile {
    /// Creates empty queues with the given capacities.
    pub fn new(cfg: QueueConfig) -> QueueFile {
        QueueFile {
            cfg,
            queues: Default::default(),
            stats: Default::default(),
        }
    }

    /// Attempts to push; returns false (and counts a reject) when full.
    pub fn try_push(&mut self, q: Queue, v: u64) -> bool {
        let i = qi(q);
        if self.queues[i].len() >= self.cfg.cap(q) {
            self.stats[i].full_rejects += 1;
            return false;
        }
        self.queues[i].push_back(v);
        self.stats[i].pushes += 1;
        let occ = self.queues[i].len() as u64;
        if occ > self.stats[i].max_occupancy {
            self.stats[i].max_occupancy = occ;
        }
        true
    }

    /// Attempts to pop; returns `None` (and counts a reject) when empty.
    pub fn try_pop(&mut self, q: Queue) -> Option<u64> {
        let i = qi(q);
        match self.queues[i].pop_front() {
            Some(v) => {
                self.stats[i].pops += 1;
                Some(v)
            }
            None => {
                self.stats[i].empty_rejects += 1;
                None
            }
        }
    }

    /// Current occupancy of `q`.
    pub fn len(&self, q: Queue) -> usize {
        self.queues[qi(q)].len()
    }

    /// True when `q` is empty.
    pub fn is_empty(&self, q: Queue) -> bool {
        self.queues[qi(q)].is_empty()
    }

    /// True when `q` is full.
    pub fn is_full(&self, q: Queue) -> bool {
        self.queues[qi(q)].len() >= self.cfg.cap(q)
    }

    /// Statistics for `q`.
    pub fn stats(&self, q: Queue) -> &QueueStats {
        &self.stats[qi(q)]
    }

    /// The configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// True when every queue is empty (used by deadlock/termination
    /// checks).
    pub fn all_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Statistics of all five queues, in [`hidisc_isa::Queue::ALL`] order.
    pub fn all_stats(&self) -> [QueueStats; 5] {
        self.stats
    }

    /// Structural-progress fingerprint: changes whenever any queue's
    /// contents change. Reject counters and the occupancy high-water mark
    /// are deliberately excluded — they also move on cycles where nothing
    /// happens architecturally (an empty pop / full push retried every
    /// cycle), which is exactly what the machine's fast-forward skips.
    pub fn progress_token(&self) -> u64 {
        let mut h = 0u64;
        for s in &self.stats {
            h = token_mix(h, s.pushes);
            h = token_mix(h, s.pops);
        }
        h
    }

    /// Fingerprint of the queue *contents* only (no statistics): two
    /// machines whose in-flight queue data differs get different tokens.
    /// Used by the bisect state digest, which compares architectural state
    /// and deliberately ignores timing counters.
    pub fn content_token(&self, mut h: u64) -> u64 {
        for q in &self.queues {
            h = token_mix(h, q.len() as u64);
            for &v in q {
                h = token_mix(h, v);
            }
        }
        h
    }

    /// Replays the statistics of `k` identical idle cycles, `delta` being
    /// the per-queue delta one idle cycle added.
    pub fn add_idle_scaled(&mut self, delta: &[QueueStats; 5], k: u64) {
        for (s, d) in self.stats.iter_mut().zip(delta) {
            s.add_idle_scaled(d, k);
        }
    }

    /// Serialises contents and statistics (capacities come from the
    /// config, which the checkpoint header pins).
    pub fn save_state(&self, e: &mut Enc) {
        for q in &self.queues {
            e.usize(q.len());
            for &v in q {
                e.u64(v);
            }
        }
        for s in &self.stats {
            s.save_state(e);
        }
    }

    /// Restores contents and statistics from a
    /// [`save_state`](Self::save_state) stream.
    pub fn load_state(&mut self, d: &mut Dec) -> WireResult<()> {
        for q in self.queues.iter_mut() {
            let n = d.usize()?;
            q.clear();
            for _ in 0..n {
                q.push_back(d.u64()?);
            }
        }
        for s in self.stats.iter_mut() {
            s.load_state(d)?;
        }
        Ok(())
    }
}

impl Counters for QueueStats {
    fn fields(&mut self, mut f: impl FnMut(&'static str, bool, &mut [u64])) {
        let QueueStats {
            pushes,
            pops,
            full_rejects,
            empty_rejects,
            max_occupancy,
        } = self;
        f("pushes", false, one(pushes));
        f("pops", false, one(pops));
        f("fullRejects", true, one(full_rejects));
        f("emptyRejects", true, one(empty_rejects));
        f("maxOccupancy", false, one(max_occupancy));
    }
}

/// One step of the order-sensitive mixing hash used by the
/// progress-token fingerprints (FxHash-style multiply/rotate).
pub fn token_mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qf(cap: usize) -> QueueFile {
        QueueFile::new(QueueConfig {
            ldq: cap,
            sdq: cap,
            cdq: cap,
            cq: cap,
            scq: cap,
        })
    }

    #[test]
    fn fifo_order() {
        let mut f = qf(4);
        assert!(f.try_push(Queue::Ldq, 1));
        assert!(f.try_push(Queue::Ldq, 2));
        assert_eq!(f.try_pop(Queue::Ldq), Some(1));
        assert_eq!(f.try_pop(Queue::Ldq), Some(2));
        assert_eq!(f.try_pop(Queue::Ldq), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut f = qf(2);
        assert!(f.try_push(Queue::Sdq, 1));
        assert!(f.try_push(Queue::Sdq, 2));
        assert!(!f.try_push(Queue::Sdq, 3));
        assert!(f.is_full(Queue::Sdq));
        assert_eq!(f.stats(Queue::Sdq).full_rejects, 1);
        f.try_pop(Queue::Sdq);
        assert!(f.try_push(Queue::Sdq, 3));
    }

    #[test]
    fn queues_are_independent() {
        let mut f = qf(2);
        f.try_push(Queue::Ldq, 10);
        f.try_push(Queue::Cq, 20);
        assert_eq!(f.len(Queue::Ldq), 1);
        assert_eq!(f.len(Queue::Cq), 1);
        assert_eq!(f.len(Queue::Sdq), 0);
        assert_eq!(f.try_pop(Queue::Cq), Some(20));
        assert!(!f.all_empty());
        f.try_pop(Queue::Ldq);
        assert!(f.all_empty());
    }

    #[test]
    fn stats_track_rejects_and_highwater() {
        let mut f = qf(3);
        f.try_pop(Queue::Cdq);
        assert_eq!(f.stats(Queue::Cdq).empty_rejects, 1);
        f.try_push(Queue::Cdq, 1);
        f.try_push(Queue::Cdq, 2);
        f.try_pop(Queue::Cdq);
        f.try_push(Queue::Cdq, 3);
        assert_eq!(f.stats(Queue::Cdq).max_occupancy, 2);
        assert_eq!(f.stats(Queue::Cdq).pushes, 3);
        assert_eq!(f.stats(Queue::Cdq).pops, 1);
    }
}
