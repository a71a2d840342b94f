//! Per-core execution statistics.

use hidisc_isa::wire::Counters;
use hidisc_isa::Queue;
use std::slice::from_mut as one;

#[inline]
fn qslot(q: Queue) -> usize {
    match q {
        Queue::Ldq => 0,
        Queue::Sdq => 1,
        Queue::Cdq => 2,
        Queue::Cq => 3,
        Queue::Scq => 4,
    }
}

/// Counters accumulated by one [`crate::core::OooCore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles this core was stepped.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// ... of which memory operations.
    pub committed_mem: u64,
    /// Instructions dispatched.
    pub dispatched: u64,
    /// Cycles dispatch was stalled popping each queue (LDQ, SDQ, CDQ, CQ,
    /// SCQ). These are the paper's loss-of-decoupling cycles.
    pub dispatch_stall_q: [u64; 5],
    /// Cycles commit was stalled pushing each queue (full) or waiting for
    /// store data.
    pub commit_stall_q: [u64; 5],
    /// Distinct episodes (not cycles) of dispatch blocking on an empty
    /// queue — the paper's loss-of-decoupling *events*.
    pub lod_events: u64,
    /// Cycles dispatch was stalled because the RUU was full.
    pub ruu_full_cycles: u64,
    /// Cycles dispatch was stalled because the LSQ was full.
    pub lsq_full_cycles: u64,
    /// Conditional-branch mispredictions (resolution-time redirects).
    pub mispredicts: u64,
    /// Consume-branch redirects (CQ token disagreed with the prediction).
    pub cbranch_redirects: u64,
    /// Cycles dispatch was stalled because a load's value depended on an
    /// older store whose data was not yet available (memory-carried
    /// cross-stream dependence).
    pub mem_dep_stalls: u64,
    /// Loads forwarded from the store queue.
    pub forwarded_loads: u64,
    /// Load issues rejected by a full MSHR file (retried).
    pub mshr_retries: u64,
    /// Prefetches dropped because no MSHR was available.
    pub dropped_prefetches: u64,
    /// CMAS trigger forks fired at commit.
    pub triggers_fired: u64,
}

impl CoreStats {
    /// Adds a dispatch-stall cycle on `q`.
    pub fn stall_dispatch(&mut self, q: Queue) {
        self.dispatch_stall_q[qslot(q)] += 1;
    }

    /// Adds a commit-stall cycle on `q`.
    pub fn stall_commit(&mut self, q: Queue) {
        self.commit_stall_q[qslot(q)] += 1;
    }

    /// Total cycles dispatch spent blocked on queue pops.
    pub fn total_dispatch_stall(&self) -> u64 {
        self.dispatch_stall_q.iter().sum()
    }

    /// Committed instructions per cycle *of this stream* (not the
    /// workload-level IPC, which is computed by the machine driver).
    pub fn stream_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

impl Counters for CoreStats {
    fn fields(&mut self, mut f: impl FnMut(&'static str, bool, &mut [u64])) {
        let CoreStats {
            cycles,
            committed,
            committed_mem,
            dispatched,
            dispatch_stall_q,
            commit_stall_q,
            lod_events,
            ruu_full_cycles,
            lsq_full_cycles,
            mispredicts,
            cbranch_redirects,
            mem_dep_stalls,
            forwarded_loads,
            mshr_retries,
            dropped_prefetches,
            triggers_fired,
        } = self;
        f("cycles", true, one(cycles));
        f("committed", false, one(committed));
        f("committedMem", false, one(committed_mem));
        f("dispatched", false, one(dispatched));
        f("dispatchStallQ", true, dispatch_stall_q);
        f("commitStallQ", true, commit_stall_q);
        f("lodEvents", false, one(lod_events));
        f("ruuFullCycles", true, one(ruu_full_cycles));
        f("lsqFullCycles", true, one(lsq_full_cycles));
        f("mispredicts", false, one(mispredicts));
        f("cbranchRedirects", false, one(cbranch_redirects));
        f("memDepStalls", true, one(mem_dep_stalls));
        f("forwardedLoads", false, one(forwarded_loads));
        f("mshrRetries", true, one(mshr_retries));
        f("droppedPrefetches", false, one(dropped_prefetches));
        f("triggersFired", false, one(triggers_fired));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_accounting() {
        let mut s = CoreStats::default();
        s.stall_dispatch(Queue::Ldq);
        s.stall_dispatch(Queue::Ldq);
        s.stall_dispatch(Queue::Cq);
        s.stall_commit(Queue::Sdq);
        assert_eq!(s.dispatch_stall_q[0], 2);
        assert_eq!(s.dispatch_stall_q[3], 1);
        assert_eq!(s.commit_stall_q[1], 1);
        assert_eq!(s.total_dispatch_stall(), 3);
    }

    #[test]
    fn stream_ipc() {
        let s = CoreStats {
            cycles: 10,
            committed: 25,
            ..Default::default()
        };
        assert!((s.stream_ipc() - 2.5).abs() < 1e-12);
        assert_eq!(CoreStats::default().stream_ipc(), 0.0);
    }
}
