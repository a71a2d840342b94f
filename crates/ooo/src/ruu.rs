//! The Register Update Unit: the instruction window of the out-of-order
//! core (SimpleScalar's RUU — a combined ROB/reservation-station array).
//!
//! Entries are kept in dispatch order; sequence numbers are contiguous, so
//! an entry can be located by `seq - front_seq` in O(1).

use hidisc_isa::instr::{FuClass, Instr};
use hidisc_isa::wire::{Dec, Enc, WireError, WireResult};
use std::collections::VecDeque;

/// Timing state of an RUU entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Dispatched, waiting for operands or a functional unit.
    Waiting,
    /// Issued to a functional unit; completes at `complete_at`.
    Issued,
    /// Result available.
    Done,
}

/// One instruction in flight.
#[derive(Debug, Clone)]
pub struct RuuEntry {
    /// Sequence number (dispatch order, contiguous).
    pub seq: u64,
    /// Static instruction index.
    pub pc: u32,
    /// The instruction.
    pub instr: Instr,
    /// Functional-unit class.
    pub fu: FuClass,
    /// Timing state.
    pub state: EntryState,
    /// Cycle the result becomes available (valid once issued).
    pub complete_at: u64,
    /// Producers of the source operands (sequence numbers); `None` = ready
    /// at dispatch.
    pub deps: [Option<u64>; 3],
    /// Value carried to commit (queue pushes: the 64-bit payload to push).
    pub payload: u64,
    /// Conditional branch: direction predicted at fetch.
    pub predicted_taken: bool,
    /// Conditional branch: actual direction (known at dispatch).
    pub actual_taken: bool,
    /// The correct next pc (branches only).
    pub correct_next: u32,
    /// This branch was mispredicted; fetch resumes when it completes.
    pub mispredicted: bool,
    /// Index is a memory instruction with a matching LSQ entry.
    pub is_mem: bool,
    /// Ready-list scheduling: younger entries waiting on this entry's
    /// result (sequence numbers registered at their dispatch). The buffer
    /// is recycled through the [`Ruu`], not freed, once its consumers wake.
    pub consumers: Vec<u64>,
    /// Ready-list scheduling: source operands whose producer has not yet
    /// completed. The entry enters the ready queue when this reaches 0.
    pub pending_deps: u8,
}

impl RuuEntry {
    /// Creates a fresh entry in the `Waiting` state.
    pub fn new(seq: u64, pc: u32, instr: Instr) -> RuuEntry {
        RuuEntry {
            seq,
            pc,
            instr,
            fu: instr.fu_class(),
            state: EntryState::Waiting,
            complete_at: 0,
            deps: [None; 3],
            payload: 0,
            predicted_taken: false,
            actual_taken: false,
            correct_next: 0,
            mispredicted: false,
            is_mem: instr.is_mem(),
            consumers: Vec::new(),
            pending_deps: 0,
        }
    }
}

/// The instruction window.
#[derive(Debug, Clone)]
pub struct Ruu {
    entries: VecDeque<RuuEntry>,
    capacity: usize,
    next_seq: u64,
    /// Entries in the `Waiting` state (maintained, not scanned).
    n_waiting: usize,
    /// Entries in the `Done` state (maintained, not scanned).
    n_done: usize,
    /// Cleared consumer buffers handed back by [`Ruu::recycle`], reused
    /// by [`Ruu::push`] so wakeup links cost no allocation in steady
    /// state. Each push takes one and each entry gives back at most one,
    /// so the list never holds more than `capacity` buffers.
    spare: Vec<Vec<u64>>,
}

impl Ruu {
    /// Creates an empty window of the given capacity.
    pub fn new(capacity: usize) -> Ruu {
        Ruu {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
            n_waiting: 0,
            n_done: 0,
            spare: Vec::with_capacity(capacity),
        }
    }

    /// True when no more instructions can dispatch.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of instructions in flight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Allocates an entry; returns its sequence number. Panics when full
    /// (caller checks `is_full`).
    pub fn push(&mut self, pc: u32, instr: Instr) -> u64 {
        assert!(!self.is_full(), "RUU overflow");
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut e = RuuEntry::new(seq, pc, instr);
        if let Some(buf) = self.spare.pop() {
            e.consumers = buf;
        }
        self.entries.push_back(e);
        self.n_waiting += 1;
        seq
    }

    /// The oldest entry.
    pub fn front(&self) -> Option<&RuuEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<RuuEntry> {
        let e = self.entries.pop_front();
        match e.as_ref().map(|e| e.state) {
            Some(EntryState::Waiting) => self.n_waiting -= 1,
            Some(EntryState::Done) => self.n_done -= 1,
            _ => {}
        }
        e
    }

    /// Looks up an entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&RuuEntry> {
        let front = self.entries.front()?.seq;
        if seq < front {
            return None;
        }
        self.entries.get((seq - front) as usize)
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RuuEntry> {
        let front = self.entries.front()?.seq;
        if seq < front {
            return None;
        }
        self.entries.get_mut((seq - front) as usize)
    }

    /// True if the producer with sequence `seq` has its result available at
    /// `now` — i.e. it already committed (left the window) or is `Done`.
    pub fn producer_done(&self, seq: u64, now: u64) -> bool {
        match self.get(seq) {
            None => true, // committed
            Some(e) => e.state == EntryState::Done && e.complete_at <= now,
        }
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RuuEntry> {
        self.entries.iter()
    }

    /// Mutable iteration oldest → youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RuuEntry> {
        self.entries.iter_mut()
    }

    /// Marks `seq` as issued, completing at `complete_at`. The only legal
    /// transition out of `Waiting`; keeps the state counts exact.
    pub fn mark_issued(&mut self, seq: u64, complete_at: u64) {
        let e = self.get_mut(seq).expect("mark_issued: seq not in window");
        debug_assert_eq!(e.state, EntryState::Waiting);
        e.state = EntryState::Issued;
        e.complete_at = complete_at;
        self.n_waiting -= 1;
    }

    /// Marks `seq` as done (result available). The only legal transition
    /// out of `Issued`; keeps the state counts exact. Returns the consumer
    /// list registered on the entry (the entry's own is left empty), for
    /// wakeup; hand it back with [`recycle`](Self::recycle) afterwards.
    pub fn mark_done(&mut self, seq: u64) -> Vec<u64> {
        self.n_done += 1;
        let e = self.get_mut(seq).expect("mark_done: seq not in window");
        debug_assert_eq!(e.state, EntryState::Issued);
        e.state = EntryState::Done;
        std::mem::take(&mut e.consumers)
    }

    /// Takes back a consumer buffer returned by
    /// [`mark_done`](Self::mark_done); the next [`push`](Self::push)
    /// reuses its allocation.
    pub fn recycle(&mut self, mut consumers: Vec<u64>) {
        consumers.clear();
        self.spare.push(consumers);
    }

    /// `(waiting, done)` counts, maintained across state transitions —
    /// equal by construction to what a full window scan would count.
    pub fn state_counts(&self) -> (usize, usize) {
        (self.n_waiting, self.n_done)
    }

    /// Promotes `Issued` entries whose completion time has passed to
    /// `Done`.
    pub fn harvest_completions(&mut self, now: u64) {
        for e in self.entries.iter_mut() {
            if e.state == EntryState::Issued && e.complete_at <= now {
                e.state = EntryState::Done;
                self.n_done += 1;
            }
        }
    }

    /// Serialises the window. Instructions are *not* stored — only
    /// correct-path instructions dispatch (functional execution is
    /// in-order), so the loader re-derives them from the static program
    /// by pc.
    pub fn save_state(&self, e: &mut Enc) {
        e.u64(self.next_seq);
        e.usize(self.entries.len());
        for en in &self.entries {
            e.u64(en.seq);
            e.u32(en.pc);
            e.u8(match en.state {
                EntryState::Waiting => 0,
                EntryState::Issued => 1,
                EntryState::Done => 2,
            });
            e.u64(en.complete_at);
            for dep in en.deps {
                match dep {
                    None => e.bool(false),
                    Some(s) => {
                        e.bool(true);
                        e.u64(s);
                    }
                }
            }
            e.u64(en.payload);
            e.bool(en.predicted_taken);
            e.bool(en.actual_taken);
            e.u32(en.correct_next);
            e.bool(en.mispredicted);
            e.usize(en.consumers.len());
            for &c in &en.consumers {
                e.u64(c);
            }
            e.u8(en.pending_deps);
        }
    }

    /// Restores from a [`save_state`](Self::save_state) stream.
    /// `instr_at` resolves a pc to the static instruction (the owning
    /// core's program); state counts are recomputed.
    pub fn load_state(
        &mut self,
        d: &mut Dec,
        mut instr_at: impl FnMut(u32) -> Option<Instr>,
    ) -> WireResult<()> {
        self.next_seq = d.u64()?;
        let n = d.usize()?;
        self.entries.clear();
        self.spare.clear();
        self.n_waiting = 0;
        self.n_done = 0;
        for _ in 0..n {
            let seq = d.u64()?;
            let pc = d.u32()?;
            let instr = instr_at(pc).ok_or(WireError {
                pos: 0,
                what: "ruu pc out of program range",
            })?;
            let mut en = RuuEntry::new(seq, pc, instr);
            en.state = match d.u8()? {
                0 => EntryState::Waiting,
                1 => EntryState::Issued,
                2 => EntryState::Done,
                _ => {
                    return Err(WireError {
                        pos: 0,
                        what: "ruu state out of range",
                    })
                }
            };
            en.complete_at = d.u64()?;
            for dep in en.deps.iter_mut() {
                *dep = if d.bool()? { Some(d.u64()?) } else { None };
            }
            en.payload = d.u64()?;
            en.predicted_taken = d.bool()?;
            en.actual_taken = d.bool()?;
            en.correct_next = d.u32()?;
            en.mispredicted = d.bool()?;
            let nc = d.usize()?;
            en.consumers = (0..nc).map(|_| d.u64()).collect::<WireResult<_>>()?;
            en.pending_deps = d.u8()?;
            match en.state {
                EntryState::Waiting => self.n_waiting += 1,
                EntryState::Done => self.n_done += 1,
                EntryState::Issued => {}
            }
            self.entries.push_back(en);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::Instr;

    #[test]
    fn seq_numbers_are_contiguous_and_lookup_works() {
        let mut r = Ruu::new(4);
        let a = r.push(0, Instr::Nop);
        let b = r.push(1, Instr::Nop);
        assert_eq!(b, a + 1);
        assert_eq!(r.get(a).unwrap().pc, 0);
        assert_eq!(r.get(b).unwrap().pc, 1);
        r.pop_front();
        assert!(r.get(a).is_none());
        assert_eq!(r.get(b).unwrap().pc, 1);
    }

    #[test]
    fn capacity_respected() {
        let mut r = Ruu::new(2);
        r.push(0, Instr::Nop);
        assert!(!r.is_full());
        r.push(1, Instr::Nop);
        assert!(r.is_full());
    }

    #[test]
    fn producer_done_semantics() {
        let mut r = Ruu::new(4);
        let a = r.push(0, Instr::Nop);
        assert!(!r.producer_done(a, 10)); // Waiting
        r.mark_issued(a, 5);
        assert!(!r.producer_done(a, 4));
        r.harvest_completions(5);
        assert!(r.producer_done(a, 5));
        r.pop_front();
        assert!(r.producer_done(a, 0)); // committed ⇒ done
    }

    #[test]
    fn state_counts_track_transitions() {
        let mut r = Ruu::new(4);
        let a = r.push(0, Instr::Nop);
        let b = r.push(1, Instr::Nop);
        assert_eq!(r.state_counts(), (2, 0));
        r.mark_issued(a, 3);
        assert_eq!(r.state_counts(), (1, 0));
        let woken = r.mark_done(a);
        assert!(woken.is_empty());
        assert_eq!(r.state_counts(), (1, 1));
        r.pop_front(); // pops a (Done)
        assert_eq!(r.state_counts(), (1, 0));
        r.mark_issued(b, 9);
        r.harvest_completions(9);
        assert_eq!(r.state_counts(), (0, 1));
    }

    #[test]
    fn mark_done_returns_registered_consumers() {
        let mut r = Ruu::new(4);
        let a = r.push(0, Instr::Nop);
        let b = r.push(1, Instr::Nop);
        r.get_mut(a).unwrap().consumers.push(b);
        r.get_mut(b).unwrap().pending_deps = 1;
        r.mark_issued(a, 2);
        assert_eq!(r.mark_done(a), vec![b]);
        assert!(r.get(a).unwrap().consumers.is_empty());
    }

    #[test]
    fn recycled_consumer_buffers_are_reused_empty() {
        let mut r = Ruu::new(4);
        let a = r.push(0, Instr::Nop);
        let b = r.push(1, Instr::Nop);
        r.get_mut(a).unwrap().consumers.push(b);
        r.mark_issued(a, 2);
        let woken = r.mark_done(a);
        let ptr = woken.as_ptr();
        r.recycle(woken);
        let c = r.push(2, Instr::Nop);
        let e = r.get(c).unwrap();
        assert!(e.consumers.is_empty());
        assert_eq!(e.consumers.as_ptr(), ptr, "buffer was reallocated");
    }

    #[test]
    #[should_panic]
    fn push_past_capacity_panics() {
        let mut r = Ruu::new(1);
        r.push(0, Instr::Nop);
        r.push(1, Instr::Nop);
    }
}
