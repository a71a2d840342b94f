//! The Register Update Unit: the instruction window of the out-of-order
//! core (SimpleScalar's RUU — a combined ROB/reservation-station array).
//!
//! The window is a fixed ring of `SLOTS` (64) entries addressed by sequence
//! number: the entry with sequence `seq` lives at slot `seq % 64`, the
//! same slot the wakeup masks (`Wakeup`) and the LSQ use. Sequence
//! numbers are contiguous and a window spans at most 64 of them, so a
//! lookup is a range check against the head plus an index, and iteration
//! walks the slots from the head's, oldest first.
//!
//! An entry carries its instruction's pc, not the instruction: the owning
//! core reads what it needs of the instruction from its decoded table (or
//! from the program) by pc.

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
#[derive(Debug, Clone, Copy)]
pub struct RuuEntry {
    /// Sequence number (dispatch order, contiguous).
    pub seq: u64,
    /// Static instruction index.
    pub pc: u32,
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
}

impl RuuEntry {
    /// Creates a fresh entry in the `Waiting` state.
    pub fn new(seq: u64, pc: u32) -> RuuEntry {
        RuuEntry {
            seq,
            pc,
            state: EntryState::Waiting,
            complete_at: 0,
            deps: [None; 3],
            payload: 0,
            predicted_taken: false,
            actual_taken: false,
            correct_next: 0,
            mispredicted: false,
        }
    }
}

/// The instruction window.
#[derive(Debug, Clone)]
pub struct Ruu {
    /// Entry `seq` at slot `seq % SLOTS`; slots outside the window hold
    /// stale entries that nothing reads.
    slots: [RuuEntry; SLOTS as usize],
    /// Sequence number of the oldest entry (the next to dispatch when
    /// the window is empty).
    head: u64,
    len: usize,
    capacity: usize,
    /// Entries in the `Waiting` state (maintained, not scanned).
    n_waiting: usize,
    /// Entries in the `Done` state (maintained, not scanned).
    n_done: usize,
}

impl Ruu {
    /// Creates an empty window of the given capacity (at most 64).
    pub fn new(capacity: usize) -> Ruu {
        assert!(
            capacity as u64 <= SLOTS,
            "RUU larger than its {SLOTS} slots"
        );
        Ruu {
            slots: [RuuEntry::new(0, 0); SLOTS as usize],
            head: 0,
            len: 0,
            capacity,
            n_waiting: 0,
            n_done: 0,
        }
    }

    /// True when no more instructions can dispatch.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of instructions in flight.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The sequence number the next dispatched instruction gets.
    fn next_seq(&self) -> u64 {
        self.head + self.len as u64
    }

    /// Allocates an entry for the instruction at `pc`; returns its
    /// sequence number. Panics when full (caller checks `is_full`).
    pub fn push(&mut self, pc: u32) -> u64 {
        assert!(!self.is_full(), "RUU overflow");
        let seq = self.next_seq();
        self.slots[slot(seq)] = RuuEntry::new(seq, pc);
        self.len += 1;
        self.n_waiting += 1;
        seq
    }

    /// The oldest entry.
    pub fn front(&self) -> Option<&RuuEntry> {
        self.get(self.head)
    }

    /// Removes the oldest entry, if any (read it through
    /// [`front`](Self::front) first).
    pub fn pop_front(&mut self) {
        let Some(e) = self.front() else { return };
        match e.state {
            EntryState::Waiting => self.n_waiting -= 1,
            EntryState::Done => self.n_done -= 1,
            EntryState::Issued => {}
        }
        self.head += 1;
        self.len -= 1;
    }

    /// True when `seq` is in the window: dispatched and not committed.
    fn holds(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.head) < self.len as u64
    }

    /// Looks up an entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&RuuEntry> {
        self.holds(seq).then(|| &self.slots[slot(seq)])
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RuuEntry> {
        self.holds(seq).then(|| &mut self.slots[slot(seq)])
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
    pub fn iter(&self) -> impl Iterator<Item = &RuuEntry> + Clone {
        (self.head..self.next_seq()).map(move |seq| &self.slots[slot(seq)])
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
    /// out of `Issued`; keeps the state counts exact.
    pub fn mark_done(&mut self, seq: u64) {
        self.n_done += 1;
        let e = self.get_mut(seq).expect("mark_done: seq not in window");
        debug_assert_eq!(e.state, EntryState::Issued);
        e.state = EntryState::Done;
    }

    /// `(waiting, done)` counts, maintained across state transitions —
    /// equal by construction to what a full window scan would count.
    pub fn state_counts(&self) -> (usize, usize) {
        (self.n_waiting, self.n_done)
    }

    /// Promotes `Issued` entries whose completion time has passed to
    /// `Done`.
    pub fn harvest_completions(&mut self, now: u64) {
        for seq in self.head..self.next_seq() {
            let e = &mut self.slots[slot(seq)];
            if e.state == EntryState::Issued && e.complete_at <= now {
                e.state = EntryState::Done;
                self.n_done += 1;
            }
        }
    }
}

/// Window slots: the ready-list scheduler keeps one bit per entry in a
/// `u64`, at slot `seq % 64`. A window of at most this many entries spans
/// fewer than 64 consecutive sequence numbers, so live slots are distinct.
pub(crate) const SLOTS: u64 = 64;

/// The window slot of sequence number `seq`.
pub(crate) fn slot(seq: u64) -> usize {
    (seq % SLOTS) as usize
}

/// The mask bit of sequence number `seq`.
pub(crate) fn slot_bit(seq: u64) -> u64 {
    1 << (seq % SLOTS)
}

/// Ready-list wakeup state, bit-parallel over window slots: which
/// `Waiting` entries have all their operands, and who waits on whom.
#[derive(Debug, Clone)]
pub(crate) struct Wakeup {
    /// `Waiting` entries whose producers have all completed.
    pub(crate) ready: u64,
    /// Per slot: the consumer slots waiting on this entry's result.
    dependents: [u64; SLOTS as usize],
    /// Per slot: the producer slots this entry still waits on. The entry
    /// joins `ready` when this reaches 0; a duplicated operand is one bit,
    /// so it needs no count.
    wait: [u64; SLOTS as usize],
}

impl Default for Wakeup {
    fn default() -> Self {
        Wakeup {
            ready: 0,
            dependents: [0; SLOTS as usize],
            wait: [0; SLOTS as usize],
        }
    }
}

impl Wakeup {
    /// Registers a dispatched `Waiting` entry with its unfinished
    /// producers; with none it is ready at once. The slot's previous
    /// occupant committed, so its masks are already clear.
    pub(crate) fn link(&mut self, seq: u64, producers: impl Iterator<Item = u64>) {
        let bit = slot_bit(seq);
        let mut wait = 0;
        for p in producers {
            self.dependents[slot(p)] |= bit;
            wait |= slot_bit(p);
        }
        self.wait[slot(seq)] = wait;
        if wait == 0 {
            self.ready |= bit;
        }
    }

    /// Wakes the consumers of `seq`, which just completed: each stops
    /// waiting on it, and those left waiting on nothing become ready.
    pub(crate) fn complete(&mut self, seq: u64) {
        let bit = slot_bit(seq);
        let mut woken = std::mem::take(&mut self.dependents[slot(seq)]);
        while woken != 0 {
            let c = woken.trailing_zeros() as usize;
            woken &= woken - 1;
            self.wait[c] &= !bit;
            if self.wait[c] == 0 {
                self.ready |= 1 << c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_numbers_are_contiguous_and_lookup_works() {
        let mut r = Ruu::new(4);
        let a = r.push(0);
        let b = r.push(1);
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
        r.push(0);
        assert!(!r.is_full());
        r.push(1);
        assert!(r.is_full());
    }

    #[test]
    fn producer_done_semantics() {
        let mut r = Ruu::new(4);
        let a = r.push(0);
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
        let a = r.push(0);
        let b = r.push(1);
        assert_eq!(r.state_counts(), (2, 0));
        r.mark_issued(a, 3);
        assert_eq!(r.state_counts(), (1, 0));
        r.mark_done(a);
        assert_eq!(r.state_counts(), (1, 1));
        r.pop_front(); // pops a (Done)
        assert_eq!(r.state_counts(), (1, 0));
        r.mark_issued(b, 9);
        r.harvest_completions(9);
        assert_eq!(r.state_counts(), (0, 1));
    }

    #[test]
    fn ring_lookup_and_order_across_the_wrap() {
        let mut r = Ruu::new(8);
        // Move the head to seq 60 so the window straddles slot 63.
        for pc in 0..60 {
            r.push(pc);
            r.pop_front();
        }
        let seqs: Vec<u64> = (0..8).map(|i| r.push(100 + i)).collect();
        assert_eq!(seqs, (60..68).collect::<Vec<_>>());
        assert!(r.is_full());
        let in_order = |r: &Ruu| r.iter().map(|e| (e.seq, e.pc)).collect::<Vec<_>>();
        assert_eq!(
            in_order(&r),
            (60..68).map(|s| (s, s as u32 + 40)).collect::<Vec<_>>()
        );
        for &s in &seqs {
            assert_eq!(r.get(s).unwrap().seq, s);
        }
        // 65 sits at slot 1, the slot committed seq 1 used.
        r.get_mut(65).unwrap().payload = 7;
        assert_eq!(r.get(65).unwrap().payload, 7);
        for gone in [1, 59] {
            assert!(r.get(gone).is_none(), "committed seq {gone}");
            assert!(r.producer_done(gone, 0), "committed seq {gone} is done");
        }
        for ahead in [68, 68 + 64, u64::MAX] {
            assert!(r.get(ahead).is_none(), "undispatched seq {ahead}");
            assert!(r.get_mut(ahead).is_none(), "undispatched seq {ahead}");
        }
        r.mark_issued(64, 10);
        assert!(!r.producer_done(64, 20), "issued, not done");
        assert!(!r.producer_done(63, 20), "waiting");
        r.harvest_completions(10);
        assert!(r.producer_done(64, 10));
        assert_eq!(r.state_counts(), (7, 1));
        for s in 60..64 {
            assert_eq!(r.front().unwrap().seq, s);
            r.pop_front();
        }
        assert!(r.get(63).is_none());
        assert_eq!(r.front().unwrap().seq, 64);
        assert_eq!(r.push(0), 68);
        assert_eq!(
            in_order(&r).iter().map(|p| p.0).collect::<Vec<_>>(),
            (64..69).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wakeup_masks_ready_consumers_across_the_ring_wrap() {
        let mut w = Wakeup::default();
        // Producers at seqs 62 and 63, consumers at 64 and 65 (slots 0 and
        // 1, past the wrap): 64 reads 62 twice, 65 reads 62 and 63.
        w.link(62, std::iter::empty());
        w.link(63, std::iter::empty());
        w.link(64, [62, 62].into_iter());
        w.link(65, [62, 63].into_iter());
        assert_eq!(w.ready, slot_bit(62) | slot_bit(63));
        w.ready &= !(slot_bit(62) | slot_bit(63)); // both issue
        w.complete(62);
        // The duplicated operand is one wait bit: 64 is ready after one
        // completion; 65 still waits on 63.
        assert_eq!(w.ready, slot_bit(64));
        w.complete(63);
        assert_eq!(w.ready, slot_bit(64) | slot_bit(65));
        // 126 reuses slot 62 (its occupant completed and committed) and
        // waits on 65; it must not inherit 62's old consumers.
        w.ready = 0;
        w.link(126, [65].into_iter());
        assert_eq!(w.ready, 0);
        w.complete(126);
        assert_eq!(w.ready, 0, "126 has no consumers");
        w.complete(65);
        assert_eq!(w.ready, slot_bit(126));
    }

    #[test]
    #[should_panic]
    fn push_past_capacity_panics() {
        let mut r = Ruu::new(1);
        r.push(0);
        r.push(1);
    }
}
