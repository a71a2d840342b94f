//! The load/store queue.
//!
//! Holds in-flight memory operations in program order. Besides the usual
//! disambiguation and store-to-load forwarding, the LSQ plays the role of
//! the paper's **Store Address Queue**: a `s.q` store sits here with its
//! address while its data is popped from the Store Data Queue in FIFO
//! order, letting the Access Processor run ahead of the Computation
//! Processor's store data.
//!
//! Each entry lives at its RUU slot (`seq % 64`, see [`crate::ruu`]), and
//! `u64` masks over those slots say which are occupied, which hold stores
//! not yet performed, which hold `s.q` stores still waiting for data and
//! which are performed. Rotated so the oldest entry's slot is bit 0, a
//! mask lists its entries in age order: a store search or the data pump
//! visits only the entries that can matter, and lookup and removal are
//! O(1).

use crate::ruu::{slot, slot_bit, SLOTS};
use hidisc_isa::instr::Width;
use hidisc_isa::Queue;

/// One in-flight memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqEntry {
    /// Sequence number of the owning RUU entry.
    pub seq: u64,
    /// True for stores (including `s.q`).
    pub is_store: bool,
    /// Effective address (known at dispatch — functional execution is
    /// in-order).
    pub addr: u64,
    /// Access width.
    pub width: Width,
    /// Store data (raw i64) — valid when `data_known`.
    pub value: i64,
    /// Store data availability. Always true for loads and plain stores;
    /// starts false for `s.q` until the SDQ delivers.
    pub data_known: bool,
    /// For `s.q`: the queue the data comes from.
    pub data_queue: Option<Queue>,
    /// The store has written memory / the load has received its data.
    pub performed: bool,
}

impl LsqEntry {
    fn range(&self) -> (u64, u64) {
        (self.addr, self.addr + self.width.bytes())
    }

    /// Byte-range overlap test.
    pub fn overlaps(&self, addr: u64, width: Width) -> bool {
        let (a0, a1) = self.range();
        let b0 = addr;
        let b1 = addr + width.bytes();
        a0 < b1 && b0 < a1
    }

    /// Exact-cover test used for store-to-load forwarding (same address,
    /// same width).
    pub fn covers_exactly(&self, addr: u64, width: Width) -> bool {
        self.addr == addr && self.width == width
    }
}

/// What the LSQ says about a load's interaction with older stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// No older store overlaps: access memory freely.
    Clear,
    /// The youngest overlapping older store covers the load exactly and
    /// its data is known: forward this value.
    Forward(i64),
    /// An older overlapping store has unknown data or only partially
    /// covers the load: the load must wait (seq of the blocking store).
    Blocked(u64),
}

/// The load/store queue.
#[derive(Debug, Clone)]
pub struct Lsq {
    /// Entry `seq` at slot `seq % SLOTS`; only occupied slots are read.
    slots: [LsqEntry; SLOTS as usize],
    capacity: usize,
    /// Sequence number of the oldest entry (meaningless when empty). All
    /// entries are in one window, so they lie in `[head, head + 64)`.
    head: u64,
    /// Slots holding an entry.
    occupied: u64,
    /// Stores not yet performed: the entries a load can collide with.
    pending_stores: u64,
    /// Entries without their data: `s.q` stores waiting on their queue.
    waiting: u64,
    /// Entries with `performed` set.
    performed: u64,
}

impl Lsq {
    /// Creates an empty LSQ.
    pub fn new(capacity: usize) -> Lsq {
        let empty = LsqEntry {
            seq: 0,
            is_store: false,
            addr: 0,
            width: Width::B,
            value: 0,
            data_known: true,
            data_queue: None,
            performed: false,
        };
        Lsq {
            slots: [empty; SLOTS as usize],
            capacity,
            head: 0,
            occupied: 0,
            pending_stores: 0,
            waiting: 0,
            performed: 0,
        }
    }

    /// True when no memory instruction can dispatch.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// `mask` rotated so that bit `i` is the entry with sequence
    /// `head + i`: its set bits in ascending order are oldest → youngest.
    fn by_age(&self, mask: u64) -> u64 {
        mask.rotate_right((self.head % SLOTS) as u32)
    }

    /// Appends an entry. Entries arrive in program order, each younger
    /// than every entry present and within 64 sequence numbers of the
    /// oldest; only a `s.q` store may lack its data. Panics when full
    /// (caller checks) or when the entry breaks those rules.
    pub fn push(&mut self, e: LsqEntry) {
        assert!(!self.is_full(), "LSQ overflow");
        if self.occupied != 0 {
            let youngest = self.head + 63 - self.by_age(self.occupied).leading_zeros() as u64;
            assert!(
                e.seq > youngest && e.seq - self.head < SLOTS,
                "LSQ entry {} out of order (entries {}..={youngest})",
                e.seq,
                self.head
            );
        } else {
            self.head = e.seq;
        }
        assert!(
            e.data_known || (e.is_store && e.data_queue.is_some()),
            "only a s.q store may wait for its data"
        );
        let bit = slot_bit(e.seq);
        self.occupied |= bit;
        if e.is_store && !e.performed {
            self.pending_stores |= bit;
        }
        if !e.data_known {
            self.waiting |= bit;
        }
        if e.performed {
            self.performed |= bit;
        }
        self.slots[slot(e.seq)] = e;
    }

    /// The slot of the entry owned by `seq`, if there is one.
    fn find(&self, seq: u64) -> Option<usize> {
        let i = slot(seq);
        (self.occupied & slot_bit(seq) != 0 && self.slots[i].seq == seq).then_some(i)
    }

    /// Looks up by owning sequence number.
    pub fn get(&self, seq: u64) -> Option<&LsqEntry> {
        self.find(seq).map(|i| &self.slots[i])
    }

    /// Removes the entry owned by `seq` (at commit).
    pub fn remove(&mut self, seq: u64) {
        if self.find(seq).is_none() {
            return;
        }
        let keep = !slot_bit(seq);
        self.occupied &= keep;
        self.pending_stores &= keep;
        self.waiting &= keep;
        self.performed &= keep;
        if seq == self.head && self.occupied != 0 {
            self.head += self.by_age(self.occupied).trailing_zeros() as u64;
        }
    }

    /// Marks the entry owned by `seq` as performed (store wrote memory /
    /// load got its data).
    pub fn mark_performed(&mut self, seq: u64) {
        if let Some(i) = self.find(seq) {
            self.slots[i].performed = true;
            self.performed |= slot_bit(seq);
            self.pending_stores &= !slot_bit(seq);
        }
    }

    /// `(data_known, performed)` flag counts — popcounts of the masks,
    /// equal by construction to what a full queue scan would count.
    pub fn flag_counts(&self) -> (usize, usize) {
        (
            self.len() - self.waiting.count_ones() as usize,
            self.performed.count_ones() as usize,
        )
    }

    /// Checks a load at `(addr, width)` with sequence `seq` against older
    /// stores, youngest-first.
    pub fn check_load(&self, seq: u64, addr: u64, width: Width) -> LoadCheck {
        let stores = self.by_age(self.pending_stores);
        // Bits below `seq - head` are the entries older than the load.
        let mut older = match seq.saturating_sub(self.head) {
            n if n >= SLOTS => stores,
            n => stores & ((1 << n) - 1),
        };
        while older != 0 {
            let i = 63 - older.leading_zeros() as u64;
            older &= !(1 << i);
            let e = &self.slots[slot(self.head + i)];
            if !e.overlaps(addr, width) {
                continue;
            }
            if e.covers_exactly(addr, width) && e.data_known {
                return LoadCheck::Forward(e.value);
            }
            return LoadCheck::Blocked(e.seq);
        }
        LoadCheck::Clear
    }

    /// Delivers queue data to waiting `s.q` stores: for each source queue,
    /// the *oldest* store still waiting pops next. `pop` is called with the
    /// queue and returns the popped value when one is available. Returns
    /// the number of stores satisfied.
    pub fn pump_store_data(
        &mut self,
        max: usize,
        mut pop: impl FnMut(Queue) -> Option<u64>,
    ) -> usize {
        let mut n = 0;
        let mut rest = self.by_age(self.waiting);
        while rest != 0 && n < max {
            let seq = self.head + rest.trailing_zeros() as u64;
            rest &= rest - 1;
            let e = &mut self.slots[slot(seq)];
            let q = e.data_queue.expect("a waiting store has a data queue");
            match pop(q) {
                Some(v) => {
                    e.value = v as i64;
                    e.data_known = true;
                    self.waiting &= !slot_bit(seq);
                    n += 1;
                }
                // FIFO: a younger store for the same queue must not
                // overtake; stop scanning entirely (queue data arrives in
                // order).
                None => break,
            }
        }
        n
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &LsqEntry> {
        let mut rest = self.by_age(self.occupied);
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let i = rest.trailing_zeros() as u64;
            rest &= rest - 1;
            Some(&self.slots[slot(self.head + i)])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(seq: u64, addr: u64, width: Width, value: i64, known: bool) -> LsqEntry {
        LsqEntry {
            seq,
            is_store: true,
            addr,
            width,
            value,
            data_known: known,
            data_queue: (!known).then_some(Queue::Sdq),
            performed: false,
        }
    }

    #[test]
    fn forwarding_exact_cover() {
        let mut l = Lsq::new(8);
        l.push(store(1, 0x100, Width::D, 42, true));
        assert_eq!(l.check_load(5, 0x100, Width::D), LoadCheck::Forward(42));
    }

    #[test]
    fn partial_overlap_blocks() {
        let mut l = Lsq::new(8);
        l.push(store(1, 0x100, Width::D, 42, true));
        assert_eq!(l.check_load(5, 0x104, Width::W), LoadCheck::Blocked(1));
    }

    #[test]
    fn unknown_data_blocks_even_exact() {
        let mut l = Lsq::new(8);
        l.push(store(1, 0x100, Width::D, 0, false));
        assert_eq!(l.check_load(5, 0x100, Width::D), LoadCheck::Blocked(1));
    }

    #[test]
    fn younger_stores_ignored() {
        let mut l = Lsq::new(8);
        l.push(store(9, 0x100, Width::D, 42, true));
        assert_eq!(l.check_load(5, 0x100, Width::D), LoadCheck::Clear);
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut l = Lsq::new(8);
        l.push(store(1, 0x100, Width::D, 1, true));
        l.push(store(2, 0x100, Width::D, 2, true));
        assert_eq!(l.check_load(5, 0x100, Width::D), LoadCheck::Forward(2));
    }

    #[test]
    fn performed_stores_do_not_block() {
        let mut l = Lsq::new(8);
        let mut s = store(1, 0x100, Width::D, 1, true);
        s.performed = true;
        l.push(s);
        assert_eq!(l.check_load(5, 0x104, Width::W), LoadCheck::Clear);
    }

    #[test]
    fn pump_delivers_in_fifo_order() {
        let mut l = Lsq::new(8);
        l.push(store(1, 0x100, Width::D, 0, false));
        l.push(store(2, 0x200, Width::D, 0, false));
        let mut vals = vec![20u64, 10u64]; // popped back-to-front
        let n = l.pump_store_data(4, |_| vals.pop());
        assert_eq!(n, 2);
        assert_eq!(l.get(1).unwrap().value, 10);
        assert_eq!(l.get(2).unwrap().value, 20);
        assert!(l.get(1).unwrap().data_known);
    }

    #[test]
    fn pump_stops_at_empty_queue() {
        let mut l = Lsq::new(8);
        l.push(store(1, 0x100, Width::D, 0, false));
        l.push(store(2, 0x200, Width::D, 0, false));
        let mut served = false;
        let n = l.pump_store_data(4, |_| {
            if served {
                None
            } else {
                served = true;
                Some(7)
            }
        });
        assert_eq!(n, 1);
        assert!(l.get(1).unwrap().data_known);
        assert!(!l.get(2).unwrap().data_known);
    }

    #[test]
    fn flag_counts_track_mutations() {
        let mut l = Lsq::new(8);
        l.push(store(1, 0x100, Width::D, 0, false));
        l.push(store(2, 0x200, Width::D, 2, true));
        assert_eq!(l.flag_counts(), (1, 0));
        l.pump_store_data(4, |_| Some(7));
        assert_eq!(l.flag_counts(), (2, 0));
        l.mark_performed(1);
        l.mark_performed(1); // idempotent
        assert_eq!(l.flag_counts(), (2, 1));
        l.remove(1);
        assert_eq!(l.flag_counts(), (1, 0));
        l.remove(2);
        assert_eq!(l.flag_counts(), (0, 0));
    }

    #[test]
    fn remove_by_seq() {
        let mut l = Lsq::new(8);
        l.push(store(1, 0x100, Width::D, 1, true));
        l.push(store(2, 0x200, Width::D, 2, true));
        l.remove(1);
        assert_eq!(l.len(), 1);
        assert!(l.get(1).is_none());
        assert!(l.get(2).is_some());
    }
}
