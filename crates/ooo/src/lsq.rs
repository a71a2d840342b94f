//! The load/store queue.
//!
//! Holds in-flight memory operations in program order. Besides the usual
//! disambiguation and store-to-load forwarding, the LSQ plays the role of
//! the paper's **Store Address Queue**: a `s.q` store sits here with its
//! address while its data is popped from the Store Data Queue in FIFO
//! order, letting the Access Processor run ahead of the Computation
//! Processor's store data.

use hidisc_isa::instr::Width;
use hidisc_isa::wire::{Dec, Enc, WireError, WireResult};
use hidisc_isa::Queue;
use std::collections::VecDeque;

fn width_code(w: Width) -> u8 {
    match w {
        Width::B => 0,
        Width::H => 1,
        Width::W => 2,
        Width::D => 3,
    }
}

fn width_from(code: u8) -> WireResult<Width> {
    Ok(match code {
        0 => Width::B,
        1 => Width::H,
        2 => Width::W,
        3 => Width::D,
        _ => {
            return Err(WireError {
                pos: 0,
                what: "width out of range",
            })
        }
    })
}

/// Encodes an optional queue as one byte (0 = none, else index+1 in
/// [`Queue::ALL`] order). Shared by the LSQ and core serialisers.
pub(crate) fn queue_opt_code(q: Option<Queue>) -> u8 {
    match q {
        None => 0,
        Some(q) => q.index() as u8 + 1,
    }
}

/// Inverse of [`queue_opt_code`].
pub(crate) fn queue_opt_from(code: u8) -> WireResult<Option<Queue>> {
    match code {
        0 => Ok(None),
        n if (n as usize) <= Queue::ALL.len() => Ok(Some(Queue::ALL[n as usize - 1])),
        _ => Err(WireError {
            pos: 0,
            what: "queue out of range",
        }),
    }
}

/// One in-flight memory operation.
#[derive(Debug, Clone)]
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
    entries: VecDeque<LsqEntry>,
    capacity: usize,
    /// Entries with `data_known` set (maintained, not scanned).
    n_data_known: usize,
    /// Entries with `performed` set (maintained, not scanned).
    n_performed: usize,
}

impl Lsq {
    /// Creates an empty LSQ.
    pub fn new(capacity: usize) -> Lsq {
        Lsq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            n_data_known: 0,
            n_performed: 0,
        }
    }

    /// True when no memory instruction can dispatch.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry (program order). Panics when full (caller checks).
    pub fn push(&mut self, e: LsqEntry) {
        assert!(!self.is_full(), "LSQ overflow");
        self.n_data_known += e.data_known as usize;
        self.n_performed += e.performed as usize;
        self.entries.push_back(e);
    }

    /// Looks up by owning sequence number.
    pub fn get(&self, seq: u64) -> Option<&LsqEntry> {
        self.entries.iter().find(|e| e.seq == seq)
    }

    /// Mutable lookup by owning sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut LsqEntry> {
        self.entries.iter_mut().find(|e| e.seq == seq)
    }

    /// Removes the entry owned by `seq` (at commit).
    pub fn remove(&mut self, seq: u64) {
        if let Some(i) = self.entries.iter().position(|e| e.seq == seq) {
            let e = self.entries.remove(i).unwrap();
            self.n_data_known -= e.data_known as usize;
            self.n_performed -= e.performed as usize;
        }
    }

    /// Marks the entry owned by `seq` as performed (store wrote memory /
    /// load got its data). Keeps the flag counts exact — callers must use
    /// this instead of flipping the field through `get_mut`.
    pub fn mark_performed(&mut self, seq: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            self.n_performed += !e.performed as usize;
            e.performed = true;
        }
    }

    /// `(data_known, performed)` flag counts, maintained across mutations —
    /// equal by construction to what a full queue scan would count.
    pub fn flag_counts(&self) -> (usize, usize) {
        (self.n_data_known, self.n_performed)
    }

    /// Checks a load at `(addr, width)` with sequence `seq` against older
    /// stores, youngest-first.
    pub fn check_load(&self, seq: u64, addr: u64, width: Width) -> LoadCheck {
        for e in self.entries.iter().rev() {
            if e.seq >= seq || !e.is_store {
                continue;
            }
            if e.performed || !e.overlaps(addr, width) {
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
        for e in self.entries.iter_mut() {
            if n >= max {
                break;
            }
            if e.is_store && !e.data_known {
                if let Some(q) = e.data_queue {
                    match pop(q) {
                        Some(v) => {
                            e.value = v as i64;
                            e.data_known = true;
                            self.n_data_known += 1;
                            n += 1;
                        }
                        // FIFO: a younger store for the same queue must not
                        // overtake; stop scanning entirely (queue data
                        // arrives in order).
                        None => break,
                    }
                }
            }
        }
        n
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &LsqEntry> {
        self.entries.iter()
    }

    /// Serialises all in-flight entries (capacity comes from the config,
    /// which the checkpoint header pins).
    pub fn save_state(&self, e: &mut Enc) {
        e.usize(self.entries.len());
        for en in &self.entries {
            e.u64(en.seq);
            e.bool(en.is_store);
            e.u64(en.addr);
            e.u8(width_code(en.width));
            e.i64(en.value);
            e.bool(en.data_known);
            e.u8(queue_opt_code(en.data_queue));
            e.bool(en.performed);
        }
    }

    /// Restores from a [`save_state`](Self::save_state) stream; the flag
    /// counts are recomputed.
    pub fn load_state(&mut self, d: &mut Dec) -> WireResult<()> {
        let n = d.usize()?;
        self.entries.clear();
        self.n_data_known = 0;
        self.n_performed = 0;
        for _ in 0..n {
            let en = LsqEntry {
                seq: d.u64()?,
                is_store: d.bool()?,
                addr: d.u64()?,
                width: width_from(d.u8()?)?,
                value: d.i64()?,
                data_known: d.bool()?,
                data_queue: queue_opt_from(d.u8()?)?,
                performed: d.bool()?,
            };
            self.n_data_known += en.data_known as usize;
            self.n_performed += en.performed as usize;
            self.entries.push_back(en);
        }
        Ok(())
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
