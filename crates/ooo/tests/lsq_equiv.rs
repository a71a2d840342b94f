//! The slot-indexed load/store queue against a reference model: the
//! linear `VecDeque` queue it replaced, searched entry by entry. Random
//! sequences of dispatches, store-data pumps, `mark_performed` and removals
//! — with sequence numbers wrapping past slot 63 — must give both the same
//! `check_load` answers, the same pumped stores and queue pops, the same
//! lengths and flag counts, and the same entries in age order.

use hidisc_isa::instr::Width;
use hidisc_isa::Queue;
use hidisc_ooo::lsq::{LoadCheck, Lsq, LsqEntry};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The linear LSQ: program order in a `VecDeque`, every query a scan.
struct Reference {
    entries: VecDeque<LsqEntry>,
    capacity: usize,
}

impl Reference {
    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    fn get(&self, seq: u64) -> Option<&LsqEntry> {
        self.entries.iter().find(|e| e.seq == seq)
    }

    fn remove(&mut self, seq: u64) {
        if let Some(i) = self.entries.iter().position(|e| e.seq == seq) {
            self.entries.remove(i);
        }
    }

    fn mark_performed(&mut self, seq: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.performed = true;
        }
    }

    fn flag_counts(&self) -> (usize, usize) {
        let known = self.entries.iter().filter(|e| e.data_known).count();
        let performed = self.entries.iter().filter(|e| e.performed).count();
        (known, performed)
    }

    fn check_load(&self, seq: u64, addr: u64, width: Width) -> LoadCheck {
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

    fn pump_store_data(&mut self, max: usize, mut pop: impl FnMut(Queue) -> Option<u64>) -> usize {
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
                            n += 1;
                        }
                        None => break,
                    }
                }
            }
        }
        n
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Dispatch a memory instruction `1 + gap` sequence numbers after the
    /// last one (the gap stands for non-memory instructions). `kind`: 0
    /// load, 1 store, 2 `s.q` from the SDQ, 3 `s.q` from the CDQ.
    Push {
        gap: u64,
        kind: u8,
        addr: u64,
        width: u8,
        value: i64,
    },
    /// Pump store data with `avail` values ready in the SDQ and the CDQ.
    Pump {
        max: usize,
        avail: (u8, u8),
    },
    MarkPerformed {
        pick: usize,
    },
    /// Remove the oldest entry, as commit does.
    RemoveOldest,
    /// Remove any entry, or a sequence number that has none.
    Remove {
        pick: usize,
    },
    CheckLoad {
        pick: usize,
        addr: u64,
        width: u8,
    },
}

fn width_of(code: u8) -> Width {
    [Width::B, Width::H, Width::W, Width::D][code as usize % 4]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0u64..3, 0u8..4, 0u64..6, 0u8..4, -50i64..50).prop_map(
            |(gap, kind, addr, width, value)| Op::Push { gap, kind, addr, width, value }
        ),
        2 => (0usize..5, 0u8..3, 0u8..3).prop_map(|(max, s, c)| Op::Pump { max, avail: (s, c) }),
        1 => any::<usize>().prop_map(|pick| Op::MarkPerformed { pick }),
        3 => Just(Op::RemoveOldest),
        1 => any::<usize>().prop_map(|pick| Op::Remove { pick }),
        3 => (any::<usize>(), 0u64..6, 0u8..4)
            .prop_map(|(pick, addr, width)| Op::CheckLoad { pick, addr, width }),
    ]
}

/// A pop closure over `avail` values per queue, logging what it pops.
fn popper<'a>(
    avail: &'a mut [u8; 2],
    log: &'a mut Vec<(Queue, u64)>,
) -> impl FnMut(Queue) -> Option<u64> + 'a {
    move |q| {
        let i = if q == Queue::Sdq { 0 } else { 1 };
        if avail[i] == 0 {
            return None;
        }
        avail[i] -= 1;
        let v = 1000 + log.len() as u64;
        log.push((q, v));
        Some(v)
    }
}

fn check(base: u64, capacity: usize, ops: &[Op]) {
    let mut lsq = Lsq::new(capacity);
    let mut reference = Reference {
        entries: VecDeque::new(),
        capacity,
    };
    let mut last = base;
    for op in ops {
        match *op {
            Op::Push {
                gap,
                kind,
                addr,
                width,
                value,
            } => {
                let seq = last + 1 + gap;
                let oldest = reference.entries.front().map(|e| e.seq);
                if reference.is_full() || oldest.is_some_and(|o| seq - o >= 64) {
                    // No room in the window: commit the oldest instead.
                    let o = oldest.expect("a full queue has an oldest entry");
                    lsq.remove(o);
                    reference.remove(o);
                } else {
                    let data_queue = match kind {
                        2 => Some(Queue::Sdq),
                        3 => Some(Queue::Cdq),
                        _ => None,
                    };
                    let e = LsqEntry {
                        seq,
                        is_store: kind != 0,
                        addr: 0x100 + 4 * addr,
                        width: width_of(width),
                        value,
                        data_known: data_queue.is_none(),
                        data_queue,
                        performed: false,
                    };
                    lsq.push(e);
                    reference.entries.push_back(e);
                    last = seq;
                }
            }
            Op::Pump { max, avail } => {
                let avail = [avail.0, avail.1];
                let (mut a, mut b) = (avail, avail);
                let (mut log_a, mut log_b) = (Vec::new(), Vec::new());
                let n_a = lsq.pump_store_data(max, popper(&mut a, &mut log_a));
                let n_b = reference.pump_store_data(max, popper(&mut b, &mut log_b));
                assert_eq!(n_a, n_b, "pumped stores");
                assert_eq!(log_a, log_b, "queue pops");
            }
            Op::MarkPerformed { pick } => {
                if !reference.entries.is_empty() {
                    let seq = reference.entries[pick % reference.entries.len()].seq;
                    lsq.mark_performed(seq);
                    reference.mark_performed(seq);
                }
            }
            Op::RemoveOldest => {
                if let Some(o) = reference.entries.front().map(|e| e.seq) {
                    lsq.remove(o);
                    reference.remove(o);
                }
            }
            Op::Remove { pick } => {
                // Past the entries: a sequence number with no entry.
                let seq = match reference.entries.get(pick % 8) {
                    Some(e) => e.seq,
                    None => last + 1 + (pick % 3) as u64,
                };
                lsq.remove(seq);
                reference.remove(seq);
            }
            Op::CheckLoad { pick, addr, width } => {
                let n = reference.entries.len();
                let seq = match (pick % 4, n) {
                    // Dispatch checks against every store in the queue.
                    (0, _) => u64::MAX,
                    (1, 0) | (2, 0) => last + 1,
                    (1, _) => reference.entries[pick / 4 % n].seq,
                    (2, _) => reference.entries[pick / 4 % n].seq + 1,
                    _ => base.saturating_sub(1),
                };
                let (addr, width) = (0x100 + 4 * addr, width_of(width));
                assert_eq!(
                    lsq.check_load(seq, addr, width),
                    reference.check_load(seq, addr, width),
                    "check_load({seq}, {addr:#x}, {width:?})"
                );
            }
        }
        assert_eq!(lsq.len(), reference.entries.len());
        assert_eq!(lsq.is_empty(), reference.entries.is_empty());
        assert_eq!(lsq.is_full(), reference.is_full());
        assert_eq!(lsq.flag_counts(), reference.flag_counts());
        let first = reference.entries.front().map_or(last, |e| e.seq);
        for seq in first.saturating_sub(2)..last + 3 {
            assert_eq!(lsq.get(seq), reference.get(seq), "get({seq})");
        }
        assert!(
            lsq.iter().eq(reference.entries.iter()),
            "entries in age order"
        );
    }
    assert!(
        last / 64 > base / 64,
        "sequence numbers {base}..={last} never wrapped past slot 63"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slot_indexed_lsq_matches_the_linear_queue(
        base in 0u64..200,
        capacity in 1usize..=64,
        ops in prop::collection::vec(op(), 300..500),
    ) {
        check(base, capacity, &ops);
    }
}
