//! Property tests for the byte-budget result cache: under arbitrary
//! interleavings of inserts and lookups, the memory tier never exceeds
//! its byte budget, and eviction is strictly oldest-first (an explicit
//! recency-list oracle predicts exactly which keys survive).

use std::collections::HashMap;
use std::sync::Arc;

use hidisc_serve::cache::Store;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Insert `key` with a payload of `size` bytes.
    Insert { key: u64, size: usize },
    /// Look `key` up (refreshes recency on a hit).
    Get { key: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12, 1usize..40).prop_map(|(key, size)| Op::Insert { key, size }),
        (0u64..12).prop_map(|key| Op::Get { key }),
    ]
}

/// Reference model: keys in recency order (least recent first) with
/// their sizes; eviction pops from the front until the total fits.
struct Oracle {
    budget: usize,
    order: Vec<u64>,
    size: HashMap<u64, usize>,
}

impl Oracle {
    fn total(&self) -> usize {
        self.order.iter().map(|k| self.size[k]).sum()
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }

    fn insert(&mut self, key: u64, size: usize) {
        self.order.retain(|&k| k != key);
        self.size.remove(&key);
        if size > self.budget {
            return; // oversized payloads skip the memory tier
        }
        self.order.push(key);
        self.size.insert(key, size);
        while self.total() > self.budget {
            let evicted = self.order.remove(0); // strictly oldest-first
            self.size.remove(&evicted);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_budget_is_never_exceeded_and_eviction_is_oldest_first(
        budget in 1usize..120,
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        // Memory-only cache: no disk tier, so a `get` miss stays a miss
        // and membership is exactly the memory tier's.
        let mut cache = Store::new(budget, None);
        let mut oracle = Oracle { budget, order: Vec::new(), size: HashMap::new() };

        for op in &ops {
            match *op {
                Op::Insert { key, size } => {
                    cache.insert(key, Arc::new("x".repeat(size)));
                    oracle.insert(key, size);
                }
                Op::Get { key } => {
                    let hit = cache.get(key).is_some();
                    prop_assert_eq!(hit, oracle.size.contains_key(&key),
                        "get({}) disagreed with the oracle", key);
                    oracle.touch(key);
                }
            }
            // The budget is a hard ceiling at every step...
            prop_assert!(cache.bytes() <= budget,
                "cache holds {} bytes over the {} budget", cache.bytes(), budget);
            // ...and the accounting matches the oracle exactly.
            prop_assert_eq!(cache.bytes(), oracle.total());
            prop_assert_eq!(cache.len(), oracle.order.len());
        }

        // Final membership is exactly the oracle's surviving set — i.e.
        // every eviction removed precisely the least-recently-used key.
        for key in 0u64..12 {
            prop_assert_eq!(
                cache.get(key).is_some(),
                oracle.size.contains_key(&key),
                "membership of key {} diverged", key
            );
        }
    }
}
