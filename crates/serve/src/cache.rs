//! The service's one content-addressed store: an in-memory LRU in front
//! of an optional read-through disk tier. It holds two kinds of payload
//! — completed run results keyed by the job's content address, and
//! warm-start checkpoints keyed by its warm address — so repeated sweep
//! points return instantly, warm runs skip their shared prefix, and both
//! survive a service restart.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A payload the store can persist: its disk-tier file extension and
/// its byte encoding.
pub trait Payload: Sized {
    /// File extension of the disk tier (`<key>.<EXT>`).
    const EXT: &'static str;
    /// The bytes written to disk.
    fn as_bytes(&self) -> &[u8];
    /// Decodes a disk file; `None` treats the file as absent.
    fn from_bytes(bytes: Vec<u8>) -> Option<Self>;
}

/// Serialised run results (`<key>.json`).
impl Payload for String {
    const EXT: &'static str = "json";
    fn as_bytes(&self) -> &[u8] {
        str::as_bytes(self)
    }
    fn from_bytes(bytes: Vec<u8>) -> Option<String> {
        String::from_utf8(bytes).ok()
    }
}

/// Binary warm-start checkpoints (`<key>.ck`).
impl Payload for Vec<u8> {
    const EXT: &'static str = "ck";
    fn as_bytes(&self) -> &[u8] {
        self
    }
    fn from_bytes(bytes: Vec<u8>) -> Option<Vec<u8>> {
        Some(bytes)
    }
}

struct Entry<T> {
    stamp: u64,
    value: Arc<T>,
}

/// The store. Not internally synchronised — the service wraps the
/// result store in the job-registry mutex and the checkpoint store in a
/// mutex of its own.
///
/// The memory tier is bounded by a **weight** the caller chooses at
/// construction. Results weigh their byte length, because their payloads
/// range from a few hundred bytes to the better part of a megabyte
/// (interval metrics) and an entry count would bound nothing useful;
/// checkpoints weigh 1 each, a count cap. Past the budget, entries are
/// evicted least-recently-used first until the total fits again.
pub struct Store<T> {
    budget: usize,
    total: usize,
    stamp: u64,
    map: HashMap<u64, Entry<T>>,
    dir: Option<PathBuf>,
    weigh: fn(&T) -> usize,
}

impl<T: Payload> Store<T> {
    /// A store holding at most `budget` weight in memory (at least 1),
    /// each value weighing `weigh(value)`, persisting to `dir` when given
    /// (created on first insert, read-through on miss).
    pub fn new(budget: usize, dir: Option<PathBuf>, weigh: fn(&T) -> usize) -> Store<T> {
        Store {
            budget: budget.max(1),
            total: 0,
            stamp: 0,
            map: HashMap::new(),
            dir,
            weigh,
        }
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn path_of(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.{}", T::EXT)))
    }

    /// Looks `key` up, consulting the disk tier on a memory miss.
    /// Refreshes recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<T>> {
        let stamp = self.touch();
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = stamp;
            return Some(Arc::clone(&e.value));
        }
        let path = self.path_of(key)?;
        let value = Arc::new(T::from_bytes(std::fs::read(path).ok()?)?);
        self.insert_memory(key, Arc::clone(&value), stamp);
        Some(value)
    }

    /// Inserts a value, persisting it to the disk tier via tmp + rename
    /// (best-effort — a read-only directory degrades to memory-only).
    pub fn insert(&mut self, key: u64, value: Arc<T>) {
        if let Some(path) = self.path_of(key) {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let tmp = path.with_extension("tmp");
            if std::fs::write(&tmp, value.as_bytes()).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        let stamp = self.touch();
        self.insert_memory(key, value, stamp);
    }

    fn insert_memory(&mut self, key: u64, value: Arc<T>, stamp: u64) {
        self.remove(key);
        // A value heavier than the whole budget never enters the memory
        // tier (it would immediately evict everything *and* still bust
        // the budget); it stays reachable through the disk tier.
        if (self.weigh)(&value) > self.budget {
            return;
        }
        self.total += (self.weigh)(&value);
        self.map.insert(key, Entry { stamp, value });
        // Evict oldest-first until the total fits the budget again.
        while self.total > self.budget {
            let Some((&lru, _)) = self.map.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            self.remove(lru);
        }
    }

    fn remove(&mut self, key: u64) {
        if let Some(e) = self.map.remove(&key) {
            self.total -= (self.weigh)(&e.value);
        }
    }

    /// Values currently held in memory.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Total weight currently held in memory — bytes for a store built
    /// with a byte-length weight. Always at most the construction budget.
    pub fn bytes(&self) -> usize {
        self.total
    }

    /// True when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    fn results(budget: usize, dir: Option<PathBuf>) -> Store<String> {
        Store::new(budget, dir, String::len)
    }

    #[test]
    fn checkpoint_store_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("hidisc-ck-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = Store::new(1, Some(dir.clone()), |_: &Vec<u8>| 1);
            s.insert(3, Arc::new(vec![1, 2, 3]));
            s.insert(4, Arc::new(vec![4])); // 3 leaves memory, stays on disk
            assert_eq!(s.get(3).as_deref(), Some(&vec![1, 2, 3]));
        }
        let mut s2 = Store::new(4, Some(dir.clone()), |_: &Vec<u8>| 1);
        assert!(s2.is_empty());
        assert_eq!(s2.get(4).as_deref(), Some(&vec![4]));
        assert_eq!(s2.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_lru_evicts_least_recently_used() {
        // Budget fits two 3-byte entries but not three.
        let mut c = results(6, None);
        c.insert(1, val("one")); // 3 bytes
        c.insert(2, val("two")); // 3 bytes
        assert_eq!(c.bytes(), 6);
        assert_eq!(c.get(1).as_deref().map(String::as_str), Some("one"));
        c.insert(3, val("3b!")); // evicts 2 (1 was just touched)
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes(), 6);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn oversized_entries_skip_the_memory_tier() {
        let dir = std::env::temp_dir().join(format!("hidisc-cache-big-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = results(4, Some(dir.clone()));
        c.insert(1, val("tiny"));
        assert_eq!(c.bytes(), 4);
        c.insert(2, val("way too large for the budget"));
        // The giant entry displaced nothing and used no memory...
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 4);
        // ...but still resolves, read through the disk tier every time.
        assert!(c.get(2).is_some());
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = results(100, None);
        c.insert(1, val("aaaa"));
        c.insert(1, val("bb"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 2);
        assert_eq!(c.get(1).as_deref().map(String::as_str), Some("bb"));
    }

    #[test]
    fn disk_tier_round_trips_and_survives_memory_eviction() {
        let dir = std::env::temp_dir().join(format!("hidisc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = results(5, Some(dir.clone()));
            c.insert(7, val("seven"));
            c.insert(8, val("eight")); // 7 leaves memory, stays on disk
            assert_eq!(c.get(7).as_deref().map(String::as_str), Some("seven"));
        }
        // A fresh instance (fresh process in real life) reads through.
        let mut c2 = results(64, Some(dir.clone()));
        assert!(c2.is_empty());
        assert_eq!(c2.get(8).as_deref().map(String::as_str), Some("eight"));
        assert_eq!(c2.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
