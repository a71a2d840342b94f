//! The service's result store: completed run results keyed by the
//! job's content address, in an in-memory LRU in front of an optional
//! read-through disk tier, so repeated sweep points return instantly and
//! survive a service restart.
//!
//! A disk file `<key>.json` opens with a 34-byte header line,
//! `<key> <digest>\n` (two 16-digit hex numbers: the content address
//! and the FNV-1a digest of the body), followed by the body. A file
//! whose header does not match its key and body — torn, bit-flipped or
//! renamed — reads as a miss, so the job is simulated again and the
//! file rewritten.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use hidisc::{fnv1a, FNV_OFFSET};

/// Length of a disk file's `<key> <digest>\n` header.
const HEADER_LEN: usize = 34;

fn header(key: u64, body: &str) -> String {
    format!("{key:016x} {:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes()))
}

/// The body of a disk file, if its header matches `key` and the body.
fn decode(key: u64, bytes: Vec<u8>) -> Option<String> {
    let mut text = String::from_utf8(bytes).ok()?;
    let body = text.get(HEADER_LEN..)?;
    if text[..HEADER_LEN] != header(key, body) {
        return None;
    }
    text.drain(..HEADER_LEN);
    Some(text)
}

struct Entry {
    stamp: u64,
    value: Arc<String>,
}

/// The store. Not internally synchronised — the service wraps it in the
/// job-registry mutex.
///
/// The memory tier is bounded in **bytes**, because results range from
/// a few hundred bytes to the better part of a megabyte (interval
/// metrics) and an entry count would bound nothing useful. Past the
/// budget, entries are evicted least-recently-used first until the total
/// fits again.
pub struct Store {
    budget: usize,
    total: usize,
    stamp: u64,
    map: HashMap<u64, Entry>,
    dir: Option<PathBuf>,
}

impl Store {
    /// A store holding at most `budget_bytes` in memory (at least 1),
    /// persisting to `dir` when given (created on first insert,
    /// read-through on miss).
    pub fn new(budget_bytes: usize, dir: Option<PathBuf>) -> Store {
        Store {
            budget: budget_bytes.max(1),
            total: 0,
            stamp: 0,
            map: HashMap::new(),
            dir,
        }
    }

    fn touch(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn path_of(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    /// Looks `key` up, consulting the disk tier on a memory miss.
    /// Refreshes recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<String>> {
        let stamp = self.touch();
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = stamp;
            return Some(Arc::clone(&e.value));
        }
        let path = self.path_of(key)?;
        let value = Arc::new(decode(key, std::fs::read(path).ok()?)?);
        self.insert_memory(key, Arc::clone(&value), stamp);
        Some(value)
    }

    /// Inserts a value, persisting it to the disk tier via tmp + rename
    /// (best-effort — a read-only directory degrades to memory-only).
    pub fn insert(&mut self, key: u64, value: Arc<String>) {
        if let Some(path) = self.path_of(key) {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let tmp = path.with_extension("tmp");
            let file = header(key, &value) + &value;
            if std::fs::write(&tmp, file).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        let stamp = self.touch();
        self.insert_memory(key, value, stamp);
    }

    fn insert_memory(&mut self, key: u64, value: Arc<String>, stamp: u64) {
        self.remove(key);
        // A value heavier than the whole budget never enters the memory
        // tier (it would immediately evict everything *and* still bust
        // the budget); it stays reachable through the disk tier.
        if value.len() > self.budget {
            return;
        }
        self.total += value.len();
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
            self.total -= e.value.len();
        }
    }

    /// Values currently held in memory.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Bytes currently held in memory. Always at most the construction
    /// budget.
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

    /// A fresh, empty scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hidisc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn byte_lru_evicts_least_recently_used() {
        // Budget fits two 3-byte entries but not three.
        let mut c = Store::new(6, None);
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
        let dir = scratch("cache-big");
        let mut c = Store::new(4, Some(dir.clone()));
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
        let mut c = Store::new(100, None);
        c.insert(1, val("aaaa"));
        c.insert(1, val("bb"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 2);
        assert_eq!(c.get(1).as_deref().map(String::as_str), Some("bb"));
    }

    #[test]
    fn disk_tier_round_trips_and_survives_memory_eviction() {
        let dir = scratch("cache-test");
        {
            let mut c = Store::new(5, Some(dir.clone()));
            c.insert(7, val("seven"));
            c.insert(8, val("eight")); // 7 leaves memory, stays on disk
            assert_eq!(c.get(7).as_deref().map(String::as_str), Some("seven"));
        }
        // A fresh instance (fresh process in real life) reads through.
        let mut c2 = Store::new(64, Some(dir.clone()));
        assert!(c2.is_empty());
        assert_eq!(c2.get(8).as_deref().map(String::as_str), Some("eight"));
        assert_eq!(c2.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncated, bit-flipped and renamed files each read as a miss in
    /// a fresh store, and a re-insert rewrites the file so it hits again.
    #[test]
    fn damaged_disk_files_miss_and_are_rewritten() {
        let dir = scratch("cache-damage");
        let body = r#"{"cycles":12345,"ipc":1.25}"#;
        let path = |key: u64| dir.join(format!("{key:016x}.json"));
        Store::new(64, Some(dir.clone())).insert(1, val(body));
        let good = std::fs::read(path(1)).unwrap();
        assert_eq!(good.len(), HEADER_LEN + body.len());

        let truncated = good[..good.len() - 1].to_vec();
        let mut flipped = good.clone();
        flipped[HEADER_LEN + 3] ^= 0x04;
        for (what, bytes, key) in [
            ("truncated", truncated, 1),
            ("bit-flipped", flipped, 1),
            ("renamed", good.clone(), 2),
        ] {
            std::fs::write(path(key), bytes).unwrap();
            let mut fresh = Store::new(64, Some(dir.clone()));
            assert!(fresh.get(key).is_none(), "{what} file hit");
            fresh.insert(key, val(body));
            let mut again = Store::new(64, Some(dir.clone()));
            assert_eq!(
                again.get(key).as_deref().map(String::as_str),
                Some(body),
                "{what}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
