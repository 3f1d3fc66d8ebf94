//! Hash-table memtable (the RocksDB "hash-based memtable" of Figure 4).
//!
//! Writes complete in constant time, but the structure keeps no order:
//! flushing must first sort every version (linearithmic), and range scans
//! must collect-and-sort. The paper's Figure 4 shows how this sort-before-
//! flush stalls writers as the memtable grows; §2.3 measures hash-memtable
//! compaction at "at least an order of magnitude" longer than skiplist
//! flushes of the same size.

use std::collections::HashMap;

use flodb_storage::Record;
use parking_lot::Mutex;

const SHARDS: usize = 64;

#[inline]
fn shard_of(key: &[u8]) -> usize {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash as usize) % SHARDS
}

#[derive(Default)]
struct Shard {
    /// key -> versions (seq ascending by construction).
    map: HashMap<Box<[u8]>, Vec<(u64, Option<Box<[u8]>>)>>,
    bytes: usize,
}

/// A sharded, multi-versioned, unsorted memtable.
pub struct HashMemtable {
    shards: Vec<Mutex<Shard>>,
}

impl std::fmt::Debug for HashMemtable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashMemtable")
            .field("versions", &self.versions())
            .finish()
    }
}

impl Default for HashMemtable {
    fn default() -> Self {
        Self::new()
    }
}

impl HashMemtable {
    /// Creates an empty hash memtable.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Appends a version of `key`.
    pub fn insert(&self, key: &[u8], seq: u64, value: Option<&[u8]>) {
        let mut shard = self.shards[shard_of(key)].lock();
        shard.bytes += key.len() + value.map_or(0, <[u8]>::len) + 48;
        shard
            .map
            .entry(Box::from(key))
            .or_default()
            .push((seq, value.map(Box::from)));
    }

    /// Returns the freshest version of `key` with `seq <= snapshot`.
    pub fn get(&self, key: &[u8], snapshot: u64) -> Option<(u64, Option<Box<[u8]>>)> {
        let shard = self.shards[shard_of(key)].lock();
        let versions = shard.map.get(key)?;
        versions
            .iter()
            .rev()
            .find(|(seq, _)| *seq <= snapshot)
            .map(|(seq, v)| (*seq, v.clone()))
    }

    /// Every version of every key from `low` up to `high` (no bound when
    /// `None`), in `(key asc, seq desc)` order, tombstones included: a flush
    /// takes the whole table, a scan its range. Either way the keys are
    /// collected, then sorted — the linearithmic step Figure 4 charges to
    /// hash memtables' flushes, and §2.3's "not practical" scan path.
    pub fn records(&self, low: &[u8], high: Option<&[u8]>) -> Vec<Record> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (key, versions) in shard.map.iter() {
                if key.as_ref() < low || high.is_some_and(|high| key.as_ref() > high) {
                    continue;
                }
                for (seq, v) in versions {
                    out.push(Record {
                        key: key.clone(),
                        seq: *seq,
                        value: v.clone(),
                    });
                }
            }
        }
        out.sort_by(|a, b| a.key.cmp(&b.key).then(b.seq.cmp(&a.seq)));
        out
    }

    /// Approximate resident bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Total stored versions.
    pub fn versions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Returns whether no versions are stored.
    pub fn is_empty(&self) -> bool {
        self.versions() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_versions() {
        let m = HashMemtable::new();
        m.insert(b"k", 1, Some(b"v1"));
        m.insert(b"k", 3, Some(b"v3"));
        assert_eq!(m.get(b"k", 2).unwrap().1.as_deref(), Some(&b"v1"[..]));
        assert_eq!(m.get(b"k", 3).unwrap().1.as_deref(), Some(&b"v3"[..]));
        assert!(m.get(b"k", 0).is_none());
        assert!(m.get(b"absent", 10).is_none());
        assert_eq!(m.versions(), 2);
    }

    #[test]
    fn range_is_sorted_despite_hash_layout() {
        let m = HashMemtable::new();
        for (i, key) in [b"e", b"a", b"c", b"b", b"d"].iter().enumerate() {
            m.insert(*key, i as u64 + 1, Some(b"v"));
        }
        let out = m.records(b"a", Some(b"e"));
        let keys: Vec<&[u8]> = out.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b", b"c", b"d", b"e"]);
    }

    #[test]
    fn records_sort_every_version() {
        let m = HashMemtable::new();
        m.insert(b"z", 1, Some(b"v"));
        m.insert(b"a", 2, None);
        m.insert(b"a", 5, Some(b"w"));
        let records = m.records(&[], None);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].key.as_ref(), b"a");
        assert_eq!(records[0].seq, 5, "within a key, newest first");
        assert_eq!(records[2].key.as_ref(), b"z");
    }

    #[test]
    fn concurrent_inserts() {
        use std::sync::Arc;
        let m = Arc::new(HashMemtable::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let key = (t * 1000 + i).to_be_bytes();
                    m.insert(&key, t * 1000 + i + 1, Some(b"v"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.versions(), 4000);
    }
}
