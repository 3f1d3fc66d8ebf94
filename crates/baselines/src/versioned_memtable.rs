//! Multi-versioned skiplist memtable (LevelDB/RocksDB semantics).
//!
//! Every write appends a new `(key, seq)` version; nothing is updated in
//! place. Memory therefore grows with every write — including repeated
//! writes to one key — which triggers flushes under skew (§3.2: "the
//! multi-versioning approach cannot leverage the locality of skewed
//! workloads. In fact, continually updating a single key is enough to fill
//! up the memory component").

use flodb_memtable::SkipList;
use flodb_storage::Record;

use crate::internal_key::{decode_internal, encode_internal, encode_user_prefix};

/// An insert-only, multi-versioned, concurrent memtable.
///
/// Built on the same lock-free skiplist as FloDB's Memtable; versions are
/// encoded into the key (see the crate's `internal_key` module), so inserts never
/// collide and reads are wait-free.
#[derive(Debug, Default)]
pub struct VersionedMemtable {
    list: SkipList,
}

impl VersionedMemtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self {
            list: SkipList::new(),
        }
    }

    /// Appends a version of `key`; `None` is a delete tombstone.
    pub fn insert(&self, key: &[u8], seq: u64, value: Option<&[u8]>) {
        let internal = encode_internal(key, seq);
        let fresh = self.list.insert(&internal, value, seq);
        debug_assert!(fresh, "internal keys are unique per (key, seq)");
    }

    /// Returns the freshest version of `key` with `seq <= snapshot`.
    ///
    /// Outer `None` = no such version; `Some((seq, None))` = tombstone.
    pub fn get(&self, key: &[u8], snapshot: u64) -> Option<(u64, Option<Box<[u8]>>)> {
        let prefix = encode_user_prefix(key);
        let mut from = prefix.clone();
        from.extend_from_slice(&(u64::MAX - snapshot).to_be_bytes());
        let mut it = self.list.iter();
        it.seek(&from);
        if it.valid() && it.key().starts_with(&prefix) {
            let vv = it.value();
            debug_assert!(vv.seq <= snapshot);
            return Some((vv.seq, vv.value));
        }
        None
    }

    /// Every version of every user key from `low` up to `high` (no bound
    /// when `None`), in `(key asc, seq desc)` order, tombstones included: a
    /// flush takes the whole table, a scan its range (its merge keeps the
    /// freshest version its snapshot sees).
    pub fn records(&self, low: &[u8], high: Option<&[u8]>) -> Vec<Record> {
        let mut out = Vec::new();
        let mut it = self.list.iter();
        // Seek to the beginning of `low`'s escaped form, without the
        // terminator: every key from there on is `low` or above it.
        let from = encode_user_prefix(low);
        it.seek(&from[..from.len() - 2]);
        while it.valid() {
            if let Some((key, _)) = decode_internal(it.key()) {
                if high.is_some_and(|high| key.as_slice() > high) {
                    break;
                }
                let vv = it.value();
                out.push(Record {
                    key: key.into(),
                    seq: vv.seq,
                    value: vv.value,
                });
            }
            it.next();
        }
        out
    }

    /// Approximate resident bytes (grows with every version).
    pub fn approximate_bytes(&self) -> usize {
        self.list.approximate_bytes()
    }

    /// Number of stored versions (not distinct keys).
    pub fn versions(&self) -> usize {
        self.list.len()
    }

    /// Returns whether no versions are stored.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_accumulate() {
        let m = VersionedMemtable::new();
        m.insert(b"k", 1, Some(b"v1"));
        m.insert(b"k", 2, Some(b"v2"));
        assert_eq!(m.versions(), 2, "no in-place update");
        // Snapshot reads see the version visible at the snapshot.
        assert_eq!(m.get(b"k", 1).unwrap().1.as_deref(), Some(&b"v1"[..]));
        assert_eq!(m.get(b"k", 2).unwrap().1.as_deref(), Some(&b"v2"[..]));
        assert_eq!(m.get(b"k", 100).unwrap().1.as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn memory_grows_with_repeated_writes() {
        let m = VersionedMemtable::new();
        m.insert(b"hot", 1, Some(&[0u8; 64]));
        let after_one = m.approximate_bytes();
        for seq in 2..100u64 {
            m.insert(b"hot", seq, Some(&[0u8; 64]));
        }
        assert!(
            m.approximate_bytes() > after_one * 50,
            "multi-versioning must not absorb skew in place"
        );
    }

    #[test]
    fn tombstone_versions() {
        let m = VersionedMemtable::new();
        m.insert(b"k", 1, Some(b"v"));
        m.insert(b"k", 2, None);
        let (seq, val) = m.get(b"k", 10).unwrap();
        assert_eq!(seq, 2);
        assert!(val.is_none());
        // The old version is still reachable below the tombstone.
        assert!(m.get(b"k", 1).unwrap().1.is_some());
    }

    #[test]
    fn get_missing_and_below_first_version() {
        let m = VersionedMemtable::new();
        m.insert(b"k", 5, Some(b"v"));
        assert!(m.get(b"absent", 100).is_none());
        assert!(m.get(b"k", 4).is_none(), "no version at snapshot 4");
    }

    #[test]
    fn range_respects_bounds_and_order() {
        let m = VersionedMemtable::new();
        for (i, key) in [b"a", b"c", b"e"].iter().enumerate() {
            m.insert(*key, i as u64 + 1, Some(b"v"));
        }
        let out = m.records(b"b", Some(b"e"));
        let keys: Vec<&[u8]> = out.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec![&b"c"[..], &b"e"[..]]);
    }

    #[test]
    fn records_decode_all_versions() {
        let m = VersionedMemtable::new();
        m.insert(b"k", 1, Some(b"v1"));
        m.insert(b"k", 2, Some(b"v2"));
        m.insert(b"j", 3, None);
        let records = m.records(&[], None);
        assert_eq!(records.len(), 3);
        // Sorted by (user key asc, seq desc).
        assert_eq!(records[0].key.as_ref(), b"j");
        assert_eq!(records[1].seq, 2);
        assert_eq!(records[2].seq, 1);
    }

    #[test]
    fn concurrent_version_appends() {
        use std::sync::Arc;
        let m = Arc::new(VersionedMemtable::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let seq = t * 1000 + i + 1;
                    m.insert(b"contended", seq, Some(&seq.to_be_bytes()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.versions(), 2000);
        let (seq, _) = m.get(b"contended", u64::MAX - 1).unwrap();
        assert_eq!(seq, 3500, "freshest version wins");
    }
}
