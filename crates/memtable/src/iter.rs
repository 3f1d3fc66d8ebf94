//! Ordered iteration over the skiplist (used by scans and by persisting).

use flodb_sync::shim::atomic::Ordering;

use crossbeam_epoch::{self as epoch, Guard, Shared};

use crate::skiplist::{Node, SkipList};
use crate::value::VersionedValue;

/// A forward iterator over a [`SkipList`], in key order.
///
/// The iterator is a LevelDB-style cursor: position it with
/// [`SkipListIter::seek`] or [`SkipListIter::seek_to_first`], then read
/// `key`/`value` while [`SkipListIter::valid`] and advance with
/// [`SkipListIter::next`]. Because FloDB never removes skiplist nodes, the
/// cursor remains valid across arbitrary concurrent inserts and in-place
/// updates: fresh concurrent inserts may or may not be seen, and a scan
/// reads each entry as of its stamp ([`SkipListIter::value_at`]), so what
/// it emits does not depend on which of them it saw.
///
/// The iterator owns an epoch pin for its whole lifetime, which is what
/// keeps concurrently replaced values alive until [`SkipListIter::value`]
/// has cloned them. The flip side is that a live iterator stalls epoch
/// advancement, delaying (never preventing) reclamation of everything
/// retired after it was created — drop iterators promptly.
///
/// # Examples
///
/// ```
/// use flodb_memtable::SkipList;
///
/// let list = SkipList::new();
/// list.insert(b"a", Some(b"1"), 1);
/// list.insert(b"c", Some(b"3"), 2);
///
/// let mut iter = list.iter();
/// iter.seek(b"b");
/// assert!(iter.valid());
/// assert_eq!(iter.key(), b"c");
/// ```
pub struct SkipListIter<'a> {
    list: &'a SkipList,
    /// Owned pin: value loads must be epoch-protected because in-place
    /// updates retire old values.
    guard: Guard,
    /// Current node; null when exhausted or unpositioned.
    current: *const Node,
}

impl<'a> SkipListIter<'a> {
    pub(crate) fn new(list: &'a SkipList) -> Self {
        Self {
            list,
            guard: epoch::pin(),
            current: std::ptr::null(),
        }
    }

    /// Returns whether the cursor is positioned on an entry.
    pub fn valid(&self) -> bool {
        !self.current.is_null()
    }

    /// Positions the cursor on the first entry.
    pub fn seek_to_first(&mut self) {
        // SAFETY: The head node is valid for the list's lifetime, and level
        // 0 pointers always reference live nodes.
        self.current = unsafe {
            (*self.list.head_raw()).tower(0)
                .load(Ordering::Acquire, &self.guard)
                .as_raw()
        };
    }

    /// Positions the cursor on the first entry with `key >= target`.
    pub fn seek(&mut self, target: &[u8]) {
        let head = self.list.head_raw();
        // SAFETY: Head and all reachable nodes are live for the list's
        // lifetime (no removal).
        unsafe {
            let mut pred = head;
            for level in (0..crate::skiplist::MAX_HEIGHT).rev() {
                let mut curr: Shared<'_, Node> =
                    (*pred).tower(level).load(Ordering::Acquire, &self.guard);
                while let Some(c) = curr.as_ref() {
                    if c.key() < target {
                        pred = curr.as_raw();
                        curr = c.tower(level).load(Ordering::Acquire, &self.guard);
                    } else {
                        break;
                    }
                }
                if level == 0 {
                    self.current = curr.as_raw();
                }
            }
        }
    }

    /// Advances to the next entry in key order.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not valid.
    pub fn next(&mut self) {
        assert!(self.valid(), "next() on invalid iterator");
        // SAFETY: `current` is a live node (no removal while list alive).
        self.current = unsafe {
            (*self.current).tower(0)
                .load(Ordering::Acquire, &self.guard)
                .as_raw()
        };
    }

    /// Returns the current key.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not valid.
    pub fn key(&self) -> &[u8] {
        assert!(self.valid(), "key() on invalid iterator");
        // SAFETY: `current` is a live node.
        unsafe { (*self.current).key() }
    }

    /// Returns a clone of the current entry's versioned value, consistent
    /// under concurrent in-place updates (see [`SkipListIter::value_at`]).
    pub fn value(&self) -> VersionedValue {
        self.value_at(u64::MAX).clone()
    }

    /// Borrows the current entry's newest version at or below `stamp` (at
    /// `u64::MAX`, its current one), or else the oldest version the list
    /// holds, which is above `stamp`. The iterator's pin keeps the borrow
    /// alive should a concurrent update replace the version — it is
    /// retired, not freed, until the guard drops — so readers that only
    /// copy the bytes onward (a scan's visitor, a flush) make that one copy.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not valid.
    pub fn value_at(&self, stamp: u64) -> &VersionedValue {
        assert!(self.valid(), "value_at() on invalid iterator");
        // SAFETY: `current` is a live node; its value pointer is non-null
        // for published nodes, and each `prev` link is null or a version
        // unlinked no earlier than this load; `self.guard` — owned by the
        // iterator, never repinned, and outliving the returned borrow of
        // `self` — protects every one of them from reclamation.
        unsafe {
            let mut version = (*self.current).value.load(Ordering::Acquire, &self.guard).deref();
            while version.value.seq > stamp {
                match version.prev.load(Ordering::Acquire, &self.guard).as_ref() {
                    Some(older) => version = older,
                    None => break,
                }
            }
            &version.value
        }
    }
}

impl SkipList {
    /// Creates an iterator over this list.
    pub fn iter(&self) -> SkipListIter<'_> {
        SkipListIter::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u64) -> Box<[u8]> {
        Box::new(n.to_be_bytes())
    }

    #[test]
    fn iterate_in_order() {
        let l = SkipList::new();
        for key in [5u64, 1, 9, 3, 7] {
            l.insert(&k(key), Some(&key.to_be_bytes()), key);
        }
        let mut it = l.iter();
        it.seek_to_first();
        let mut seen = Vec::new();
        while it.valid() {
            seen.push(u64::from_be_bytes(it.key().try_into().unwrap()));
            it.next();
        }
        assert_eq!(seen, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn seek_finds_lower_bound() {
        let l = SkipList::new();
        for key in [10u64, 20, 30] {
            l.insert(&k(key), Some(b"v"), key);
        }
        let mut it = l.iter();
        it.seek(&k(15));
        assert!(it.valid());
        assert_eq!(it.key(), k(20).as_ref());

        it.seek(&k(20));
        assert_eq!(it.key(), k(20).as_ref());

        it.seek(&k(31));
        assert!(!it.valid());
    }

    #[test]
    fn empty_iteration() {
        let l = SkipList::new();
        let mut it = l.iter();
        it.seek_to_first();
        assert!(!it.valid());
        it.seek(b"x");
        assert!(!it.valid());
    }

    #[test]
    fn value_snapshot_is_consistent() {
        let l = SkipList::new();
        l.insert(&k(1), Some(b"a"), 7);
        let mut it = l.iter();
        it.seek_to_first();
        let v = it.value();
        assert_eq!(v.seq, 7);
        assert_eq!(v.value.as_deref(), Some(&b"a"[..]));
    }

    #[test]
    fn borrowed_value_outlives_a_concurrent_replacement() {
        let l = SkipList::new();
        l.insert(&k(1), Some(b"old"), 1);
        let mut it = l.iter();
        it.seek_to_first();
        let borrowed = it.value_at(u64::MAX);
        // The update retires the value `borrowed` points at; the
        // iterator's pin keeps it readable.
        l.insert(&k(1), Some(b"new"), 2);
        assert_eq!((borrowed.seq, borrowed.value.as_deref()), (1, Some(&b"old"[..])));
        assert_eq!(it.value_at(u64::MAX).seq, 2, "a fresh load sees the replacement");
    }

    #[test]
    fn iteration_includes_tombstones() {
        let l = SkipList::new();
        l.insert(&k(1), Some(b"a"), 1);
        l.insert(&k(2), None, 2);
        let mut it = l.iter();
        it.seek_to_first();
        assert!(!it.value().is_tombstone());
        it.next();
        assert!(it.valid() && it.value().is_tombstone());
        it.next();
        assert!(!it.valid());
    }

    #[test]
    fn iterator_survives_concurrent_inserts() {
        use std::sync::Arc;
        let l = Arc::new(SkipList::new());
        for key in (0..1000u64).step_by(2) {
            l.insert(&k(key), Some(b"v"), key + 1);
        }
        let writer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                for key in (1..1000u64).step_by(2) {
                    l.insert(&k(key), Some(b"w"), 2000 + key);
                }
            })
        };
        // Iterate while the writer inserts odd keys: order must hold and
        // every even key must be seen.
        let mut it = l.iter();
        it.seek_to_first();
        let mut prev: Option<u64> = None;
        let mut evens = 0;
        while it.valid() {
            let cur = u64::from_be_bytes(it.key().try_into().unwrap());
            if let Some(p) = prev {
                assert!(cur > p, "iterator went backwards: {p} -> {cur}");
            }
            if cur % 2 == 0 {
                evens += 1;
            }
            prev = Some(cur);
            it.next();
        }
        assert_eq!(evens, 500, "a pre-existing key was skipped");
        writer.join().unwrap();
    }
}
