//! Global sequence numbers ordering Memtable entries relative to scans.
//!
//! FloDB assigns every entry entering the Memtable a sequence number drawn
//! from a single atomic counter (`globalSeqNumber` in Algorithms 2 and 3).
//! A scan takes a stamp from the counter; an entry with a larger sequence
//! number was written after it, so the scan reads the key's newest version
//! at or below its stamp. Unlike multi-versioning, a key's sequence number
//! is overwritten in place together with its value, and the replaced
//! version is kept only while a live scan's stamp needs it.
//!
//! The store's counter has three consumers, and a write meets exactly one
//! of the first two: a direct Memtable insert (Algorithm 2, lines 19-20),
//! a drain stamping the entries it moves out of the Membuffer, and a scan
//! taking its stamp. The commit log takes none — a log record's order is
//! its position — and recovery stamps what it replays above everything on
//! disk before the counter resumes.

use crossbeam_utils::CachePadded;

use crate::shim::atomic::{AtomicU64, Ordering};

/// A monotonically increasing, shareable sequence-number source.
///
/// The counter starts at 1 so that 0 can serve as a "no sequence number yet"
/// sentinel in data-structure nodes.
///
/// # Examples
///
/// ```
/// use flodb_sync::SequenceGenerator;
///
/// let gen = SequenceGenerator::new();
/// let a = gen.next();
/// let b = gen.next();
/// assert!(b > a);
/// assert!(gen.current() >= b);
/// ```
#[derive(Debug)]
pub struct SequenceGenerator {
    counter: CachePadded<AtomicU64>,
}

impl SequenceGenerator {
    /// Sentinel meaning "no sequence number has been assigned".
    pub const NONE: u64 = 0;

    /// Creates a generator whose first issued number is 1.
    pub fn new() -> Self {
        Self::starting_at(1)
    }

    /// Creates a generator whose first issued number is `first`.
    ///
    /// Used on recovery, to resume numbering after the tables' largest
    /// sequence number and the stamps given to the replayed log.
    pub fn starting_at(first: u64) -> Self {
        Self {
            counter: CachePadded::new(AtomicU64::new(first)),
        }
    }

    /// Atomically fetches the next sequence number.
    ///
    /// This is the `fetchAndIncrement` of the paper's pseudocode.
    #[inline]
    pub fn next(&self) -> u64 {
        // ORDERING: issuance must share one total order with scan
        // stamps and the SC skiplist publication CASes — the as-of rule
        // "entry seq > stamp ⇒ written after the scan" is argued in that
        // single order, not in per-pair happens-before edges.
        self.counter.fetch_add(1, Ordering::SeqCst)
    }

    /// Reserves a contiguous block of `n` sequence numbers, returning the
    /// first.
    ///
    /// Draining threads use this to stamp a whole multi-insert batch with a
    /// single atomic operation.
    #[inline]
    pub fn next_block(&self, n: u64) -> u64 {
        // ORDERING: same total-order argument as `next`.
        self.counter.fetch_add(n, Ordering::SeqCst)
    }

    /// Returns the next number that would be issued, without issuing it.
    #[inline]
    pub fn current(&self) -> u64 {
        // ORDERING: the scan-snapshot load; it anchors the snapshot in
        // the issuance total order (see `next`).
        self.counter.load(Ordering::SeqCst)
    }
}

impl Default for SequenceGenerator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn monotone_single_thread() {
        let gen = SequenceGenerator::new();
        let mut prev = 0;
        for _ in 0..1000 {
            let s = gen.next();
            assert!(s > prev);
            prev = s;
        }
    }

    #[test]
    fn starts_at_one_by_default() {
        let gen = SequenceGenerator::new();
        assert_eq!(gen.next(), 1);
    }

    #[test]
    fn starting_at_resumes() {
        let gen = SequenceGenerator::starting_at(42);
        assert_eq!(gen.next(), 42);
        assert_eq!(gen.next(), 43);
    }

    #[test]
    fn block_reservation_is_contiguous() {
        let gen = SequenceGenerator::new();
        let first = gen.next_block(10);
        assert_eq!(first, 1);
        assert_eq!(gen.next(), 11);
    }

    #[test]
    fn unique_across_threads() {
        let gen = Arc::new(SequenceGenerator::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let gen = Arc::clone(&gen);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| gen.next()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "sequence numbers must be unique");
    }
}
