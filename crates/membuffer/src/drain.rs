//! Work-sharing cursor for cooperative draining.
//!
//! A full Membuffer drain (before a scan) may be executed by several
//! threads at once: the master scanner plus any writers that "help with the
//! draining of the immutable Membuffer" (Algorithm 2, lines 12-16). The
//! tracker hands out disjoint chunks of the bucket space and reports
//! completion once every chunk has been both claimed *and* finished.
//!
//! The tracker itself is reclamation-neutral: it deals only in chunk
//! indices, never in epoch-protected entry pointers, so helpers can hold a
//! claim across arbitrarily long Memtable inserts without pinning.

use flodb_sync::shim::atomic::{AtomicUsize, Ordering};

/// Divides `total` chunks of work among any number of cooperating threads.
///
/// # Examples
///
/// ```
/// use flodb_membuffer::DrainTracker;
///
/// let tracker = DrainTracker::new(3);
/// assert_eq!(tracker.claim(), Some(0));
/// assert_eq!(tracker.claim(), Some(1));
/// tracker.finish();
/// tracker.finish();
/// assert!(!tracker.is_complete());
/// assert_eq!(tracker.claim(), Some(2));
/// tracker.finish();
/// assert_eq!(tracker.claim(), None);
/// assert!(tracker.is_complete());
/// ```
#[derive(Debug)]
pub struct DrainTracker {
    next: AtomicUsize,
    finished: AtomicUsize,
    total: usize,
}

impl DrainTracker {
    /// Creates a tracker over `total` chunks.
    pub fn new(total: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            total,
        }
    }

    /// Claims the next unprocessed chunk, or `None` if all are claimed.
    pub fn claim(&self) -> Option<usize> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        (idx < self.total).then_some(idx)
    }

    /// Returns whether every chunk has been claimed (though perhaps not
    /// yet finished): a would-be helper has nothing left to take and
    /// should wait for [`Self::is_complete`] instead of claiming.
    pub fn exhausted(&self) -> bool {
        // Relaxed: a hint that publishes nothing; `finish`/`is_complete`
        // carry the release/acquire edge of the drained data.
        self.next.load(Ordering::Relaxed) >= self.total
    }

    /// Records that one claimed chunk has been fully processed.
    pub fn finish(&self) {
        self.finished.fetch_add(1, Ordering::Release);
    }

    /// Returns whether every chunk has been processed.
    pub fn is_complete(&self) -> bool {
        self.finished.load(Ordering::Acquire) >= self.total
    }

    /// Returns the total number of chunks.
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn chunks_are_disjoint_across_threads() {
        let tracker = Arc::new(DrainTracker::new(1000));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let tracker = Arc::clone(&tracker);
            handles.push(std::thread::spawn(move || {
                let mut claimed = Vec::new();
                while let Some(idx) = tracker.claim() {
                    claimed.push(idx);
                    tracker.finish();
                }
                claimed
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
        assert!(tracker.is_complete());
    }

    #[test]
    fn empty_tracker_is_complete() {
        let t = DrainTracker::new(0);
        assert_eq!(t.claim(), None);
        assert!(t.is_complete());
    }

    #[test]
    fn incomplete_until_all_finished() {
        let t = DrainTracker::new(2);
        t.claim();
        assert!(!t.exhausted());
        t.claim();
        assert!(t.exhausted(), "nothing left to claim");
        assert!(!t.is_complete());
        t.finish();
        assert!(!t.is_complete());
        t.finish();
        assert!(t.is_complete());
    }
}
