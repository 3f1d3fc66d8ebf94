//! The `pauseWriters` / `pauseDrainingThreads` protocol flag.
//!
//! Algorithm 3 of the paper freezes direct Memtable updates and background
//! draining while a master scan drains the Membuffer — two names it always
//! sets and clears together, so the store keeps one flag for both. Writers
//! observing it either help with the drain or wait (Algorithm 2, lines
//! 12-16). This module provides that flag with an efficient blocking wait.
//!
//! The flag is *counting*: concurrent pausers (e.g. a master scan
//! overlapping a fallback scan on another thread) stack, and the flag
//! clears only when every pauser has resumed. A plain boolean would let
//! one scan's `resume` release writers out from under another.

use crate::park::Park;
use crate::shim::atomic::{AtomicUsize, Ordering};

/// A counting pause flag with blocking waiters.
///
/// Checking the flag ([`PauseFlag::is_paused`]) is a single atomic load on
/// the fast path, so un-paused operation costs nearly nothing. Waiters
/// park until the pause count returns to zero, or until the pauser posts
/// an event of its own ([`PauseFlag::notify`]).
///
/// # Examples
///
/// ```
/// use flodb_sync::PauseFlag;
///
/// let flag = PauseFlag::new();
/// flag.pause();
/// flag.pause();
/// flag.resume();
/// assert!(flag.is_paused(), "still one pauser outstanding");
/// flag.resume();
/// assert!(!flag.is_paused());
/// flag.wait_until_resumed(); // returns immediately
/// ```
#[derive(Debug)]
pub struct PauseFlag {
    pausers: AtomicUsize,
    waiters: Park,
}

impl PauseFlag {
    /// Creates a new, un-paused flag.
    pub fn new() -> Self {
        Self {
            pausers: AtomicUsize::new(0),
            waiters: Park::new(),
        }
    }

    /// Returns whether at least one pauser is active.
    ///
    /// Sequentially consistent so it pairs with [`PauseFlag::pause`] in the
    /// scan protocol's Dekker argument: a writer that enters an RCU
    /// read-side section (SeqCst slot store) and then loads this flag is
    /// guaranteed that either the pauser's grace period observes its
    /// section, or this load observes the pause — never neither.
    #[inline]
    pub fn is_paused(&self) -> bool {
        self.pausers() > 0
    }

    /// Pausers currently registered (the count behind
    /// [`PauseFlag::is_paused`]; tests use it to see an overlap).
    #[inline]
    pub fn pausers(&self) -> usize {
        // ORDERING: the reader's half of the Dekker argument in
        // `is_paused`'s doc comment — this load and the writer's slot
        // store must share one total order with `pause`'s increment.
        self.pausers.load(Ordering::SeqCst)
    }

    /// Registers a pauser. Waiters block until every pauser resumes.
    pub fn pause(&self) {
        // ORDERING: the pauser's half of the Dekker pairing with lock-free
        // `is_paused` readers.
        self.pausers.fetch_add(1, Ordering::SeqCst);
    }

    /// Releases one pauser; wakes all waiters when the count hits zero.
    ///
    /// # Panics
    ///
    /// Panics if called more times than [`PauseFlag::pause`].
    pub fn resume(&self) {
        // ORDERING: symmetric with `pause` — the decrement participates in
        // the same total order the lock-free readers load from.
        let prev = self.pausers.fetch_sub(1, Ordering::SeqCst);
        assert!(prev > 0, "resume without matching pause");
        if prev == 1 {
            self.waiters.wake();
        }
    }

    /// Blocks the calling thread until no pauser is active.
    ///
    /// Returns immediately if the flag is not set.
    pub fn wait_until_resumed(&self) {
        self.wait_until_resumed_or(|| false);
    }

    /// Blocks the calling thread until no pauser is active or `event`
    /// holds — an event the pauser posts with [`PauseFlag::notify`] (the
    /// store's freeze opening its drain to helpers). `event` runs under
    /// the waiters' park lock (see [`Park::park_until`]).
    pub fn wait_until_resumed_or(&self, mut event: impl FnMut() -> bool) {
        self.waiters.park_until(|| !self.is_paused() || event());
    }

    /// Wakes the waiters to re-check the event of
    /// [`PauseFlag::wait_until_resumed_or`]; call it after making the
    /// event true.
    pub fn notify(&self) {
        self.waiters.wake();
    }
}

impl Default for PauseFlag {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    use super::*;

    #[test]
    fn starts_unpaused() {
        let f = PauseFlag::new();
        assert!(!f.is_paused());
        f.wait_until_resumed();
    }

    #[test]
    fn pause_resume_roundtrip() {
        let f = PauseFlag::new();
        f.pause();
        assert!(f.is_paused());
        f.resume();
        assert!(!f.is_paused());
    }

    #[test]
    fn pausers_stack() {
        let f = PauseFlag::new();
        f.pause();
        f.pause();
        f.resume();
        assert!(f.is_paused(), "one pauser still outstanding");
        f.resume();
        assert!(!f.is_paused());
    }

    #[test]
    #[should_panic(expected = "resume without matching pause")]
    fn unbalanced_resume_panics() {
        let f = PauseFlag::new();
        f.resume();
    }

    #[test]
    fn waiter_blocks_until_last_resume() {
        let f = Arc::new(PauseFlag::new());
        f.pause();
        f.pause();
        let woke = Arc::new(AtomicBool::new(false));
        let waiter = {
            let f = Arc::clone(&f);
            let woke = Arc::clone(&woke);
            thread::spawn(move || {
                f.wait_until_resumed();
                woke.store(true, Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(30));
        f.resume();
        thread::sleep(Duration::from_millis(30));
        assert!(!woke.load(Ordering::SeqCst), "woke before all resumed");
        f.resume();
        waiter.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn many_waiters_all_wake() {
        let f = Arc::new(PauseFlag::new());
        f.pause();
        let mut waiters = Vec::new();
        for _ in 0..8 {
            let f = Arc::clone(&f);
            waiters.push(thread::spawn(move || f.wait_until_resumed()));
        }
        thread::sleep(Duration::from_millis(20));
        f.resume();
        for w in waiters {
            w.join().unwrap();
        }
    }
}
