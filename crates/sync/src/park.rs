//! Park until there is work: the one blocking wait of the engine's
//! threads.
//!
//! A [`Park`] is a place where threads block until a condition of the
//! caller's holds, with no timeout; whoever makes the condition hold calls
//! [`Park::wake`]. The drain and persist threads park here between bursts
//! of work, writers park here for Memtable room and for a frozen drain, and
//! `flush_all`/`quiesce` park here for the background threads' progress.
//!
//! **No lost wakeup.** The waiter announces itself (`parked` += 1, then a
//! `SeqCst` fence) and re-checks its condition under the lock before every
//! wait; the waker makes the condition true, fences, and loads `parked`.
//! The two fences are ordered one way or the other: if the waiter's comes
//! first, the waker sees it parked and takes the lock — which the waiter
//! holds from its announcement until the wait releases it — so the
//! broadcast reaches the wait; if the waker's comes first, the waiter's
//! re-check sees the condition and does not wait. Either way the waiter
//! wakes. A waker that sees no one parked returns after that one load, so
//! waking an awake thread costs no lock and writes no shared line. The
//! model scenario `park_wakes_a_late_producer` (tests/model.rs) explores
//! every interleaving of the two sides, and its mutation — the re-check
//! under the lock skipped — is found as a hang.

use crate::lock_order::SYNC_PARK;
use crate::shim::atomic::{fence, AtomicUsize, Ordering};
use crate::shim::{ranked_condvar, ranked_mutex, Condvar, Mutex};

/// Threads blocked until a condition holds, and the wake that releases
/// them.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
/// use flodb_sync::Park;
///
/// let park = Arc::new(Park::new());
/// let work = Arc::new(AtomicBool::new(false));
/// let waiter = {
///     let (park, work) = (Arc::clone(&park), Arc::clone(&work));
///     std::thread::spawn(move || park.park_until(|| work.load(Ordering::SeqCst)))
/// };
/// work.store(true, Ordering::SeqCst);
/// park.wake();
/// waiter.join().unwrap();
/// ```
#[derive(Debug)]
pub struct Park {
    /// Threads inside [`Park::park_until`] past their announcement.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Park {
    /// Creates a park with no one waiting.
    pub fn new() -> Self {
        Self {
            parked: AtomicUsize::new(0),
            lock: ranked_mutex(SYNC_PARK, ()),
            cv: ranked_condvar(SYNC_PARK),
        }
    }

    /// Blocks until `ready` returns true; returns at once if it already
    /// does. `ready` runs again under the park's lock before every wait
    /// and after every wake, so it must take only locks ranked above
    /// `sync.park`, and must not wake a park itself. Every change that can
    /// make it true must be followed by a [`Park::wake`].
    pub fn park_until(&self, mut ready: impl FnMut() -> bool) {
        if ready() {
            return;
        }
        let mut guard = self.lock.lock();
        // ORDERING: the waiter's half of the fence pair in the module
        // docs: the announcement is ordered before the re-check below.
        self.parked.fetch_add(1, Ordering::SeqCst);
        // ORDERING: the same fence pair, as above.
        fence(Ordering::SeqCst);
        // Mutation hook (`Hook::LostWakeup`, tests/model_mutation.rs): wait
        // once on the check made before the announcement — the lost wakeup
        // this module rules out.
        #[cfg(flodb_model_mutation)]
        if crate::shim::mutation::on(crate::shim::mutation::Hook::LostWakeup) {
            self.cv.wait(&mut guard);
        }
        while !ready() {
            self.cv.wait(&mut guard);
        }
        self.parked.fetch_sub(1, Ordering::Relaxed);
    }

    /// Wakes every parked thread to re-check its condition. Call it after
    /// the change that can make a waiter's condition true; with no one
    /// parked it is one fence and one load.
    pub fn wake(&self) {
        // ORDERING: the waker's half of the fence pair: the caller's change
        // is ordered before the `parked` load.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) == 0 {
            return;
        }
        // Taken only to order the broadcast after a waiter's re-check: it
        // holds the lock from its announcement until it waits.
        drop(self.lock.lock());
        self.cv.notify_all();
    }
}

impl Default for Park {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    use super::*;

    #[test]
    fn a_ready_condition_returns_at_once() {
        let park = Park::new();
        park.park_until(|| true);
        park.wake();
    }

    #[test]
    fn every_waiter_wakes_once_its_condition_holds() {
        let park = Arc::new(Park::new());
        let go = Arc::new(AtomicBool::new(false));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let (park, go) = (Arc::clone(&park), Arc::clone(&go));
                thread::spawn(move || park.park_until(|| go.load(Ordering::SeqCst)))
            })
            .collect();
        // A wake whose condition does not hold leaves them waiting.
        park.wake();
        go.store(true, Ordering::SeqCst);
        park.wake();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(park.parked.load(Ordering::SeqCst), 0);
    }
}
