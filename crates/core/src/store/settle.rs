//! The maintenance entry points: `flush_all` and `quiesce`, both a
//! settle-wait on the background stages followed by their own epilogue.

use flodb_sync::shim::atomic::Ordering;

use super::{FloDb, Inner};
use crate::stats::FloDbStats;
use crate::view::MemView;

/// No entry in the Membuffer and no frozen Membuffer mid-drain.
pub(super) fn membuffer_drained(v: &MemView) -> bool {
    v.mbf.as_ref().is_none_or(|m| m.is_empty()) && v.imm_mbf.is_none()
}

impl FloDb {
    /// Forces the entire memory component down to disk and waits for
    /// quiescence (drains, flushes and compactions complete).
    pub fn flush_all(&self) {
        let inner = &*self.inner;
        // ORDERING: the count must be SC-ordered with the persist thread's
        // drain decision — increment, then wake, then poll; a weaker one
        // could let a concurrently-parking persist thread read the old
        // count after consuming the wake. Maintenance path, not hot.
        inner.force_flush.fetch_add(1, Ordering::SeqCst);
        // On a degraded store the remaining memory-resident data cannot be
        // forced down (that is what degraded *means*); waiting would wedge
        // this maintenance call forever.
        inner.settle_until(|| {
            inner.is_degraded()
                || inner.view.read(|v| {
                    membuffer_drained(v) && v.imm_mtb.is_none() && v.mtb.is_empty()
                })
        });
        // ORDERING: symmetric with the increment above; the decrement must
        // not be reorderable before the final emptiness poll that
        // justified it.
        inner.force_flush.fetch_sub(1, Ordering::SeqCst);
        // The flushes left their compaction debt to the persist thread,
        // the only one that compacts; wait for it like `quiesce` does.
        inner.settle_until(|| inner.is_degraded() || !inner.compaction_pending());
    }
}

impl Inner {
    /// The settle-wait behind `flush_all` and `quiesce`: wakes the persist
    /// thread (and the drain threads, while the Membuffer holds entries),
    /// and until `settled` holds, parks until one of them ends a step
    /// ([`Inner::post_progress`]) — a switch, a compaction, a drainer going
    /// idle, a freeze window closing — then wakes them again. Every change
    /// `settled` waits for is one of those steps, so the wait needs no
    /// timer.
    pub(super) fn settle_until(&self, settled: impl Fn() -> bool) {
        self.settling.fetch_add(1, Ordering::Relaxed);
        loop {
            let seen = self.steps.load(Ordering::Acquire);
            self.persist_park.wake();
            // Only a live Membuffer with entries is work for the drainers:
            // a kick they answer with an empty lap posts progress, which
            // would only bring this loop round again.
            if self.view.read(|v| v.mbf.as_ref().is_some_and(|m| !m.is_empty())) {
                self.kick_drainers();
            }
            if settled() {
                break;
            }
            self.progress
                .park_until(|| self.steps.load(Ordering::Acquire) != seen);
        }
        self.settling.fetch_sub(1, Ordering::Relaxed);
    }

    /// The body of [`KvStore::quiesce`](crate::KvStore::quiesce).
    pub(super) fn quiesce(&self) {
        self.settle_until(|| {
            let (drained, flushed) =
                self.view.read(|v| (membuffer_drained(v), v.imm_mtb.is_none()));
            // A due switch (or one already in flight between its trigger
            // check and the swap, or between its roll and the deletion of
            // the segments it sealed): quiesce must wait it out, or a
            // caller's first post-quiesce scan races the switch/flush/
            // release sequence — the pre-existing message_queue flake —
            // and "quiesced" would not mean the on-disk log is back to one
            // active segment (the bounded-log invariant tests rely on).
            // With no switch due and no force-flush set, the persist
            // thread provably leaves the view alone until the next write.
            let switch_pending = self.switch_due() || self.retirement_in_flight();
            let compaction_pending = self.compaction_pending();
            // A degraded store can still settle its memory-only work
            // (drains run without disk I/O), but the resident immutable
            // Memtable, the sealed segments and the compaction debt are
            // permanently un-servable — treating them as pending would
            // wedge quiesce forever. "Quiesced" then means: no
            // *achievable* background work remains.
            drained
                && (self.is_degraded()
                    || (flushed && !switch_pending && !compaction_pending))
        });
        // Background work has settled, and the engine threads sealed their
        // epoch bags before they parked; settle reclamation from here. Each
        // round seals this thread's bag and can walk the epoch one step
        // past its own pin, and garbage needs two steps. Stop once the
        // counters converge, or once three rounds in a row bring the gap
        // to no new low: the counters are process-global, and another
        // epoch user (a second store, a guard held open) can keep the gap
        // open for good.
        let mut best_gap = u64::MAX;
        let mut idle_rounds = 0;
        while idle_rounds < 3 {
            let garbage = FloDbStats::reclamation();
            let gap = garbage
                .destructions_deferred
                .saturating_sub(garbage.destructions_executed);
            if gap == 0 {
                break;
            }
            if gap < best_gap {
                (best_gap, idle_rounds) = (gap, 0);
            } else {
                idle_rounds += 1;
            }
            crossbeam_epoch::pin().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    use super::membuffer_drained;
    use crate::store::tests::k;
    use crate::{FloDb, FloDbOptions, KvStore};

    /// Two `flush_all` calls overlap, and the first returns while the
    /// second still waits for memory to empty: the second must keep its
    /// force, or a write landing after the first returned leaves memory
    /// holding something with no switch due, and the second waits for
    /// good. Driven step by step: B's force, a put, A's whole call, a put,
    /// then B's memory wait, under a watchdog.
    #[test]
    fn a_flush_all_returning_under_another_leaves_it_forcing() {
        let db = Arc::new(FloDb::open(FloDbOptions::small_for_tests()).unwrap());
        db.inner.force_flush.fetch_add(1, Ordering::SeqCst);
        db.put(&k(1), b"v").unwrap();
        db.flush_all();
        db.put(&k(2), b"v").unwrap();
        let (done, finished) = mpsc::channel();
        let second = {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let inner = &*db.inner;
                inner.settle_until(|| {
                    inner.view.read(|v| {
                        membuffer_drained(v) && v.imm_mtb.is_none() && v.mtb.is_empty()
                    })
                });
                inner.force_flush.fetch_sub(1, Ordering::SeqCst);
                done.send(()).unwrap();
            })
        };
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the second flush_all lost its force and waits for good");
        second.join().unwrap();
        assert_eq!(db.get(&k(2)), Some(b"v".to_vec()));
    }

    /// `flush_all` compacts nothing itself; it returns only once the
    /// persist thread has serviced the debt its flushes left.
    #[test]
    fn flush_all_returns_with_the_compaction_debt_serviced() {
        let mut opts = FloDbOptions::small_for_tests();
        // Every flushed table is debt: one L0 file triggers.
        opts.disk.compaction.l0_trigger = 1;
        let db = FloDb::open(opts).unwrap();
        for round in 0..3u64 {
            for i in 0..200u64 {
                db.put(&k(i), &round.to_le_bytes()).unwrap();
            }
            db.flush_all();
            let stats = db.disk_stats();
            assert!(!db.inner.disk.needs_compaction(), "round {round}: {stats:?}");
            assert_eq!(stats.files_per_level[0], 0, "round {round}: {stats:?}");
            // The first flush's tables overlap nothing, so its job is a
            // trivial move rather than a merge.
            let jobs = stats.compactions + stats.trivial_moves;
            assert!(stats.flushes > round && jobs > round, "{stats:?}");
        }
        assert_eq!(db.get(&k(7)), Some(2u64.to_le_bytes().to_vec()));
    }
}
