//! The maintenance entry points: `flush_all` and `quiesce`, both a
//! settle-wait on the background stages followed by their own epilogue.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use flodb_sync::Backoff;

use super::{FloDb, Inner};
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
        // ORDERING: the flag must be SC-ordered with the persist thread's
        // drain decision — store, then wake, then poll; a weaker store
        // could let a concurrently-parking persist thread read the old
        // flag after consuming the wake. Maintenance path, not hot.
        inner.force_flush.store(true, Ordering::SeqCst);
        // On a degraded store the remaining memory-resident data cannot be
        // forced down (that is what degraded *means*); waiting would wedge
        // this maintenance call forever.
        inner.wait_until(|| {
            inner.is_degraded()
                || inner.view.read(|v| {
                    membuffer_drained(v) && v.imm_mtb.is_none() && v.mtb.is_empty()
                })
        });
        // ORDERING: symmetric with the set above; the clear must not be
        // reorderable before the final emptiness poll that justified it.
        inner.force_flush.store(false, Ordering::SeqCst);
        // The flushes left their compaction debt to the persist thread,
        // the only one that compacts; wait for it like `quiesce` does.
        inner.wait_until(|| inner.is_degraded() || !inner.compaction_pending());
    }
}

impl Inner {
    /// The settle-wait behind `flush_all` and `quiesce`: polls `settled`,
    /// waking the persist thread before each round. What it waits for can
    /// be a compaction — hundreds of milliseconds of another thread's work
    /// — so once the backoff stops escalating it sleeps between polls
    /// instead of yielding in a loop beside the thread it waits on.
    fn wait_until(&self, settled: impl Fn() -> bool) {
        self.settling.fetch_add(1, Ordering::Relaxed);
        let backoff = Backoff::new();
        loop {
            self.wake_persist();
            if settled() {
                self.settling.fetch_sub(1, Ordering::Relaxed);
                break;
            }
            if backoff.is_completed() {
                std::thread::sleep(Duration::from_micros(100));
            } else {
                backoff.snooze();
            }
        }
    }

    /// The body of [`KvStore::quiesce`](crate::KvStore::quiesce).
    pub(super) fn quiesce(&self) {
        self.wait_until(|| {
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
        // Background work has settled; also settle epoch reclamation. Each
        // round can advance the epoch one step past this thread's own pin,
        // so repeated rounds walk sealed garbage through its two-epoch
        // grace period. The background drain threads keep pinning on their
        // idle beat, which can make any individual advancement attempt
        // fail, so we retry until the shim's counters show executed caught
        // up to deferred — bounded, because a thread holding a guard open
        // (legitimately) stalls reclamation forever.
        //
        // Garbage can also sit in a drain thread's *unsealed* local bag,
        // which only that thread's own idle-beat flush (100us cadence, see
        // drain_loop) can seal — so once backoff stops spinning, block in
        // real sleeps long enough for every drain thread to take an idle
        // beat; pure yields could burn the whole budget before they are
        // scheduled. The budget is a wall-clock deadline (not an iteration
        // count) so a briefly-descheduled drain thread cannot exhaust it,
        // yet a guard held open across quiesce (which legitimately stalls
        // reclamation forever) still cannot hang us.
        //
        // The counters are process-global, so another epoch user in this
        // process (a second store, a raw skiplist) can hold the gap open
        // forever; once pumping stops shrinking it, further rounds are
        // wasted — bail after a stretch of no progress (~6ms of sleeps,
        // dozens of drain idle beats) rather than burning the whole
        // deadline.
        let deadline = Instant::now() + Duration::from_secs(1);
        let backoff = Backoff::new();
        let mut best_gap = u64::MAX;
        let mut stalled_rounds = 0u32;
        loop {
            let executed = crossbeam_epoch::shim_stats::destructions_executed();
            let deferred = crossbeam_epoch::shim_stats::destructions_deferred();
            if executed == deferred {
                break;
            }
            let gap = deferred - executed;
            if gap < best_gap {
                best_gap = gap;
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds >= 64 {
                    break;
                }
            }
            if Instant::now() >= deadline {
                break;
            }
            crossbeam_epoch::pin().flush();
            if backoff.is_completed() {
                std::thread::sleep(Duration::from_micros(100));
            } else {
                backoff.snooze();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::store::tests::k;
    use crate::{FloDb, FloDbOptions, KvStore};

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
