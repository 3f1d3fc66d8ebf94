//! The RCU-protected view of the memory components.
//!
//! FloDB switches memory components — installing a fresh Membuffer before
//! a scan drain, or a fresh Memtable before persisting — "using RCU, which
//! never blocks any updates or reads" (§4.2). [`ViewCell`] realizes that: a
//! single atomic pointer to an immutable [`MemView`] snapshot; readers and
//! writers dereference it inside an RCU read-side critical section, and
//! switchers install a new snapshot then wait one grace period, which
//! doubles as the paper's `MemBufferRCUWait`/`MemTableRCUWait` (all
//! in-flight operations against the old snapshot have completed when the
//! switch returns). The switches are the four named transitions on
//! [`ViewCell`] — freeze / release the Membuffer, switch / release the
//! Memtable — and nothing else replaces the view.

use flodb_membuffer::MemBuffer;
use flodb_memtable::SkipList;
use flodb_sync::shim::atomic::{AtomicPtr, Ordering};
use flodb_sync::lock_order::CORE_VIEW_SWITCH;
use flodb_sync::shim::{ranked_mutex, Arc, Mutex};
use flodb_sync::RcuDomain;

/// Hands a fully drained frozen Membuffer back for re-installation as the
/// next fresh Membuffer — iff the caller is its sole owner.
///
/// Call after the `imm_mbf: None` switch's grace period: the view no
/// longer references the buffer then, but a view clone taken earlier may
/// (a scan's snapshot holds only the Memtables). Re-installing a buffer
/// such a holder believes frozen would put live writes under it, so any
/// other owner means `None`, and the buffer is simply dropped by its last
/// holder as before. With no other owner nobody can obtain a reference
/// any more, so the check cannot be raced. The buffer must also be empty
/// with an all-clear occupancy summary ([`MemBuffer::is_drained`]), i.e.
/// indistinguishable from a new one.
pub fn reclaim(mut buffer: Arc<MemBuffer>) -> Option<Arc<MemBuffer>> {
    // Mutation hook (`Hook::Recycle`, tests/model_mutation.rs): skip the
    // sole-owner check, so a buffer a snapshot still holds gets
    // re-installed.
    #[cfg(flodb_model_mutation)]
    if flodb_sync::shim::mutation::on(flodb_sync::shim::mutation::Hook::Recycle) {
        return Some(buffer).filter(|b| b.is_drained());
    }
    Arc::get_mut(&mut buffer)?;
    buffer.is_drained().then_some(buffer)
}

/// One immutable snapshot of the four memory components
/// (MBF, IMM_MBF, MTB, IMM_MTB in Algorithm 2's notation).
#[derive(Debug, Clone)]
pub struct MemView {
    /// The mutable Membuffer absorbing writes.
    pub mbf: Option<Arc<MemBuffer>>,
    /// The frozen Membuffer, while the freezer drains it.
    pub imm_mbf: Option<Arc<MemBuffer>>,
    /// The mutable Memtable.
    pub mtb: Arc<SkipList>,
    /// A Memtable frozen for persisting, until its flush completes.
    pub imm_mtb: Option<Arc<SkipList>>,
}

/// The RCU cell holding the current [`MemView`].
pub struct ViewCell {
    ptr: AtomicPtr<MemView>,
    domain: RcuDomain,
    /// Serializes view switches (persist thread vs. master scans); user
    /// operations never take this lock.
    switch_lock: Mutex<()>,
}

impl ViewCell {
    /// Creates a cell holding `view`.
    pub fn new(view: MemView) -> Self {
        Self {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(view))),
            domain: RcuDomain::new(),
            switch_lock: ranked_mutex(CORE_VIEW_SWITCH, ()),
        }
    }

    /// Runs `f` against the current view inside an RCU critical section.
    ///
    /// The entire operation (e.g. a Membuffer add or Memtable insert) runs
    /// inside the section, so a concurrent view switch returns
    /// only after `f` has finished — the property Algorithm 3 needs before
    /// draining.
    #[inline]
    pub fn read<R>(&self, f: impl FnOnce(&MemView) -> R) -> R {
        let _guard = self.domain.read_lock();
        // SAFETY: The pointer is only replaced by `update`, which frees the
        // old view strictly after a grace period; we are inside a read-side
        // critical section, so the view is live.
        let view = unsafe { &*self.ptr.load(Ordering::Acquire) };
        f(view)
    }

    /// Atomically replaces the view with `make(current)` and waits one
    /// grace period.
    ///
    /// On return, every operation that might have observed the old view
    /// has completed: pending Membuffer adds are in the frozen buffer,
    /// pending Memtable inserts are in the frozen table. Switches are
    /// serialized among themselves but never block readers or writers.
    /// Private: the store's switches are the named transitions below, so
    /// the protocol the model suite checks is the one the store runs.
    /// `make` also yields what the transition hands back to its caller.
    fn update<R>(&self, make: impl FnOnce(&MemView) -> (MemView, R)) -> R {
        let _switch = self.switch_lock.lock();
        let old_ptr = self.ptr.load(Ordering::Acquire);
        // SAFETY: Only `update` (serialized by `switch_lock`) replaces the
        // pointer, and frees strictly after a grace period.
        let old = unsafe { &*old_ptr };
        let (new, out) = make(old);
        self.ptr.store(Box::into_raw(Box::new(new)), Ordering::Release);
        self.domain.synchronize();
        // SAFETY: The grace period has elapsed: no reader can still hold a
        // reference into the old view box.
        drop(unsafe { Box::from_raw(old_ptr) });
        out
    }

    /// Installs `fresh` as the Membuffer and freezes the current one
    /// (Algorithm 3, lines 6-9). Returns the frozen buffer, or `None` if
    /// the view had no Membuffer. On return the grace period has elapsed:
    /// every add against the frozen buffer has landed, so the caller may
    /// drain it.
    pub fn freeze_membuffer(&self, fresh: Arc<MemBuffer>) -> Option<Arc<MemBuffer>> {
        self.update(|old| {
            let view = MemView {
                mbf: Some(fresh),
                imm_mbf: old.mbf.clone(),
                ..old.clone()
            };
            (view, old.mbf.clone())
        })
    }

    /// Drops the frozen Membuffer from the view once its drain completed.
    /// After the grace period only snapshots can still hold it (see
    /// [`reclaim`]).
    pub fn release_frozen_membuffer(&self) {
        self.update(|old| {
            let view = MemView {
                imm_mbf: None,
                ..old.clone()
            };
            (view, ())
        })
    }

    /// Installs `fresh` as the Memtable and makes the current one
    /// immutable, returning it. The grace period is the paper's "RCU to
    /// make sure that all pending updates to the immutable Memtable have
    /// completed" (§4.2).
    pub fn switch_memtable(&self, fresh: Arc<SkipList>) -> Arc<SkipList> {
        self.update(|old| {
            let view = MemView {
                mtb: fresh,
                imm_mtb: Some(Arc::clone(&old.mtb)),
                ..old.clone()
            };
            (view, Arc::clone(&old.mtb))
        })
    }

    /// Drops the immutable Memtable from the view once it is flushed;
    /// scans holding a snapshot keep it alive through their `Arc` (the
    /// paper's second RCU use, realized by reference counting on top of
    /// the snapshot grace period).
    pub fn release_immutable_memtable(&self) {
        self.update(|old| {
            let view = MemView {
                imm_mtb: None,
                ..old.clone()
            };
            (view, ())
        })
    }

    /// A grace period with no switch: returns once every operation in
    /// flight against the current view has completed.
    pub fn grace_period(&self) {
        self.update(|old| (old.clone(), ()))
    }
}

impl Drop for ViewCell {
    fn drop(&mut self) {
        // SAFETY: Exclusive access; no readers can exist.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
    }
}

impl std::fmt::Debug for ViewCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::thread;

    use flodb_membuffer::MemBufferConfig;

    use super::*;

    fn view() -> MemView {
        MemView {
            mbf: Some(Arc::new(MemBuffer::new(MemBufferConfig {
                partition_bits: 2,
                buckets_per_partition: 8,
            }))),
            imm_mbf: None,
            mtb: Arc::new(SkipList::new()),
            imm_mtb: None,
        }
    }

    #[test]
    fn read_sees_current_view() {
        let cell = ViewCell::new(view());
        cell.read(|v| {
            assert!(v.imm_mbf.is_none());
            assert!(v.mtb.is_empty());
        });
    }

    #[test]
    fn update_replaces_view() {
        let cell = ViewCell::new(view());
        let new_mtb = Arc::new(SkipList::new());
        new_mtb.insert(b"k", Some(b"v"), 1);
        cell.switch_memtable(Arc::clone(&new_mtb));
        cell.read(|v| {
            assert_eq!(v.mtb.len(), 1);
            assert!(v.imm_mtb.is_some());
        });
    }

    #[test]
    fn update_waits_for_inflight_readers() {
        let cell = Arc::new(ViewCell::new(view()));
        let in_read = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));

        let reader = {
            let cell = Arc::clone(&cell);
            let in_read = Arc::clone(&in_read);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                cell.read(|v| {
                    let mtb = Arc::clone(&v.mtb);
                    in_read.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    // The old view must still be alive here.
                    mtb.insert(b"late", Some(b"w"), 42);
                });
            })
        };
        while !in_read.load(Ordering::SeqCst) {
            thread::yield_now();
        }

        let updater = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.switch_memtable(Arc::new(SkipList::new()));
            })
        };
        thread::sleep(std::time::Duration::from_millis(50));
        assert!(!updater.is_finished(), "update returned during a read");
        release.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        updater.join().unwrap();
        // The reader's insert landed in the now-immutable table.
        cell.read(|v| {
            assert_eq!(v.imm_mtb.as_ref().unwrap().len(), 1);
            assert!(v.mtb.is_empty());
        });
    }

    #[test]
    fn snapshot_outlives_switch() {
        let cell = ViewCell::new(view());
        let snap = cell.read(MemView::clone);
        cell.switch_memtable(Arc::new(SkipList::new()));
        // The snapshot still references the pre-switch memtable.
        snap.mtb.insert(b"z", Some(b"1"), 1);
        assert_eq!(snap.mtb.len(), 1);
    }

    #[test]
    fn concurrent_reads_and_updates_are_safe() {
        let cell = Arc::new(ViewCell::new(view()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    cell.read(|v| {
                        assert!(v.mbf.is_some());
                        n += v.mtb.len() as u64;
                    });
                }
                n
            }));
        }
        for _ in 0..200 {
            cell.grace_period();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
