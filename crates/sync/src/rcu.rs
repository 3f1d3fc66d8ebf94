//! Read-copy-update domains for memory-component switching.
//!
//! FloDB switches memory components (installing a fresh Membuffer before a
//! scan, or a fresh Memtable before persisting) with an RCU scheme that
//! "never blocks any updates or reads" (§4.2): the switching thread installs
//! the new component with a single atomic store and then waits for a grace
//! period, i.e. until every thread that might still be operating on the old
//! component has finished its critical section.
//!
//! The implementation is an epoch-based quiescent-state scheme:
//!
//! - every thread owns one *reader slot* per domain (lazily registered
//!   through a thread local), holding the global epoch it observed when it
//!   entered its current critical section, or 0 when quiescent; the guard
//!   carries the slot, so leaving a section touches nothing else;
//! - [`RcuDomain::synchronize`] bumps the global epoch and waits until every
//!   slot is either quiescent or stamped with the new epoch.
//!
//! Readers and writers only ever perform two uncontended atomic stores per
//! critical section; all waiting happens on the background thread calling
//! `synchronize`, exactly as the paper requires.

use std::cell::RefCell;

use crossbeam_utils::CachePadded;

use crate::backoff::Backoff;
use crate::shim::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::lock_order::SYNC_RCU_REGISTRY;
use crate::shim::{ranked_mutex, Arc, Mutex};

/// Epochs advance by 2 so that the low bit is free to mark "active".
const EPOCH_STEP: u64 = 2;
/// Slot value for a thread outside any critical section.
const QUIESCENT: u64 = 0;

/// `ReaderSlot::owner` values: a thread uses the slot, the thread exited
/// (the slot is free for the next thread to register), the domain is gone
/// (the entry in a thread's list is dead weight).
const OWNED: u64 = 0;
const FREE: u64 = 1;
const DOMAIN_GONE: u64 = 2;

static NEXT_DOMAIN_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// This thread's reader slot in every domain it has entered: a short
    /// list searched by domain id — a thread enters one or two live
    /// domains, so a compare or two beats hashing the id. Entries of
    /// dropped domains are pruned when the thread next registers.
    static SLOTS: RefCell<Vec<ThreadSlot>> = const { RefCell::new(Vec::new()) };
}

/// One entry of [`SLOTS`]; frees its slot for the next thread when the
/// owning thread exits (or prunes it).
struct ThreadSlot {
    domain: usize,
    slot: Arc<ReaderSlot>,
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        self.slot.state.store(QUIESCENT, Ordering::Release);
        // A dropped domain's slot stays marked gone; otherwise the slot
        // is free to be claimed.
        let _ = self
            .slot
            .owner
            .compare_exchange(OWNED, FREE, Ordering::AcqRel, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct ReaderSlot {
    /// 0 when quiescent, otherwise `epoch | 1` for the epoch observed on
    /// entering the critical section. Only the owning thread writes it, so
    /// a non-quiescent value on entry means the section is nested.
    state: CachePadded<AtomicU64>,
    /// [`OWNED`], [`FREE`] or [`DOMAIN_GONE`].
    owner: CachePadded<AtomicU64>,
}

impl ReaderSlot {
    fn new() -> Self {
        Self {
            state: CachePadded::new(AtomicU64::new(QUIESCENT)),
            owner: CachePadded::new(AtomicU64::new(OWNED)),
        }
    }
}

/// An RCU domain: a set of reader slots plus a global epoch.
///
/// Each logically independent RCU-protected structure (the Membuffer pointer,
/// the Memtable pointer) gets its own domain so grace periods do not couple
/// unrelated critical sections.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use flodb_sync::RcuDomain;
///
/// let domain = Arc::new(RcuDomain::new());
/// {
///     let _guard = domain.read_lock();
///     // ... dereference the RCU-protected pointer ...
/// }
/// // After all pre-existing guards drop, synchronize returns.
/// domain.synchronize();
/// ```
#[derive(Debug)]
pub struct RcuDomain {
    id: usize,
    epoch: CachePadded<AtomicU64>,
    /// Every slot this domain ever handed out, kept until the domain
    /// drops — so a guard may borrow its slot for the domain's lifetime.
    /// A slot whose thread exited is [`FREE`] and goes to the next thread
    /// that registers, so the list is as long as the most threads that
    /// were ever inside the domain at once.
    registry: Mutex<Vec<Arc<ReaderSlot>>>,
}

impl RcuDomain {
    /// Creates a new, empty domain.
    pub fn new() -> Self {
        Self {
            id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
            epoch: CachePadded::new(AtomicU64::new(EPOCH_STEP)),
            registry: ranked_mutex(SYNC_RCU_REGISTRY, Vec::new()),
        }
    }

    /// Enters an RCU read-side critical section on the calling thread.
    ///
    /// Critical sections may nest; the section ends when the outermost guard
    /// is dropped. This never blocks: the cost is a search of this
    /// thread's short slot list, one atomic load and one store on the
    /// thread's own cache-padded slot.
    pub fn read_lock(&self) -> RcuGuard<'_> {
        let slot = SLOTS.with(|slots| {
            let found = slots
                .borrow()
                .iter()
                .find(|s| s.domain == self.id)
                .map(|s| Arc::as_ptr(&s.slot));
            found.unwrap_or_else(|| self.register(&mut slots.borrow_mut()))
        });
        // SAFETY: `registry` holds an `Arc` of every slot this domain
        // handed out until the domain drops, and the guard borrows the
        // domain for `'_`.
        let slot = unsafe { &*slot };
        let outermost = slot.state.load(Ordering::Relaxed) == QUIESCENT;
        if outermost {
            // Restabilization loop: store the observed epoch, then
            // re-check it. On exit, either the final epoch load saw no
            // concurrent `synchronize` — in which case the slot store
            // is SC-ordered before that synchronize's slot scan, which
            // therefore waits for this section — or it saw the bump,
            // in which case the RMW in `synchronize` happens-before
            // this section, so the section observes the new pointer.
            // Without the loop, a thread descheduled between the epoch
            // load and the slot store could be missed by the scan while
            // still reading the old pointer.
            // ORDERING: every operation in the restabilization loop is
            // SC — the argument above is stated in terms of the single
            // total order between the slot store, the epoch loads, and
            // the synchronizer's epoch RMW and slot scan.
            let mut epoch = self.epoch.load(Ordering::SeqCst);
            loop {
                slot.state.store(epoch | 1, Ordering::SeqCst); // ORDERING: restabilization, see comment above
                let now = self.epoch.load(Ordering::SeqCst); // ORDERING: restabilization, see comment above
                if now == epoch {
                    break;
                }
                epoch = now;
            }
        }
        RcuGuard {
            slot,
            outermost,
            _not_send: std::marker::PhantomData,
        }
    }

    /// This thread's first section in the domain: claims a free slot, or
    /// registers a new one, and adds it to the thread's list (pruning the
    /// entries of dropped domains). Returns the slot.
    #[cold]
    fn register(&self, slots: &mut Vec<ThreadSlot>) -> *const ReaderSlot {
        slots.retain(|s| s.slot.owner.load(Ordering::Acquire) != DOMAIN_GONE);
        let mut registry = self.registry.lock();
        let claimed = registry.iter().find(|s| {
            s.owner
                .compare_exchange(FREE, OWNED, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        });
        let slot = match claimed {
            Some(slot) => Arc::clone(slot),
            None => {
                let slot = Arc::new(ReaderSlot::new());
                registry.push(Arc::clone(&slot));
                slot
            }
        };
        drop(registry);
        let ptr = Arc::as_ptr(&slot);
        slots.push(ThreadSlot {
            domain: self.id,
            slot,
        });
        ptr
    }

    /// Waits for a grace period: every critical section that was in progress
    /// when `synchronize` was called is guaranteed to have completed when it
    /// returns.
    ///
    /// Callers publish their pointer switch (e.g. installing a fresh
    /// Membuffer) *before* calling this, then safely reclaim or drain the
    /// old structure afterwards.
    pub fn synchronize(&self) {
        // ORDERING: the grace-period side of the reader protocol — the
        // epoch bump RMW must be SC-ordered with the readers'
        // restabilization loop (see `read_lock`).
        let new_epoch = self.epoch.fetch_add(EPOCH_STEP, Ordering::SeqCst) + EPOCH_STEP;
        let registry = self.registry.lock();
        for slot in registry.iter() {
            let backoff = Backoff::new();
            loop {
                // ORDERING: the scan load pairs with the readers' SC slot
                // stores; seeing QUIESCENT or a post-bump epoch here must
                // imply the reader's section is ordered before the bump.
                let state = slot.state.load(Ordering::SeqCst);
                if state == QUIESCENT || (state & !1) >= new_epoch {
                    break;
                }
                // LOCK-OK: synchronize holds the registry while waiting
                // readers out by design; read-side sections never take the
                // registry, so the wait cannot feed back into a deadlock.
                backoff.snooze();
            }
        }
    }

    /// Returns the number of reader slots in use by live threads, for
    /// diagnostics and tests.
    pub fn reader_slots(&self) -> usize {
        self.registry
            .lock()
            .iter()
            .filter(|s| s.owner.load(Ordering::Acquire) == OWNED)
            .count()
    }
}

impl Default for RcuDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for RcuDomain {
    fn drop(&mut self) {
        for slot in self.registry.get_mut().iter() {
            slot.owner.store(DOMAIN_GONE, Ordering::Release);
        }
    }
}

/// Guard for an RCU read-side critical section; ends the section on drop.
///
/// The guard carries its thread's slot, so leaving a section looks
/// nothing up. It is `!Send` (via the raw-pointer marker): the critical
/// section must end on the thread that started it, the slot's one writer.
#[derive(Debug)]
pub struct RcuGuard<'a> {
    slot: &'a ReaderSlot,
    /// Whether this guard entered the section (the others nest in it).
    outermost: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RcuGuard<'_> {
    fn drop(&mut self) {
        if self.outermost {
            // ORDERING: the quiescent store must be SC-ordered after the
            // section's reads so a synchronizer that observes it can
            // safely reclaim what the section was reading.
            self.slot.state.store(QUIESCENT, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    use super::*;

    #[test]
    fn uncontended_synchronize_returns() {
        let d = RcuDomain::new();
        d.synchronize();
        d.synchronize();
    }

    #[test]
    fn guard_nesting() {
        let d = RcuDomain::new();
        let g1 = d.read_lock();
        let g2 = d.read_lock();
        drop(g1);
        drop(g2);
        d.synchronize();
    }

    #[test]
    fn synchronize_waits_for_active_reader() {
        let d = Arc::new(RcuDomain::new());
        let in_cs = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));

        let reader = {
            let d = Arc::clone(&d);
            let in_cs = Arc::clone(&in_cs);
            let release = Arc::clone(&release);
            thread::spawn(move || {
                let g = d.read_lock();
                in_cs.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                drop(g);
            })
        };

        while !in_cs.load(Ordering::SeqCst) {
            thread::yield_now();
        }

        let syncer = {
            let d = Arc::clone(&d);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                d.synchronize();
                done.store(true, Ordering::SeqCst);
            })
        };

        // The reader is parked inside its critical section, so synchronize
        // must not complete yet.
        thread::sleep(Duration::from_millis(50));
        assert!(!done.load(Ordering::SeqCst));

        release.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        syncer.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn synchronize_does_not_wait_for_later_readers() {
        // A reader that enters after synchronize started must not block it
        // forever; we simulate by entering and exiting repeatedly while a
        // synchronize runs.
        let d = Arc::new(RcuDomain::new());
        let stop = Arc::new(AtomicBool::new(false));
        let churn = {
            let d = Arc::clone(&d);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let _g = d.read_lock();
                }
            })
        };
        for _ in 0..100 {
            d.synchronize();
        }
        stop.store(true, Ordering::SeqCst);
        churn.join().unwrap();
    }

    #[test]
    fn an_inner_guard_does_not_end_the_section() {
        let d = RcuDomain::new();
        let outer = d.read_lock();
        drop(d.read_lock());
        assert_ne!(outer.slot.state.load(Ordering::SeqCst), QUIESCENT);
        drop(outer);
        let slot = d.registry.lock()[0].state.load(Ordering::SeqCst);
        assert_eq!(slot, QUIESCENT);
    }

    #[test]
    fn an_exited_threads_slot_goes_to_the_next_thread() {
        let d = Arc::new(RcuDomain::new());
        for _ in 0..3 {
            let d = Arc::clone(&d);
            thread::spawn(move || drop(d.read_lock())).join().unwrap();
        }
        assert_eq!(d.registry.lock().len(), 1, "each thread reused the freed slot");
        assert_eq!(d.reader_slots(), 0);
        drop(d.read_lock());
        assert_eq!(d.reader_slots(), 1);
    }

    #[test]
    fn a_dropped_domain_leaves_the_thread_list_at_the_next_registration() {
        for _ in 0..3 {
            drop(RcuDomain::new().read_lock());
        }
        let live = RcuDomain::new();
        drop(live.read_lock());
        assert_eq!(SLOTS.with(|s| s.borrow().len()), 1);
    }

    #[test]
    fn dead_threads_do_not_block_synchronize() {
        let d = Arc::new(RcuDomain::new());
        {
            let d = Arc::clone(&d);
            thread::spawn(move || {
                let _g = d.read_lock();
                // Guard dropped at end of scope; thread exits.
            })
            .join()
            .unwrap();
        }
        d.synchronize();
    }

    #[test]
    fn grace_period_protects_pointer_switch() {
        use std::sync::atomic::AtomicPtr;

        // Classic RCU pattern: swap a boxed value, synchronize, free the old
        // one. Readers must never observe a freed value.
        let d = Arc::new(RcuDomain::new());
        let ptr = Arc::new(AtomicPtr::new(Box::into_raw(Box::new(0u64))));
        let stop = Arc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for _ in 0..3 {
            let d = Arc::clone(&d);
            let ptr = Arc::clone(&ptr);
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let _g = d.read_lock();
                    let p = ptr.load(Ordering::SeqCst);
                    // SAFETY: `p` was published by the writer and is only
                    // freed after a grace period; we are inside a read-side
                    // critical section, so it is still live.
                    let v = unsafe { *p };
                    assert!(v < 10_000, "observed a freed or corrupt value");
                }
            }));
        }

        for i in 1..200u64 {
            let new = Box::into_raw(Box::new(i));
            let old = ptr.swap(new, Ordering::SeqCst);
            d.synchronize();
            // SAFETY: All readers that could have observed `old` have left
            // their critical sections (grace period elapsed), and no new
            // reader can load it since `new` was published first.
            unsafe { drop(Box::from_raw(old)) };
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        // SAFETY: All reader threads have been joined; nothing can reference
        // the final pointer anymore.
        unsafe { drop(Box::from_raw(ptr.load(Ordering::SeqCst))) };
    }
}
