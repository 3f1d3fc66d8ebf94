//! Swappable concurrency-primitives facade.
//!
//! Every lock, condvar, atomic, and thread operation in the
//! concurrency-bearing crates (`flodb-sync`, `flodb-membuffer`,
//! `flodb-memtable`, `flodb-storage`, plus `flodb-core`'s view machinery)
//! goes through this module instead of `std::sync` / `parking_lot`
//! directly — enforced by `cargo xtask lint`. Under
//! `RUSTFLAGS="--cfg flodb_model"` the primitives swap to the
//! instrumented types of `flodb-check`, whose scheduler explores thread
//! interleavings deterministically (see ARCHITECTURE.md, "Verification").
//!
//! On top of mode selection, the facade carries the **runtime lock-rank
//! tracker** (see [`crate::lock_order`]): in debug and model builds the
//! lock types here are thin wrappers whose guards push their declared
//! rank onto a thread-local stack, and any acquisition that does not
//! strictly ascend panics with both lock names. Locks join the hierarchy
//! through [`ranked_mutex`] / [`ranked_rwlock`]; locks built with the
//! plain constructors are untracked. In release builds without
//! `flodb_model` the names below are *re-exports* of the raw primitives
//! (the condvar a transparent wrapper without the timed waits, which no
//! engine wait may use) and the ranked constructors compile to the plain
//! ones — zero cost,
//! proven by the type-identity test at the bottom (which only compiles
//! in release mode, and runs in CI via `cargo test --release`).
//!
//! `Ordering` is the `std` enum in both modes, so code passes orderings
//! unchanged; the model scheduler itself is sequentially consistent and
//! does not explore weak-memory reorderings.

pub use std::sync::Arc;

pub use facade::{
    ranked_condvar, ranked_mutex, ranked_rwlock, Condvar, Mutex, MutexGuard, RwLock,
    RwLockReadGuard, RwLockWriteGuard,
};

/// Release non-model builds: straight re-exports, zero overhead — but for
/// the condvar, a transparent wrapper that leaves out the timed waits.
#[cfg(not(any(debug_assertions, flodb_model)))]
mod facade {
    use crate::lock_order::LockClass;

    pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// `parking_lot::Condvar` without its timed waits: an engine wait
    /// blocks until its event, and whoever causes the event wakes it
    /// ([`crate::Park`]). Every method is an inlined forward.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct Condvar(parking_lot::Condvar);

    impl Condvar {
        /// Creates a new condition variable.
        #[inline(always)]
        pub const fn new() -> Self {
            Self(parking_lot::Condvar::new())
        }

        /// Blocks until notified, atomically releasing and reacquiring
        /// the lock.
        #[inline(always)]
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            self.0.wait(guard);
        }

        /// Wakes all blocked waiters; returns the number woken.
        #[inline(always)]
        pub fn notify_all(&self) -> usize {
            self.0.notify_all()
        }
    }

    /// Creates a mutex belonging to a ranked lock class (no-op here; the
    /// rank is enforced in debug/model builds and by `cargo xtask locks`).
    #[inline(always)]
    pub const fn ranked_mutex<T>(_class: LockClass, value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    /// Creates a rwlock belonging to a ranked lock class (no-op here).
    #[inline(always)]
    pub const fn ranked_rwlock<T>(_class: LockClass, value: T) -> RwLock<T> {
        RwLock::new(value)
    }

    /// Creates a condvar associated with a ranked lock class (no-op here
    /// and in debug builds: waiting is attributed to the mutex's rank
    /// entry, not the condvar; the class only documents the site).
    #[inline(always)]
    pub const fn ranked_condvar(_class: LockClass) -> Condvar {
        Condvar::new()
    }
}

/// Debug and model builds: rank-tracking wrappers over the active base
/// primitives.
#[cfg(any(debug_assertions, flodb_model))]
mod facade {
    #[cfg(flodb_model)]
    use flodb_check::sync as base;
    #[cfg(not(flodb_model))]
    use parking_lot as base;

    use crate::lock_order::{tracker, LockClass};

    /// A mutex that participates in runtime lock-rank checking when built
    /// with [`ranked_mutex`]; see [`crate::lock_order`].
    pub struct Mutex<T> {
        class: Option<LockClass>,
        inner: base::Mutex<T>,
    }

    /// RAII guard for [`Mutex`]; releases the rank entry on drop.
    pub struct MutexGuard<'a, T> {
        // Field order matters: the rank entry must outlive the base
        // guard, but `Drop for MutexGuard` runs before either field
        // drops, so ordering here is cosmetic; the tracker entry is
        // removed in our Drop while the lock is still held.
        inner: base::MutexGuard<'a, T>,
        token: Option<u64>,
    }

    impl<T> Mutex<T> {
        /// Creates an untracked mutex (outside the declared hierarchy).
        pub const fn new(value: T) -> Self {
            Self { class: None, inner: base::Mutex::new(value) }
        }

        /// Acquires the mutex; panics on a rank inversion before blocking.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            // Record before acquiring: an inversion panics instead of
            // deadlocking, even when the other thread already holds us.
            let token = self.class.map(tracker::acquired);
            MutexGuard { inner: self.inner.lock(), token }
        }

        /// Attempts to acquire the mutex without blocking. Rank order is
        /// enforced even here: a descending `try_lock` cannot deadlock,
        /// but it is still outside the declared hierarchy.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            let inner = self.inner.try_lock()?;
            let token = self.class.map(tracker::acquired);
            Some(MutexGuard { inner, token })
        }

        /// Returns a mutable reference to the value (no locking needed).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("Mutex").field(&self.inner).finish()
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if let Some(token) = self.token {
                tracker::released(token);
            }
        }
    }

    /// A reader-writer lock that participates in runtime lock-rank
    /// checking when built with [`ranked_rwlock`]. Read and write
    /// acquisitions are ranked identically (the hierarchy orders lock
    /// *objects*, not access modes).
    pub struct RwLock<T> {
        class: Option<LockClass>,
        inner: base::RwLock<T>,
    }

    /// RAII shared-read guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T> {
        inner: base::RwLockReadGuard<'a, T>,
        token: Option<u64>,
    }

    /// RAII exclusive-write guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T> {
        inner: base::RwLockWriteGuard<'a, T>,
        token: Option<u64>,
    }

    impl<T> RwLock<T> {
        /// Creates an untracked rwlock (outside the declared hierarchy).
        pub const fn new(value: T) -> Self {
            Self { class: None, inner: base::RwLock::new(value) }
        }

        /// Acquires shared read access.
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let token = self.class.map(tracker::acquired);
            RwLockReadGuard { inner: self.inner.read(), token }
        }

        /// Acquires exclusive write access.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let token = self.class.map(tracker::acquired);
            RwLockWriteGuard { inner: self.inner.write(), token }
        }

        /// Returns a mutable reference to the value (no locking needed).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }

        /// Consumes the rwlock, returning the inner value.
        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("RwLock").field(&self.inner).finish()
        }
    }

    impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            if let Some(token) = self.token {
                tracker::released(token);
            }
        }
    }

    impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            if let Some(token) = self.token {
                tracker::released(token);
            }
        }
    }

    /// Condition variable paired with [`Mutex`], with no timed wait (see
    /// [`crate::Park`]). Waiting keeps the mutex's rank entry on the stack: the waiting thread cannot acquire
    /// anything while parked, and on wake-up it holds the same set of
    /// locks it held at the call, so the recorded state stays accurate.
    #[derive(Default)]
    pub struct Condvar {
        inner: base::Condvar,
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("Condvar { .. }")
        }
    }

    impl Condvar {
        /// Creates a new condition variable.
        pub const fn new() -> Self {
            Self { inner: base::Condvar::new() }
        }

        /// Blocks until notified, atomically releasing and reacquiring
        /// the lock.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            self.inner.wait(&mut guard.inner);
        }

        /// Wakes all blocked waiters; returns the number woken (model
        /// runs only; 0 otherwise).
        pub fn notify_all(&self) -> usize {
            self.inner.notify_all()
        }
    }

    /// Creates a mutex belonging to a ranked lock class; its guards
    /// enforce strictly ascending acquisition order at runtime.
    pub const fn ranked_mutex<T>(class: LockClass, value: T) -> Mutex<T> {
        Mutex { class: Some(class), inner: base::Mutex::new(value) }
    }

    /// Creates a rwlock belonging to a ranked lock class.
    pub const fn ranked_rwlock<T>(class: LockClass, value: T) -> RwLock<T> {
        RwLock { class: Some(class), inner: base::RwLock::new(value) }
    }

    /// Creates a condvar associated with a ranked lock class. The class
    /// documents the site (and anchors it in `LOCK_ORDER.toml`); waiting
    /// itself is attributed to the paired mutex's rank entry.
    pub const fn ranked_condvar(_class: LockClass) -> Condvar {
        Condvar::new()
    }
}

/// Atomic types; instrumented under `cfg(flodb_model)`.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(flodb_model))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
    };

    #[cfg(flodb_model)]
    pub use flodb_check::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
    };
}

/// Thread spawn/yield/sleep; model threads join the explored schedule.
pub mod thread {
    #[cfg(not(flodb_model))]
    pub use std::thread::{sleep, spawn, yield_now, JoinHandle};

    #[cfg(flodb_model)]
    pub use flodb_check::thread::{spawn, yield_now, JoinHandle};

    /// Sleeps; under the model, the time passing is a yield.
    // SLEEP-OK: the facade's spelling of a sleep; each caller waives its own.
    #[cfg(flodb_model)]
    pub fn sleep(_: std::time::Duration) {
        yield_now();
    }

    /// Spawns a thread named `name`; under the model, an unnamed model
    /// thread.
    #[cfg_attr(flodb_model, allow(unused_variables))]
    pub fn spawn_named<F, T>(name: String, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        #[cfg(flodb_model)]
        return Ok(spawn(f));
        #[cfg(not(flodb_model))]
        std::thread::Builder::new().name(name).spawn(f)
    }
}

/// Mutation hooks of tests/model_mutation.rs; only the selected one fires.
#[cfg(flodb_model_mutation)]
pub mod mutation {
    use std::sync::atomic::{AtomicU8, Ordering};

    /// One re-introducible defect.
    #[derive(Debug, Clone, Copy)]
    pub enum Hook {
        /// `ImmMembuffer::drain_ready` always open.
        DrainGate,
        /// `ImmMembuffer::reclaim` without its sole-owner check.
        Recycle,
        /// `InflightGuard::is_awaited` never true.
        RoomStall,
        /// `Park::park_until` waits on its first check.
        LostWakeup,
        /// `Drainer::lap` drains its chunk outside its read section.
        LapSection,
        /// `SkipList::update_in_place` retires the replaced version while
        /// a live scan's horizon needs it.
        ChainLink,
    }

    /// The selected hook's discriminant plus one; 0 is none.
    static SELECTED: AtomicU8 = AtomicU8::new(0);

    /// Makes `hook` the one that fires (`None`: none does); set it before
    /// the check starts.
    pub fn select(hook: Option<Hook>) {
        SELECTED.store(hook.map_or(0, |h| h as u8 + 1), Ordering::Relaxed);
    }

    /// Whether `hook` is the selected one.
    pub fn on(hook: Hook) -> bool {
        SELECTED.load(Ordering::Relaxed) == hook as u8 + 1
    }
}

/// Spin-loop hint; a deprioritizing yield under the model.
pub mod hint {
    #[cfg(not(flodb_model))]
    pub use std::hint::spin_loop;

    #[cfg(flodb_model)]
    pub use flodb_check::hint::spin_loop;
}

#[cfg(all(test, not(debug_assertions), not(flodb_model)))]
mod tests {
    //! Zero-cost proof for release builds: the facade's names are *type
    //! identical* to the primitives they replace — `pub use` re-exports,
    //! no wrappers, but for the `repr(transparent)` condvar whose methods
    //! are inlined forwards — so going through the shim cannot cost an
    //! instruction. Each binding below only compiles if the two sides
    //! are the same type. Debug/model builds intentionally wrap these
    //! types for lock-rank tracking, so the test is compiled out there;
    //! CI runs it via `cargo test --release -p flodb-sync`.

    #[test]
    fn shim_types_are_the_raw_types() {
        let _: parking_lot::Mutex<u8> = super::Mutex::new(0u8);
        let _: parking_lot::RwLock<u8> =
            super::ranked_rwlock(crate::lock_order::ENV_DATA, 0u8);
        let _: parking_lot::Mutex<u8> =
            super::ranked_mutex(crate::lock_order::WAL_LOG, 0u8);
        // The condvar is the one wrapper (it leaves out the timed waits):
        // transparent, so it is the raw condvar's layout and nothing more.
        assert_eq!(
            std::mem::size_of::<super::Condvar>(),
            std::mem::size_of::<parking_lot::Condvar>()
        );
        let _: std::sync::atomic::AtomicUsize = super::atomic::AtomicUsize::new(0);
        let _: std::sync::atomic::AtomicBool = super::atomic::AtomicBool::new(false);
        let _: std::sync::atomic::AtomicU64 = super::atomic::AtomicU64::new(0);
        let _: std::sync::atomic::AtomicU32 = super::atomic::AtomicU32::new(0);
        let h: std::thread::JoinHandle<()> = super::thread::spawn(|| {});
        h.join().unwrap();
        // The named spawn is `std::thread::Builder`'s, handle and all.
        let h: std::io::Result<std::thread::JoinHandle<()>> =
            super::thread::spawn_named("shim-named".into(), || {});
        h.unwrap().join().unwrap();
        let sleep: fn(std::time::Duration) = std::thread::sleep;
        let shim_sleep: fn(std::time::Duration) = super::thread::sleep;
        assert_eq!(sleep as usize, shim_sleep as usize);
        let f: fn() = std::hint::spin_loop;
        let g: fn() = super::hint::spin_loop;
        assert_eq!(f as usize, g as usize);
    }
}
