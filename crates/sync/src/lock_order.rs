//! Runtime lock-rank tracking: the dynamic half of the lock hierarchy.
//!
//! `LOCK_ORDER.toml` at the workspace root declares every lock in the
//! modeled crates as a member of a ranked class; `cargo xtask locks`
//! enforces the declaration statically, but a lexical pass only sees
//! same-function nesting. This module closes the interprocedural gap: in
//! debug and `--cfg flodb_model` builds, every mutex or rwlock built with
//! [`crate::shim::ranked_mutex`] / [`crate::shim::ranked_rwlock`] pushes
//! its class onto a thread-local stack while its guard is live, and an
//! acquisition whose rank does not strictly exceed every held rank panics
//! with both lock names. Rank order is acyclic by construction, so a
//! run that never panics can never have deadlocked on these locks either.
//!
//! In release builds without `flodb_model` the shim re-exports the raw
//! primitives and the ranked constructors compile to the plain ones —
//! zero cost, proven by the type-identity test in `shim.rs`.
//!
//! The constants below are the single runtime source of ranks. Each is
//! written on one line as `LockClass { name: "...", rank: N }` because
//! `cargo xtask locks` parses this file textually and fails if the set of
//! (name, rank) pairs drifts from `LOCK_ORDER.toml` in either direction.

/// One ranked class of locks. Outer (coarse) locks get low ranks, inner
/// (leaf) locks high ranks; acquiring is legal only in strictly
/// ascending rank order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    /// Class name, matching `LOCK_ORDER.toml` (e.g. `core.freeze`).
    pub name: &'static str,
    /// Rank; must strictly increase along every acquisition edge.
    pub rank: u32,
}

/// `FloDb.threads`: joined on close; taken only at startup/shutdown.
pub const CORE_THREADS: LockClass = LockClass { name: "core.threads", rank: 10 };
/// `GroupCommitter.state` (+done/room/fill cvs): WAL group-commit batches.
pub const GROUP_COMMIT_STATE: LockClass = LockClass { name: "group_commit.state", rank: 16 };
/// `Inner.freeze_lock`: serializes memory-component freezes in flodb-core.
pub const CORE_FREEZE: LockClass = LockClass { name: "core.freeze", rank: 22 };
/// `ScanCoordinator.state` (+cv): scan admission and the live-stamp
/// registry; a master publishes inside its freeze window.
pub const SCAN_COORDINATOR: LockClass = LockClass { name: "scan.coordinator", rank: 24 };
/// `ViewCell.switch_lock`: serializes view switches (held across RCU sync).
pub const CORE_VIEW_SWITCH: LockClass = LockClass { name: "core.view_switch", rank: 30 };
/// `Park.lock` (+cv): every park of the engine (drain, persist, room,
/// pause, progress); no park lock is taken under another.
pub const SYNC_PARK: LockClass = LockClass { name: "sync.park", rank: 32 };
/// `RcuDomain.registry`: reader-slot registry; synchronize scans under it.
pub const SYNC_RCU_REGISTRY: LockClass = LockClass { name: "sync.rcu_registry", rank: 34 };
/// `WalState.log`: the WAL append path (leader holds it across fsync).
pub const WAL_LOG: LockClass = LockClass { name: "wal.log", rank: 40 };
/// `ErrorLatch.cause`: the sticky cause of a poisoned WAL or a degraded store.
pub const CORE_ERROR_LATCH: LockClass = LockClass { name: "core.error_latch", rank: 54 };
/// `TraceRing.dump_lock`: serializes flight-recorder dumps (leaf).
pub const CORE_TRACE_DUMP: LockClass = LockClass { name: "core.trace_dump", rank: 58 };
/// `DiskComponent.compaction_lock`: serializes compactions.
pub const DISK_COMPACTION: LockClass = LockClass { name: "disk.compaction", rank: 60 };
/// `DiskComponent.manifest`: manifest writer (held across append+fsync).
pub const DISK_MANIFEST: LockClass = LockClass { name: "disk.manifest", rank: 62 };
/// `VersionSet.current`: the current LSM version pointer.
pub const VERSION_CURRENT: LockClass = LockClass { name: "version.current", rank: 64 };
/// `FileHandle.cleanup`: per-file deferred cleanup slot.
pub const VERSION_CLEANUP: LockClass = LockClass { name: "version.cleanup", rank: 66 };
/// `ShardedTableCache.shards`: one shard of the table cache.
pub const CACHE_SHARD: LockClass = LockClass { name: "cache.shard", rank: 70 };
/// `FaultState.plans`: armed fault-injection plans.
pub const FAULT_PLANS: LockClass = LockClass { name: "fault.plans", rank: 80 };
/// `FaultState.counters`: per-site fault counters.
pub const FAULT_COUNTERS: LockClass = LockClass { name: "fault.counters", rank: 82 };
/// `MemEnv.inner`: the in-memory filesystem's directory map.
pub const ENV_INNER: LockClass = LockClass { name: "env.inner", rank: 90 };
/// `MemEnv.throttle` / `MemWritable.throttle`: the shared token bucket.
pub const ENV_THROTTLE: LockClass = LockClass { name: "env.throttle", rank: 92 };
/// `MemEnvInner.files` / `Mem{Writable,Random}.data`: per-file byte store.
pub const ENV_DATA: LockClass = LockClass { name: "env.data", rank: 94 };

#[cfg(any(debug_assertions, flodb_model))]
pub(crate) mod tracker {
    //! The thread-local rank stack. Guards may be dropped out of LIFO
    //! order (e.g. `drop(outer)` before `inner` falls out of scope), so
    //! entries carry a monotonic token and are removed by token, not
    //! popped.

    use super::LockClass;
    use std::cell::{Cell, RefCell};

    thread_local! {
        static HELD: RefCell<Vec<(LockClass, u64)>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: Cell<u64> = const { Cell::new(0) };
    }

    /// Records an acquisition; panics on a rank inversion.
    pub(crate) fn acquired(class: LockClass) -> u64 {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some((worst, _)) = held
                .iter()
                .filter(|(h, _)| h.rank >= class.rank)
                .max_by_key(|(h, _)| h.rank)
            {
                panic!(
                    "lock-order violation: acquiring `{}` (rank {}) while holding `{}` \
                     (rank {}); ranks must strictly ascend — see LOCK_ORDER.toml",
                    class.name, class.rank, worst.name, worst.rank
                );
            }
            let token = NEXT_TOKEN.with(|t| {
                let v = t.get();
                t.set(v + 1);
                v
            });
            held.push((class, token));
            token
        })
    }

    /// Records a release by its acquisition token.
    pub(crate) fn released(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&(_, t)| t == token) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(all(test, any(debug_assertions, flodb_model)))]
mod tests {
    //! The dynamic half of the inversion contract: the same descending
    //! shape the static pass rejects in
    //! `xtask/tests/fixtures/locks/inversion` must panic here. These
    //! tests only exist in builds where the tracker is compiled in;
    //! release builds run the shim's type-identity test instead.

    use super::{CORE_FREEZE, ENV_DATA, ENV_INNER, WAL_LOG};
    use crate::shim::{ranked_mutex, ranked_rwlock};

    #[test]
    fn ascending_acquisition_is_legal() {
        let outer = ranked_mutex(CORE_FREEZE, 1u32); // rank 22
        let inner = ranked_mutex(WAL_LOG, 2u32); // rank 40
        let g = outer.lock();
        let h = inner.lock();
        assert_eq!(*g + *h, 3);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn descending_acquisition_panics() {
        let outer = ranked_mutex(CORE_FREEZE, ()); // rank 22
        let inner = ranked_mutex(WAL_LOG, ()); // rank 40
        let _h = inner.lock();
        let _g = outer.lock(); // 22 under 40: inversion
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_class_nesting_panics() {
        // Two locks of one class self-deadlock in the worst interleaving;
        // equal ranks are rejected like descending ones.
        let a = ranked_mutex(WAL_LOG, ());
        let b = ranked_mutex(WAL_LOG, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn out_of_lifo_release_is_tracked_by_token() {
        let a = ranked_mutex(CORE_FREEZE, ());
        let b = ranked_mutex(WAL_LOG, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // released out of LIFO order
        drop(gb);
        let _ga2 = a.lock(); // stack must be empty again
    }

    #[test]
    fn untracked_locks_stay_outside_the_hierarchy() {
        let plain = crate::shim::Mutex::new(());
        let ranked = ranked_mutex(CORE_FREEZE, ());
        let _g = plain.lock(); // no rank entry
        let _h = ranked.lock(); // nothing held as far as ranks go
    }

    #[test]
    fn rwlock_accesses_are_ranked() {
        let dir = ranked_rwlock(ENV_INNER, 0u8); // rank 90
        let bytes = ranked_mutex(ENV_DATA, ()); // rank 94
        let _r = dir.read();
        let _b = bytes.lock(); // ascends
        drop(_b);
        drop(_r);
        let _w = dir.write();
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn rwlock_read_under_higher_rank_panics() {
        let dir = ranked_rwlock(ENV_INNER, 0u8); // rank 90
        let bytes = ranked_mutex(ENV_DATA, ()); // rank 94
        let _b = bytes.lock();
        let _r = dir.read(); // 90 under 94: inversion
    }
}
