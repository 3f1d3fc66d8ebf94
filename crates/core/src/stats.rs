//! How FloDB bumps its counters, and the epoch-reclamation figures. The
//! counters themselves — [`FloDbStats`] and its `snapshot()` — come from
//! the one `store_stats!` table in `api.rs`.

use flodb_sync::shim::atomic::{AtomicU64, Ordering};

pub use crate::api::FloDbStats;

/// A snapshot of epoch-based memory reclamation activity (see
/// [`FloDbStats::reclamation`]).
///
/// Under sustained update traffic `destructions_executed` trails
/// `destructions_deferred` by at most the garbage currently inside its
/// grace period; at quiescence the two converge. A permanently growing gap
/// would indicate a stuck participant (e.g. a guard held forever).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclamationStats {
    /// Total retired allocations handed to the epoch collector.
    pub destructions_deferred: u64,
    /// Total retired allocations whose destructor has actually run.
    pub destructions_executed: u64,
}

impl FloDbStats {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`; adding nothing touches nothing (a one-op submission adds
    /// to `puts` or to `deletes`, and the other line stays unshared).
    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        if n != 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Snapshots the epoch-reclamation counters.
    ///
    /// The figures are process-global (the epoch collector is shared by
    /// every Membuffer and Memtable in the process), monotonically
    /// increasing, and come from the offline `crossbeam-epoch` shim's
    /// observability hook (`shim_stats`, which the real crate does not
    /// have — see README "Swap-back procedure").
    pub fn reclamation() -> ReclamationStats {
        ReclamationStats {
            destructions_deferred: crossbeam_epoch::shim_stats::destructions_deferred(),
            destructions_executed: crossbeam_epoch::shim_stats::destructions_executed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclamation_counters_are_monotone() {
        let before = FloDbStats::reclamation();
        // Retire something through the collector so the deferred counter
        // must move (process-global, so only >= assertions are safe here).
        let guard = crossbeam_epoch::pin();
        let value = crossbeam_epoch::Owned::new(7u64).into_shared(&guard);
        // SAFETY: never published; we hold the only pointer.
        unsafe { guard.defer_destroy(value) };
        drop(guard);
        let after = FloDbStats::reclamation();
        assert!(after.destructions_deferred > before.destructions_deferred);
        assert!(after.destructions_executed >= before.destructions_executed);
    }
}
