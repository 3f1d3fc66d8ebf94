//! Operation counters for FloDB.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::api::StoreStats;

/// Atomic counters tracking FloDB's behaviour, cheap enough for the hot
/// path (relaxed increments on cache-local lines).
#[derive(Debug, Default)]
pub struct FloDbStats {
    /// Put operations completed.
    pub puts: AtomicU64,
    /// Delete operations completed.
    pub deletes: AtomicU64,
    /// Get operations completed.
    pub gets: AtomicU64,
    /// Scan operations completed.
    pub scans: AtomicU64,
    /// Keys returned by scans.
    pub scanned_keys: AtomicU64,
    /// Writes absorbed directly by the Membuffer (fast path).
    pub membuffer_writes: AtomicU64,
    /// Writes that fell through to the Memtable (slow path).
    pub memtable_writes: AtomicU64,
    /// Entries moved Membuffer → Memtable by drains.
    pub drained_entries: AtomicU64,
    /// Multi-insert batches executed by drains.
    pub drain_batches: AtomicU64,
    /// Memtable flushes to disk.
    pub persists: AtomicU64,
    /// Scan restarts due to concurrent updates.
    pub scan_restarts: AtomicU64,
    /// Writer-blocking fallback scans.
    pub fallback_scans: AtomicU64,
    /// Piggybacking scans (reused a master's sequence number).
    pub piggyback_scans: AtomicU64,
    /// Master scans (established a sequence number).
    pub master_scans: AtomicU64,
    /// Times a paused writer helped drain the immutable Membuffer, i.e.
    /// claimed at least one chunk of the cooperative drain.
    pub writer_drain_helps: AtomicU64,
    /// Freezes that got the drained Membuffer back as its sole owner and
    /// kept it for the next freeze instead of dropping it (the rest found
    /// a snapshot or a late helper still holding a reference).
    pub membuffer_recycles: AtomicU64,
    /// Times a writer stalled waiting for Memtable room.
    pub write_stalls: AtomicU64,
    /// WAL commit groups written (each is one frame, one write, at most
    /// one fsync).
    pub wal_groups: AtomicU64,
    /// Records across all WAL commit groups; divide by [`Self::wal_groups`]
    /// for the mean group size.
    pub wal_group_records: AtomicU64,
    /// Writes acknowledged as group-commit followers (their record rode in
    /// a group another thread committed). The leader split is
    /// [`Self::wal_groups`].
    pub wal_follower_writes: AtomicU64,
    /// WAL segment rotations: the leader sealed the active segment at a
    /// group boundary and rolled to a fresh generation.
    pub wal_rotations: AtomicU64,
    /// Total bytes of sealed WAL segments retired (deleted) after a
    /// persisted checkpoint covered their records.
    pub wal_retired_bytes: AtomicU64,
    /// Gauge: live WAL generations on disk, sealed-awaiting-retirement
    /// plus the active one (0 with the WAL disabled).
    pub wal_generations: AtomicU64,
    /// Gauge: bytes in the active WAL segment, header included (0 with
    /// the WAL disabled).
    pub wal_active_bytes: AtomicU64,
    /// Background I/O attempts retried after a transient failure (flush,
    /// compaction, retirement record/delete), plus WAL rotations deferred
    /// by a failed segment creation — each retried at the next group
    /// boundary. Nonzero with zero [`Self::io_degraded`] means the device
    /// misbehaved and the store rode it out.
    pub io_retries: AtomicU64,
    /// Background I/O operations abandoned after exhausting their
    /// retries. A flush or compaction abandonment also latches the store
    /// degraded (writes rejected, reads still served — see
    /// ARCHITECTURE.md "Failure model"); a retirement abandonment only
    /// leaves segment files behind (tracked by
    /// [`Self::wal_retire_errors`]).
    pub io_degraded: AtomicU64,
    /// Retirement passes that failed to durably record the oldest-live
    /// mark or to delete retired segment files. The affected segments
    /// stay on disk as stale-but-harmless leftovers (pruned at the next
    /// open); only disk-footprint boundedness degrades.
    pub wal_retire_errors: AtomicU64,
    /// Total nanoseconds writers spent stalled waiting for Memtable room
    /// — the duration companion of [`Self::write_stalls`]. Recorded at
    /// `TelemetryLevel::Counters` and above (0 at `Off`).
    pub write_stall_ns: AtomicU64,
    /// Total nanoseconds spent fsyncing the WAL inside committed groups.
    /// Recorded at `TelemetryLevel::Counters` and above (0 at `Off`, and
    /// with `sync: false` there is nothing to record).
    pub wal_sync_ns: AtomicU64,
}

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

    /// Snapshots the counters into the cross-store [`StoreStats`] shape.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            puts: self.puts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            scanned_keys: self.scanned_keys.load(Ordering::Relaxed),
            persists: self.persists.load(Ordering::Relaxed),
            fast_level_writes: self.membuffer_writes.load(Ordering::Relaxed),
            scan_restarts: self.scan_restarts.load(Ordering::Relaxed),
            fallback_scans: self.fallback_scans.load(Ordering::Relaxed),
            wal_groups: self.wal_groups.load(Ordering::Relaxed),
            wal_group_records: self.wal_group_records.load(Ordering::Relaxed),
            wal_follower_writes: self.wal_follower_writes.load(Ordering::Relaxed),
            wal_rotations: self.wal_rotations.load(Ordering::Relaxed),
            wal_retired_bytes: self.wal_retired_bytes.load(Ordering::Relaxed),
            wal_generations: self.wal_generations.load(Ordering::Relaxed),
            wal_active_bytes: self.wal_active_bytes.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            io_degraded: self.io_degraded.load(Ordering::Relaxed),
            wal_retire_errors: self.wal_retire_errors.load(Ordering::Relaxed),
            write_stall_ns: self.write_stall_ns.load(Ordering::Relaxed),
            wal_sync_ns: self.wal_sync_ns.load(Ordering::Relaxed),
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

    #[test]
    fn snapshot_reflects_counters() {
        let s = FloDbStats::default();
        FloDbStats::bump(&s.puts);
        FloDbStats::bump(&s.puts);
        FloDbStats::add(&s.scanned_keys, 10);
        let snap = s.snapshot();
        assert_eq!(snap.puts, 2);
        assert_eq!(snap.scanned_keys, 10);
        assert_eq!(snap.gets, 0);
    }
}
