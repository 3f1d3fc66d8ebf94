//! The commit stage: the durability half of the write path. One
//! submission goes through the group committer, lands in the segmented
//! log as part of one frame, and is acknowledged — or the log is poisoned.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use flodb_storage::log_manager::{LogConfig, LogManager};
use flodb_storage::{wal, StorageError};
use flodb_sync::lock_order::WAL_LOG;
use flodb_sync::shim::{ranked_mutex, Mutex};
use flodb_sync::{CommitRole, GroupCommitConfig, GroupCommitter, PhasedInflight};

use super::latch::ErrorLatch;
use super::Inner;
use crate::error::WriteError;
use crate::options::FloDbOptions;
use crate::stats::FloDbStats;
use crate::telemetry::StageClass;

/// The log writer plus the group-commit pipeline in front of it, and the
/// poison latch that makes log failures deterministic.
pub(super) struct WalState {
    /// Leader/follower batching: one frame, one append and at most one
    /// fsync per *group* of concurrent writers.
    committer: GroupCommitter<StorageError>,
    /// The segmented log (active writer + sealed backlog). Only one
    /// commit leader at a time appends, so writers never contend on this
    /// mutex; the persist thread takes it briefly to roll and retire.
    pub(super) log: Mutex<LogManager>,
    /// Tracks each write's logged→applied window so a Memtable switch can
    /// wait until everything logged into the segment it sealed has
    /// reached the memory component (and is therefore in the table it
    /// flushes). See [`PhasedInflight`].
    pub(super) inflight: PhasedInflight,
    /// Active-segment bytes at the last switch; the switch bound
    /// (`wal_segment_max_bytes`) counts the bytes logged since. Written
    /// by the persist thread only.
    pub(super) switched_at: AtomicU64,
    /// Set by the persist thread from before a switch's roll until its
    /// Memtable swap; see `Inner::wait_for_cut`.
    pub(super) cutting: AtomicBool,
    /// Closed by the first append failure; checked by every write.
    pub(super) poison: ErrorLatch,
}

impl WalState {
    /// Opens the log at `next_generation` (recovery consumed the ones
    /// below it). The log has no size trigger: only the persist thread
    /// rolls it, at each Memtable switch.
    pub(super) fn create(
        opts: &FloDbOptions,
        sync: bool,
        next_generation: u64,
    ) -> Result<Self, StorageError> {
        let log = LogManager::create(
            Arc::clone(&opts.env),
            LogConfig {
                segment_max_bytes: u64::MAX,
                sync_on_write: sync,
            },
            next_generation,
        )?;
        Ok(Self {
            committer: GroupCommitter::new(GroupCommitConfig {
                // Groups are framed in place: the leader patches the WAL
                // header into this reserved prefix and appends with one
                // write, no payload re-copy.
                frame_prefix: wal::FRAME_HEADER_BYTES,
                ..GroupCommitConfig::default()
            }),
            switched_at: AtomicU64::new(log.active_bytes()),
            cutting: AtomicBool::new(false),
            log: ranked_mutex(WAL_LOG, log),
            inflight: PhasedInflight::new(),
            poison: ErrorLatch::new("write-ahead log poisoned by an earlier append failure"),
        })
    }

    /// Appends through `op` with the poison latch held closed around it:
    /// refuses if already poisoned, and latches *before releasing the
    /// log mutex* on failure. The latch must close inside this
    /// critical section — a failed append can leave a torn frame, and a
    /// commit racing in after it would append (and acknowledge) records
    /// that replay, which stops at the tear, can never recover.
    fn append_checked<T>(
        &self,
        op: impl FnOnce(&mut LogManager) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut log = self.log.lock();
        if self.poison.is_closed() {
            return Err(self.poison.refusal());
        }
        let result = op(&mut log);
        if let Err(e) = &result {
            let cause = StorageError::Io(std::io::Error::other(e.to_string()));
            self.poison.close(&mut self.poison.cause.lock(), cause);
        }
        result
    }
}

impl Inner {
    /// Rejects a write once either latch is closed — one choke point for
    /// every write path, WAL-enabled or not: once background persistence
    /// failed persistently, accepting writes would grow memory without
    /// bound (nothing drains it), and a poisoned log acknowledges nothing.
    pub(super) fn check_writable(&self) -> Result<(), WriteError> {
        if self.degraded.is_closed() {
            return Err(self.degraded.write_error());
        }
        match &self.wal {
            Some(wal) if wal.poison.is_closed() => Err(wal.poison.write_error()),
            _ => Ok(()),
        }
    }

    /// Commits one submission — `encode` writes its record(s), `records`
    /// many — through the log pipeline. Infallibly a no-op when the WAL is
    /// disabled.
    pub(super) fn wal_append(
        &self,
        encode: impl FnOnce(&mut Vec<u8>),
        records: u64,
    ) -> Result<(), WriteError> {
        self.check_writable()?;
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        // Commit-wait attribution (`TelemetryLevel::Full`): time the whole
        // submission, subtract the time this thread's own commit closure
        // ran. For a leader that leaves queueing plus group formation; for
        // a follower (whose closure never runs) the whole submission is
        // waiting on another thread's commit.
        let t_submit = self.full_timer();
        let commit_ns = Cell::new(0u64);
        let outcome = wal.committer.submit(
            // Encoding runs inside the committer's critical section,
            // which keeps a multi-record submission's records contiguous
            // in the group; the position it lands at is its log order.
            encode,
            |frame| self.commit_group_frame(wal, frame, &commit_ns),
        );
        if let Some(t_submit) = t_submit {
            let total = t_submit.elapsed().as_nanos() as u64;
            self.telemetry
                .record_stage(StageClass::CommitWait, total.saturating_sub(commit_ns.get()));
        }
        // `CommitRole::Leader::records` counts *submissions*; a
        // multi-record submission tops the record counter up by the
        // records beyond the one its submission already contributed.
        match outcome {
            Ok(CommitRole::Leader { records: subs, .. }) => {
                FloDbStats::bump(&self.stats.wal_groups);
                FloDbStats::add(&self.stats.wal_group_records, subs + records - 1);
            }
            Ok(CommitRole::Follower) => {
                FloDbStats::bump(&self.stats.wal_follower_writes);
                FloDbStats::add(&self.stats.wal_group_records, records - 1);
            }
            Err(e) => return Err(WriteError::Wal(e)),
        }
        Ok(())
    }

    /// Commits one group frame to the active log segment.
    ///
    /// At `TelemetryLevel::Full` the commit's total duration is written
    /// into `commit_ns`, so `wal_append` can subtract it from the
    /// submission total for commit-wait attribution without timing the
    /// same interval twice.
    fn commit_group_frame(
        &self,
        wal: &WalState,
        frame: &mut [u8],
        commit_ns: &Cell<u64>,
    ) -> Result<(), StorageError> {
        let t0 = self.full_timer();
        let (sync_ns, logged) = wal.append_checked(|log| {
            let outcome = log.append_group_frame(frame)?;
            // Published under the log lock, like the switch's roll resets
            // it: a store after the unlock could overwrite the reset with
            // this stale count.
            self.stats
                .wal_active_bytes
                .store(outcome.active_bytes, Ordering::Relaxed);
            Ok((outcome.sync_ns, outcome.active_bytes))
        })?;
        if self.log_bound_reached(wal, logged) {
            // The log bound makes a switch due.
            self.persist_park.wake();
        }
        if sync_ns > 0 && self.telemetry.counters() {
            FloDbStats::add(&self.stats.wal_sync_ns, sync_ns);
        }
        if let Some(t0) = t0 {
            // Split the commit into its stages: the fsync share, and the
            // write itself (frame copy + file append + lock).
            let total = t0.elapsed().as_nanos() as u64;
            commit_ns.set(total);
            self.telemetry
                .record_stage(StageClass::WalWrite, total.saturating_sub(sync_ns));
            if sync_ns > 0 {
                self.telemetry.record_stage(StageClass::WalFsync, sync_ns);
            }
        }
        Ok(())
    }
}
