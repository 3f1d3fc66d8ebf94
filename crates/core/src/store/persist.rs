//! The persist stage: the Memtable switch — FloDB's one persisting step,
//! and the write-ahead log's checkpoint — plus the compaction that keeps
//! the level shape, on one background thread. Component switches use RCU
//! and never block readers or writers.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flodb_memtable::SkipList;
use flodb_storage::compaction::TableRoller;
use flodb_storage::log_manager;
use flodb_storage::merge::MergeSource;
use flodb_storage::wal::WalWriter;
use flodb_storage::StorageError;
use flodb_sync::{Backoff, Grace};

use super::commit::WalState;
use super::scan::MemtableSource;
use super::settle::membuffer_drained;
use super::Inner;
use crate::options::WalMode;
use crate::stats::FloDbStats;
use crate::telemetry::{StageClass, TraceEventKind};

/// Maximum reattempts for one background I/O operation before it is
/// treated as persistently failing.
const IO_RETRY_LIMIT: u32 = 3;

/// Streams a Memtable into the tables of a flush (the `fill` of
/// [`flodb_storage::DiskComponent::flush_sorted`]): key order, tombstones
/// included, each value borrowed under the iterator's guard and copied
/// once — into its output block. Recovery's settle-to-disk and the persist
/// stage's flush both write a Memtable this way, and a retried flush simply
/// runs it again over the same (frozen) table.
pub(super) fn stream_memtable(
    mtb: &SkipList,
    tables: &mut TableRoller<'_>,
) -> Result<(), StorageError> {
    let mut it = mtb.iter();
    it.seek_to_first();
    let mut source = MemtableSource(it);
    while source.valid() {
        tables.add(source.record())?;
        source.next()?;
    }
    Ok(())
}

impl Inner {
    /// Runs `op` with bounded retry-with-backoff for transient I/O errors:
    /// each failed attempt is counted in `io_retries`, ramped through the
    /// shared [`Backoff`] (yields first) and then a short real sleep —
    /// transient conditions like a full device queue or a briefly
    /// unwritable directory clear in milliseconds, not in spin loops. After
    /// [`IO_RETRY_LIMIT`] reattempts the last error is returned and the
    /// caller decides the degradation (latch, counter, or give-up).
    pub(super) fn io_with_retries<T>(
        &self,
        mut op: impl FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt >= IO_RETRY_LIMIT {
                        return Err(e);
                    }
                    attempt += 1;
                    FloDbStats::bump(&self.stats.io_retries);
                    self.telemetry
                        .event(TraceEventKind::IoRetry, u64::from(attempt), 0);
                    let backoff = Backoff::new();
                    while !backoff.is_completed() {
                        backoff.snooze();
                    }
                    // SLEEP-OK: a failing device's retry backoff (1-16 ms
                    // over at most IO_RETRY_LIMIT attempts), not a poll.
                    std::thread::sleep(Duration::from_millis(1 << attempt.min(4)));
                }
            }
        }
    }

    /// Background persisting: a switch when one is due, then the
    /// compaction debt the flushes left; the only place that does either,
    /// so this thread's stage samples never overlap. Flushes merge into L1
    /// two at a time: each is a sorted run over the whole key range, and
    /// merging one alone rewrites L1 and the levels below it once per flush
    /// (`ingest` `write_amp` ≈ 12.8 against ≈ 9 in pairs). So a lone run
    /// waits for the next switch's, unless `flush_all` or `quiesce` waits.
    ///
    /// Each step ends with a progress notice for them. With no step to
    /// take, the thread parks until one is due: a Memtable insert that
    /// reaches the trigger, a commit that reaches the log bound, a settle
    /// or the shutdown wakes it.
    pub(super) fn persist_loop(&self) {
        let mut unmerged = 0;
        while !self.stop.load(Ordering::Acquire) {
            let flushed = self.persist_once();
            unmerged += usize::from(flushed.is_some());
            if self.merge_wanted(unmerged) {
                self.compact();
                unmerged = 0;
            }
            // The flushed table is freed after the compaction, not where it
            // was released: its nodes go chunk by chunk, but each of its
            // ≈ 80 k values was allocated by a writer and is freed on its
            // own, ≈ 0.3 µs an entry — ≈ 25 ms a cycle that, spent first,
            // delays the compaction the writers are waiting on (`ingest`
            // `ops_per_s` −12 % when it was freed first).
            drop(flushed);
            self.post_progress();
            let has_work = || {
                self.stop.load(Ordering::Acquire)
                    || self.switch_due()
                    || (self.merge_wanted(unmerged)
                        && !self.is_degraded()
                        && self.compaction_pending())
            };
            if !has_work() {
                Self::flush_epoch_bag();
                self.persist_park.park_until(has_work);
            }
        }
        // Final switch so `Drop` leaves no due work behind. Compaction
        // debt it leaves is the next open's loop's to service, like the
        // debt of recovery's flushes.
        self.persist_once();
    }

    /// Whether the loop compacts now, with `unmerged` flushed runs since
    /// its last compaction: not while one run waits for its pair, unless a
    /// `flush_all` or `quiesce` waits.
    fn merge_wanted(&self, unmerged: usize) -> bool {
        unmerged != 1 || self.settling.load(Ordering::Relaxed) > 0
    }

    /// Whether the disk component carries compaction debt this store
    /// services: with persisting off nobody ever will, and waiting on it
    /// would wedge.
    pub(super) fn compaction_pending(&self) -> bool {
        self.opts.persist_enabled && self.disk.needs_compaction()
    }

    /// Services the disk component's compaction debt, whoever left it — a
    /// switch's flush or recovery's at open: retried, timed as a
    /// [`StageClass::Compaction`], and latching the store degraded if it
    /// keeps failing (never a panic — whatever was flushed is already
    /// durable, only the level shape degrades).
    fn compact(&self) {
        if self.is_degraded() || !self.compaction_pending() {
            return;
        }
        let t0 = self.telemetry.counters().then(Instant::now);
        if let Err(e) = self.io_with_retries(|| self.disk.compact_all()) {
            self.degrade("compaction", &e);
            return;
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.telemetry.record_stage(StageClass::Compaction, ns);
            self.telemetry.event(TraceEventKind::Compaction, ns, 0);
        }
    }

    /// The log a switch rolls: none on a degraded store, whose log is the
    /// durable copy of everything that never reached disk.
    fn rolling_wal(&self) -> Option<&WalState> {
        self.wal.as_ref().filter(|_| !self.is_degraded())
    }

    /// Whether a switch is due: the Memtable is over its trigger, the log
    /// has grown by `wal_segment_max_bytes` since the last switch (a
    /// deferred roll moved `switched_at`, so no loop of tiny tables), or
    /// `flush_all` is forcing and memory holds anything. Never while a
    /// degraded store's unflushable table is still resident.
    pub(super) fn switch_due(&self) -> bool {
        let log_full = self.rolling_wal().is_some_and(|wal| {
            self.log_bound_reached(wal, self.stats.wal_active_bytes.load(Ordering::Relaxed))
        });
        let force = self.force_flush.load(Ordering::Acquire);
        self.view.read(|v| {
            v.imm_mtb.is_none()
                && (log_full
                    || v.mtb.approximate_bytes() >= self.memtable_trigger
                    || (force && !(v.mtb.is_empty() && membuffer_drained(v))))
        })
    }

    /// Whether the active segment, `logged` bytes long, holds
    /// `wal_segment_max_bytes` logged since the last switch.
    pub(super) fn log_bound_reached(&self, wal: &WalState, logged: u64) -> bool {
        logged.saturating_sub(wal.switched_at.load(Ordering::Relaxed))
            >= self.opts.wal_segment_max_bytes as u64
    }

    /// Whether a switch has sealed segments it has not retired yet (with
    /// persisting off they stay for good: nothing is in flight).
    pub(super) fn retirement_in_flight(&self) -> bool {
        self.rolling_wal()
            .filter(|_| self.opts.persist_enabled)
            .is_some_and(|wal| !wal.log.lock().sealed().is_empty())
    }

    /// One persist step: the switch, if one is due. Returns the table it
    /// flushed, released by the view: the caller's drop frees it. At most
    /// one switch per call — looping until memory observes empty would
    /// chase resumed writers forever. Only the persist thread calls this.
    pub(super) fn persist_once(&self) -> Option<Arc<SkipList>> {
        self.switch_due().then(|| self.switch())
    }

    /// The Memtable switch — FloDB's one persisting step and the log's
    /// checkpoint (ARCHITECTURE.md "WAL lifecycle"), each step what makes
    /// the next sound: (1) roll the log ([`Self::roll_log`]); (2) wait out
    /// the writes logged before the roll — they never wait for room, see
    /// `write.rs`; (3) freeze-drain the Membuffer and (4) swap the
    /// Memtable out in the same freeze window, then flush it: Memtable
    /// writers are paused from the drain to the swap, and batches logged
    /// after the roll wait for the swap (`Inner::wait_for_cut`), so the
    /// table covers the sealed segments and holds whole batches and a
    /// per-writer prefix of the active one; (5) record the oldest live
    /// segment, then (6) delete the sealed ones ([`Self::retire_log`]).
    /// Without a log (or degraded) 1, 2, 5 and 6 are skipped, with
    /// persisting off 5 and 6.
    fn switch(&self) -> Arc<SkipList> {
        let wal = self.rolling_wal();
        let rolled = wal
            .and_then(|wal| self.roll_log(wal))
            .map(|(horizon, grace)| {
                let t0 = Instant::now();
                grace.wait();
                (horizon, t0.elapsed().as_nanos() as u64)
            });
        // The freeze window may overlap a concurrent scan's; the freeze
        // lock serializes the swaps.
        let imm = self.freeze_window(|spare| {
            self.freeze_and_drain_membuffer(spare);
            self.view.switch_memtable(Arc::new(SkipList::new()))
        });
        if let Some(wal) = wal {
            wal.cutting.store(false, Ordering::Release);
        }
        self.room.wake();
        let flushed = self.flush_imm(&imm);
        if let (Some(wal), Some((horizon, grace_ns))) = (wal, rolled) {
            // A failed flush degraded the store: the sealed segments are
            // the durable copy of what it held, so they stay.
            if self.opts.persist_enabled && flushed && !self.is_degraded() {
                self.retire_log(wal, horizon, grace_ns);
            }
        }
        imm
    }

    /// Step 1 of [`Self::switch`]: creates the next segment outside the
    /// log lock, then makes it active and flips the in-flight phase in one
    /// critical section, so every write logged into the sealed segment is
    /// in the phase the returned [`Grace`] waits for; room waiters are
    /// woken to notice their exemption. Returns the sealed generation and
    /// the grace, or `None` — counted in `io_retries` — if the segment
    /// could not be created: this switch then retires nothing.
    fn roll_log<'w>(&self, wal: &'w WalState) -> Option<(u64, Grace<'w>)> {
        let t0 = self.telemetry.counters().then(Instant::now);
        // Only this thread rolls, so the generation cannot move under it.
        let next = wal.log.lock().active_generation() + 1;
        let sync = matches!(self.opts.wal, WalMode::Enabled { sync: true });
        let fresh = WalWriter::create_segment(self.opts.env.as_ref(), next, sync);
        let mut log = wal.log.lock();
        let rolled = fresh.map(|fresh| {
            // ORDERING: before the flip, so every batch that logs after it
            // sees the flag (`Inner::wait_for_cut`).
            wal.cutting.store(true, Ordering::SeqCst);
            (log.roll(fresh), wal.inflight.flip())
        });
        let active = log.active_bytes();
        wal.switched_at.store(active, Ordering::Relaxed);
        self.stats.wal_active_bytes.store(active, Ordering::Relaxed);
        self.stats
            .wal_generations
            .store(log.live_generations(), Ordering::Relaxed);
        drop(log);
        let Ok((sealed, grace)) = rolled else {
            FloDbStats::bump(&self.stats.io_retries);
            self.telemetry.event(TraceEventKind::IoRetry, 1, 0);
            return None;
        };
        self.room.wake();
        let sealed_bytes = sealed.bytes_written();
        // Best effort: the switch's flush covers the segment anyway.
        let _ = sealed.finish();
        FloDbStats::bump(&self.stats.wal_rotations);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.telemetry.record_stage(StageClass::WalRotation, ns);
            self.telemetry
                .event(TraceEventKind::WalRotation, sealed_bytes, ns);
        }
        Some((next - 1, grace))
    }

    /// Steps 5 and 6 of [`Self::switch`]: records the oldest generation
    /// recovery still needs (the active one: only this thread rolls),
    /// **then** deletes the sealed segments up to `horizon` — a crash
    /// between the two leaves stale files below the mark, which recovery
    /// ignores and the next open prunes. Both steps retry (idempotent); on
    /// a persistent failure the segments are untracked anyway, so nothing
    /// wedges and only boundedness degrades (`wal_retire_errors`). The
    /// `WalRetirement` sample adds the switch's grace wait (`grace_ns`).
    fn retire_log(&self, wal: &WalState, horizon: u64, grace_ns: u64) {
        let t0 = self.telemetry.counters().then(Instant::now);
        let marked = self.io_with_retries(|| self.disk.record_wal_oldest_live(horizon + 1));
        // Delete outside the log lock; untrack last, since `quiesce` reads
        // a non-empty sealed list as a switch in flight.
        // Every sealed segment is at or below `horizon`: each switch
        // untracks what it sealed.
        let deleted = marked.and_then(|()| {
            let doomed = wal.log.lock().sealed().to_vec();
            self.io_with_retries(|| log_manager::delete_segments(self.opts.env.as_ref(), &doomed))
        });
        match deleted {
            Ok(retired) => {
                FloDbStats::add(&self.stats.wal_retired_bytes, retired.bytes);
                if let Some(t0) = t0 {
                    let ns = grace_ns + t0.elapsed().as_nanos() as u64;
                    self.telemetry.record_stage(StageClass::WalRetirement, ns);
                    self.telemetry.event(
                        TraceEventKind::WalRetirement,
                        retired.segments,
                        retired.bytes,
                    );
                }
            }
            Err(_) => {
                FloDbStats::bump(&self.stats.wal_retire_errors);
                FloDbStats::bump(&self.stats.io_degraded);
            }
        }
        let mut log = wal.log.lock();
        log.take_sealed_up_to(horizon);
        self.stats
            .wal_generations
            .store(log.live_generations(), Ordering::Relaxed);
    }

    /// Flushes one immutable Memtable to the disk component and releases
    /// it.
    ///
    /// Returns whether progress was made. Transient disk errors are
    /// retried with backoff ([`Self::io_with_retries`]); a persistent
    /// failure latches the store degraded and keeps the table **resident**
    /// — reads serve it live, nothing acknowledged is lost, and since the
    /// WAL is never retired on a degraded store, a reopen replays it all.
    /// Never panics: writers were acked when their WAL frame went durable,
    /// and the log stays intact for recovery.
    fn flush_imm(&self, imm: &SkipList) -> bool {
        if self.opts.persist_enabled && !imm.is_empty() {
            if self.is_degraded() {
                // Releasing the table would drop acknowledged reads (its
                // records never reached disk); leave it for reopen to heal.
                return false;
            }
            let record_count = imm.len() as u64;
            let t0 = self.telemetry.counters().then(Instant::now);
            let flush = || {
                self.disk
                    .flush_sorted(&mut |tables| stream_memtable(imm, tables))
            };
            if let Err(e) = self.io_with_retries(flush) {
                self.degrade("memtable flush", &e);
                return false;
            }
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                self.telemetry.record_stage(StageClass::MemtableFlush, ns);
                self.telemetry.event(TraceEventKind::Flush, record_count, ns);
            }
        }
        // Counted before the release: `quiesce` reads "no immutable
        // Memtable" as "flush settled", counters included.
        FloDbStats::bump(&self.stats.persists);
        self.view.release_immutable_memtable();
        self.room.wake();
        true
    }
}

#[cfg(test)]
mod tests {
    use flodb_memtable::SkipList;

    use crate::store::tests::{db, k};
    use crate::telemetry::TraceEventKind;
    use crate::{FloDb, FloDbOptions, KvStore, WalMode};

    /// Put-only traffic whose log never reaches its bound switches only on
    /// the Memtable trigger, so every flushed table — but the last, which
    /// `flush_all` forces — is a full one: at least 90 % of the entries a
    /// Memtable holds when it crosses its trigger.
    #[test]
    fn put_only_switches_flush_full_tables() {
        const VALUE: [u8; 40] = [7; 40];
        let mut opts = FloDbOptions::small_for_tests();
        opts.wal = WalMode::Enabled { sync: false };
        // ≈ 1.7 Memtables' worth of log (≈ 2 k puts of 60 log bytes fill
        // one): above what one switch's table and Membuffer log, so the
        // bound never fires, and far enough below two that a log rolled by
        // size alone would checkpoint part-filled tables.
        opts.wal_segment_max_bytes = 200 * 1024;
        let full = {
            let probe = SkipList::new();
            let mut n = 0;
            while probe.approximate_bytes() < opts.memtable_bytes() {
                probe.insert(&k(n), Some(&VALUE), n + 1);
                n += 1;
            }
            n
        };
        let db = FloDb::open(opts).unwrap();
        for i in 0..5 * full {
            db.put(&k(i), &VALUE).unwrap();
        }
        db.flush_all();
        let tables: Vec<u64> = db
            .trace_dump()
            .iter()
            .filter(|e| e.kind == TraceEventKind::Flush)
            .map(|e| e.a)
            .collect();
        let (_forced, switched) = tables.split_last().unwrap();
        assert!(switched.len() >= 3, "{tables:?}");
        assert!(
            switched.iter().all(|&n| n * 10 >= full * 9),
            "a switch flushed a part-filled table: {tables:?}, {full} entries fill one"
        );
    }

    #[test]
    fn quiesce_drains_membuffer() {
        let db = db();
        for i in 0..100u64 {
            db.put(&k(i), b"v").unwrap();
        }
        db.quiesce();
        let mbf_len = db.inner.view.read(|v| v.mbf.as_ref().unwrap().len());
        assert_eq!(mbf_len, 0, "background drain must empty the Membuffer");
    }

    #[test]
    fn simple_insert_drain_mode_works() {
        let mut opts = FloDbOptions::small_for_tests();
        opts.use_multi_insert = false;
        let db = FloDb::open(opts).unwrap();
        for i in 0..100u64 {
            db.put(&k(i), b"v").unwrap();
        }
        db.quiesce();
        assert_eq!(db.get(&k(42)), Some(b"v".to_vec()));
    }

    #[test]
    fn persist_disabled_drops_memtables() {
        let mut opts = FloDbOptions::small_for_tests();
        opts.persist_enabled = false;
        let db = FloDb::open(opts).unwrap();
        for i in 0..5000u64 {
            db.put(&k(i), &[0u8; 64]).unwrap();
        }
        db.quiesce();
        assert_eq!(db.disk_stats().flushes, 0, "nothing may reach disk");
    }
}
