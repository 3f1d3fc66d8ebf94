//! The persist stage: switch a full Memtable out, flush it to the disk
//! component and keep the level shape compacted, on one background thread.
//! Component switches use RCU and never block readers or writers.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flodb_memtable::SkipList;
use flodb_storage::compaction::TableRoller;
use flodb_storage::{RecordRef, StorageError};
use flodb_sync::Backoff;

use super::Inner;
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
    while it.valid() {
        let vv = it.value_ref();
        tables.add(RecordRef {
            key: it.key(),
            seq: vv.seq,
            value: vv.value.as_deref(),
        })?;
        it.next();
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
                    std::thread::sleep(Duration::from_millis(1 << attempt.min(4)));
                }
            }
        }
    }

    /// Background persisting, in the order flush → compact → retire:
    /// switch a full Memtable out (RCU), flush it to the disk component and
    /// release it; service the compaction debt the flushes left; and, when
    /// sealed WAL segments await, run a retirement checkpoint so the
    /// on-disk log stays bounded. This loop is the only place that
    /// compacts, so the stage samples of this thread — `MemtableFlush`,
    /// `Compaction`, `WalRetirement` — never overlap.
    pub(super) fn persist_loop(&self) {
        while !self.stop.load(Ordering::Acquire) {
            let flushed = self.persist_once(false);
            let compacted = self.compact();
            // The flushed table is freed after the compaction, not where it
            // was released: its nodes go chunk by chunk, but each of its
            // ≈ 80 k values was allocated by a writer and is freed on its
            // own, ≈ 0.3 µs an entry — ≈ 25 ms a cycle that, spent first,
            // delays the compaction the writers are waiting on (`ingest`
            // `ops_per_s` −12 % when it was freed first).
            let persisted = flushed.is_some();
            drop(flushed);
            let retired = self.maybe_retire_wal();
            if !persisted && !compacted && !retired {
                let mut g = self.persist_park.lock();
                self.persist_cv.wait_for(&mut g, Duration::from_micros(500));
            }
        }
        // Final drain-through so `Drop` leaves no frozen component behind.
        // Compaction debt it leaves is the next open's loop's to service,
        // like the debt of recovery's flushes.
        self.persist_once(false);
    }

    /// Whether the disk component carries compaction debt this store
    /// services: with persisting off nobody ever will, and waiting on it
    /// would wedge.
    pub(super) fn compaction_pending(&self) -> bool {
        self.opts.persist_enabled && self.disk.needs_compaction()
    }

    /// Services the disk component's compaction debt, whoever left it — a
    /// flush of this loop, of the retirement checkpoint, or of recovery at
    /// open: retried, timed as a [`StageClass::Compaction`], and latching
    /// the store degraded if it keeps failing (never a panic — whatever
    /// was flushed is already durable, only the level shape degrades).
    /// Returns whether a pass ran to the end.
    fn compact(&self) -> bool {
        if self.is_degraded() || !self.compaction_pending() {
            return false;
        }
        let t0 = self.telemetry.counters().then(Instant::now);
        if let Err(e) = self.io_with_retries(|| self.disk.compact_all()) {
            self.degrade("compaction", &e);
            return false;
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.telemetry.record_stage(StageClass::Compaction, ns);
            self.telemetry.event(TraceEventKind::Compaction, ns, 0);
        }
        true
    }

    /// One persist step: flush a pending immutable Memtable, then switch
    /// the live one out and flush it if it is due — over the size trigger,
    /// or non-empty while a flush is being forced (`flush_all` sets
    /// `force_flush`; the retirement checkpoint passes `checkpoint`).
    /// Returns the table it flushed, if it made progress: the view has
    /// released it, so the caller holds its last reference and dropping
    /// that frees the table.
    ///
    /// At most one switch per call, which is exactly what the retirement
    /// checkpoint needs — everything it must cover is already in the
    /// Memtable when this runs, and writes landing after the switch belong
    /// to the next checkpoint. Looping until the table observes empty
    /// would instead chase resumed writers forever under sustained
    /// traffic, churning out tiny SSTs. Only the persist thread calls
    /// this, so no other thread can be mid-switch.
    pub(super) fn persist_once(&self, checkpoint: bool) -> Option<Arc<SkipList>> {
        let pending = self.view.read(|v| v.imm_mtb.clone());
        let mut flushed = pending.filter(|imm| self.flush_imm(imm));
        let force = checkpoint || self.force_flush.load(Ordering::Acquire);
        // A table still pending here could not be flushed (degraded); it
        // stays resident and nothing may be switched out on top of it.
        let due = self.view.read(|v| {
            v.imm_mtb.is_none()
                && (v.mtb.approximate_bytes() >= self.memtable_trigger
                    || (force && !v.mtb.is_empty()))
        });
        if due {
            let imm = self.view.switch_memtable(Arc::new(SkipList::new()));
            self.notify_room();
            self.flush_imm(&imm);
            flushed = Some(imm);
        }
        flushed
    }

    /// Wakes writers waiting for Memtable room.
    fn notify_room(&self) {
        let _g = self.room.lock();
        self.room_cv.notify_all();
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
        self.notify_room();
        true
    }
}

#[cfg(test)]
mod tests {
    use crate::store::tests::{db, k};
    use crate::{FloDb, FloDbOptions, KvStore};

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
