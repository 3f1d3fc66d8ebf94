//! The recover stage: replaying the write-ahead log at open.

use flodb_memtable::SkipList;
use flodb_storage::{log_manager, DiskComponent, StorageError};

use super::persist::stream_memtable;
use crate::options::{FloDbOptions, WalMode};

/// What `open` resumes from.
pub(super) struct Recovered {
    /// The highest sequence number on disk once the replay is flushed.
    pub(super) max_seq: u64,
    /// The generation the new log's first segment gets.
    pub(super) next_generation: u64,
}

/// Replays the live WAL generations, if a log is enabled and any exist.
///
/// This function is the whole policy for what orders two versions of a
/// key after a crash. A log record has no number of its own — its order
/// is its position (generations ascending, frames in append order) — so
/// replayed record *i* is stamped `disk.max_persisted_seq() + 1 + i`:
/// above every table, because whatever the live log holds was logged
/// after everything a retired segment held, and ascending, so the last
/// record for a key wins. The sequence counter then resumes past the last
/// stamp: disk records keep their numbers, and a fresh write stamped
/// below them would lose every seq-based merge (scans would resurrect
/// stale disk values).
pub(super) fn recover_wal(
    opts: &FloDbOptions,
    disk: &DiskComponent,
) -> Result<Recovered, StorageError> {
    let mut recovered = Recovered {
        max_seq: disk.max_persisted_seq(),
        next_generation: 1,
    };
    if matches!(opts.wal, WalMode::Disabled) {
        return Ok(recovered);
    }
    // Replay only the live generations: segments below the manifest's
    // oldest-live mark were retired (their contents persisted) — any still
    // on disk are leftovers of a crash between the mark and the deletions.
    let log = log_manager::recover_segments(opts.env.as_ref(), disk.wal_oldest_live())?;
    let replayed = SkipList::new();
    for r in &log.records {
        recovered.max_seq += 1;
        replayed.insert(&r.key, r.value.as_deref(), recovered.max_seq);
    }
    recovered.next_generation = log.max_generation + 1;
    // Settle the recovered state onto disk so the replayed logs can be
    // pruned; log growth is thereby bounded across restarts. A crash in
    // here replays the same logs again, stamped above this attempt's
    // tables: the duplicates outrank their earlier copies and keep their
    // order among themselves, so the state is the same.
    if !replayed.is_empty() {
        disk.flush_sorted(&mut |tables| stream_memtable(&replayed, tables))?;
    }
    // Advance the oldest-live mark durably *before* deleting the consumed
    // segments (crash in between leaves stale files below the mark, which
    // recovery ignores and the next open prunes right here).
    disk.record_wal_oldest_live(recovered.next_generation)?;
    for segment in &log.segment_names {
        opts.env.delete(segment)?;
    }
    opts.env.sync_dir()?;
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::store::tests::k;
    use crate::{FloDb, FloDbOptions, KvStore, WalMode, WriteBatch};

    fn wal_opts() -> FloDbOptions {
        let mut opts = FloDbOptions::small_for_tests();
        opts.env = Arc::new(flodb_storage::MemEnv::new(None));
        opts.wal = WalMode::Enabled { sync: false };
        opts
    }

    #[test]
    fn write_batch_survives_crash_as_a_unit() {
        let opts = wal_opts();
        {
            let db = FloDb::open(opts.clone()).unwrap();
            let mut batch = WriteBatch::new();
            for i in 0..10u64 {
                batch.put(&k(i), &i.to_le_bytes());
            }
            batch.delete(&k(3));
            db.write(&batch).unwrap();
            // Simulated crash: drop without flushing.
        }
        let db = FloDb::open(opts).unwrap();
        for i in 0..10u64 {
            let expect = (i != 3).then(|| i.to_le_bytes().to_vec());
            assert_eq!(db.get(&k(i)), expect, "key {i}");
        }
    }

    /// The interleaving behind `benchmark/README.md` Finding 1, by hand: a
    /// freeze (a scan's, or a switch's) catches the Membuffer while it
    /// holds a key's older version, the writer logs and applies the newer
    /// one, and only then does the frozen drain stamp the older one — with
    /// a number taken *after* the newer version was logged. A forced flush
    /// puts the older version in a table; the newer one is in the log
    /// alone when the store dies. Replay must rank it above the table's
    /// version because its record is later in the log, whatever number the
    /// drain gave the older one.
    #[test]
    fn version_logged_during_a_frozen_drain_outranks_the_one_it_flushes() {
        use std::sync::atomic::Ordering;

        let opts = wal_opts();
        {
            let db = FloDb::open(opts.clone()).unwrap();
            let inner = &*db.inner;
            // As a freeze window does: background drain off. Membuffer
            // writers do not look at the flag.
            inner.frozen.pause();
            db.put(b"k", b"older").unwrap();
            let frozen = inner
                .view
                .freeze_membuffer(crate::store::new_membuffer(&inner.opts))
                .expect("the Membuffer is enabled");
            db.put(b"k", b"newer").unwrap();
            frozen.open_for_drain();
            crate::store::drain::help_drain_imm_via(&frozen, &inner.view, &inner.seq, inner.drain_style);
            inner.view.release_frozen_membuffer();
            // The checkpoint's flush: the Memtable holds only "older".
            inner.force_flush.store(true, Ordering::SeqCst);
            inner.settle_until(|| inner.view.read(|v| v.imm_mtb.is_none() && v.mtb.is_empty()));
            inner.force_flush.store(false, Ordering::SeqCst);
            assert_eq!(db.disk_stats().flushes, 1);
            assert_eq!(db.get(b"k"), Some(b"newer".to_vec()));
            // Crash, with the window still open: "newer" never left the
            // fresh Membuffer.
        }
        let db = FloDb::open(opts).unwrap();
        assert_eq!(db.get(b"k"), Some(b"newer".to_vec()));
        assert_eq!(
            db.scan(b"a", b"z"),
            vec![(b"k".to_vec(), b"newer".to_vec())]
        );
    }

    /// A switch's table is a per-writer log prefix. By hand: drains are
    /// paused (as a freeze window pauses them), a writer's older put lands
    /// in the Membuffer, and its newer one falls through to the Memtable —
    /// logged, then inserted the way a full bucket sends it there
    /// (Algorithm 2, lines 19-20). A forced switch then flushes, and the
    /// crash cuts the active log segment back to its header. A switch that
    /// flushed the Memtable alone would leave the older write's only copy
    /// in that lost segment while the newer one survives in a table.
    #[test]
    fn a_flushed_table_never_holds_a_write_without_the_writers_earlier_ones() {
        use std::sync::atomic::Ordering;

        use flodb_storage::record::encode_record_parts;
        use flodb_storage::wal::{parse_wal_name, SEGMENT_HEADER_BYTES};

        let opts = wal_opts();
        {
            let db = FloDb::open(opts.clone()).unwrap();
            let inner = &*db.inner;
            inner.frozen.pause();
            db.put(b"older", b"1").unwrap();
            inner
                .wal_append(|buf| encode_record_parts(buf, b"newer", 0, Some(b"2")), 1)
                .unwrap();
            inner
                .view
                .read(|v| v.mtb.insert(b"newer", Some(b"2"), inner.seq.next()));
            inner.force_flush.store(true, Ordering::SeqCst);
            inner.settle_until(|| {
                db.disk_stats().flushes > 0 && inner.view.read(|v| v.imm_mtb.is_none())
            });
            inner.force_flush.store(false, Ordering::SeqCst);
            // Crash, with drains still paused.
        }
        let env = &opts.env;
        let active = env
            .list()
            .unwrap()
            .into_iter()
            .filter(|name| parse_wal_name(name).is_some())
            .max_by_key(|name| parse_wal_name(name))
            .unwrap();
        let header = env
            .open_random(&active)
            .unwrap()
            .read_at(0, SEGMENT_HEADER_BYTES)
            .unwrap();
        env.new_writable(&active).unwrap().append(&header).unwrap();

        let db = FloDb::open(opts).unwrap();
        assert_eq!(
            db.get(b"newer"),
            Some(b"2".to_vec()),
            "the flush lost the newer write"
        );
        assert_eq!(
            db.get(b"older"),
            Some(b"1".to_vec()),
            "the newer write survived in a table although the older one was lost"
        );
    }

    #[test]
    fn wal_recovery_restores_memory_component() {
        let opts = wal_opts();
        {
            let db = FloDb::open(opts.clone()).unwrap();
            db.put(b"alpha", b"1").unwrap();
            db.put(b"beta", b"2").unwrap();
            db.delete(b"alpha").unwrap();
            // Simulated crash: drop without flushing.
        }
        let db = FloDb::open(opts).unwrap();
        assert_eq!(db.get(b"alpha"), None, "tombstone must replay");
        assert_eq!(db.get(b"beta"), Some(b"2".to_vec()));
    }
}
