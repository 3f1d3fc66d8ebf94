//! The recover stage: replaying the write-ahead log at open.

use flodb_memtable::SkipList;
use flodb_storage::{log_manager, DiskComponent, StorageError};

use super::persist::stream_memtable;
use crate::options::{FloDbOptions, WalMode};

/// What `open` resumes from.
pub(super) struct Recovered {
    /// The highest sequence number already persisted or logged.
    pub(super) max_seq: u64,
    /// The generation the new log's first segment gets.
    pub(super) next_generation: u64,
}

/// Replays the live WAL generations, if a log is enabled and any exist.
///
/// The sequence counter must resume past everything already persisted:
/// disk records keep their original sequence numbers, and a fresh write
/// stamped below them would lose every seq-based merge (scans would
/// resurrect stale disk values).
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
    for r in log.records {
        replayed.insert(&r.key, r.value.as_deref(), r.seq);
    }
    recovered.max_seq = recovered.max_seq.max(log.max_seq);
    recovered.next_generation = log.max_generation + 1;
    // Settle the recovered state onto disk so the replayed logs can be
    // pruned; log growth is thereby bounded across restarts. A crash in
    // here simply replays the same logs again (flushing is idempotent:
    // duplicate records carry identical seqs).
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
