//! Crash-recovery integration tests: the write-ahead log must reconstruct
//! the memory component after a crash (§2.1 "the recovery process can
//! re-construct any lost operations from the log").

use std::sync::Arc;

use flodb::storage::{Env, FsEnv, MemEnv};
use flodb::{FloDb, FloDbOptions, KvStore, WalMode, WriteBatch};

fn key(n: u64) -> [u8; 8] {
    n.to_be_bytes()
}

fn wal_opts(env: Arc<dyn Env>, sync: bool) -> FloDbOptions {
    let mut opts = FloDbOptions::small_for_tests();
    opts.env = env;
    opts.wal = WalMode::Enabled { sync };
    opts
}

#[test]
fn recovery_restores_puts_and_tombstones() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
        for i in 0..500u64 {
            db.put(&key(i), &i.to_le_bytes()).unwrap();
        }
        for i in (0..500u64).step_by(5) {
            db.delete(&key(i)).unwrap();
        }
        // Crash: drop without quiescing or flushing.
    }
    let db = FloDb::open(wal_opts(env, false)).unwrap();
    for i in 0..500u64 {
        let got = db.get(&key(i));
        if i % 5 == 0 {
            assert_eq!(got, None, "tombstone for key {i} lost");
        } else {
            assert_eq!(got, Some(i.to_le_bytes().to_vec()), "key {i} lost");
        }
    }
}

#[test]
fn recovery_preserves_overwrite_order() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
        for round in 0..20u64 {
            for i in 0..50u64 {
                db.put(&key(i), &(round * 100 + i).to_le_bytes()).unwrap();
            }
        }
    }
    let db = FloDb::open(wal_opts(env, false)).unwrap();
    for i in 0..50u64 {
        assert_eq!(
            db.get(&key(i)),
            Some((19 * 100 + i).to_le_bytes().to_vec()),
            "key {i} must recover its final value"
        );
    }
}

#[test]
fn sequence_numbers_resume_past_recovered_log() {
    // After recovery, new writes must shadow recovered ones — i.e. the
    // sequence generator must resume strictly after every replayed entry.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
        db.put(b"k", b"before-crash").unwrap();
    }
    let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
    db.put(b"k", b"after-crash").unwrap();
    assert_eq!(db.get(b"k").as_deref(), Some(b"after-crash".as_slice()));
    // Survives draining and flushing (ordering is by sequence number once
    // both versions meet in the same level).
    db.flush_all();
    assert_eq!(db.get(b"k").as_deref(), Some(b"after-crash".as_slice()));
}

#[test]
fn double_crash_replays_multiple_logs() {
    // Each open starts a new log generation; a second crash must replay
    // both logs in order.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"1").unwrap();
    }
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
        db.put(b"b", b"2").unwrap(); // Overwrites generation-1 value.
        db.put(b"c", b"2").unwrap();
    }
    let db = FloDb::open(wal_opts(env, false)).unwrap();
    assert_eq!(db.get(b"a").as_deref(), Some(b"1".as_slice()));
    assert_eq!(db.get(b"b").as_deref(), Some(b"2".as_slice()), "later log wins");
    assert_eq!(db.get(b"c").as_deref(), Some(b"2".as_slice()));
}

#[test]
fn synced_wal_round_trips_on_real_files() {
    // FsEnv writes real files; exercise the whole recovery path on disk.
    let dir = std::env::temp_dir().join(format!(
        "flodb-wal-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let env: Arc<dyn Env> = Arc::new(FsEnv::new(&dir).unwrap());
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env), true)).unwrap();
        for i in 0..100u64 {
            db.put(&key(i), b"durable").unwrap();
        }
        db.delete(&key(7)).unwrap();
    }
    let db = FloDb::open(wal_opts(env, true)).unwrap();
    assert_eq!(db.get(&key(7)), None);
    for i in 0..100u64 {
        if i != 7 {
            assert_eq!(db.get(&key(i)).as_deref(), Some(b"durable".as_slice()));
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_entries_are_scannable() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
        for i in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            db.put(&key(i), &i.to_le_bytes()).unwrap();
        }
    }
    let db = FloDb::open(wal_opts(env, false)).unwrap();
    let out = db.scan(&key(0), &key(10));
    let got: Vec<u64> = out
        .iter()
        .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
        .collect();
    assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 9]);
}

#[test]
fn manifest_recovers_flushed_data_without_wal() {
    // The disk component's MANIFEST makes flushed data survive a restart
    // even with the WAL off: only the memory component is lost.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let mut opts = FloDbOptions::small_for_tests();
    opts.env = Arc::clone(&env);
    {
        let db = FloDb::open(opts.clone()).unwrap();
        for i in 0..300u64 {
            db.put(&key(i), b"flushed").unwrap();
        }
        db.flush_all();
        db.put(b"memory-only", b"gone").unwrap();
    }
    let db = FloDb::open(opts).unwrap();
    for i in 0..300u64 {
        assert_eq!(
            db.get(&key(i)).as_deref(),
            Some(b"flushed".as_slice()),
            "flushed key {i} must survive via the manifest"
        );
    }
    assert_eq!(db.get(b"memory-only"), None, "unflushed write is lost");
    // Scans work over the recovered layout.
    assert_eq!(db.scan(&key(0), &key(299)).len(), 300);
}

#[test]
fn wal_plus_manifest_restores_everything() {
    // Full durability: flushed data via the manifest, tail via the WAL.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
        for i in 0..200u64 {
            db.put(&key(i), b"old").unwrap();
        }
        db.flush_all();
        for i in 100..250u64 {
            db.put(&key(i), b"new").unwrap(); // Tail only in WAL + memory.
        }
        db.delete(&key(0)).unwrap();
    }
    let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
    assert_eq!(db.get(&key(0)), None);
    assert_eq!(db.get(&key(50)).as_deref(), Some(b"old".as_slice()));
    assert_eq!(db.get(&key(150)).as_deref(), Some(b"new".as_slice()));
    assert_eq!(db.get(&key(249)).as_deref(), Some(b"new".as_slice()));
    assert_eq!(db.scan(&key(0), &key(249)).len(), 249);
    // Consumed logs were pruned; a fresh generation exists for new writes.
    let logs = env
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".log"))
        .count();
    assert_eq!(logs, 1, "exactly the new generation's log should remain");
}

#[test]
fn repeated_restarts_accumulate_nothing() {
    // Ten crash/recover cycles: state stays exactly right and log files do
    // not pile up.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    for round in 0..10u64 {
        let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
        db.put(&key(round), &round.to_le_bytes()).unwrap();
        for prev in 0..=round {
            assert_eq!(
                db.get(&key(prev)),
                Some(prev.to_le_bytes().to_vec()),
                "round {round}, key {prev}"
            );
        }
    }
    let logs = env
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".log"))
        .count();
    assert!(logs <= 1, "replayed logs must be pruned, found {logs}");
}

#[test]
fn kill_mid_batch_recovers_batches_all_or_nothing() {
    // Concurrent threads commit multi-op batches, then the store is killed
    // at *every sampled byte offset* of the log (a crash can tear the file
    // anywhere). Recovery must never resurrect part of a batch: for every
    // (thread, batch), either all of its operations are visible or none —
    // and each thread's surviving batches form a prefix of its
    // acknowledged sequence.
    const THREADS: u64 = 3;
    const BATCHES: u64 = 40;
    const OPS_PER_BATCH: u64 = 5;
    fn bkey(t: u64, b: u64, j: u64) -> [u8; 24] {
        let mut k = [0u8; 24];
        k[..8].copy_from_slice(&t.to_be_bytes());
        k[8..16].copy_from_slice(&b.to_be_bytes());
        k[16..].copy_from_slice(&j.to_be_bytes());
        k
    }
    fn batch_opts(env: Arc<dyn Env>) -> FloDbOptions {
        let mut opts = wal_opts(env, false);
        // No background flushes: the log stays the only durable state, so
        // the cut sweep below only has to replicate the log file.
        opts.persist_enabled = false;
        opts
    }
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = Arc::new(FloDb::open(batch_opts(Arc::clone(&env))).unwrap());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut batch = WriteBatch::new();
                for b in 0..BATCHES {
                    for j in 0..OPS_PER_BATCH {
                        batch.put(&bkey(t, b, j), &b.to_le_bytes());
                    }
                    db.write(&batch).unwrap();
                    batch.clear();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Crash without flushing.
    }

    let log_name = env
        .list()
        .unwrap()
        .into_iter()
        .find(|n| n.ends_with(".log"))
        .expect("the workload must leave a log");
    let file = env.open_random(&log_name).unwrap();
    let bytes = file.read_at(0, file.len() as usize).unwrap();

    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(257).collect();
    cuts.push(bytes.len()); // The clean-shutdown case: everything survives.
    for cut in cuts {
        let torn: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let mut f = torn.new_writable(&log_name).unwrap();
        f.append(&bytes[..cut]).unwrap();
        f.finish().unwrap();
        let db = FloDb::open(batch_opts(Arc::clone(&torn))).unwrap();
        for t in 0..THREADS {
            let mut lost_from = None;
            for b in 0..BATCHES {
                let present = (0..OPS_PER_BATCH)
                    .filter(|&j| db.get(&bkey(t, b, j)).is_some())
                    .count() as u64;
                assert!(
                    present == 0 || present == OPS_PER_BATCH,
                    "cut {cut}: thread {t} batch {b} recovered \
                     {present}/{OPS_PER_BATCH} ops — a torn batch"
                );
                if present == 0 {
                    lost_from.get_or_insert(b);
                } else {
                    assert_eq!(
                        lost_from, None,
                        "cut {cut}: thread {t} batch {b} survived although \
                         an earlier acknowledged batch was lost"
                    );
                }
            }
            if cut == bytes.len() {
                assert_eq!(
                    lost_from, None,
                    "untruncated log must recover every batch (thread {t})"
                );
            }
        }
    }
}

#[test]
fn sharded_kill_at_any_offset_recovers_whole_sub_batch_prefixes() {
    // The sharded router splits every batch into per-shard sub-batches,
    // each committed as one annotated frame in that shard's WAL. Kill the
    // store, then tear *each shard's log* at every sampled byte offset:
    // the torn shard must recover a whole-sub-batch prefix of the batches
    // routed to it — never part of a sub-batch — while intact shards keep
    // everything. (Cross-shard, a strict subset of a batch's shards
    // surviving is the documented relaxed contract.)
    use flodb::{ShardedFloDb, ShardedOptions};
    const SHARDS: u32 = 3;
    const BATCHES: u64 = 30;
    const OPS_PER_BATCH: u64 = 6;
    fn bkey(b: u64, j: u64) -> [u8; 16] {
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&b.to_be_bytes());
        k[8..].copy_from_slice(&j.to_be_bytes());
        k
    }
    fn sharded_opts(env: Arc<dyn Env>) -> ShardedOptions {
        let mut base = wal_opts(env, false);
        // No background flushes: the logs stay the only durable state, so
        // the sweep below only has to replicate log files.
        base.persist_enabled = false;
        ShardedOptions::new(SHARDS, base)
    }

    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let partitioner;
    {
        let db = ShardedFloDb::open(sharded_opts(Arc::clone(&env))).unwrap();
        partitioner = *db.partitioner();
        let mut batch = WriteBatch::new();
        for b in 0..BATCHES {
            for j in 0..OPS_PER_BATCH {
                batch.put(&bkey(b, j), &b.to_le_bytes());
            }
            db.write(&batch).unwrap();
            batch.clear();
        }
        // Crash without quiescing.
    }

    // Snapshot every file (SHARDING record, per-shard dirs and logs).
    let names = env.list().unwrap();
    let files: Vec<(String, Vec<u8>)> = names
        .into_iter()
        .map(|n| {
            let f = env.open_random(&n).unwrap();
            let bytes = f.read_at(0, f.len() as usize).unwrap();
            (n, bytes)
        })
        .collect();
    let logs: Vec<&(String, Vec<u8>)> =
        files.iter().filter(|(n, _)| n.ends_with(".log")).collect();
    assert_eq!(logs.len(), SHARDS as usize, "one live log per shard");

    // Which sub-batches does each shard hold, and how large is each?
    let routed = |shard: u32, b: u64| -> Vec<[u8; 16]> {
        (0..OPS_PER_BATCH)
            .map(|j| bkey(b, j))
            .filter(|k| partitioner.shard_of(k) == shard)
            .collect()
    };
    for s in 0..SHARDS {
        // Sanity: the sweep exercises each shard against many sub-batches
        // (a batch with no key for a shard writes nothing there, which the
        // prefix check below skips).
        let sub_batches = (0..BATCHES).filter(|&b| !routed(s, b).is_empty()).count();
        assert!(sub_batches >= 20, "shard {s} only saw {sub_batches} sub-batches");
    }

    for (torn_log, torn_bytes) in &logs {
        let torn_shard: u32 = torn_log
            .strip_prefix("shard-")
            .and_then(|r| r.split('/').next())
            .and_then(|d| d.parse().ok())
            .expect("log lives in a shard-NN/ dir");
        let mut cuts: Vec<usize> = (0..torn_bytes.len()).step_by(257).collect();
        cuts.push(torn_bytes.len());
        for cut in cuts {
            let copy: Arc<dyn Env> = Arc::new(MemEnv::new(None));
            for (name, bytes) in &files {
                let data = if name == torn_log { &bytes[..cut] } else { &bytes[..] };
                let mut f = copy.new_writable(name).unwrap();
                f.append(data).unwrap();
                f.finish().unwrap();
            }
            let db = ShardedFloDb::open(sharded_opts(Arc::clone(&copy))).unwrap();
            for s in 0..SHARDS {
                let mut lost_from = None;
                for b in 0..BATCHES {
                    let keys = routed(s, b);
                    if keys.is_empty() {
                        continue; // This batch wrote nothing to shard `s`.
                    }
                    let present = keys.iter().filter(|k| db.get(*k).is_some()).count();
                    assert!(
                        present == 0 || present == keys.len(),
                        "{torn_log} cut {cut}: shard {s} batch {b} recovered \
                         {present}/{} ops — a torn sub-batch",
                        keys.len()
                    );
                    if present == 0 {
                        lost_from.get_or_insert(b);
                    } else {
                        assert_eq!(
                            lost_from, None,
                            "{torn_log} cut {cut}: shard {s} batch {b} survived \
                             although an earlier sub-batch was lost"
                        );
                    }
                }
                if s != torn_shard || cut == torn_bytes.len() {
                    assert_eq!(
                        lost_from, None,
                        "{torn_log} cut {cut}: intact shard {s} lost sub-batches"
                    );
                }
            }
        }
    }
}

#[test]
fn pre_segment_header_logs_recover_on_upgrade() {
    // A store written before WAL segment headers existed left headerless
    // logs (named by sequence number). Opening it with the lifecycle
    // subsystem must recover them as legacy segments, then migrate: the
    // recovered state flushes, the legacy files are pruned, and a fresh
    // headered generation above the legacy numbering takes over.
    use flodb::storage::wal::group_frame;
    use flodb::storage::{frame, Record};
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        // The legacy format byte for byte: frames from offset 0, no header.
        let records: Vec<Record> = (0..50u64)
            .map(|i| Record::put(key(i).as_slice(), i + 1, i.to_le_bytes().as_slice()))
            .collect();
        let mut log = group_frame(&records);
        frame::seal(&mut log);
        let mut file = env.new_writable("000117.log").unwrap();
        file.append(&log).unwrap();
        file.finish().unwrap();
    }
    let db = FloDb::open(wal_opts(Arc::clone(&env), false)).unwrap();
    for i in 0..50u64 {
        assert_eq!(db.get(&key(i)), Some(i.to_le_bytes().to_vec()), "key {i}");
    }
    db.put(&key(100), b"post-upgrade").unwrap();
    drop(db);
    assert!(!env.exists("000117.log"), "legacy log must be pruned");
    let db = FloDb::open(wal_opts(env, false)).unwrap();
    assert_eq!(db.get(&key(100)).as_deref(), Some(b"post-upgrade".as_slice()));
    assert_eq!(db.get(&key(7)), Some(7u64.to_le_bytes().to_vec()));
}

#[test]
fn wal_disabled_loses_the_memory_component() {
    // Without a WAL (the benchmark configuration, matching the paper's
    // setup), a crash loses whatever was still in memory.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let mut opts = FloDbOptions::small_for_tests();
    opts.env = Arc::clone(&env);
    {
        let db = FloDb::open(opts.clone()).unwrap();
        db.put(b"only-in-memory", b"gone").unwrap();
    }
    let db = FloDb::open(opts).unwrap();
    assert_eq!(db.get(b"only-in-memory"), None, "unlogged write must vanish");
}
