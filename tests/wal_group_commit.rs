//! Group-commit WAL integration tests: concurrent writers must lose and
//! reorder nothing, and a store killed mid-workload under group commit
//! must recover exactly the acknowledged writes — the state a sequential
//! replay of each writer's operations produces.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use flodb::storage::{wal, Env, MemEnv, Record};
use flodb::{FloDb, FloDbOptions, KvStore, WalMode, WriteBatch};

fn wal_opts(env: Arc<dyn Env>) -> FloDbOptions {
    let mut opts = FloDbOptions::small_for_tests();
    opts.env = env;
    opts.wal = WalMode::Enabled { sync: false };
    opts
}

/// Replays every log segment in `env`, in generation order.
fn replay_all(env: &dyn Env) -> Vec<Record> {
    let mut logs: Vec<(u64, String)> = env
        .list()
        .unwrap()
        .into_iter()
        .filter_map(|n| wal::parse_wal_name(&n).map(|generation| (generation, n)))
        .collect();
    logs.sort();
    let mut records = Vec::new();
    for (generation, log) in logs {
        records.extend(wal::replay_segment(env, &log, generation).unwrap().records);
    }
    records
}

fn key(thread: u64, i: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&thread.to_be_bytes());
    k[8..].copy_from_slice(&i.to_be_bytes());
    k
}

/// Walks the raw bytes of every log in `env` and returns the number of
/// records inside each intact frame, in log order.
fn records_per_frame(env: &dyn Env) -> Vec<usize> {
    let mut logs: Vec<String> = env
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".log"))
        .collect();
    logs.sort();
    let mut frames = Vec::new();
    for log in logs {
        let file = env.open_random(&log).unwrap();
        let data = file.read_at(0, file.len() as usize).unwrap();
        // Frames start after the generation-numbered segment header.
        let mut pos = wal::SEGMENT_HEADER_BYTES;
        while pos + 8 <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            assert!(pos + 8 + len <= data.len(), "torn frame in a clean log");
            let payload = &data[pos + 8..pos + 8 + len];
            let mut p = 0usize;
            let mut records = 0usize;
            while p < payload.len() {
                Record::decode_from(payload, &mut p).unwrap();
                records += 1;
            }
            frames.push(records);
            pos += 8 + len;
        }
    }
    frames
}

#[test]
fn write_batch_emits_exactly_one_group_frame() {
    // The atomicity contract rests on this: recovery truncates at frame
    // granularity, so an N-op batch is all-or-nothing exactly when it
    // occupies one frame.
    const OPS: usize = 23;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env))).unwrap();
        let mut batch = WriteBatch::new();
        for i in 0..OPS as u64 - 1 {
            batch.put(&key(0, i), &i.to_le_bytes());
        }
        batch.delete(&key(0, 0));
        db.write(&batch).unwrap();
        let stats = db.stats();
        assert_eq!(stats.wal_groups, 1);
        assert_eq!(stats.wal_group_records, OPS as u64);
        // Crash without flushing so the log survives inspection.
    }
    assert_eq!(
        records_per_frame(env.as_ref()),
        vec![OPS],
        "an {OPS}-op batch must land as one frame holding all its records"
    );
}

#[test]
fn single_writer_one_record_frames_replay() {
    // A lone writer never finds a group to join, so every put commits as
    // its own one-record frame — byte for byte what the retired per-put
    // pipeline wrote for every put. Such logs must keep replaying, and a
    // store reopened on one must keep appending to the same history.
    const PUTS: u64 = 100;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = FloDb::open(wal_opts(Arc::clone(&env))).unwrap();
        for i in 0..PUTS {
            db.put(&key(0, i), b"alone").unwrap();
        }
        db.delete(&key(0, 3)).unwrap();
    }
    assert_eq!(
        records_per_frame(env.as_ref()),
        vec![1; PUTS as usize + 1],
        "every record must sit in its own frame"
    );

    let db = FloDb::open(wal_opts(Arc::clone(&env))).unwrap();
    assert_eq!(db.get(&key(0, 3)), None);
    assert_eq!(db.get(&key(0, 42)).as_deref(), Some(b"alone".as_slice()));
    db.put(&key(0, 200), b"later").unwrap();
    drop(db);
    let db = FloDb::open(wal_opts(env)).unwrap();
    assert_eq!(db.get(&key(0, 42)).as_deref(), Some(b"alone".as_slice()));
    assert_eq!(db.get(&key(0, 200)).as_deref(), Some(b"later".as_slice()));
}

#[test]
fn concurrent_group_commit_loses_and_reorders_nothing() {
    const THREADS: u64 = 8;
    const OPS: u64 = 400;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    // Room for every write without a Memtable switch: a switch retires the
    // log segments its flush covers, and this test reads the log itself.
    let mut opts = wal_opts(Arc::clone(&env));
    opts.memory_bytes = 4 << 20;
    let db = Arc::new(FloDb::open(opts).unwrap());
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..OPS {
                db.put(&key(t, i), &i.to_le_bytes()).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Every write went through the group committer, and leader + follower
    // acks account for every record.
    let stats = db.stats();
    assert_eq!(stats.wal_group_records, THREADS * OPS);
    assert!(stats.wal_groups >= 1);
    assert!(stats.wal_groups <= THREADS * OPS);
    let followers = db
        .flodb_stats()
        .wal_follower_writes
        .load(Ordering::Relaxed);
    assert_eq!(stats.wal_groups + followers, THREADS * OPS);

    drop(db); // Crash: no flush, the logs are the only durable state.

    let records = replay_all(env.as_ref());
    assert_eq!(records.len(), (THREADS * OPS) as usize, "no lost records");

    // A log record's order is its position: the sequence field only tells
    // a data record (0) from an annotation, so there is no number to
    // compare — what "nothing reordered" means is each writer's program
    // order, below.
    assert!(records.iter().all(|r| r.seq == 0));

    // Per-thread program order is preserved, and nothing is duplicated.
    for t in 0..THREADS {
        let mine: Vec<u64> = records
            .iter()
            .filter(|r| r.key[..8] == t.to_be_bytes())
            .map(|r| u64::from_be_bytes(r.key[8..].try_into().unwrap()))
            .collect();
        let expected: Vec<u64> = (0..OPS).collect();
        assert_eq!(mine, expected, "thread {t} lost or reordered writes");
    }
}

#[test]
fn group_commit_recovery_matches_a_sequential_oracle() {
    // A deterministic concurrent workload of writes, overwrites and
    // tombstones, crashed and recovered. Threads own disjoint key ranges
    // and each thread's acks are sequential, so the only legal recovered
    // state is the one replaying every thread's operations in program
    // order produces — whatever groups the committer happened to form.
    const THREADS: u64 = 4;
    const OPS: u64 = 300;
    // Thread `t`'s operations, in program order; `None` is a delete.
    fn ops_of(t: u64) -> impl Iterator<Item = ([u8; 16], Option<[u8; 8]>)> {
        (0..OPS).flat_map(move |i| {
            let put = (key(t, i % 64), Some((t * OPS + i).to_le_bytes()));
            let delete = (i % 5 == 0).then(|| (key(t, (i + 1) % 64), None));
            std::iter::once(put).chain(delete)
        })
    }
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = Arc::new(FloDb::open(wal_opts(Arc::clone(&env))).unwrap());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for (key, value) in ops_of(t) {
                    match value {
                        Some(value) => db.put(&key, &value).unwrap(),
                        None => db.delete(&key).unwrap(),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Crash without quiescing.
    }
    let mut oracle = std::collections::BTreeMap::new();
    for (key, value) in (0..THREADS).flat_map(ops_of) {
        match value {
            Some(value) => oracle.insert(key.to_vec(), value.to_vec()),
            None => oracle.remove(key.as_slice()),
        };
    }
    assert!(!oracle.is_empty());
    let db = FloDb::open(wal_opts(env)).unwrap();
    assert_eq!(
        db.scan(&key(0, 0), &key(THREADS, 0)),
        oracle.into_iter().collect::<Vec<_>>(),
        "group-commit recovery diverged from the sequential oracle"
    );
}

#[test]
fn overlapping_writers_recover_a_last_write_and_respect_acknowledged_order() {
    // What concurrent writers to the *same* keys are promised across a
    // crash. (1) For each key the recovered value is the last acknowledged
    // write of *some* writer to it — never an earlier one, never a blend:
    // the last record for a key in the log is necessarily its writer's
    // last. (2) Whenever one write was acknowledged before another was
    // issued, the later one wins. Which of two truly concurrent last
    // writes wins is not promised to match what a reader saw before the
    // crash (ROADMAP item 1, the form still open).
    const THREADS: u64 = 4;
    const OPS: u64 = 2_000;
    const KEYS: u64 = 48;
    // Writer `t`'s `i`-th racing put: the key sets overlap, on purpose.
    fn racing_key(t: u64, i: u64) -> u64 {
        (i * (2 * t + 1) + t) % KEYS
    }
    let opts = |env: &Arc<dyn Env>| {
        let mut opts = wal_opts(Arc::clone(env));
        // Switches — roll, flush, retirement — run under the race.
        opts.wal_segment_max_bytes = 8 * 1024;
        opts
    };
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    {
        let db = Arc::new(FloDb::open(opts(&env)).unwrap());
        let race = |db: &Arc<FloDb>, body: fn(&FloDb, u64)| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let db = Arc::clone(db);
                    std::thread::spawn(move || body(&db, t))
                })
                .collect();
            handles.into_iter().for_each(|h| h.join().unwrap());
        };
        race(&db, |db, t| {
            for i in 0..OPS {
                db.put(&key(0, racing_key(t, i)), &key(t, i)).unwrap();
            }
        });
        // Every racing put is acknowledged; now each writer overwrites the
        // keys congruent to it mod 8 (half the keys stay as the race left
        // them), still side by side with the others.
        race(&db, |db, t| {
            for k in (t..KEYS).step_by(8) {
                db.put(&key(0, k), &key(t, OPS + k)).unwrap();
            }
        });
        // Crash without quiescing.
    }
    let db = FloDb::open(opts(&env)).unwrap();
    for k in 0..KEYS {
        let got = db.get(&key(0, k)).unwrap_or_else(|| panic!("key {k} lost"));
        if k % 8 < THREADS {
            assert_eq!(got, key(k % 8, OPS + k), "key {k}: the later write lost");
        } else {
            let last_writes: Vec<[u8; 16]> = (0..THREADS)
                .filter_map(|t| {
                    let i = (0..OPS).rev().find(|&i| racing_key(t, i) == k)?;
                    Some(key(t, i))
                })
                .collect();
            assert!(
                last_writes.iter().any(|w| got == *w),
                "key {k} recovered {got:?}: not the last write of any writer"
            );
        }
    }
}

#[test]
fn killed_mid_workload_recovers_every_acknowledged_write() {
    const THREADS: u64 = 4;
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let stop = Arc::new(AtomicBool::new(false));
    // Writers record what was acknowledged; the store is then dropped
    // mid-workload (drop joins in-flight operations, so this models a
    // crash immediately after the last ack).
    let acked: Vec<_> = {
        let db = Arc::new(FloDb::open(wal_opts(Arc::clone(&env))).unwrap());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut acked = Vec::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    db.put(&key(t, i), &i.to_le_bytes()).unwrap();
                    acked.push(i);
                    i += 1;
                }
                acked
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
        stop.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    let db = FloDb::open(wal_opts(env)).unwrap();
    let mut total = 0u64;
    for (t, thread_acks) in acked.iter().enumerate() {
        for &i in thread_acks {
            assert_eq!(
                db.get(&key(t as u64, i)),
                Some(i.to_le_bytes().to_vec()),
                "acknowledged write (thread {t}, op {i}) lost in recovery"
            );
            total += 1;
        }
    }
    assert!(total > 0, "workload must have acknowledged something");
}
