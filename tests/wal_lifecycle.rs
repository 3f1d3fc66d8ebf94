//! WAL lifecycle integration tests: under sustained write traffic the
//! on-disk log must stay bounded (segments rotate and retire as
//! checkpoints cover them), while a kill at *any* point of the live tail
//! still recovers a whole-batch prefix of the acknowledged writes — the
//! retire-too-early failure mode (deleting a segment whose records were
//! not yet persisted) would break exactly this.

use std::sync::Arc;

use flodb::storage::env::crash_image;
use flodb::storage::{Env, FaultEnv, FaultKind, FaultPlan, MemEnv};
use flodb::{FloDb, FloDbOptions, KvStore, WalMode, WriteBatch};

const SEGMENT_MAX: usize = 16 * 1024;
const BATCH_OPS: u64 = 4;

fn key(n: u64) -> [u8; 8] {
    n.to_be_bytes()
}

fn opts(env: Arc<dyn Env>) -> FloDbOptions {
    let mut opts = FloDbOptions::small_for_tests();
    opts.env = env;
    opts.wal = WalMode::Enabled { sync: false };
    opts.wal_segment_max_bytes = SEGMENT_MAX;
    opts
}

fn wal_files(env: &dyn Env) -> Vec<(String, u64)> {
    env.list()
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".log"))
        .map(|n| {
            let len = env.open_random(&n).unwrap().len();
            (n, len)
        })
        .collect()
}

/// Drives batches through `db` until at least `rotations` segment rolls
/// happened; returns the number of keys written (all acknowledged).
fn write_until_rotations(db: &FloDb, rotations: u64) -> u64 {
    let mut batch = WriteBatch::new();
    let mut next = 0u64;
    // ~60 bytes per record: a 16 KiB segment rolls every ~270 records, so
    // the cap is far above what 5 rotations need.
    for _ in 0..40_000 {
        batch.clear();
        for _ in 0..BATCH_OPS {
            batch.put(&key(next), &[next as u8; 40]);
            next += 1;
        }
        db.write(&batch).unwrap();
        if db.stats().wal_rotations >= rotations {
            return next;
        }
    }
    panic!(
        "no {rotations} rotations after {next} keys (rotations: {})",
        db.stats().wal_rotations
    );
}

#[test]
fn sustained_writes_keep_the_log_bounded() {
    // Many short rounds, not one long one: `quiesce` must not return
    // between a switch's flush and its deletions being done and counted,
    // and that window is only microseconds wide.
    for _ in 0..50 {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
        let total = write_until_rotations(&db, 5);
        db.quiesce();

        let stats = db.stats();
        assert!(stats.wal_rotations >= 5);
        assert!(
            stats.wal_retired_bytes >= 5 * SEGMENT_MAX as u64,
            "five sealed segments must have retired, got {} bytes",
            stats.wal_retired_bytes
        );
        assert_eq!(
            stats.wal_generations, 1,
            "after quiesce only the active segment remains"
        );

        // The bounded-log criterion: total on-disk WAL bytes stay within
        // 2 × the segment threshold, no matter how much was written.
        let files = wal_files(env.as_ref());
        assert_eq!(files.len(), 1, "live segments: {files:?}");
        let on_disk: u64 = files.iter().map(|(_, len)| len).sum();
        assert!(
            on_disk <= 2 * SEGMENT_MAX as u64,
            "WAL grew unboundedly: {on_disk} bytes after {total} keys"
        );
        assert!(stats.wal_active_bytes <= 2 * SEGMENT_MAX as u64);

        // Retirement must not have cost a single acknowledged write.
        for n in 0..total {
            assert_eq!(db.get(&key(n)).as_deref(), Some(&[n as u8; 40][..]), "key {n}");
        }
    }
}

#[test]
fn kill_at_any_offset_recovers_an_acked_prefix_across_retirement() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let total = {
        let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
        let mut next = write_until_rotations(&db, 5);
        db.quiesce();
        // A tail the last switch provably does not cover:
        // these batches live only in the active WAL segment, so the
        // shortest crash image below must genuinely lose them (keeps the
        // sweep's tearing guard non-vacuous).
        let mut batch = WriteBatch::new();
        for _ in 0..8 {
            batch.clear();
            for _ in 0..BATCH_OPS {
                batch.put(&key(next), &[next as u8; 40]);
                next += 1;
            }
            db.write(&batch).unwrap();
        }
        next
        // Handle drop; the env snapshot below is the crash state.
    };

    // After quiesce the live WAL is one active segment; everything the
    // retired generations held is in SSTs via the switches' flushes.
    let files = wal_files(env.as_ref());
    assert_eq!(files.len(), 1);
    let (live, live_len) = files.into_iter().next().unwrap();

    // Kill the store with the live tail torn at sampled offsets (plus the
    // boundary cases 0 and full length) and recover each image.
    let mut cuts: Vec<usize> = (0..live_len as usize).step_by(509).collect();
    cuts.push(live_len as usize);
    let mut last_recovered = 0u64;
    let mut first_recovered = None;
    for cut in cuts {
        let image: Arc<dyn Env> = Arc::new(crash_image(env.as_ref(), &live, cut).unwrap());
        let db = FloDb::open(opts(Arc::clone(&image))).unwrap();
        // Recovered keys must be exactly {0..m}: batches are
        // all-or-nothing (m divisible by the batch size) and nothing
        // retired is ever missing while something newer survives.
        let mut m = 0u64;
        while m < total && db.get(&key(m)).is_some() {
            m += 1;
        }
        for n in m..total {
            assert_eq!(
                db.get(&key(n)),
                None,
                "cut {cut}: key {n} survived although key {m} was lost"
            );
        }
        assert_eq!(
            m % BATCH_OPS,
            0,
            "cut {cut}: a batch was recovered partially (prefix {m})"
        );
        assert!(
            m >= last_recovered,
            "cut {cut}: recovered prefix shrank from {last_recovered} to {m}"
        );
        last_recovered = m;
        first_recovered.get_or_insert(m);
        if cut == live_len as usize {
            assert_eq!(m, total, "the untorn image must recover every acked write");
        }
    }
    // The sweep must have exercised real tearing: the shortest image
    // (live segment cut to nothing) must lose the post-checkpoint tail,
    // or every assertion above was vacuous.
    assert!(
        first_recovered.unwrap() < total,
        "the sweep never actually tore anything"
    );
}

#[test]
fn retirement_io_errors_are_counted_and_leave_the_store_live() {
    // Segment deletion failing must not panic the persist thread, wedge
    // quiesce, or reject writes — it costs disk-footprint boundedness
    // only, and that loss must be *observable*: `wal_retire_errors`
    // counts it (the pre-existing silent "forgotten-but-live" hole).
    let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
    let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
    let total = {
        let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
        fault.arm(FaultPlan::persistent("retire-delete", FaultKind::Io));
        let total = write_until_rotations(&db, 5);
        db.quiesce();

        let stats = db.stats();
        assert!(
            stats.wal_retire_errors > 0,
            "failed deletions must be counted, not forgotten"
        );
        assert!(
            stats.io_retries > 0,
            "deletions must be retried before giving up"
        );
        assert!(fault.injected("retire-delete") > 0, "the fault really fired");
        assert!(!db.is_degraded(), "retirement failure must not latch writes shut");

        // The store stays fully live: writes and reads keep working.
        db.put(b"still-alive", b"yes").unwrap();
        assert_eq!(db.get(b"still-alive"), Some(b"yes".to_vec()));
        for n in 0..total {
            assert_eq!(db.get(&key(n)).as_deref(), Some(&[n as u8; 40][..]), "key {n}");
        }
        // Only boundedness degraded: the untracked segment files linger.
        assert!(
            wal_files(env.as_ref()).len() > 1,
            "failed deletions must leave the segment files on disk"
        );
        total
    };

    // The environment heals; reopen recovers everything acknowledged and
    // prunes the lingering files (they are stale relative to the
    // recorded oldest-live mark).
    fault.disarm_all();
    let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
    assert_eq!(db.get(b"still-alive"), Some(b"yes".to_vec()));
    for n in 0..total {
        assert_eq!(db.get(&key(n)).as_deref(), Some(&[n as u8; 40][..]), "key {n}");
    }
    assert_eq!(
        wal_files(env.as_ref()).len(),
        1,
        "reopen must prune the segments the failed deletions left behind"
    );
}

#[test]
fn rotated_log_survives_crash_and_reopen_prunes_generations() {
    // Crash (drop without quiesce) with several live generations: reopen
    // must replay them in order, then settle the state and leave exactly
    // one fresh generation behind.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let total = {
        let mut o = opts(Arc::clone(&env));
        // No retirement: persisting off keeps every generation live, so
        // recovery really crosses generation boundaries.
        o.persist_enabled = false;
        let db = FloDb::open(o).unwrap();
        let total = write_until_rotations(&db, 3);
        assert!(
            wal_files(env.as_ref()).len() >= 4,
            "three rotations must leave four live generations"
        );
        total
    };
    let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
    for n in 0..total {
        assert_eq!(db.get(&key(n)).as_deref(), Some(&[n as u8; 40][..]), "key {n}");
    }
    assert_eq!(
        wal_files(env.as_ref()).len(),
        1,
        "reopen must flush the recovered state and prune consumed generations"
    );
}
