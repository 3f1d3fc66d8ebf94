//! End-to-end fault sweep: every registered trip point of the
//! fault-injection env, exercised against a live store.
//!
//! The sweep enumerates [`FaultEnv::trip_points`] at runtime — a trip
//! point added to the registry without a survivable store behavior shows
//! up here as a failure, not as a silent coverage gap. For every site the
//! contract is the same:
//!
//! - an injected failure surfaces as a **typed error** (`OpenError` /
//!   `WriteError`) or a **documented degradation** — never a panic;
//! - `quiesce()` returns (no wedged background thread);
//! - every **acknowledged** write stays readable while the store is up;
//! - after the environment heals, a reopen recovers every acknowledged
//!   write — the reopen-heals contract of ARCHITECTURE.md "Failure
//!   model".
//!
//! Dedicated cells cover the fault *kinds* (ENOSPC, transient-then-
//! recover, short write), a sharded store with one degraded shard, and a
//! crash-after-fault combination (injected torn append + torn live
//! tail).

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use flodb::storage::env::crash_image;
use flodb::storage::{Env, FaultEnv, FaultKind, FaultPlan, MemEnv, StorageError};
use flodb::{
    FloDb, FloDbOptions, KvStore, ShardedFloDb, ShardedOptions, WalMode, WriteError,
};

const SEED_KEYS: u64 = 400;
const SESSION_KEYS: u64 = 4000;
const VALUE_LEN: usize = 40;

fn key(n: u64) -> [u8; 8] {
    n.to_be_bytes()
}

fn value(n: u64) -> [u8; VALUE_LEN] {
    [n as u8; VALUE_LEN]
}

/// Small segments so a sweep session drives rotation, retirement,
/// flushes, and compaction — the activity the deeper trip points
/// (tables, manifest edits, segment deletion) need to fire.
fn opts(env: Arc<dyn Env>) -> FloDbOptions {
    let mut opts = FloDbOptions::small_for_tests();
    opts.env = env;
    opts.wal = WalMode::Enabled { sync: false };
    opts.wal_segment_max_bytes = 8 * 1024;
    opts
}

/// Runs `f` on its own thread and fails the test if it neither finishes
/// nor panics within the deadline — a wedged `quiesce()` or a deadlocked
/// background thread must show up as a failure, not a test-runner hang.
fn with_watchdog(label: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(label.to_string())
        .spawn(move || {
            f();
            let _ = tx.send(());
        })
        .unwrap();
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => handle.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The cell panicked: propagate its message.
            handle.join().unwrap();
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: wedged — no completion within 120s");
        }
    }
}

/// Opens a store on `env`, writes the seed keys, settles, and closes —
/// the on-disk state every armed cell starts from (manifest, tables,
/// and a live WAL generation all exist).
fn seed_store(env: &Arc<dyn Env>) {
    let db = FloDb::open(opts(Arc::clone(env))).unwrap();
    for n in 0..SEED_KEYS {
        db.put(&key(n), &value(n)).unwrap();
    }
    db.quiesce();
}

/// One sweep cell: a persistent I/O fault at `site`, from a seeded
/// store, through reopen, a write session, shutdown, heal, and recovery.
fn sweep_site(site: &'static str) {
    let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
    let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
    seed_store(&env);
    fault.arm(FaultPlan::persistent(site, FaultKind::Io));

    // Keys acknowledged while the fault was armed (on top of the seed).
    let mut acked = 0u64;
    match FloDb::open(opts(Arc::clone(&env))) {
        Err(e) => {
            // A fault during open must surface as a typed error carrying
            // the injected failure — never a panic, never a half-open
            // store.
            let msg = e.to_string();
            assert!(msg.contains("injected fault"), "{site}: foreign open error: {msg}");
        }
        Ok(db) => {
            let mut rejected = false;
            // The seed keys again, with their own values, then fresh ones:
            // the session's first tables overlap the seed's, so compaction
            // merges (and deletes) tables instead of only moving them —
            // every switch flushes a log prefix, and tables of sequential
            // keys alone never overlap.
            for n in (0..SEED_KEYS).chain(SEED_KEYS..SEED_KEYS + SESSION_KEYS) {
                match db.put(&key(n), &value(n)) {
                    Ok(()) if n >= SEED_KEYS => acked += 1,
                    Ok(()) => {}
                    Err(e) => {
                        assert!(
                            matches!(e, WriteError::Wal(_) | WriteError::Poisoned(_)),
                            "{site}: untyped write failure: {e:?}"
                        );
                        rejected = true;
                        break;
                    }
                }
            }
            // Whatever the fault broke, every acknowledged write must
            // stay readable on the live handle (reads are served from
            // resident state; degradation never unmaps them).
            for n in 0..SEED_KEYS + acked {
                assert!(db.get(&key(n)).is_some(), "{site}: acked key {n} unreadable");
            }
            if rejected {
                // Rejection is a latch, not a flake: the next write is
                // rejected too (typed), without touching the log.
                assert!(db.put(b"again", b"x").is_err(), "{site}: rejection not sticky");
            }
            db.quiesce(); // Must return — the cell runs under a watchdog.
            drop(db); // Must join background threads without hanging.
        }
    }
    assert!(
        fault.injected(site) > 0,
        "{site}: the armed fault never fired — dead trip point?"
    );

    // The environment heals; reopen must succeed and recover every
    // acknowledged write (seed + armed session).
    fault.disarm_all();
    let db = FloDb::open(opts(Arc::clone(&env)))
        .unwrap_or_else(|e| panic!("{site}: reopen after heal failed: {e}"));
    for n in 0..SEED_KEYS + acked {
        assert_eq!(
            db.get(&key(n)).as_deref(),
            Some(&value(n)[..]),
            "{site}: acknowledged key {n} lost"
        );
    }
    db.quiesce();
}

#[test]
fn every_trip_point_is_survivable() {
    for &site in FaultEnv::trip_points() {
        if site.starts_with("sharding-") {
            // The sharding record is only written on the *first* open of
            // a sharded root; those sites get their own cell below.
            continue;
        }
        with_watchdog(site, move || sweep_site(site));
    }
}

#[test]
fn sharding_trip_points_fail_open_typed_and_heal() {
    for site in ["sharding-create", "sharding-append", "sharding-sync"] {
        with_watchdog(site, move || {
            let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
            let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
            fault.arm(FaultPlan::persistent(site, FaultKind::Io));
            let err = ShardedFloDb::open(ShardedOptions::new(2, opts(Arc::clone(&env))))
                .unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{site}: {err}");
            assert!(fault.injected(site) > 0, "{site}: never fired");

            // The failed creation left no torn record behind: after the
            // environment heals, the same open succeeds from scratch.
            fault.disarm_all();
            let db = ShardedFloDb::open(ShardedOptions::new(2, opts(Arc::clone(&env))))
                .unwrap_or_else(|e| panic!("{site}: reopen after heal failed: {e}"));
            db.put(b"k", b"v").unwrap();
            assert_eq!(db.get(b"k"), Some(b"v".to_vec()));
            db.quiesce();
        });
    }
}

#[test]
fn enospc_surfaces_with_the_storage_full_kind() {
    let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
    let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
    let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
    db.put(b"before", b"1").unwrap();

    fault.arm(FaultPlan::persistent("segment-append", FaultKind::Enospc));
    let err = db.put(b"full", b"2").unwrap_err();
    let WriteError::Wal(e) = err else {
        panic!("first ENOSPC must surface as Wal, got {err:?}");
    };
    assert!(
        matches!(
            &*e,
            StorageError::Io(io) if io.kind() == std::io::ErrorKind::StorageFull
        ),
        "the ErrorKind must survive the trip through the store: {e:?}"
    );
    assert_eq!(db.get(b"before"), Some(b"1".to_vec()));
}

#[test]
fn transient_fault_is_retried_and_recovers_without_degrading() {
    with_watchdog("transient-table-create", || {
        let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
        let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
        let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
        // Fail the next two table creations: within the persist thread's
        // retry budget, so the flush must succeed on a later attempt.
        fault.arm(FaultPlan::transient("table-create", 0, FaultKind::Io, 2));

        let mut next = 0u64;
        while db.stats().persists == 0 {
            db.put(&key(next), &value(next)).unwrap();
            next += 1;
            assert!(next < 200_000, "no flush after {next} writes");
        }
        db.quiesce();

        let stats = db.stats();
        assert!(stats.io_retries >= 2, "retries must be counted: {stats:?}");
        assert_eq!(stats.io_degraded, 0, "a recovered fault must not degrade");
        assert!(!db.is_degraded());
        assert_eq!(fault.injected("table-create"), 2);
        db.put(b"still-writable", b"yes").unwrap();
        for n in 0..next {
            assert!(db.get(&key(n)).is_some(), "key {n}");
        }
    });
}

#[test]
fn short_write_tears_the_frame_and_recovery_drops_it() {
    let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
    let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
    {
        let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
        for n in 0..50 {
            db.put(&key(n), &value(n)).unwrap();
        }
        // The next segment append lands only half its bytes — a torn
        // frame is now physically in the live log.
        fault.arm(FaultPlan::transient("segment-append", 0, FaultKind::ShortWrite, 1));
        let err = db.put(b"torn", &[0xAB; 64]).unwrap_err();
        assert!(matches!(err, WriteError::Wal(_)), "got {err:?}");
        assert_eq!(fault.injected("segment-append"), 1);
        // Crash while poisoned (drop without quiesce).
    }
    fault.disarm_all();
    // Recovery must CRC-drop the torn frame: the unacknowledged write is
    // gone, every acknowledged one is intact, and the open is clean.
    let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
    assert_eq!(db.get(b"torn"), None, "a torn, unacknowledged frame replayed");
    for n in 0..50 {
        assert_eq!(db.get(&key(n)).as_deref(), Some(&value(n)[..]), "key {n}");
    }
}

#[test]
fn one_degraded_shard_leaves_its_siblings_untouched() {
    with_watchdog("sharded-degrade", || {
        const SHARDS: u32 = 4;
        let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
        let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
        let db = ShardedFloDb::open(ShardedOptions::new(SHARDS, opts(Arc::clone(&env))))
            .unwrap();
        let part = *db.partitioner();
        let target = 1u32; // The shard we will degrade.

        // Seed every shard, then settle so no background work is pending
        // anywhere when the fault arms.
        let mut acked: Vec<u64> = Vec::new();
        for n in 0..SEED_KEYS {
            db.put(&key(n), &value(n)).unwrap();
            acked.push(n);
        }
        db.quiesce();

        // From here on every table creation fails — but only the target
        // shard receives traffic, so only *its* persist thread can hit
        // the fault.
        fault.arm(FaultPlan::persistent("table-create", FaultKind::Io));
        let mut n = SEED_KEYS;
        while db.degraded_shards().is_empty() {
            if part.shard_of(&key(n)) == target {
                match db.put(&key(n), &value(n)) {
                    Ok(()) => acked.push(n),
                    Err(e) => {
                        assert!(matches!(e, WriteError::Poisoned(_)), "got {e:?}");
                        break;
                    }
                }
            }
            n += 1;
            assert!(n < 1_000_000, "target shard never degraded");
        }
        assert_eq!(db.degraded_shards(), vec![target], "exactly one shard degrades");

        // Failure isolation: sibling shards keep accepting writes...
        let mut sibling = SEED_KEYS + SESSION_KEYS;
        for _ in 0..20 {
            while part.shard_of(&key(sibling)) == target {
                sibling += 1;
            }
            db.put(&key(sibling), &value(sibling)).unwrap();
            acked.push(sibling);
            sibling += 1;
        }
        // ...the degraded shard rejects its writes (typed, sticky)...
        let mut bad = SEED_KEYS + SESSION_KEYS;
        while part.shard_of(&key(bad)) != target {
            bad += 1;
        }
        assert!(matches!(
            db.put(&key(bad), b"x").unwrap_err(),
            WriteError::Poisoned(_)
        ));
        // ...and every acknowledged key stays readable, including the
        // degraded shard's (its resident state keeps serving).
        for &k in &acked {
            assert!(db.get(&key(k)).is_some(), "acked key {k} unreadable");
        }
        // A fanned-out scan still works across the degraded shard.
        let mut seen: HashSet<u64> = HashSet::new();
        for (k, _) in db.scan(&key(0), &key(u64::MAX)) {
            seen.insert(u64::from_be_bytes(k.as_slice().try_into().unwrap()));
        }
        for &k in &acked {
            assert!(seen.contains(&k), "acked key {k} missing from scan");
        }
        assert!(db.stats().io_degraded > 0, "degradation must be counted");

        db.quiesce(); // Degraded shard must not wedge the router's settle.
        drop(db);

        // Heal + reopen: the degraded shard's WAL was never retired, so
        // recovery replays everything it had only in memory.
        fault.disarm_all();
        let db = ShardedFloDb::open(ShardedOptions::new(SHARDS, opts(Arc::clone(&env))))
            .unwrap();
        assert!(db.degraded_shards().is_empty(), "reopen heals the latch");
        for &k in &acked {
            assert_eq!(db.get(&key(k)).as_deref(), Some(&value(k)[..]), "key {k} lost");
        }
        db.quiesce();
    });
}

#[test]
fn crash_after_injected_fault_still_recovers_a_clean_prefix() {
    // The combination: an injected torn append poisons the store, then
    // the process dies AND the live tail tears further (the crash image
    // truncates it mid-frame). Recovery must still produce a clean
    // prefix of the acknowledged writes — two independent tears must not
    // compound into corruption or replay of the unacknowledged write.
    let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
    let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
    let total = {
        let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
        for n in 0..300u64 {
            db.put(&key(n), &value(n)).unwrap();
        }
        fault.arm(FaultPlan::transient("segment-append", 0, FaultKind::ShortWrite, 1));
        assert!(db.put(b"poisoned", &[0xCD; 64]).is_err());
        300u64
        // Crash while poisoned.
    };
    fault.disarm_all();

    let live = {
        let mut logs: Vec<(String, u64)> = env
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".log"))
            .map(|n| {
                let len = env.open_random(&n).unwrap().len();
                (n, len)
            })
            .collect();
        logs.sort();
        logs.pop().unwrap() // Highest generation = the live tail.
    };
    for cut in [0usize, 17, 1024, live.1 as usize / 2, live.1 as usize] {
        let image: Arc<dyn Env> = Arc::new(crash_image(env.as_ref(), &live.0, cut).unwrap());
        let db = FloDb::open(opts(Arc::clone(&image)))
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        assert_eq!(db.get(b"poisoned"), None, "cut {cut}: unacked write replayed");
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
    }
}

#[test]
fn a_switch_whose_roll_fails_still_flushes_and_retires_nothing() {
    // The switch creates the next log segment before it rolls; with that
    // create failing, the switch still freeze-drains, switches and
    // flushes, but keeps every segment (nothing sealed, so nothing is
    // covered), counts the deferral in `io_retries`, and counts the log
    // bound from the failed attempt — not from the segment's start, which
    // would make every later check a switch of a near-empty table.
    with_watchdog("segment-create at a switch", || {
        let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
        let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
        let bound = opts(Arc::clone(&env)).wal_segment_max_bytes as u64;
        {
            let db = FloDb::open(opts(Arc::clone(&env))).unwrap();
            fault.arm(FaultPlan::persistent("segment-create", FaultKind::Io));
            for n in 0..SESSION_KEYS {
                db.put(&key(n), &value(n)).unwrap();
            }
            db.quiesce();
            let (stats, disk) = (db.stats(), db.disk_stats());
            let deferred = fault.injected("segment-create");
            assert!(deferred > 0, "no switch tried to roll: {stats:?}");
            assert!(disk.flushes >= deferred, "a switch skipped its flush: {disk:?}");
            assert_eq!(stats.wal_rotations, 0, "{stats:?}");
            assert_eq!(stats.wal_retired_bytes, 0, "a switch retired a live segment");
            assert!(stats.io_retries >= deferred, "{stats:?}");
            assert!(
                disk.flushes <= stats.wal_active_bytes / bound + 1,
                "a switch loop: {} flushes for {} logged bytes",
                disk.flushes,
                stats.wal_active_bytes
            );
            for n in 0..SESSION_KEYS {
                assert_eq!(db.get(&key(n)).as_deref(), Some(&value(n)[..]), "key {n}");
            }
        }
        fault.disarm_all();
        let db = FloDb::open(opts(env)).unwrap();
        for n in 0..SESSION_KEYS {
            assert_eq!(db.get(&key(n)).as_deref(), Some(&value(n)[..]), "key {n} lost");
        }
    });
}
