//! WAL failure propagation: a failed append must reject the write (and
//! every write after it) instead of panicking mid-pipeline or — worse —
//! acknowledging a write the log lost.
//!
//! Faults come from the shared [`FaultEnv`] (armed at the
//! `"segment-append"` trip point), so these tests exercise the same
//! injection layer as the whole-store fault sweep.

use std::sync::Arc;

use flodb_core::{FloDb, FloDbOptions, KvStore, WalMode, WriteBatch, WriteError};
use flodb_storage::env::{Env, MemEnv};
use flodb_storage::{FaultEnv, FaultKind, FaultPlan};

fn fault_env() -> Arc<FaultEnv> {
    Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))))
}

fn opts(env: Arc<dyn Env>) -> FloDbOptions {
    let mut opts = FloDbOptions::small_for_tests();
    opts.env = env;
    opts.wal = WalMode::Enabled { sync: false };
    // Keep the disk component off the failing env's append path as long
    // as possible: no eager flush happens in these short tests.
    opts.persist_enabled = false;
    opts
}

#[test]
fn wal_failure_rejects_write_and_poisons_store() {
    let env = fault_env();
    let db = FloDb::open(opts(Arc::clone(&env) as Arc<dyn Env>)).unwrap();
    db.put(b"good", b"1").unwrap();

    // Log dies now: every segment append from here on fails.
    env.arm(FaultPlan::persistent("segment-append", FaultKind::Io));
    let err = db.put(b"lost", b"2").unwrap_err();
    assert!(
        matches!(err, WriteError::Wal(_)),
        "first failure must surface as Wal, got {err:?}"
    );
    // The failed write was never applied — acknowledged state only.
    assert_eq!(db.get(b"lost"), None);

    // Poisoned: later writes are rejected without touching the log,
    // carrying the original failure.
    let err = db.put(b"after", b"3").unwrap_err();
    assert!(matches!(err, WriteError::Poisoned(_)), "got {err:?}");
    let err = db.delete(b"good").unwrap_err();
    assert!(matches!(err, WriteError::Poisoned(_)), "got {err:?}");
    assert!(db.wal_poison().is_some());
    assert!(db.wal_poison().unwrap().to_string().contains("injected"));
    assert!(env.injected("segment-append") >= 1, "the fault really fired");

    // Reads and scans keep serving the acknowledged prefix.
    assert_eq!(db.get(b"good"), Some(b"1".to_vec()));
    assert_eq!(db.scan(b"a", b"z").len(), 1);
}

#[test]
fn failed_batch_applies_none_of_its_operations() {
    let env = fault_env();
    let db = FloDb::open(opts(Arc::clone(&env) as Arc<dyn Env>)).unwrap();
    db.put(b"keep", b"1").unwrap();

    // Log dies now.
    env.arm(FaultPlan::persistent("segment-append", FaultKind::Io));
    let mut batch = WriteBatch::new();
    batch.put(b"a", b"1").put(b"b", b"2").delete(b"keep");
    let err = db.write(&batch).unwrap_err();
    assert!(
        matches!(err, WriteError::Wal(_)),
        "batch failure must surface as Wal, got {err:?}"
    );
    // None of the batch's operations were applied: `Err` means the
    // whole batch was rejected, not a prefix of it.
    assert_eq!(db.get(b"a"), None);
    assert_eq!(db.get(b"b"), None);
    assert_eq!(db.get(b"keep"), Some(b"1".to_vec()));
    // And the store is poisoned for subsequent batches too — even an
    // empty one must not read as a healthy write path.
    let err = db.write(&batch).unwrap_err();
    assert!(matches!(err, WriteError::Poisoned(_)), "got {err:?}");
    let err = db.write(&WriteBatch::new()).unwrap_err();
    assert!(matches!(err, WriteError::Poisoned(_)), "empty batch: {err:?}");
    assert_eq!(db.stats().puts, 1, "failed batch must not count");
}

#[test]
fn acknowledged_prefix_survives_recovery_after_failure() {
    let env = fault_env();
    let env_dyn: Arc<dyn Env> = Arc::clone(&env) as Arc<dyn Env>;
    {
        let db = FloDb::open(opts(Arc::clone(&env_dyn))).unwrap();
        for i in 0..50u64 {
            db.put(&i.to_be_bytes(), b"acked").unwrap();
        }
        env.arm(FaultPlan::persistent("segment-append", FaultKind::Io));
        assert!(db.put(b"never", b"acked").is_err());
        // Crash while poisoned.
    }
    env.disarm_all(); // The disk heals on restart.
    let db = FloDb::open(opts(env_dyn)).unwrap();
    for i in 0..50u64 {
        assert_eq!(db.get(&i.to_be_bytes()), Some(b"acked".to_vec()), "key {i}");
    }
    assert_eq!(db.get(b"never"), None, "unacknowledged write must not replay");
}
