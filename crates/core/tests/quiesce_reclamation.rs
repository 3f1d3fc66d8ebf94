//! Regression test for `quiesce()` settling epoch reclamation.
//!
//! `quiesce()` pumps the epoch collector until the deferred and executed
//! destruction counters converge (best-effort, within a bounded wait) —
//! the background drain threads keep pinning on their idle beat, so a
//! fixed number of pump rounds is not enough and quiesce must retry until
//! the counters converge. This lives in its own integration-test binary
//! (its own process) because the reclamation counters are process-global
//! and sibling tests would otherwise race them.

use std::sync::Arc;

use flodb_core::{FloDb, FloDbOptions, FloDbStats, KvStore};

#[test]
fn reclamation_converges_right_after_quiesce() {
    let db = Arc::new(FloDb::open(FloDbOptions::small_for_tests()).unwrap());

    // Writers churn replace+delete on a small overlapping key range so the
    // memory component retires plenty of nodes through the epoch collector.
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..5_000u64 {
                let key = (i % 512).to_be_bytes();
                if (i + t) % 7 == 0 {
                    db.delete(&key).unwrap();
                } else {
                    db.put(&key, &i.to_be_bytes()).unwrap();
                }
                if i % 97 == 0 {
                    let _ = db.get(&key);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // quiesce() settles reclamation best-effort within a bounded wait (an
    // overloaded scheduler can deschedule a drain thread past its budget),
    // so poll it rather than assuming a single call converges.
    let mut rec = FloDbStats::reclamation();
    for _ in 0..100 {
        db.quiesce();
        rec = FloDbStats::reclamation();
        if rec.destructions_executed == rec.destructions_deferred {
            break;
        }
    }
    assert!(rec.destructions_deferred > 0, "churn must retire nodes");
    assert_eq!(
        rec.destructions_executed, rec.destructions_deferred,
        "reclamation must converge at quiescence"
    );
}
