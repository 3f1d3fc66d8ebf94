//! End-to-end epoch-reclamation stress through the real FloDB layers.
//!
//! The shim-level stress test (`third_party/crossbeam-epoch/tests/`)
//! proves the collector itself frees retired garbage; this test proves the
//! *consumers* retire correctly: Membuffer in-place updates and drain
//! removals, and skiplist in-place value replacements, all under
//! contention with readers holding guards, must leave zero unreclaimed
//! garbage at quiescence.
//!
//! This file deliberately contains a single `#[test]`: the reclamation
//! counters are process-global, and an integration-test binary is its own
//! process, so the deferred == executed equality cannot race with
//! unrelated tests.
//!
//! The counters come from the offline crossbeam-epoch shim's `shim_stats`
//! module (through `FloDbStats::reclamation()`); the real crate has no
//! such hook, which is what README "Swap-back procedure" step 2 is about.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use flodb::membuffer::{MemBuffer, MemBufferConfig};
use flodb::memtable::SkipList;
use flodb::{FloDb, FloDbOptions, FloDbStats, KvStore};

fn k(n: u64) -> [u8; 8] {
    n.to_be_bytes()
}

/// Pumps `pin()` + `flush()` rounds until the process-global deferred and
/// executed destruction counters converge (each round seals this thread's
/// bag and can walk the epoch one step past its own pin).
fn pump_to_convergence() -> flodb::ReclamationStats {
    for _ in 0..256 {
        let stats = FloDbStats::reclamation();
        if stats.destructions_executed == stats.destructions_deferred {
            return stats;
        }
        let guard = crossbeam_epoch::pin();
        guard.flush();
        drop(guard);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    FloDbStats::reclamation()
}

/// Phase 1: raw skiplist — writer threads replace values of overlapping
/// keys in place (each replacement retires the displaced `VersionedValue`)
/// while readers `get` them under their own pins.
fn churn_skiplist() {
    let list = Arc::new(SkipList::new());
    let keys = 64u64;
    for key in 0..keys {
        list.insert(&k(key), Some(&0u64.to_be_bytes()), 1);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for key in 0..keys {
                        let v = list.get(&k(key)).expect("churned keys never vanish");
                        assert!(v.seq >= 1);
                    }
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let list = Arc::clone(&list);
            std::thread::spawn(move || {
                for round in 0..2000u64 {
                    let key = (w * 977 + round) % keys;
                    let seq = 2 + w * 2000 + round;
                    list.insert(&k(key), Some(&seq.to_be_bytes()), seq);
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().unwrap();
    }
}

/// Phase 2: raw Membuffer — writers update overlapping keys in place
/// (retiring the displaced `HtEntry`) and a drainer claims + removes
/// entries (retiring the removed `HtEntry`) while readers `get`.
fn churn_membuffer() {
    let buffer = Arc::new(MemBuffer::new(MemBufferConfig {
        partition_bits: 2,
        buckets_per_partition: 64,
    }));
    let keys = 128u64;
    for key in 0..keys {
        buffer.add(&k(key), Some(&0u64.to_be_bytes()));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let buffer = Arc::clone(&buffer);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for chunk in 0..buffer.total_buckets() {
                    let drained = buffer.claim_bucket(chunk);
                    let tokens: Vec<_> = drained.iter().map(|d| d.token).collect();
                    buffer.remove_drained(&tokens);
                }
            }
        })
    };
    let reader = {
        let buffer = Arc::clone(&buffer);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for key in 0..keys {
                    // Drains race with writers, so presence is optional; the
                    // read itself must never observe freed memory.
                    let _ = buffer.get(&k(key));
                }
            }
        })
    };
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let buffer = Arc::clone(&buffer);
            std::thread::spawn(move || {
                for round in 0..2000u64 {
                    let key = (w * 643 + round) % keys;
                    buffer.add(&k(key), Some(&round.to_be_bytes()));
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    drainer.join().unwrap();
    reader.join().unwrap();
}

/// Phase 3: the full store — concurrent puts/deletes over a small hot key
/// set force Membuffer in-place updates plus background drains into the
/// skiplist; `quiesce` then settles drains, persists, and reclamation.
fn churn_flodb() {
    let db = Arc::new(FloDb::open(FloDbOptions::small_for_tests()).unwrap());
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for round in 0..1500u64 {
                    let key = (w * 389 + round) % 64;
                    if round % 11 == 0 {
                        db.delete(&k(key)).unwrap();
                    } else {
                        db.put(&k(key), &round.to_le_bytes()).unwrap();
                    }
                    if round % 5 == 0 {
                        let _ = db.get(&k((key + 1) % 64));
                    }
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    db.quiesce();
}

#[test]
fn consumers_leave_no_unreclaimed_garbage() {
    let before = FloDbStats::reclamation();

    churn_skiplist();
    churn_membuffer();
    churn_flodb();

    let after = pump_to_convergence();
    let deferred = after.destructions_deferred - before.destructions_deferred;
    let executed = after.destructions_executed - before.destructions_executed;
    assert!(
        deferred > 1_000,
        "the churn must actually retire garbage (saw {deferred} deferrals)"
    );
    assert_eq!(
        executed, deferred,
        "all retired nodes must be freed at quiescence \
         (the pre-reclamation shim would report executed = 0)"
    );
    assert_eq!(
        after.destructions_executed, after.destructions_deferred,
        "process-global convergence"
    );
}
