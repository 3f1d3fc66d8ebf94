//! Concurrency stress tests: FloDB's headline property is that reads,
//! writes and scans all proceed in parallel (§3) while scans stay
//! serializable. These tests hammer that claim from many threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use flodb::{FloDb, FloDbOptions, KvStore, WalMode};

fn key(n: u64) -> [u8; 8] {
    n.to_be_bytes()
}

fn db() -> Arc<FloDb> {
    Arc::new(FloDb::open(FloDbOptions::small_for_tests()).unwrap())
}

/// A single writer sweeps keys 0..N in rounds; a serializable scan must
/// observe a *prefix* of that history: round numbers along the key axis
/// form a step function — some prefix of keys at round R, the rest at
/// R - 1. Anything else (a hole, a mix, an inversion) is a torn snapshot.
#[test]
fn scans_see_prefix_consistent_snapshots() {
    const KEYS: u64 = 64;
    let db = db();
    for i in 0..KEYS {
        db.put(&key(i), &0u64.to_le_bytes()).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut round = 1u64;
            while !stop.load(Ordering::Relaxed) {
                for i in 0..KEYS {
                    db.put(&key(i), &round.to_le_bytes()).unwrap();
                }
                round += 1;
            }
        })
    };

    let mut scanners = Vec::new();
    for _ in 0..3 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        scanners.push(std::thread::spawn(move || {
            let mut checked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let out = db.scan(&key(0), &key(KEYS - 1));
                assert_eq!(out.len(), KEYS as usize, "keys must never vanish");
                let rounds: Vec<u64> = out
                    .iter()
                    .map(|(_, v)| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
                    .collect();
                let max = *rounds.iter().max().unwrap();
                let min = *rounds.iter().min().unwrap();
                assert!(
                    max - min <= 1,
                    "snapshot spans more than two rounds: min={min} max={max}"
                );
                // Step shape: once the value drops to min, it stays there.
                let mut dropped = false;
                for &r in &rounds {
                    if dropped {
                        assert_eq!(r, min, "torn snapshot: {rounds:?}");
                    } else if r == min && max != min {
                        dropped = true;
                    }
                }
                checked += 1;
            }
            checked
        }));
    }

    std::thread::sleep(Duration::from_secs(2));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let total: u64 = scanners.into_iter().map(|s| s.join().unwrap()).sum();
    assert!(total > 0, "scanners must have made progress");
}

/// Concurrent writers on overlapping keys: the final value of every key
/// must be one that some writer actually wrote (no corruption, no
/// interleaving of value bytes).
#[test]
fn racing_writers_never_corrupt_values() {
    const KEYS: u64 = 32;
    const WRITERS: u64 = 8;
    let db = db();
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            // Every writer writes its own tag into every key, many times.
            let tag = [w as u8; 16];
            for _ in 0..2000 {
                for i in 0..KEYS {
                    db.put(&key(i), &tag).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for i in 0..KEYS {
        let v = db.get(&key(i)).expect("key vanished");
        assert_eq!(v.len(), 16);
        assert!(
            v.iter().all(|&b| b == v[0]) && u64::from(v[0]) < WRITERS,
            "value bytes interleaved: {v:?}"
        );
    }
}

/// Deletes racing with scans: a key is either fully present or fully
/// absent in a snapshot; counts per snapshot must be even (writer flips
/// pairs atomically from its own perspective — pairs are written
/// back-to-back, so at most one boundary pair may be split; allow it).
#[test]
fn deletes_racing_with_scans_keep_snapshots_sane() {
    const PAIRS: u64 = 32;
    let db = db();
    let stop = Arc::new(AtomicBool::new(false));
    // Writer alternates: insert all pairs, delete all pairs.
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for i in 0..PAIRS {
                    db.put(&key(2 * i), b"pair").unwrap();
                    db.put(&key(2 * i + 1), b"pair").unwrap();
                }
                for i in 0..PAIRS {
                    db.delete(&key(2 * i)).unwrap();
                    db.delete(&key(2 * i + 1)).unwrap();
                }
            }
        })
    };
    let mut ok_scans = 0u64;
    for _ in 0..50 {
        let out = db.scan(&key(0), &key(2 * PAIRS - 1));
        // Every returned entry must carry the exact value written.
        for (_, v) in &out {
            assert_eq!(v.as_slice(), b"pair");
        }
        ok_scans += 1;
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    assert_eq!(ok_scans, 50);
}

/// Readers racing with writers always see either the old or the new value
/// of a key mid-overwrite — never a third state.
#[test]
fn gets_racing_with_overwrites_see_old_or_new() {
    let db = db();
    db.put(b"k", &0u64.to_le_bytes()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let latest = Arc::new(AtomicU64::new(0));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let latest = Arc::clone(&latest);
        std::thread::spawn(move || {
            let mut v = 0u64;
            while !stop.load(Ordering::Relaxed) {
                v += 1;
                db.put(b"k", &v.to_le_bytes()).unwrap();
                latest.store(v, Ordering::Release);
            }
        })
    };
    let mut readers = Vec::new();
    for _ in 0..4 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let latest = Arc::clone(&latest);
        readers.push(std::thread::spawn(move || {
            let mut last_seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let floor = latest.load(Ordering::Acquire);
                let v = u64::from_le_bytes(
                    db.get(b"k").expect("key vanished").as_slice().try_into().unwrap(),
                );
                // Freshness: at least as new as the last fully-acknowledged
                // write before the read started.
                assert!(v >= floor.saturating_sub(1), "stale read: {v} < {floor}");
                // Monotonic per reader (single key, in-place updates).
                assert!(v >= last_seen, "time went backwards: {v} < {last_seen}");
                last_seen = v;
            }
        }));
    }
    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

/// All operation kinds at once, across every system, as a crash-freedom
/// and sanity sweep.
#[test]
fn mixed_chaos_on_all_five_systems() {
    use flodb::baselines::{
        BaselineOptions, HyperLevelDbStore, LevelDbStore, RocksDbClsmStore, RocksDbStore,
    };
    let stores: Vec<Arc<dyn KvStore>> = vec![
        Arc::new(FloDb::open(FloDbOptions::small_for_tests()).unwrap()),
        Arc::new(LevelDbStore::open(BaselineOptions::small_for_tests())),
        Arc::new(HyperLevelDbStore::open(BaselineOptions::small_for_tests())),
        Arc::new(RocksDbStore::open(BaselineOptions::small_for_tests())),
        Arc::new(RocksDbClsmStore::open(BaselineOptions::small_for_tests())),
    ];
    for store in stores {
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = key((t * 7919 + i) % 512);
                    match i % 5 {
                        0 | 1 => store.put(&k, &i.to_le_bytes()).unwrap(),
                        2 => {
                            let _ = store.get(&k);
                        }
                        3 => store.delete(&k).unwrap(),
                        _ => {
                            let out = store.scan(&key(0), &key(64));
                            for w in out.windows(2) {
                                assert!(w[0].0 < w[1].0, "unsorted scan");
                            }
                        }
                    }
                    i += 1;
                }
                i
            }));
        }
        std::thread::sleep(Duration::from_millis(500));
        stop.store(true, Ordering::Relaxed);
        let ops: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(ops > 0, "{} made no progress", store.name());
        store.quiesce();
    }
}

/// Scans under write pressure finish in one pass: six writers rewrite
/// the scanned keys in place, and no scan restarts or falls back.
#[test]
fn scan_liveness_under_heavy_contention() {
    let db = db();
    for i in 0..128u64 {
        db.put(&key(i), b"x").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for _ in 0..6 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.put(&key(i % 128), &i.to_le_bytes()).unwrap();
                i += 1;
            }
        }));
    }
    // Many scans over the contended range; each must return.
    for _ in 0..100 {
        let out = db.scan(&key(0), &key(127));
        assert_eq!(out.len(), 128);
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    let stats = db.stats();
    assert_eq!(stats.scans, 100);
    assert_eq!((stats.scan_restarts, stats.fallback_scans), (0, 0));
}

/// The pauseWriters protocol: Memtable writers paused by a master scan's
/// freeze wait out its drain and then complete; nothing deadlocks.
#[test]
fn paused_writers_wait_out_scan_drains_without_deadlock() {
    let mut opts = FloDbOptions::small_for_tests();
    opts.drain_threads = 1;
    let db = Arc::new(FloDb::open(opts).unwrap());
    // Seed enough data that master drains are non-trivial.
    for i in 0..512u64 {
        db.put(&key(i), b"seed").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.put(&key(1000 + t * 100_000 + i), b"w").unwrap();
                i += 1;
            }
        }));
    }
    for _ in 0..30 {
        let _ = db.scan(&key(0), &key(511));
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // The protocol counters are internally consistent.
    let f = db.flodb_stats();
    let master = f.master_scans.load(Ordering::Relaxed);
    let piggy = f.piggyback_scans.load(Ordering::Relaxed);
    assert!(master >= 1);
    // Every scan entered once, as master or piggyback.
    assert_eq!(master + piggy, 30, "scan admission accounting broke");
}

/// Regression: master-scan freezes must never lose concurrent writes.
///
/// The frozen-view race this guards against: a freeze publishes the new
/// view (fresh Membuffer + frozen one) *before* its RCU grace period
/// elapses, while straggling writers — still inside pre-swap read
/// sections — may be adding to the frozen buffer. A drain claiming a
/// bucket in that window would drop a straggler's entry landing in it
/// with the buffer: an acknowledged write lost forever (the long-standing
/// message_queue backlog flake, when paused writers helped drain). The
/// freezer drains alone, and only once the grace period has elapsed; this
/// test hammers exactly that window with unique-key writers against
/// back-to-back linearizable scans (every scan a fresh freeze) and then
/// audits every acknowledged key.
#[test]
fn freezing_scans_never_lose_acknowledged_writes() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 30_000;
    let mut opts = FloDbOptions::small_for_tests();
    opts.memory_bytes = 8 * 1024 * 1024; // Keep the flush path quiet-ish.
    opts.linearizable_scans = true; // Every scan freezes and drains.
    let db = Arc::new(FloDb::open(opts).unwrap());
    let stop = Arc::new(AtomicBool::new(false));

    let scanner = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Narrow scans: cheap to collect, so freezes come rapid-fire.
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let lo = (n * 37) % (WRITERS * PER_WRITER);
                let _ = db.scan(&key(lo), &key(lo + 8));
                n += 1;
            }
            n
        })
    };

    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let db = Arc::clone(&db);
        writers.push(std::thread::spawn(move || {
            for i in 0..PER_WRITER {
                let k = w * PER_WRITER + i;
                db.put(&key(k), &k.to_le_bytes()).unwrap();
            }
        }));
    }
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let scans = scanner.join().unwrap();
    assert!(scans > 0, "the scanner must have exercised freezes");

    db.quiesce();
    for k_idx in 0..WRITERS * PER_WRITER {
        assert_eq!(
            db.get(&key(k_idx)),
            Some(k_idx.to_le_bytes().to_vec()),
            "acknowledged write {k_idx} was lost (after {scans} freezing scans)"
        );
    }
}

/// The recycled Membuffer under the same audit: a drained buffer comes
/// back to its freezer as sole owner and is installed again by the next
/// freeze, so ten thousand back-to-back linearizable scans freeze, drain
/// and re-install the same two buffers thousands of times while writers
/// keep overwriting a fixed key set. A second scanner runs wide scans,
/// each holding a view snapshot — and with it a reference to the
/// Membuffer of the moment — across its collection; the WAL is on with
/// a small log bound, so the persist thread's switches freeze *that*
/// buffer under the scanner (scans are serialized among themselves,
/// switches are not), which is exactly when it must not be recycled.
/// Every key must end at the last version its writer was acknowledged.
#[test]
fn recycled_membuffer_never_loses_acknowledged_writes() {
    const WRITERS: u64 = 2;
    const KEYS_PER_WRITER: u64 = 1_000;
    const FREEZES: u64 = 10_000;
    let mut opts = FloDbOptions::small_for_tests();
    opts.memory_bytes = 8 * 1024 * 1024; // Keep the flush path quiet-ish.
    opts.linearizable_scans = true; // Every scan freezes and drains.
    opts.wal = WalMode::Enabled { sync: false }; // Rotation => checkpoints.
    let db = Arc::new(FloDb::open(opts).unwrap());
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Returns the last fully acknowledged round.
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    for i in 0..KEYS_PER_WRITER {
                        db.put(&key(w * KEYS_PER_WRITER + i), &round.to_le_bytes())
                            .unwrap();
                    }
                }
                round
            })
        })
        .collect();
    let long_scanner = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let out = db.scan(&key(0), &key(WRITERS * KEYS_PER_WRITER));
                assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "unsorted scan");
            }
        })
    };

    // Narrow scans: cheap to collect, so freezes come rapid-fire.
    for n in 0..FREEZES {
        let lo = (n * 37) % (WRITERS * KEYS_PER_WRITER);
        let _ = db.scan(&key(lo), &key(lo + 8));
    }
    stop.store(true, Ordering::Relaxed);
    let rounds: Vec<u64> = writers.into_iter().map(|h| h.join().unwrap()).collect();
    long_scanner.join().unwrap();

    let recycles = db.flodb_stats().membuffer_recycles.load(Ordering::Relaxed);
    assert!(
        recycles >= FREEZES / 10,
        "only {recycles} of {FREEZES}+ freezes recycled their Membuffer: \
         the path under test was barely exercised"
    );
    db.quiesce();
    for (w, round) in rounds.iter().enumerate() {
        assert!(*round >= 1);
        for i in 0..KEYS_PER_WRITER {
            let k = w as u64 * KEYS_PER_WRITER + i;
            assert_eq!(
                db.get(&key(k)),
                Some(round.to_le_bytes().to_vec()),
                "acknowledged write {k} (round {round}) was lost after {recycles} recycles"
            );
        }
    }
}
