//! Property-based crash-recovery test: any sequence of acknowledged
//! operations, interrupted by crashes at arbitrary points, is fully
//! reconstructed by WAL + manifest recovery.

use std::collections::BTreeMap;
use std::sync::Arc;

use flodb::storage::{Env, MemEnv};
use flodb::{FloDb, FloDbOptions, KvStore, WalMode};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    Put(u8, u8),
    Delete(u8),
    /// Push the memory component to disk (exercises manifest recovery).
    Flush,
    /// That many ≈ 1 KiB puts on keys of their own: enough volume to trip
    /// the Memtable's size trigger, so the persist thread flushes (and
    /// the log rotates and retires) on its own schedule, with whatever
    /// `Put`s came before still wherever the drain left them.
    Fill(u8),
    /// Drop the store and reopen it (simulated crash + recovery).
    Crash,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Step::Put(k, v)),
        2 => any::<u8>().prop_map(Step::Delete),
        1 => Just(Step::Flush),
        1 => (200..255u8).prop_map(Step::Fill),
        2 => Just(Step::Crash),
    ]
}

fn key(k: u8) -> [u8; 8] {
    (u64::from(k) << 32 | 0xAB).to_be_bytes()
}

/// Filler keys: disjoint from every [`key`] (low byte 0xCD) and sorted
/// among them, so a scan of the whole range sees both.
fn filler_key(n: u8) -> [u8; 8] {
    (u64::from(n) << 32 | 0xCD).to_be_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn acknowledged_writes_survive_crashes(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let opts = || {
            let mut o = FloDbOptions::small_for_tests();
            o.env = Arc::clone(&env);
            o.wal = WalMode::Enabled { sync: false };
            // A `Fill` is a few segments' worth.
            o.wal_segment_max_bytes = 64 * 1024;
            o
        };
        let mut db = Some(FloDb::open(opts()).unwrap());
        let mut model: BTreeMap<[u8; 8], Vec<u8>> = BTreeMap::new();
        for step in &steps {
            match *step {
                Step::Put(k, v) => {
                    db.as_ref().unwrap().put(&key(k), &[v]).unwrap();
                    model.insert(key(k), vec![v]);
                }
                Step::Delete(k) => {
                    db.as_ref().unwrap().delete(&key(k)).unwrap();
                    model.remove(&key(k));
                }
                Step::Flush => db.as_ref().unwrap().flush_all(),
                Step::Fill(n) => {
                    for i in 0..n {
                        let value = vec![i ^ n; 1024];
                        db.as_ref().unwrap().put(&filler_key(i), &value).unwrap();
                        model.insert(filler_key(i), value);
                    }
                }
                Step::Crash => {
                    drop(db.take());
                    db = Some(FloDb::open(opts()).unwrap());
                }
            }
        }
        // One final crash, then verify everything.
        drop(db.take());
        let db = FloDb::open(opts()).unwrap();
        for k in (0..=255u8).flat_map(|k| [key(k), filler_key(k)]) {
            prop_assert_eq!(
                db.get(&k),
                model.get(&k).cloned(),
                "key {:?} diverged after recovery",
                k
            );
        }
        // Scans see the recovered state too.
        let all = db.scan(&key(0), &filler_key(255));
        let want: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .map(|(k, v)| (k.to_vec(), v.clone()))
            .collect();
        prop_assert_eq!(all, want);
    }
}
