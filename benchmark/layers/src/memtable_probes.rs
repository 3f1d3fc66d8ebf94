//! `flodb-memtable`: skiplist insert, multi-insert, lookup and iteration.

use flodb_memtable::{BatchEntry, SkipList};
use std::hint::black_box;

use crate::util::{absent_key, key, median_each, ns_per, value, Probes, HEAVY_BATCHES};

const DRAIN_BATCH: u64 = 256;
const SCAN_KEYS: u64 = 100;

pub fn run(probes: &mut Probes) {
    let n = probes.n(100_000);
    let lookups = probes.n(20_000);
    let batches = probes.n(64);
    let seeks = probes.n(2_000).min(n / SCAN_KEYS).max(1);
    let v = value(0);
    let mut rng = probes.rng(1);
    // A fixed shuffle of the even keys `0..2n`: inserts arrive unordered.
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let [insert, multi, hit, miss, iter] = median_each(HEAVY_BATCHES, || {
        let list = SkipList::new();
        let insert = ns_per(n, || {
            for (seq, &i) in order.iter().enumerate() {
                black_box(list.insert(&key(i), Some(&v), seq as u64 + 1));
            }
        });
        // 256-entry batches of fresh (odd) keys drawn uniformly from the
        // loaded range, like the entries of a drained Membuffer.
        let mut rng = rng.clone();
        let fresh: Vec<Vec<BatchEntry>> = (0..batches)
            .map(|b| {
                (0..DRAIN_BATCH)
                    .map(|j| BatchEntry {
                        key: Box::from(absent_key(rng.below(n))),
                        value: Some(Box::from(v)),
                        seq: n + b * DRAIN_BATCH + j + 1,
                    })
                    .collect()
            })
            .collect();
        let multi = ns_per(batches * DRAIN_BATCH, || {
            for batch in fresh {
                black_box(list.multi_insert(batch));
            }
        });
        let hit = ns_per(lookups, || {
            for j in 0..lookups {
                black_box(list.get(&key(order[(j % n) as usize])));
            }
        });
        let miss = ns_per(lookups, || {
            // One byte longer than a loaded key: sorts right after it, is
            // never inserted, and lies inside the list's key range.
            let mut longer = [1u8; 9];
            for j in 0..lookups {
                longer[..8].copy_from_slice(&key(order[(j % n) as usize]));
                black_box(list.get(&longer));
            }
        });
        let iter = ns_per(seeks * SCAN_KEYS, || {
            let mut it = list.iter();
            for j in 0..seeks {
                it.seek(&key(order[(j % n) as usize] % (n - SCAN_KEYS + 1).max(1)));
                for _ in 0..SCAN_KEYS {
                    if !it.valid() {
                        break;
                    }
                    black_box(it.key());
                    it.next();
                }
            }
        });
        [insert, multi, hit, miss, iter]
    });
    probes.put("memtable.insert_ns", insert);
    probes.put("memtable.multi_insert_ns_per_entry", multi);
    probes.put("memtable.get_hit_ns", hit);
    probes.put("memtable.get_miss_ns", miss);
    probes.put("memtable.iter_ns_per_entry", iter);
}
