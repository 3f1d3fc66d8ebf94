//! Criterion micro-benchmarks: single-threaded put/get across all five
//! stores, showing the per-operation cost differences that aggregate into
//! the paper's throughput figures — and what a master scan costs FloDB
//! when there is nothing to drain.

use std::ops::ControlFlow;

use criterion::{criterion_group, criterion_main, Criterion};
use flodb_bench::{make_env, make_store, Scale, ALL_SYSTEMS};
use flodb_core::{FloDb, FloDbOptions, KvStore};

fn store_put_get(c: &mut Criterion) {
    let scale = Scale::from_env();
    for kind in ALL_SYSTEMS {
        let mut group = c.benchmark_group(kind.name().replace('/', "_"));
        group.sample_size(20);
        let store = make_store(kind, 8 * 1024 * 1024, make_env(&scale, false));
        for i in 0..10_000u64 {
            store.put(&i.to_be_bytes(), &[0x42; 64]).unwrap();
        }
        let mut i = 0u64;
        group.bench_function("put", |b| {
            b.iter(|| {
                i = (i + 1) % 10_000;
                store.put(&i.to_be_bytes(), &[0x43; 64]).unwrap();
            })
        });
        let mut j = 0u64;
        group.bench_function("get", |b| {
            b.iter(|| {
                j = (j + 1) % 10_000;
                store.get(&j.to_be_bytes())
            })
        });
        group.finish();
        // Drop the store (joins its background threads) before the next.
        drop(store);
    }
}

/// The fixed cost of FloDB's scan on a store shaped like the one in
/// `benchmark/` (32 MiB memory component, so an 8192-bucket Membuffer):
/// flushed and idle, one scanner, every scan a master scan that freezes an
/// *empty* Membuffer. `scan100_idle` then iterates 100 keys off disk;
/// `freeze_empty_membuffer` scans a range that holds no key, leaving the
/// freeze alone.
fn flodb_idle_scans(c: &mut Criterion) {
    const KEYS: u64 = 100_000;
    let mut opts = FloDbOptions::default_in_memory();
    opts.memory_bytes = 32 * 1024 * 1024;
    let store = FloDb::open(opts).expect("flodb open");
    for i in 0..KEYS {
        store.put(&(2 * i).to_be_bytes(), &[0x42; 256]).unwrap();
    }
    store.flush_all();
    store.quiesce();

    let mut group = c.benchmark_group("flodb_idle");
    let count_range = |low: u64, high: u64| {
        let mut n = 0u32;
        store.scan_with(&low.to_be_bytes(), &high.to_be_bytes(), &mut |_, _| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    };
    // Opens every table once, so the cells time scans, not cache fills.
    assert_eq!(u64::from(count_range(0, 2 * KEYS)), KEYS);
    let mut lo = 0u64;
    group.bench_function("scan100_idle", |b| {
        b.iter(|| {
            lo = (lo + 7919) % (KEYS - 100);
            assert_eq!(count_range(2 * lo, 2 * lo + 198), 100);
        })
    });
    group.bench_function("freeze_empty_membuffer", |b| {
        b.iter(|| assert_eq!(count_range(2 * KEYS, 2 * KEYS + 198), 0))
    });
    group.finish();
}

criterion_group!(benches, store_put_get, flodb_idle_scans);
criterion_main!(benches);
