//! Criterion micro-benchmark: single-threaded put/get across all five
//! stores, showing the per-operation cost differences that aggregate into
//! the paper's throughput figures.
//!
//! This is the one comparison `benchmark/` cannot express (it links only
//! the FloDB engine, never the baselines). Every single-system cell lives
//! there as a named probe instead — `membuffer.*`, `memtable.*`,
//! `core.put_*_ns`, and the idle-store scan as `scan_p50_us` in the
//! `read_disk` tails — so a cell is measured in exactly one place.

use criterion::{criterion_group, criterion_main, Criterion};
use flodb_bench::{make_env, make_store, Scale, ALL_SYSTEMS};

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

criterion_group!(benches, store_put_get);
criterion_main!(benches);
