//! `flodb-core`: the store's own write, read, open, recovery, open-ended
//! scan and sharded paths, one thread, no contention.

use std::hint::black_box;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use flodb_core::{FloDb, FloDbOptions, KvStore, ShardedFloDb, ShardedOptions, WalMode, WriteBatch};
use flodb_storage::{Env, MemEnv};

use crate::util::{key, try_median_each, value, Probes, BATCHES, HEAVY_BATCHES};

/// The end-to-end store's memory component.
const MEMORY_BYTES: usize = 32 << 20;

fn options(env: Arc<dyn Env>, wal: bool) -> FloDbOptions {
    let mut o = FloDbOptions::default_in_memory();
    o.memory_bytes = MEMORY_BYTES;
    o.env = env;
    if wal {
        o.wal = WalMode::Enabled { sync: false };
    }
    o
}

fn open(o: FloDbOptions) -> Result<FloDb, String> {
    FloDb::open(o).map_err(|e| format!("FloDb::open: {e}"))
}

fn mem_env() -> Arc<dyn Env> {
    Arc::new(MemEnv::new(None))
}

/// `n` single puts over `key_space` keys; nanoseconds per put.
fn timed_puts(store: &dyn KvStore, n: u64, key_space: u64, probes: &Probes) -> Result<f64, String> {
    let mut rng = probes.rng(4);
    let v = value(1);
    let t0 = Instant::now();
    for _ in 0..n {
        store
            .put(&key(rng.below(key_space)), &v)
            .map_err(|e| format!("put: {e}"))?;
    }
    Ok(t0.elapsed().as_nanos() as f64 / n as f64)
}

pub fn run(probes: &mut Probes) -> Result<(), String> {
    let n = probes.n(40_000);
    let key_space = n;
    let opens = probes.n(20);

    let [mem_only, with_wal, batch64, mem_hit, sharded] = try_median_each(HEAVY_BATCHES, || {
        // The ROADMAP's unexplained WAL-off regression lives in this cell.
        let mut o = options(mem_env(), false);
        o.persist_enabled = false;
        let mem_only = timed_puts(&open(o)?, n, key_space, probes)?;

        let store = open(options(mem_env(), true))?;
        let with_wal = timed_puts(&store, n, key_space, probes)?;
        // Everything just written is still in the memory component.
        let mut rng = probes.rng(4);
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(store.get(&key(rng.below(key_space))));
        }
        let mem_hit = t0.elapsed().as_nanos() as f64 / n as f64;
        drop(store);

        let store = open(options(mem_env(), true))?;
        let v = value(2);
        let mut batch = WriteBatch::new();
        let t0 = Instant::now();
        for first in (0..n).step_by(64) {
            batch.clear();
            for i in first..(first + 64).min(n) {
                batch.put(&key(i), &v);
            }
            store.write(&batch).map_err(|e| format!("write: {e}"))?;
        }
        let batch64 = t0.elapsed().as_nanos() as f64 / n as f64;
        drop(store);

        // Four shards sharing the same total memory.
        let mut base = options(mem_env(), true);
        base.memory_bytes = MEMORY_BYTES / 4;
        let router = ShardedFloDb::open(ShardedOptions::new(4, base))
            .map_err(|e| format!("ShardedFloDb::open: {e}"))?;
        let sharded = timed_puts(&router, n, key_space, probes)?;
        Ok([mem_only, with_wal, batch64, mem_hit, sharded])
    })?;
    probes.put("core.put_mem_only_ns", mem_only);
    probes.put("core.put_wal_ns", with_wal);
    probes.put("core.batch64_ns_per_op", batch64);
    probes.put("core.get_mem_hit_ns", mem_hit);
    probes.put("core.sharded4_put_ns", sharded);

    let [open_empty] = try_median_each(BATCHES, || {
        let t0 = Instant::now();
        for _ in 0..opens {
            black_box(open(options(mem_env(), true))?);
        }
        Ok([t0.elapsed().as_secs_f64() * 1e3 / opens as f64])
    })?;
    probes.put("core.open_empty_ms", open_empty);

    // Recovery: 150 k puts (≈ 42 MB in one WAL segment), dropped unflushed,
    // then the open that has to replay them. Measured once: it runs for
    // most of a second, and every repeat would need the puts again.
    let logged = probes.n(150_000);
    let [recover] = try_median_each(1, || {
        let env = mem_env();
        timed_puts(
            &open(options(Arc::clone(&env), true))?,
            logged,
            logged,
            probes,
        )?;
        let t0 = Instant::now();
        black_box(open(options(env, true))?);
        Ok([t0.elapsed().as_secs_f64() * 1e3])
    })?;
    probes.put("core.recover_ms", recover);

    // An open-ended scan that stops after 100 entries still pays for the
    // whole range today (`scan_impl` materialises it before streaming).
    let loaded = probes.n(200_000);
    let store = open(options(mem_env(), true))?;
    let v = value(3);
    let mut batch = WriteBatch::new();
    for first in (0..loaded).step_by(64) {
        batch.clear();
        for i in first..(first + 64).min(loaded) {
            batch.put(&key(i), &v);
        }
        store.write(&batch).map_err(|e| format!("write: {e}"))?;
    }
    store.quiesce();
    let [scan_open] = try_median_each(HEAVY_BATCHES, || {
        let mut seen = 0;
        let t0 = Instant::now();
        store.scan_with(&key(loaded / 4), &[0xff; 8], &mut |_, _| {
            seen += 1;
            if seen == 100 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        if seen != 100 {
            return Err(format!("the open-ended scan saw {seen} entries, not 100"));
        }
        Ok([t0.elapsed().as_secs_f64() * 1e3])
    })?;
    probes.put("core.scan_open_break100_ms", scan_open);
    Ok(())
}
