//! Single-threaded put/get cost across all five stores, showing the
//! per-operation differences that aggregate into the paper's throughput
//! figures.
//!
//! This is the one comparison `benchmark/` cannot express (it links only
//! the FloDB engine, never the baselines). Every single-system cell lives
//! there as a named probe instead — `membuffer.*`, `memtable.*`,
//! `core.put_*_ns`, and the idle-store scan as `scan_p50_us` in the
//! `read_disk` tails — so a cell is measured in exactly one place.

use std::hint::black_box;
use std::time::{Duration, Instant};

use flodb_bench::{make_env, make_store, Scale, Table, ALL_SYSTEMS};

const KEYS: u64 = 10_000;

/// Mean nanoseconds per call of `op` (handed the next key of the cycle),
/// over `cell_time` of calls.
fn ns_per_op(cell_time: Duration, mut op: impl FnMut(&[u8; 8])) -> f64 {
    let (mut ops, start) = (0u64, Instant::now());
    loop {
        for _ in 0..256 {
            ops += 1;
            op(&(ops % KEYS).to_be_bytes());
        }
        let elapsed = start.elapsed();
        if elapsed >= cell_time {
            return elapsed.as_nanos() as f64 / ops as f64;
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let mut table = Table::new(&["system", "put ns/op", "get ns/op"]);
    for kind in ALL_SYSTEMS {
        let store = make_store(kind, 8 * 1024 * 1024, make_env(&scale, false));
        for i in 0..KEYS {
            store.put(&i.to_be_bytes(), &[0x42; 64]).unwrap();
        }
        let put = ns_per_op(scale.cell_time, |key| store.put(key, &[0x43; 64]).unwrap());
        let get = ns_per_op(scale.cell_time, |key| {
            black_box(store.get(black_box(key)));
        });
        table.row(vec![kind.name().to_string(), format!("{put:.0}"), format!("{get:.0}")]);
        // The store drops here (joining its background threads) before
        // the next one opens.
    }
    table.print("Single-threaded put/get over 10 000 keys, 64 B values (ns/op)");
}
