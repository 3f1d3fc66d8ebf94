//! Ablation (§4, footnote 2): LevelDB's global-lock fd-cache (one cache
//! shard) vs. the sharded concurrent table cache FloDB substitutes in.
//!
//! The paper found the global lock on the file-descriptor cache to be "a
//! major scalability bottleneck" for reads; this bench isolates that one
//! change on an otherwise identical FloDB stack.

use std::sync::Arc;

use flodb_bench::table::mops;
use flodb_bench::{make_env, InitKind, Scale, Table};
use flodb_core::{FloDb, FloDbOptions, KvStore};
use flodb_workloads::keys::KeyDistribution;
use flodb_workloads::mix::OperationMix;

fn build(scale: &Scale, cache_shards: usize) -> Arc<dyn KvStore> {
    let mut opts = FloDbOptions::default_in_memory();
    opts.memory_bytes = scale.memory_bytes;
    opts.env = make_env(scale, false);
    opts.disk.cache_shards = cache_shards;
    // A small cache forces open/evict traffic through the cache lock.
    opts.disk.cache_capacity = 32;
    Arc::new(FloDb::open(opts).expect("flodb open"))
}

fn main() {
    let scale = Scale::from_env();
    let keys = KeyDistribution::Uniform { n: scale.dataset };
    let mut table = Table::new(&["threads", "1 shard (global lock)", "16 shards", "speedup"]);
    for threads in scale.thread_sweep() {
        let mut cells = Vec::new();
        for cache_shards in [1, 16] {
            let store = build(&scale, cache_shards);
            flodb_bench::init_store(&store, InitKind::SequentialHalf, &scale);
            let report = flodb_bench::run_cell(
                &store,
                threads,
                OperationMix::read_only(),
                keys,
                &scale,
                false,
            );
            cells.push(report.ops_per_sec());
        }
        table.row(vec![
            threads.to_string(),
            mops(cells[0]),
            mops(cells[1]),
            format!("{:.2}x", cells[1] / cells[0].max(1.0)),
        ]);
    }
    table.print("Ablation: global-lock vs sharded table cache, read-only (Mops/s)");
}
