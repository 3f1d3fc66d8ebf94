//! Ablation (§4.2): drain thread count.
//!
//! The paper requires "one or more dedicated background threads" for
//! draining. A drainer moves one 64-bucket chunk per multi-insert, so the
//! thread count is the one knob left; this bench measures it on the write
//! path (persistence disabled, Figure 17 style, so the drain is the only
//! bottleneck).

use std::sync::Arc;

use flodb_bench::table::mops;
use flodb_bench::{Scale, Table};
use flodb_core::{FloDb, FloDbOptions, KvStore};
use flodb_storage::MemEnv;
use flodb_workloads::keys::KeyDistribution;
use flodb_workloads::mix::OperationMix;

fn run(scale: &Scale, drain_threads: usize, writers: usize) -> f64 {
    let mut opts = FloDbOptions::default_in_memory();
    opts.memory_bytes = scale.memory_bytes;
    opts.env = Arc::new(MemEnv::new(None));
    opts.persist_enabled = false;
    opts.drain_threads = drain_threads;
    let store: Arc<dyn KvStore> = Arc::new(FloDb::open(opts).expect("flodb open"));
    let report = flodb_bench::run_cell(
        &store,
        writers,
        OperationMix::write_only(),
        KeyDistribution::Uniform { n: scale.dataset },
        scale,
        false,
    );
    report.ops_per_sec()
}

fn main() {
    let scale = Scale::from_env();
    let writers = scale.max_threads.min(4);

    let mut threads_table = Table::new(&["drain threads", "Mops/s"]);
    for drains in [1usize, 2, 4] {
        threads_table.row(vec![drains.to_string(), mops(run(&scale, drains, writers))]);
    }
    threads_table.print("Ablation: drain thread count (write-only, no persistence)");
}
