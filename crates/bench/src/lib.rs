//! Benchmark harness regenerating every figure of the FloDB evaluation.
//!
//! Each figure of §5 (and the latency motivation figures of §2.3) has a
//! `[[bench]]` target with `harness = false` whose `main` reruns the
//! experiment at a container-feasible scale and prints the same rows or
//! series the paper reports. `cargo bench --workspace` therefore
//! regenerates the entire evaluation; individual figures run with
//! `cargo bench -p flodb-bench --bench fig09_write_only`.
//!
//! Scaling: the paper's testbed (20-core Xeon, 256 GB RAM, 960 GB SSD,
//! 300 GB dataset) is mapped down via [`scale::Scale`]; every knob can be
//! raised through `FLODB_BENCH_*` environment variables for larger runs.
//! Absolute numbers differ from the paper (different hardware, simulated
//! disk); the *shape* — who wins, by roughly what factor, where crossovers
//! fall — is what the printed tables are for.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod runner;
pub mod scale;
pub mod systems;
pub mod table;

pub use runner::{init_store, run_cell, thread_sweep_figure, InitKind};
pub use scale::Scale;
pub use systems::{make_env, make_rocksdb_with_memtable, make_store, SystemKind, ALL_SYSTEMS};
pub use table::Table;
