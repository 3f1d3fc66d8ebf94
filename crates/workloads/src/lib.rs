//! Workload generation and measurement for the FloDB evaluation (§5).
//!
//! Reproduces the paper's experimental methodology:
//!
//! - **Key distributions** ([`keys`]): uniform random keys over a dataset,
//!   the hot-set skew of §5.4 ("2% of the dataset is accessed by 98% of
//!   operations"), and a YCSB-style zipfian.
//! - **Operation mixes** ([`mix`]): read-only, write-only (50% inserts /
//!   50% deletes), balanced mixed (50/25/25), one-writer-many-readers, and
//!   scan-write mixes with configurable scan ratio and range (§5.2).
//! - **The driver** ([`driver`]): N threads issuing operations drawn from
//!   the mix "continually", measuring operation and key throughput and
//!   (optionally) per-operation latency percentiles, LevelDB
//!   `db_bench`-style.
//! - **Database initialization** ([`init`]): random-order fill of half the
//!   dataset for mixed workloads, sequential fill for read-only (§5.2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod init;
pub mod keys;
pub mod mix;

pub use driver::{run_workload, RunReport, WorkloadConfig};
pub use init::build_flodb_store;
pub use keys::KeyDistribution;
pub use mix::{OpKind, OperationMix};
