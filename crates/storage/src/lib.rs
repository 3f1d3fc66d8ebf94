//! LSM disk component substrate for the FloDB reproduction.
//!
//! FloDB keeps "the persisting and compaction mechanisms of LevelDB" (§4);
//! this crate is that substrate, built from scratch: sorted-string tables
//! (blocks, index, bloom filter), a write-ahead log, a leveled version set
//! with compaction, and a table (fd) cache in two flavors — the sharded
//! concurrent one FloDB substitutes in (§4, footnote 2) and the
//! global-lock one the baselines contend on.
//!
//! The disk itself is abstracted behind [`env::Env`], with two
//! implementations:
//!
//! - [`env::FsEnv`] — real files, for durability tests;
//! - [`env::MemEnv`] — an in-memory *simulated disk* with an optional
//!   token-bucket write throttle. The throttle reproduces the paper's
//!   experimental bottleneck: a persistence path bounded at a fixed byte
//!   rate (§5.2, "average persistence throughput" line in Figure 9),
//!   without needing the authors' SSD.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod bloom;
pub mod compaction;
pub mod disk;
pub mod env;
pub mod error;
pub mod fault;
pub mod frame;
pub mod log_manager;
pub mod manifest;
pub mod merge;
pub mod record;
pub mod sharding;
pub mod sstable;
pub mod table_cache;
pub mod version;
pub mod wal;

pub use disk::{DiskComponent, DiskOptions, DiskStats};
pub use env::{Env, FsEnv, MemEnv, PrefixEnv, ThrottleConfig};
pub use error::{Result, StorageError};
pub use fault::{FaultEnv, FaultKind, FaultPlan};
pub use log_manager::{LogConfig, LogManager, RecoveredWal};
pub use record::{Record, RecordRef};
pub use sharding::{read_sharding, shard_dir_name, write_sharding, ShardingSpec};
pub use wal::BatchAnnotation;
