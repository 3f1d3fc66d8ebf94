//! FloDB: a two-tier LSM memory component with concurrent reads, writes
//! and scans.
//!
//! This crate is the paper's primary contribution (*FloDB: Unlocking Memory
//! in Persistent Key-Value Stores*, EuroSys 2017): a log-structured-merge
//! key-value store whose memory component has **two levels** —
//!
//! - the **Membuffer**, a small, fast, partitioned concurrent hash table
//!   ([`flodb_membuffer::MemBuffer`]) that absorbs writes at hash-table
//!   latency regardless of memory-component size, and
//! - the **Memtable**, a large, sorted, lock-free skiplist
//!   ([`flodb_memtable::SkipList`]) that background *drain* threads fill
//!   using the skiplist multi-insert, and from which a *persist* thread
//!   flushes immutable snapshots to the LevelDB-style disk component
//!   ([`flodb_storage::DiskComponent`]).
//!
//! The user-facing operations follow the paper's Algorithms 2 and 3: `get`
//! walks MBF → IMM_MBF → MTB → IMM_MTB → disk; `put`/`delete` complete in
//! the Membuffer when its bucket has room and fall through to the Memtable
//! otherwise; `scan` drains the Membuffer (master scan), takes a sequence
//! number, and streams the sorted levels as of it in one pass. Memory
//! components are switched with RCU
//! ([`flodb_sync::RcuDomain`]) so readers and writers never block on a
//! switch.
//!
//! # Examples
//!
//! ```
//! use flodb_core::{FloDb, FloDbOptions, KvStore};
//!
//! let db = FloDb::open(FloDbOptions::small_for_tests()).unwrap();
//! db.put(b"key", b"value");
//! assert_eq!(db.get(b"key"), Some(b"value".to_vec()));
//! db.delete(b"key");
//! assert_eq!(db.get(b"key"), None);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod api;
mod error;
mod options;
pub mod sharded;
mod stats;
mod store;
pub mod telemetry;

// Model-checker builds (`RUSTFLAGS="--cfg flodb_model"`) expose the drain
// stage and the RCU view cell so tests/model*.rs in the umbrella crate
// can drive the freeze/drain machinery under the flodb-check scheduler
// (the loom convention). Normal builds keep them private.
#[cfg(flodb_model)]
pub use store::drain;
#[cfg(flodb_model)]
pub mod view;
#[cfg(not(flodb_model))]
mod view;

pub use api::{KvStore, ScanEntry, StoreStats, WriteBatch};
pub use error::{Error, OpenError, OptionsError, WriteError};
pub use options::{FloDbOptions, WalMode};
pub use sharded::{Partitioner, ShardedFloDb, ShardedOptions};
pub use stats::{FloDbStats, ReclamationStats};
pub use store::FloDb;
pub use telemetry::{TelemetryLevel, TelemetrySnapshot};
