//! Baseline LSM key-value stores: the systems FloDB is evaluated against.
//!
//! The paper compares FloDB with LevelDB, RocksDB, HyperLevelDB and the
//! cLSM-configured RocksDB (§5.1). Those comparators are C++ codebases;
//! what the evaluation isolates, however, is each system's *memory
//! component concurrency design* (§2.2) — the disk mechanisms are shared
//! (FloDB itself "keeps the persisting and compaction mechanisms of
//! LevelDB"). This crate therefore reimplements each design over the same
//! [`flodb_storage::DiskComponent`] substrate FloDB uses:
//!
//! - [`LevelDbStore`] — single-writer: writes join a group that one
//!   leader applies (the `GroupCommitter` batcher); every read takes a global
//!   mutex **twice** (start and end of the operation); single-threaded
//!   flush-then-compact; global-lock table cache.
//! - [`HyperLevelDbStore`] — concurrent memtable inserts, but the global
//!   mutex is still acquired at the start and end of every operation, and
//!   version-number ordering serializes update visibility.
//! - [`RocksDbStore`] — read path without global locks (version
//!   snapshots, sharded table cache); writes still funneled through a
//!   write leader; compaction decoupled from flushing; memtable switchable
//!   between a (multi-versioned) skiplist and a hash table (Figures 3-4).
//! - [`RocksDbClsmStore`] — RocksDB with the cLSM-style concurrent
//!   memtable writes enabled (no write leader).
//!
//! All four are multi-versioned (no in-place updates): repeated writes to
//! a key consume fresh memory until a flush, which is exactly why they
//! cannot capture the skewed workload of Figure 16 in memory.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

mod hash_memtable;
mod internal_key;
mod lsm_core;
mod store;
mod versioned_memtable;

pub use hash_memtable::HashMemtable;
pub use internal_key::{decode_internal, encode_internal, encode_user_prefix};
pub use lsm_core::{BaselineMemtable, BaselineOptions, MemtableKind};
pub use store::{
    BaselineStore, Design, Discipline, HyperLevelDb, HyperLevelDbStore, LevelDb, LevelDbStore,
    RocksDb, RocksDbClsm, RocksDbClsmStore, RocksDbStore,
};
pub use versioned_memtable::VersionedMemtable;
