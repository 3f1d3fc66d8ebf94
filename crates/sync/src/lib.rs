//! Concurrency substrate for the FloDB reproduction.
//!
//! This crate provides the low-level synchronization building blocks the
//! paper's memory component relies on (§4.2 of *FloDB: Unlocking Memory in
//! Persistent Key-Value Stores*, EuroSys 2017):
//!
//! - [`rcu::RcuDomain`] — a read-copy-update domain used to switch memory
//!   components (Membuffer / Memtable) without ever blocking readers or
//!   writers, only background threads.
//! - [`seq::SequenceGenerator`] — the global sequence number source used to
//!   order Memtable entries relative to scans.
//! - [`backoff::Backoff`] — bounded exponential backoff for contended CAS
//!   loops.
//! - [`pause::PauseFlag`] — the `pauseWriters` / `pauseDrainingThreads`
//!   protocol flags from Algorithms 2 and 3.
//! - [`group_commit::GroupCommitter`] — the leader/follower group-commit
//!   pipeline FloDB's write-ahead log uses so that durability batching
//!   never re-serializes the lock-free write fast path; the baselines'
//!   write leaders (LevelDB's single-writer design, §2.2) batch through it
//!   too.
//! - [`inflight::PhasedInflight`] — a two-phase in-flight counter giving
//!   the Memtable switch a grace period over the logged→applied window of
//!   each write before it retires WAL segments.
//! - [`kv`] — the common key/value byte-string representation shared by all
//!   layers.
//! - [`shim`] — the swappable primitives facade every concurrency-bearing
//!   crate routes through, so `--cfg flodb_model` can swap in the
//!   `flodb-check` model checker's instrumented types.
//! - [`lock_order`] — the ranked lock classes of the declared hierarchy
//!   (`LOCK_ORDER.toml`); debug/model builds enforce strictly ascending
//!   acquisition order at runtime through the shim's ranked constructors.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backoff;
pub mod group_commit;
pub mod inflight;
pub mod kv;
pub mod lock_order;
pub mod pause;
pub mod rcu;
pub mod seq;
pub mod shim;

pub use backoff::Backoff;
pub use group_commit::{CommitRole, GroupCommitConfig, GroupCommitter};
pub use inflight::{Grace, InflightGuard, PhasedInflight};
pub use pause::PauseFlag;
pub use rcu::RcuDomain;
pub use seq::SequenceGenerator;
