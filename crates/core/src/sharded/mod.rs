//! Hash-partitioned sharding: N FloDB instances behind one [`KvStore`].
//!
//! The ROADMAP's multi-core story: a single FloDB instance serializes its
//! group commit behind one leader and one fsync stream; N instances give
//! N independent Membuffers, WALs, drain pipelines, and persist threads.
//! This module family is the router over them —
//!
//! - [`partitioner`] — the seeded stable key hash deciding shard
//!   ownership (total, insertion-order independent, persisted);
//! - [`router`] — [`ShardedFloDb`]: the full `KvStore` over the shard
//!   set, including [`WriteBatch`](crate::WriteBatch) splitting with
//!   annotated per-shard WAL frames, and the scan fanning per-shard
//!   snapshots into one ordered stream.
//!
//! [`KvStore`]: crate::KvStore

pub mod partitioner;
pub mod router;

pub use partitioner::Partitioner;
pub use router::{ShardedFloDb, ShardedOptions, DEFAULT_HASH_SEED};
