//! The FloDB Membuffer: a small, fast, partitioned concurrent hash table.
//!
//! This crate implements the first in-memory level of the FloDB
//! architecture (§4.1 of *FloDB: Unlocking Memory in Persistent Key-Value
//! Stores*, EuroSys 2017), modeled on CLHT [8, 21]: buckets are cache-line
//! sized with a fixed number of slots, reads are lock-free, and writes take
//! a per-bucket spinlock.
//!
//! Three properties are specific to FloDB:
//!
//! - **Bounded buckets** (§4.4): `add` *fails* when the destination bucket
//!   is full instead of chaining or resizing — a failed add is the signal
//!   that sends the write directly to the Memtable. This is also what makes
//!   the structure "vulnerable to data skew" (§4.3), reproduced faithfully
//!   because Figure 16's low-memory dip depends on it.
//! - **Key-prefix partitioning** (§4.3): the `l` most significant key bits
//!   choose a partition; each partition owns a contiguous bucket range, so
//!   draining one partition yields a batch in a small key neighborhood,
//!   maximizing skiplist multi-insert path reuse (Figure 8).
//! - **Drain marking** (§4.2, Figure 6): a drainer *marks* entries before
//!   moving them so no other drainer moves them too, and removes an entry
//!   afterwards only if it was not concurrently updated in place (updates
//!   replace the slot pointer, so a compare-and-swap detects them). An
//!   update racing with a drain is therefore never lost.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod bucket;
mod table;

pub use table::{AddResult, DrainedEntry, MemBuffer, MemBufferConfig, RemoveToken, SLOTS_PER_BUCKET};
