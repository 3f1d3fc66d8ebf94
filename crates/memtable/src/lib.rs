//! The FloDB Memtable: a concurrent lock-free skiplist with per-entry
//! sequence numbers and a novel *multi-insert* operation.
//!
//! This crate implements the second in-memory level of the FloDB
//! architecture (§4.1 of *FloDB: Unlocking Memory in Persistent Key-Value
//! Stores*, EuroSys 2017): a larger, sorted, concurrent data structure that
//! is directly flushable to disk. Its distinguishing features relative to a
//! textbook concurrent skiplist are:
//!
//! - **Per-entry sequence numbers** (§3.2): every entry carries the global
//!   sequence number it was written with, and a scan reads each entry as
//!   of its stamp ([`SkipListIter::value_at`]). The sequence number and
//!   the value are stored behind a *single* atomic pointer
//!   ([`VersionedValue`]) so a reader can never observe a new value paired
//!   with an old sequence number.
//! - **In-place updates** (§3.2): re-inserting an existing key swaps the
//!   versioned value in place instead of appending a new version, so skewed
//!   workloads do not inflate the memory component; while a scan is live
//!   the replaced version stays linked ([`SkipList::with_horizon`]).
//! - **Multi-insert** (§4.3, Algorithm 1): inserting a sorted batch reuses
//!   the search path (the predecessor array) of the previous element,
//!   which makes draining the Membuffer into the Memtable fast when the
//!   batch occupies a small key neighborhood.
//! - **No concurrent removal**: by FloDB's design, entries leave the
//!   skiplist only when the whole (immutable) Memtable is persisted and
//!   dropped, which is what makes the lock-free multi-insert sound.
//! - **One arena per table**: because no node is ever removed, every node
//!   lives exactly as long as its list, so each list carves its nodes out
//!   of its own chunks (a lock-free bump allocator). A node is one block —
//!   header, tower and key inline — and dropping a table frees its values
//!   and then a handful of chunks, not millions of objects. Versions stay
//!   on the heap, since in-place updates replace them while the list lives.
//!   [`SkipList::approximate_bytes`] counts exactly the blocks and values
//!   the table holds, which is what the flush trigger reads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

mod arena;
mod height;
mod iter;
mod skiplist;
mod value;

pub use iter::SkipListIter;
pub use skiplist::{BatchEntry, SkipList, MAX_HEIGHT};
pub use value::VersionedValue;
