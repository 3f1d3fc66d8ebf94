//! Typed errors for the v2 store API.
//!
//! Every fallible public operation reports a structured, matchable error:
//! [`WriteError`] for the write path (log append failures and the poison
//! latch), [`OptionsError`] for configuration validation, [`OpenError`]
//! for store construction and recovery, and the umbrella [`Error`] that
//! unifies them for callers who funnel everything through one type (e.g.
//! `fn main() -> Result<(), flodb::Error>`).

use flodb_storage::StorageError;
use flodb_sync::shim::Arc;

/// Why a write could not be durably acknowledged.
///
/// Produced by [`crate::KvStore::put`] / [`crate::KvStore::delete`] /
/// [`crate::KvStore::write`] when the write-ahead log is enabled and its
/// append (or fsync) fails. The error is shared: every member of a failed
/// commit group receives the same underlying [`StorageError`], and none of
/// the group's writes are acknowledged or applied to the memory component.
#[derive(Debug, Clone)]
pub enum WriteError {
    /// This write's log append failed. The store is now *poisoned*: reads
    /// and scans keep working, but subsequent writes are rejected with
    /// [`WriteError::Poisoned`] — after a lost append, later writes could
    /// otherwise be acknowledged yet replay without their predecessors.
    Wal(Arc<StorageError>),
    /// An earlier failure latched the store closed to writes (the
    /// original failure is attached); this write was rejected without
    /// touching the log. Two latches produce this: the WAL *poison*
    /// latch (a lost append) and the *degraded* health latch (a
    /// background flush or compaction that kept failing through its
    /// bounded retries — accepting writes would then grow memory without
    /// bound). Either way reads keep serving everything acknowledged,
    /// and a reopen recovers the acknowledged prefix from the log — the
    /// defined path back to health (ARCHITECTURE.md "Failure model").
    Poisoned(Arc<StorageError>),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wal(e) => write!(f, "write-ahead log append failed: {e}"),
            Self::Poisoned(e) => {
                write!(f, "store closed to writes by an earlier failure: {e}")
            }
        }
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wal(e) | Self::Poisoned(e) => Some(e.as_ref()),
        }
    }
}

/// A structured reason a [`crate::FloDbOptions`] value is inconsistent.
///
/// Returned by [`crate::FloDbOptions::validate`] (and therefore by
/// [`crate::FloDb::open`], wrapped in [`OpenError::Options`]). Each
/// variant carries the offending value so callers can report or repair
/// the configuration programmatically.
#[derive(Debug, Clone, PartialEq)]
pub enum OptionsError {
    /// `membuffer_fraction` must lie in `[0, 1)` (the Memtable needs a
    /// non-empty share of the memory budget).
    MembufferFraction {
        /// The rejected fraction.
        got: f64,
    },
    /// `partition_bits` exceeds the supported maximum of 16.
    PartitionBits {
        /// The rejected bit count.
        got: u32,
    },
    /// The Membuffer is enabled but `drain_threads` is zero — nothing
    /// would ever move entries into the Memtable.
    NoDrainThreads,
    /// `memory_bytes` is below the 64 KiB minimum.
    MemoryBytes {
        /// The rejected byte budget.
        got: usize,
    },
    /// `wal_segment_max_bytes` is zero, which would make a Memtable switch
    /// due after every single commit group.
    ZeroWalSegmentBytes,
    /// A sharded store was configured with zero shards — there would be
    /// nowhere to route any key.
    ZeroShards,
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MembufferFraction { got } => {
                write!(f, "membuffer_fraction must be in [0, 1), got {got}")
            }
            Self::PartitionBits { got } => {
                write!(f, "partition_bits must be <= 16, got {got}")
            }
            Self::NoDrainThreads => {
                write!(f, "drain_threads must be >= 1 when the Membuffer is enabled")
            }
            Self::MemoryBytes { got } => {
                write!(f, "memory_bytes must be at least 64 KiB, got {got}")
            }
            Self::ZeroWalSegmentBytes => {
                write!(f, "wal_segment_max_bytes must be positive")
            }
            Self::ZeroShards => write!(f, "shards must be >= 1"),
        }
    }
}

impl std::error::Error for OptionsError {}

/// Why [`crate::FloDb::open`] failed.
#[derive(Debug)]
pub enum OpenError {
    /// The options failed validation before anything was touched.
    Options(OptionsError),
    /// The storage layer failed: manifest recovery, log replay, the
    /// recovery flush, log pruning, or creating the fresh log file.
    Storage(StorageError),
    /// A background thread (drain or persist) could not be spawned.
    Spawn(std::io::Error),
    /// The store root's sticky sharding record disagrees with the
    /// requested shard layout. The count and hash seed decide which shard
    /// owns each key, so silently honoring the new layout would route
    /// reads away from the shards holding their data; reopen with the
    /// on-disk layout instead.
    ShardMismatch {
        /// The layout recorded on disk: `(shards, hash_seed)`.
        on_disk: (u32, u64),
        /// The layout this open requested: `(shards, hash_seed)`.
        requested: (u32, u64),
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Options(e) => write!(f, "invalid options: {e}"),
            Self::Storage(e) => write!(f, "storage failure during open: {e}"),
            Self::Spawn(e) => write!(f, "failed to spawn background thread: {e}"),
            Self::ShardMismatch { on_disk, requested } => write!(
                f,
                "store was created with {} shards (hash seed {:#x}) but this \
                 open requested {} shards (hash seed {:#x}); the sharding \
                 layout is sticky",
                on_disk.0, on_disk.1, requested.0, requested.1
            ),
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Options(e) => Some(e),
            Self::Storage(e) => Some(e),
            Self::Spawn(e) => Some(e),
            Self::ShardMismatch { .. } => None,
        }
    }
}

impl From<OptionsError> for OpenError {
    fn from(e: OptionsError) -> Self {
        Self::Options(e)
    }
}

impl From<StorageError> for OpenError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

/// The unified FloDB error: everything a store can report, one type.
///
/// [`crate::FloDb::open`] returns [`OpenError`] and the write path returns
/// [`WriteError`]; both convert into `Error` with `?`, so applications can
/// thread a single error type end to end:
///
/// ```
/// use flodb_core::{Error, FloDb, FloDbOptions, KvStore};
///
/// fn run() -> Result<(), Error> {
///     let db = FloDb::open(FloDbOptions::small_for_tests())?;
///     db.put(b"k", b"v")?;
///     Ok(())
/// }
/// run().unwrap();
/// ```
#[derive(Debug)]
pub enum Error {
    /// Opening (or recovering) the store failed.
    Open(OpenError),
    /// A write was rejected; see [`WriteError`] for the poisoning
    /// contract.
    Write(WriteError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Open(e) => write!(f, "{e}"),
            Self::Write(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Open(e) => Some(e),
            Self::Write(e) => Some(e),
        }
    }
}

impl From<OpenError> for Error {
    fn from(e: OpenError) -> Self {
        Self::Open(e)
    }
}

impl From<WriteError> for Error {
    fn from(e: WriteError) -> Self {
        Self::Write(e)
    }
}

impl From<OptionsError> for Error {
    fn from(e: OptionsError) -> Self {
        Self::Open(OpenError::Options(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chains() {
        let io = StorageError::Io(std::io::Error::other("disk on fire"));
        let write = WriteError::Wal(Arc::new(io));
        assert!(write.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&write).is_some());

        let open = OpenError::Options(OptionsError::NoDrainThreads);
        assert!(open.to_string().contains("drain_threads"));

        let unified: Error = open.into();
        assert!(matches!(unified, Error::Open(OpenError::Options(_))));
        assert!(unified.to_string().contains("drain_threads"));

        let unified: Error = WriteError::Poisoned(Arc::new(StorageError::Io(
            std::io::Error::other("x"),
        )))
        .into();
        assert!(matches!(unified, Error::Write(WriteError::Poisoned(_))));
    }

    #[test]
    fn shard_mismatch_is_typed_and_displayable() {
        let e = OpenError::ShardMismatch {
            on_disk: (4, 0x5eed),
            requested: (7, 0x5eed),
        };
        assert!(e.to_string().contains("4 shards"));
        assert!(e.to_string().contains("7 shards"));
        assert!(std::error::Error::source(&e).is_none());
        let unified: Error = e.into();
        assert!(matches!(
            unified,
            Error::Open(OpenError::ShardMismatch {
                on_disk: (4, _),
                requested: (7, _)
            })
        ));
        assert!(OptionsError::ZeroShards.to_string().contains("shards"));
    }

    #[test]
    fn options_error_is_matchable() {
        let e = OptionsError::MemoryBytes { got: 1 };
        match e {
            OptionsError::MemoryBytes { got } => assert_eq!(got, 1),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
