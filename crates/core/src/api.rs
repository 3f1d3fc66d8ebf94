//! The store-facing API shared by FloDB and every baseline (v2).
//!
//! The paper's §2.1 interface (put/get/delete/scan) is reproduced as the
//! [`KvStore`] trait, redesigned around three production realities:
//!
//! - **Fallibility.** `put`/`delete`/`write` return
//!   `Result<(), `[`WriteError`]`>`: a store with a commit log can fail to
//!   acknowledge a write, and the caller — not a panic inside the store —
//!   decides what to do about it. See [`WriteError`] for the poisoning
//!   contract.
//! - **Batches.** [`WriteBatch`] buffers several put/delete operations and
//!   [`KvStore::write`] commits them as one unit. On FloDB the whole batch
//!   is encoded into a single group-commit submission, so it lands in one
//!   WAL frame and crash recovery replays it all-or-nothing.
//! - **Streaming scans.** [`KvStore::scan_with`] visits entries in key
//!   order through a callback that can terminate early
//!   ([`ControlFlow::Break`]); [`KvStore::scan`] is the collecting
//!   convenience built on top of it.

use std::ops::ControlFlow;

use flodb_sync::shim::atomic::{AtomicU64, Ordering};

pub use crate::error::WriteError;

/// One entry returned by a scan.
pub type ScanEntry = (Vec<u8>, Vec<u8>);

/// One buffered operation of a [`WriteBatch`].
#[derive(Debug, Clone)]
struct BatchOp {
    key: Box<[u8]>,
    /// `None` is a delete (tombstone insert).
    value: Option<Box<[u8]>>,
}

/// A reusable buffer of put/delete operations, committed atomically by
/// [`KvStore::write`].
///
/// Operations are applied in insertion order, so a later op on the same
/// key wins. The batch is plain data — building one touches no store —
/// and [`clear`](Self::clear) retains the op buffer's capacity, so a
/// loader can fill/commit/clear the same batch in a loop.
///
/// # Examples
///
/// ```
/// use flodb_core::WriteBatch;
///
/// let mut batch = WriteBatch::new();
/// batch.put(b"user:1", b"alice");
/// batch.put(b"user:2", b"bob");
/// batch.delete(b"user:0");
/// assert_eq!(batch.len(), 3);
/// assert_eq!((batch.puts(), batch.deletes()), (2, 1));
/// batch.clear();
/// assert!(batch.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
    puts: u64,
    deletes: u64,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers an insert/overwrite of `key`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops.push(BatchOp {
            key: Box::from(key),
            value: Some(Box::from(value)),
        });
        self.puts += 1;
        self
    }

    /// Buffers a logical removal of `key` (tombstone insert).
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.ops.push(BatchOp {
            key: Box::from(key),
            value: None,
        });
        self.deletes += 1;
        self
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Buffered put operations.
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Buffered delete operations.
    pub fn deletes(&self) -> u64 {
        self.deletes
    }

    /// Empties the batch, retaining the op buffer's capacity for reuse.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.puts = 0;
        self.deletes = 0;
    }

    /// Iterates the buffered operations in insertion order; a `None`
    /// value is a delete.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], Option<&[u8]>)> + Clone {
        self.ops
            .iter()
            .map(|op| (op.key.as_ref(), op.value.as_deref()))
    }
}

/// Declares the counters once: [`StoreStats`] (plain values, the shape
/// every store reports and the telemetry exports), [`FloDbStats`] (the
/// live atomics FloDB bumps) and everything that must visit each of their
/// fields. A row is the field's docs, its kind and its name; a `counter`
/// accumulates, a `gauge` reports current state (its delta is the later
/// value). The kind is part of the row, so a new field cannot skip the
/// decision how it adds, subtracts and exports. `live as name` gives the
/// atomic its own name where FloDB's word for the thing differs from the
/// cross-store one.
macro_rules! store_stats {
    // A row is `kind name,` or `kind live as name,`: normalize to
    // `{ docs kind live name }`, then emit.
    (@rows [$($row:tt)*] $(#[$doc:meta])* $kind:ident $live:ident as $name:ident, $($rest:tt)*) => {
        store_stats!(@rows [$($row)* { $(#[$doc])* $kind $live $name }] $($rest)*);
    };
    (@rows [$($row:tt)*] $(#[$doc:meta])* $kind:ident $name:ident, $($rest:tt)*) => {
        store_stats!(@rows [$($row)* { $(#[$doc])* $kind $name $name }] $($rest)*);
    };
    (@rows [$({ $(#[$doc:meta])* $kind:ident $live:ident $name:ident })*]) => {
        /// Aggregate operation counters common to all stores, used by the
        /// benchmark harness. The baselines fill the rows that apply to
        /// them and leave the FloDB-only ones zero.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StoreStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl StoreStats {
            /// `self += other` per field. Gauges add too: across shards
            /// they sum to fleet-wide totals ("live WAL generations over
            /// all shards" is what the bounded-log invariant cares about).
            pub(crate) fn add(&mut self, other: &StoreStats) {
                $(self.$name += other.$name;)*
            }

            /// `self - earlier` per counter, saturating; gauges keep
            /// `self`'s value (a delta of "live generations" means
            /// nothing).
            pub(crate) fn delta_since(&self, earlier: &StoreStats) -> StoreStats {
                StoreStats {
                    $($name: store_stats!(@delta $kind self.$name, earlier.$name),)*
                }
            }

            /// Every field as an exported `(name, value)` pair, in
            /// declaration order.
            pub(crate) fn pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }

        /// FloDB's live counters: one atomic per [`StoreStats`] row, cheap
        /// enough for the hot path (relaxed increments on cache-local
        /// lines).
        #[derive(Debug, Default)]
        pub struct FloDbStats {
            $($(#[$doc])* pub $live: AtomicU64,)*
        }

        impl FloDbStats {
            /// Snapshots the counters into the cross-store [`StoreStats`]
            /// shape.
            pub fn snapshot(&self) -> StoreStats {
                StoreStats {
                    $($name: self.$live.load(Ordering::Relaxed),)*
                }
            }
        }
    };
    (@delta counter $later:expr, $earlier:expr) => { $later.saturating_sub($earlier) };
    (@delta gauge $later:expr, $earlier:expr) => { $later };
    ($($rows:tt)*) => { store_stats!(@rows [] $($rows)*); };
}

store_stats! {
    /// Completed put operations (batch puts included).
    counter puts,
    /// Completed delete operations (batch deletes included).
    counter deletes,
    /// Completed get operations.
    counter gets,
    /// Completed scan operations.
    counter scans,
    /// Keys returned across all scans.
    counter scanned_keys,
    /// Writes absorbed directly by the fast memory level (FloDB's
    /// Membuffer; zero for single-level baselines).
    counter membuffer_writes as fast_level_writes,
    /// Writes that fell through to the Memtable, the slow path (FloDB
    /// only).
    counter memtable_writes,
    /// Entries moved Membuffer → Memtable by drains (FloDB only).
    counter drained_entries,
    /// Chunks the background drains drained, one multi-insert each
    /// (FloDB only).
    counter drain_batches,
    /// Memtable flushes to disk.
    counter persists,
    /// Scan restarts: 0, as scans read the Memtable as of their stamp.
    counter scan_restarts,
    /// Writer-blocking fallback scans; 0, as `scan_restarts`.
    counter fallback_scans,
    /// Piggybacking scans — reused a master's sequence number (FloDB
    /// only).
    counter piggyback_scans,
    /// Master scans — froze and drained the Membuffer and established a
    /// sequence number (FloDB only).
    counter master_scans,
    /// Times a paused writer helped drain the immutable Membuffer, i.e.
    /// claimed at least one chunk of the cooperative drain (FloDB only).
    counter writer_drain_helps,
    /// Freezes that got the drained Membuffer back as its sole owner and
    /// kept it for the next freeze instead of dropping it; the rest found
    /// a snapshot or a late helper still holding a reference (FloDB only).
    counter membuffer_recycles,
    /// Times a writer stalled waiting for Memtable room (FloDB only);
    /// `write_stall_ns` sizes the stalls this counts.
    counter write_stalls,
    /// WAL commit groups written — each is one frame, one write, at most
    /// one fsync (FloDB only; zero with the WAL off).
    counter wal_groups,
    /// Records across all WAL commit groups (FloDB only); divide by
    /// `wal_groups` for the mean records per group.
    counter wal_group_records,
    /// Writes acknowledged as group-commit followers — their record rode
    /// in a group another thread committed (FloDB only). The leader split
    /// is `wal_groups`.
    counter wal_follower_writes,
    /// WAL segment rotations — a Memtable switch sealed the active segment
    /// and opened a fresh generation (FloDB only).
    counter wal_rotations,
    /// Total bytes of WAL segments retired after a persisted checkpoint
    /// covered their records (FloDB only).
    counter wal_retired_bytes,
    /// Gauge: live WAL generations on disk — sealed awaiting retirement
    /// plus the active one (FloDB only; 0 with the WAL off).
    gauge wal_generations,
    /// Gauge: bytes in the active WAL segment, header included (FloDB
    /// only; 0 with the WAL off).
    gauge wal_active_bytes,
    /// Background I/O attempts retried after a transient failure (flush,
    /// compaction, retirement record/delete), plus WAL rotations deferred
    /// by a failed segment creation — each retried at the next Memtable
    /// switch (FloDB only). Nonzero with zero `io_degraded` means the
    /// device misbehaved and the store rode it out.
    counter io_retries,
    /// Background I/O operations abandoned after exhausting their
    /// retries (FloDB only). A flush or compaction abandonment also
    /// latches the store degraded — writes rejected, reads still served,
    /// see ARCHITECTURE.md "Failure model"; a retirement abandonment only
    /// leaves segment files behind (`wal_retire_errors`).
    counter io_degraded,
    /// Switches whose WAL retirement failed to record the oldest-live mark
    /// or delete retired segment files, leaving the segments on disk as
    /// stale-but-harmless leftovers, pruned at the next open; only
    /// disk-footprint boundedness degrades (FloDB only).
    counter wal_retire_errors,
    /// Total nanoseconds writers spent stalled waiting for Memtable room
    /// (FloDB only; 0 below `TelemetryLevel::Counters` — the companion
    /// of `write_stalls`, sizing the stalls it counts).
    counter write_stall_ns,
    /// Total nanoseconds spent in WAL fsync inside committed groups
    /// (FloDB only; 0 below `TelemetryLevel::Counters` or with
    /// `sync: false`).
    counter wal_sync_ns,
}

/// The uniform key-value store interface (§2.1 of the paper, v2 surface).
///
/// All five systems in this repository — FloDB and the LevelDB,
/// HyperLevelDB, RocksDB and RocksDB/cLSM baselines — implement this trait
/// so workloads and benchmarks treat them interchangeably.
///
/// # Fallibility and poisoning
///
/// The write methods return `Err(`[`WriteError`]`)` when a write could not
/// be durably acknowledged; `Err` means the operation was **not** applied.
/// Stores without a commit log (the baselines, or FloDB with
/// `WalMode::Disabled`) never fail structurally and always return `Ok`.
/// After a WAL failure the store is *poisoned*: reads and scans keep
/// serving the acknowledged state, but every subsequent write is rejected
/// with [`WriteError::Poisoned`] carrying the original failure. Reopening
/// the store recovers the acknowledged prefix from the log.
pub trait KvStore: Send + Sync {
    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// [`WriteError`] if the commit log rejected the write; the write was
    /// not applied.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), WriteError>;

    /// Logically removes `key` (tombstone insert).
    ///
    /// # Errors
    ///
    /// [`WriteError`] if the commit log rejected the write; the delete was
    /// not applied.
    fn delete(&self, key: &[u8]) -> Result<(), WriteError>;

    /// Commits every operation in `batch` as one unit.
    ///
    /// Crash atomicity: on stores with a commit log, the whole batch is
    /// logged as a single frame, so recovery replays it all-or-nothing —
    /// a crash can never resurrect half a batch. Visibility is *not*
    /// transactional: a concurrent reader may observe a prefix of the
    /// batch while it is being applied to the memory component.
    ///
    /// The default implementation applies the operations one by one (no
    /// crash atomicity); every real store in this repository overrides it
    /// to apply the batch under its write serialization.
    ///
    /// # Errors
    ///
    /// [`WriteError`] if the commit log rejected the batch; none of its
    /// operations were applied.
    fn write(&self, batch: &WriteBatch) -> Result<(), WriteError> {
        for (key, value) in batch.iter() {
            match value {
                Some(value) => self.put(key, value)?,
                None => self.delete(key)?,
            }
        }
        Ok(())
    }

    /// Returns the current value of `key`, or `None` if absent or deleted.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Streams all live entries with `low <= key <= high`, in key order,
    /// into `visitor`; returning [`ControlFlow::Break`] stops the scan.
    ///
    /// Scans are serializable: the visited sequence is a consistent
    /// snapshot of the store at some point between invocation and return
    /// (point-in-time semantics, §2.1). Every store streams straight off
    /// its merge — FloDB reads each key as of the scan's stamp — so an
    /// early `Break` also prunes the remaining merge work. The visitor may
    /// call back into the store.
    fn scan_with(
        &self,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    );

    /// Returns all live entries with `low <= key <= high`, in key order —
    /// the collecting convenience over [`scan_with`](Self::scan_with).
    fn scan(&self, low: &[u8], high: &[u8]) -> Vec<ScanEntry> {
        let mut out = Vec::new();
        self.scan_with(low, high, &mut |key, value| {
            out.push((key.to_vec(), value.to_vec()));
            ControlFlow::Continue(())
        });
        out
    }

    /// Human-readable system name (for benchmark tables).
    fn name(&self) -> &'static str;

    /// Operation counters; stores without instrumentation return defaults.
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// Blocks until queued background work (drains, flushes, compactions)
    /// has settled; used by tests and between benchmark phases.
    ///
    /// Epoch reclamation is settled on a best-effort basis: implementations
    /// pump the collector until its counters converge, but give up after a
    /// bounded wait (other threads — or other stores in the same process —
    /// holding guards can legitimately stall reclamation indefinitely).
    /// Callers needing exact convergence should re-invoke until the
    /// reclamation counters agree.
    fn quiesce(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null;

    impl KvStore for Null {
        fn put(&self, _: &[u8], _: &[u8]) -> Result<(), WriteError> {
            Ok(())
        }
        fn delete(&self, _: &[u8]) -> Result<(), WriteError> {
            Ok(())
        }
        fn get(&self, _: &[u8]) -> Option<Vec<u8>> {
            None
        }
        fn scan_with(
            &self,
            _: &[u8],
            _: &[u8],
            _: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
        ) {
        }
        fn name(&self) -> &'static str {
            "null"
        }
    }

    #[test]
    fn default_trait_methods() {
        let s = Null;
        assert_eq!(s.stats(), StoreStats::default());
        s.quiesce();
        assert_eq!(s.name(), "null");
        assert!(s.scan(b"a", b"z").is_empty());
        // The default batch write routes through put/delete.
        let mut batch = WriteBatch::new();
        batch.put(b"k", b"v").delete(b"k");
        s.write(&batch).unwrap();
    }

    #[test]
    fn stats_add_sums_every_field() {
        let mut a = StoreStats::default();
        assert_eq!(a.pairs().len(), 29);
        a.puts = 1;
        a.wal_active_bytes = 16;
        a.wal_retire_errors = 19;
        a.wal_sync_ns = 21;
        let mut total = StoreStats::default();
        total.add(&a);
        total.add(&a);
        total.add(&StoreStats::default());
        assert_eq!(total.puts, 2);
        assert_eq!(total.wal_active_bytes, 32, "gauges sum across shards");
        assert_eq!(total.wal_retire_errors, 38);
        assert_eq!(total.wal_sync_ns, 42);
        let mut one = StoreStats::default();
        one.add(&a);
        assert_eq!(one, a);
    }

    /// The table against a live store, and — once, here — against a read
    /// of every counter written out by hand.
    #[test]
    fn counter_table_exports_every_row_of_a_live_store() {
        use crate::{FloDb, FloDbOptions};

        let db = FloDb::open(FloDbOptions::small_for_tests()).unwrap();
        let live = db.flodb_stats();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        // Distinct keys until a full bucket sends one to the Memtable.
        for i in 0..200_000u64 {
            db.put(&i.to_be_bytes(), &[7; 64]).unwrap();
            if load(&live.memtable_writes) > 0 {
                break;
            }
        }
        // No scan has run, so only the background drain empties the
        // Membuffer; then a scan freezes and drains what two more puts left.
        db.quiesce();
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        assert_eq!(db.scan(b"a", b"b").len(), 2);
        db.quiesce();

        let by_hand = StoreStats {
            puts: load(&live.puts),
            deletes: load(&live.deletes),
            gets: load(&live.gets),
            scans: load(&live.scans),
            scanned_keys: load(&live.scanned_keys),
            fast_level_writes: load(&live.membuffer_writes),
            memtable_writes: load(&live.memtable_writes),
            drained_entries: load(&live.drained_entries),
            drain_batches: load(&live.drain_batches),
            persists: load(&live.persists),
            scan_restarts: load(&live.scan_restarts),
            fallback_scans: load(&live.fallback_scans),
            piggyback_scans: load(&live.piggyback_scans),
            master_scans: load(&live.master_scans),
            writer_drain_helps: load(&live.writer_drain_helps),
            membuffer_recycles: load(&live.membuffer_recycles),
            write_stalls: load(&live.write_stalls),
            wal_groups: load(&live.wal_groups),
            wal_group_records: load(&live.wal_group_records),
            wal_follower_writes: load(&live.wal_follower_writes),
            wal_rotations: load(&live.wal_rotations),
            wal_retired_bytes: load(&live.wal_retired_bytes),
            wal_generations: load(&live.wal_generations),
            wal_active_bytes: load(&live.wal_active_bytes),
            io_retries: load(&live.io_retries),
            io_degraded: load(&live.io_degraded),
            wal_retire_errors: load(&live.wal_retire_errors),
            write_stall_ns: load(&live.write_stall_ns),
            wal_sync_ns: load(&live.wal_sync_ns),
        };
        let snapshot = db.telemetry();
        assert_eq!(live.snapshot(), by_hand);
        assert_eq!(snapshot.counters, by_hand);
        assert_eq!(by_hand.puts, by_hand.fast_level_writes + by_hand.memtable_writes);
        assert!(by_hand.memtable_writes > 0 && by_hand.drain_batches > 0, "{by_hand:?}");
        assert!(by_hand.master_scans > 0 && by_hand.drained_entries > 0, "{by_hand:?}");

        let (text, json) = (snapshot.to_prometheus_text(), snapshot.to_json());
        let pairs = by_hand.pairs();
        for (name, value) in &pairs {
            assert!(text.contains(&format!("flodb_{name} {value}\n")), "{name} in {text}");
            assert!(json.contains(&format!("\"{name}\": {value}")), "{name} in {json}");
        }
        let exported: Vec<_> = pairs.iter().map(|(name, _)| *name).collect();
        for new in [
            "memtable_writes", "drained_entries", "drain_batches", "piggyback_scans",
            "master_scans", "writer_drain_helps", "membuffer_recycles", "write_stalls",
        ] {
            assert!(exported.contains(&new), "{new} must be exported");
        }

        // Counters subtract, the new rows included; gauges keep the later
        // value.
        let earlier = StoreStats {
            puts: 3,
            master_scans: 1,
            wal_generations: 3,
            ..StoreStats::default()
        };
        let later = StoreStats {
            puts: 10,
            master_scans: 5,
            wal_generations: 2,
            ..StoreStats::default()
        };
        let delta = later.delta_since(&earlier);
        assert_eq!((delta.puts, delta.master_scans, delta.wal_generations), (7, 4, 2));
    }

    #[test]
    fn write_batch_builder_and_reuse() {
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.delete(b"b");
        batch.put(b"a", b"2");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.puts(), 2);
        assert_eq!(batch.deletes(), 1);
        let ops: Vec<(Vec<u8>, Option<Vec<u8>>)> = batch
            .iter()
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect();
        assert_eq!(
            ops,
            vec![
                (b"a".to_vec(), Some(b"1".to_vec())),
                (b"b".to_vec(), None),
                (b"a".to_vec(), Some(b"2".to_vec())),
            ]
        );
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!((batch.puts(), batch.deletes()), (0, 0));
    }

    /// A tiny sorted store to exercise the provided `scan` + early break.
    struct Sorted(Vec<(Vec<u8>, Vec<u8>)>);

    impl KvStore for Sorted {
        fn put(&self, _: &[u8], _: &[u8]) -> Result<(), WriteError> {
            Ok(())
        }
        fn delete(&self, _: &[u8]) -> Result<(), WriteError> {
            Ok(())
        }
        fn get(&self, _: &[u8]) -> Option<Vec<u8>> {
            None
        }
        fn scan_with(
            &self,
            low: &[u8],
            high: &[u8],
            visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
        ) {
            for (k, v) in &self.0 {
                if k.as_slice() >= low
                    && k.as_slice() <= high
                    && visitor(k, v).is_break()
                {
                    return;
                }
            }
        }
        fn name(&self) -> &'static str {
            "sorted"
        }
    }

    #[test]
    fn provided_scan_collects_and_break_terminates() {
        let store = Sorted(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
            (b"c".to_vec(), b"3".to_vec()),
        ]);
        assert_eq!(store.scan(b"a", b"c").len(), 3);
        let mut seen = 0;
        store.scan_with(b"a", b"c", &mut |_, _| {
            seen += 1;
            if seen == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 2, "Break must stop the scan");
    }
}
