//! Thread-sharded latency recording on relaxed atomics.
//!
//! The hot path records a sample with three relaxed RMWs into a
//! per-thread-striped bucket array — no lock, no allocation, no
//! ordering stronger than `Relaxed` (each counter is independent; the
//! snapshot derives its total from the buckets it actually read, so no
//! cross-counter invariant needs synchronizing).

use std::cell::Cell;

use flodb_sync::shim::atomic::{AtomicU32, AtomicU64, Ordering};

use super::histogram::{bucket_index, Histogram, NUM_BUCKETS};

/// Operation classes with per-op latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `put` / `delete` / `write` (all acknowledged mutations).
    Put,
    /// Point lookups.
    Get,
    /// Range scans: admission, the freeze a master opens, and the
    /// streamed pass, the caller's visitor included.
    Scan,
}

impl OpClass {
    /// Every op class, in stable export order.
    pub const ALL: [OpClass; 3] = [OpClass::Put, OpClass::Get, OpClass::Scan];

    /// Stable label used in exposition output.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Put => "put",
            OpClass::Get => "get",
            OpClass::Scan => "scan",
        }
    }

    /// Index into [`OpClass::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Internal engine stages with duration histograms (recorded at
/// [`TelemetryLevel::Full`](super::TelemetryLevel::Full)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageClass {
    /// Time a writer spent inside the group-commit submission *minus*
    /// the commit it led (leaders: queue wait + follower handoff;
    /// followers: the whole wait for their group's leader).
    CommitWait,
    /// WAL frame append under the log lock (fsync excluded).
    WalWrite,
    /// `fsync` of the WAL file inside a committed group.
    WalFsync,
    /// Writer stall waiting for Memtable room.
    WriteStall,
    /// Membuffer freeze → drain completion (the scan-master grace).
    FreezeDrain,
    /// Immutable-Memtable flush to disk (retries included).
    MemtableFlush,
    /// One compaction pass on the persist thread.
    Compaction,
    /// A switch's WAL roll (fresh-segment creation + sealing).
    WalRotation,
    /// A switch's WAL retirement (grace wait + mark + segment deletes).
    WalRetirement,
}

impl StageClass {
    /// Every stage, in stable export order.
    pub const ALL: [StageClass; 9] = [
        StageClass::CommitWait,
        StageClass::WalWrite,
        StageClass::WalFsync,
        StageClass::WriteStall,
        StageClass::FreezeDrain,
        StageClass::MemtableFlush,
        StageClass::Compaction,
        StageClass::WalRotation,
        StageClass::WalRetirement,
    ];

    /// Stable label used in exposition output.
    pub fn name(self) -> &'static str {
        match self {
            StageClass::CommitWait => "commit_wait",
            StageClass::WalWrite => "wal_write",
            StageClass::WalFsync => "wal_fsync",
            StageClass::WriteStall => "write_stall",
            StageClass::FreezeDrain => "freeze_drain",
            StageClass::MemtableFlush => "memtable_flush",
            StageClass::Compaction => "compaction",
            StageClass::WalRotation => "wal_rotation",
            StageClass::WalRetirement => "wal_retirement",
        }
    }

    /// Index into [`StageClass::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A histogram recorded into concurrently with relaxed atomics.
///
/// `snapshot` reads the buckets relaxed and derives the sample count
/// from their sum, so a snapshot taken mid-record is merely slightly
/// stale, never internally inconsistent.
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    pub(crate) fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> Histogram {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Histogram::from_parts(
            buckets,
            u128::from(self.sum_ns.load(Ordering::Relaxed)),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

/// Stripes per hot (per-op) histogram: threads hash onto stripes by a
/// cheap process-local thread id, so concurrent recorders of the same
/// latency do not collide on one bucket's cache line.
const OP_SHARDS: usize = 8;

/// An [`AtomicHistogram`] striped `OP_SHARDS` ways by thread id.
#[derive(Debug)]
struct ShardedHistogram {
    shards: Box<[AtomicHistogram]>,
}

impl ShardedHistogram {
    fn new() -> Self {
        Self {
            shards: (0..OP_SHARDS).map(|_| AtomicHistogram::new()).collect(),
        }
    }

    #[inline]
    fn record(&self, ns: u64) {
        self.shards[small_tid() as usize % OP_SHARDS].record(ns);
    }

    fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        for shard in self.shards.iter() {
            out.merge(&shard.snapshot());
        }
        out
    }
}

/// The engine's latency recorder: striped per-op histograms (the hot
/// path, every operation) plus unstriped per-stage histograms (recorded
/// at background-ish frequencies — group commits, flushes, stalls).
#[derive(Debug)]
pub(crate) struct LatencyRecorder {
    ops: [ShardedHistogram; OpClass::ALL.len()],
    stages: [AtomicHistogram; StageClass::ALL.len()],
}

impl LatencyRecorder {
    pub(crate) fn new() -> Self {
        Self {
            ops: std::array::from_fn(|_| ShardedHistogram::new()),
            stages: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    #[inline]
    pub(crate) fn record_op(&self, op: OpClass, ns: u64) {
        self.ops[op.index()].record(ns);
    }

    #[inline]
    pub(crate) fn record_stage(&self, stage: StageClass, ns: u64) {
        self.stages[stage.index()].record(ns);
    }

    pub(crate) fn snapshot_ops(&self) -> [Histogram; OpClass::ALL.len()] {
        std::array::from_fn(|i| self.ops[i].snapshot())
    }

    pub(crate) fn snapshot_stages(&self) -> [Histogram; StageClass::ALL.len()] {
        std::array::from_fn(|i| self.stages[i].snapshot())
    }
}

/// A small dense process-local thread id (0, 1, 2, ...), assigned on
/// first use. Used to stripe histograms and to stamp flight-recorder
/// events — cheaper and denser than the OS thread id.
pub(crate) fn small_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    }
    TID.with(|cell| {
        let v = cell.get();
        if v != u32::MAX {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            cell.set(v);
            v
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_histogram_matches_plain_histogram() {
        let atomic = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for ns in [0u64, 7, 100, 1000, 12_345, 1 << 30] {
            atomic.record(ns);
            plain.record(ns);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn sharded_snapshot_merges_all_stripes() {
        let sharded = ShardedHistogram::new();
        // Spread records across stripes explicitly (one thread always
        // lands on one stripe, so write each stripe directly).
        for (i, shard) in sharded.shards.iter().enumerate() {
            shard.record(1000 * (i as u64 + 1));
        }
        let snap = sharded.snapshot();
        assert_eq!(snap.count(), OP_SHARDS as u64);
        assert_eq!(snap.max_ns(), 1000 * OP_SHARDS as u64);
    }

    #[test]
    fn recorder_routes_by_class() {
        let rec = LatencyRecorder::new();
        rec.record_op(OpClass::Put, 500);
        rec.record_op(OpClass::Get, 100);
        rec.record_stage(StageClass::WalFsync, 9000);
        let ops = rec.snapshot_ops();
        assert_eq!(ops[OpClass::Put.index()].count(), 1);
        assert_eq!(ops[OpClass::Get.index()].count(), 1);
        assert_eq!(ops[OpClass::Scan.index()].count(), 0);
        let stages = rec.snapshot_stages();
        assert_eq!(stages[StageClass::WalFsync.index()].count(), 1);
        assert_eq!(stages[StageClass::CommitWait.index()].count(), 0);
    }

    #[test]
    fn small_tids_are_stable_and_distinct() {
        let here = small_tid();
        assert_eq!(small_tid(), here, "stable within a thread");
        let other = std::thread::spawn(small_tid).join().unwrap();
        assert_ne!(here, other, "distinct across threads");
    }
}
