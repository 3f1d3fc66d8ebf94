//! The FloDB store: user-facing operations and background threads.
//!
//! Operation flow follows the paper exactly:
//!
//! - **Put/Delete** (Algorithm 2): try the Membuffer; on a full bucket fall
//!   through to the Memtable, first honoring `pauseWriters` (helping drain
//!   the frozen Membuffer if one exists) and waiting for Memtable room.
//! - **Get** (Algorithm 2): MBF → IMM_MBF → MTB → IMM_MTB → disk; first
//!   hit wins because levels are searched in data-flow order.
//! - **Scan** (Algorithm 3): a master scan freezes writers, swaps in a
//!   fresh Membuffer, drains the frozen one (with writer help), takes a
//!   sequence number, unfreezes, then iterates MTB/IMM_MTB/disk; any entry
//!   fresher than the scan number forces a restart, bounded by a
//!   writer-blocking fallback. Concurrent scans piggyback on the master's
//!   sequence number.
//! - **Draining** (Figure 6) and **persisting** run on background threads;
//!   component switches use RCU and never block readers or writers.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flodb_membuffer::{AddResult, MemBuffer, MemBufferConfig};
use flodb_memtable::SkipList;
use flodb_storage::log_manager::{self, LogConfig, LogManager};
use flodb_storage::record::encode_record_parts;
use flodb_storage::wal;
use flodb_storage::{DiskComponent, Record, StorageError};
use flodb_sync::{
    Backoff, CommitRole, GroupCommitConfig, GroupCommitter, PauseFlag, PhasedInflight,
    SequenceGenerator,
};
use flodb_sync::lock_order::{
    CORE_DEGRADED, CORE_FREEZE, CORE_PERSIST_PARK, CORE_ROOM, CORE_THREADS, WAL_LOG, WAL_POISON,
};
use flodb_sync::shim::{ranked_condvar, ranked_mutex, Condvar, Mutex};

use crate::api::{KvStore, ScanEntry, StoreStats, WriteBatch};
use crate::drain::{self, DrainStyle};
use crate::error::{OpenError, WriteError};
use crate::options::{FloDbOptions, WalMode};
use crate::scan::{ScanCoordinator, ScanRole};
use crate::stats::FloDbStats;
use crate::telemetry::{
    EngineTelemetry, OpClass, StageClass, TelemetrySnapshot, TraceEvent, TraceEventKind,
};
use crate::view::{ImmMembuffer, MemView, ViewCell};

/// Scan outcome signalling that a concurrent update invalidated the scan.
struct Restart;

/// Scan restarts tolerated before the writer-blocking fallback
/// (RESTART_THRESHOLD in Algorithm 3).
const SCAN_RESTART_THRESHOLD: u32 = 8;

/// Maximum piggybacking-chain length before a scan must establish a fresh
/// sequence number (§4.4).
const PIGGYBACK_CHAIN_LIMIT: u32 = 8;

/// A validated scan snapshot: key → (seq, value), tombstones included so
/// the merge can shadow older versions; the emission loop filters them.
type MergedRange = std::collections::BTreeMap<Box<[u8]>, (u64, Option<Box<[u8]>>)>;

/// The durability half of the write path: the log writer plus the
/// group-commit pipeline in front of it, and the poison latch that makes
/// log failures deterministic.
struct WalState {
    /// Leader/follower batching: one frame, one append and at most one
    /// fsync per *group* of concurrent writers.
    committer: GroupCommitter<StorageError>,
    /// The segmented log (active writer + sealed backlog). Only one
    /// commit leader at a time appends, so writers never contend on this
    /// mutex; the persist thread takes it briefly during retirement.
    log: Mutex<LogManager>,
    /// Tracks each write's logged→applied window so segment retirement
    /// can wait until everything logged into a sealed segment has reached
    /// the memory component (and is therefore covered by the next
    /// checkpoint's flush). See [`PhasedInflight`].
    inflight: PhasedInflight,
    /// Latched on the first append failure; checked (relaxed-fast) by
    /// every write.
    poisoned: AtomicBool,
    /// The failure that latched `poisoned`.
    poison: Mutex<Option<Arc<StorageError>>>,
}

impl WalState {
    /// Appends through `op` with the poison latch held closed around it:
    /// refuses if already poisoned, and latches *before releasing the
    /// log mutex* on failure. The latch must close inside this
    /// critical section — a failed append can leave a torn frame, and a
    /// commit racing in after it would append (and acknowledge) records
    /// that replay, which stops at the tear, can never recover.
    fn append_checked<T>(
        &self,
        op: impl FnOnce(&mut LogManager) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut log = self.log.lock();
        if self.poisoned.load(Ordering::Acquire) {
            return Err(StorageError::Io(std::io::Error::other(
                "write-ahead log poisoned by an earlier append failure",
            )));
        }
        let result = op(&mut log);
        if let Err(e) = &result {
            let mut slot = self.poison.lock();
            if slot.is_none() {
                *slot = Some(Arc::new(StorageError::Io(std::io::Error::other(
                    e.to_string(),
                ))));
            }
            self.poisoned.store(true, Ordering::Release);
        }
        result
    }

    /// The failure that poisoned this log, if any.
    fn poison_err(&self) -> Option<Arc<StorageError>> {
        self.poison.lock().clone()
    }

    /// The [`WriteError`] a write on a poisoned log reports. The latch is
    /// published after the error slot is filled, so a populated slot is
    /// the expected case; the fallback only covers a racing reader that
    /// observes the latch between the two stores.
    fn poison_error(&self) -> WriteError {
        let err = self.poison.lock().clone().unwrap_or_else(|| {
            Arc::new(StorageError::Io(std::io::Error::other(
                "write-ahead log poisoned by an earlier append failure",
            )))
        });
        WriteError::Poisoned(err)
    }
}

struct Inner {
    opts: FloDbOptions,
    memtable_trigger: usize,
    drain_style: DrainStyle,
    view: ViewCell,
    seq: SequenceGenerator,
    disk: DiskComponent,
    pause_writers: PauseFlag,
    pause_draining: PauseFlag,
    coord: ScanCoordinator,
    /// Serializes [freeze .. stamp] windows across master and fallback
    /// scans. Two interleaved freezes would let the second one drain
    /// writes made *after* the first scan's linearization point into the
    /// Memtable with sequence numbers *below* the first scan's stamp,
    /// silently including a partial post-cut round in its snapshot.
    ///
    /// The lock also owns the *spare* Membuffer: a fully drained buffer
    /// the last freeze got back as sole owner (`ImmMembuffer::reclaim`),
    /// which the next freeze installs instead of building a new one.
    freeze_lock: Mutex<Option<Arc<MemBuffer>>>,
    stats: FloDbStats,
    stop: AtomicBool,
    force_flush: AtomicBool,
    /// Writers waiting for Memtable room park here (Algorithm 2, line 18).
    room: Mutex<()>,
    room_cv: Condvar,
    /// The persist thread parks here between checks.
    persist_park: Mutex<()>,
    persist_cv: Condvar,
    wal: Option<WalState>,
    /// Store-level health latch, closed by a *persistent* background I/O
    /// failure (a flush or compaction still failing after its bounded
    /// retries). Degraded means: writes are rejected (so memory stays
    /// bounded), reads keep serving everything acknowledged — including
    /// the un-flushable immutable Memtable, which stays resident — and
    /// `quiesce` treats the un-flushable work as settled instead of
    /// wedging. The WAL is never retired once degraded, so a reopen
    /// replays every acknowledged write: reopen is the path back to
    /// health (see ARCHITECTURE.md "Failure model").
    degraded: AtomicBool,
    /// The failure that latched `degraded`.
    degraded_reason: Mutex<Option<Arc<StorageError>>>,
    /// Level-gated latency recorder and flight recorder (see
    /// [`crate::telemetry`]); at `TelemetryLevel::Off` this is one cached
    /// enum and two `None`s, and every telemetry call site reduces to a
    /// branch on it.
    telemetry: EngineTelemetry,
}

/// The FloDB key-value store.
///
/// See the crate documentation for the architecture; construct with
/// [`FloDb::open`] and interact through the [`KvStore`] trait.
pub struct FloDb {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn new_membuffer(&self) -> Arc<MemBuffer> {
        Arc::new(MemBuffer::new(membuffer_config(&self.opts)))
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Latches the store degraded after `what` kept failing through its
    /// bounded retries. First failure wins the reason slot; the latch is
    /// published after the slot is filled (same publication order as the
    /// WAL poison latch).
    fn degrade(&self, what: &str, err: &StorageError) {
        FloDbStats::bump(&self.stats.io_degraded);
        let mut slot = self.degraded_reason.lock();
        if slot.is_none() {
            *slot = Some(Arc::new(StorageError::Io(std::io::Error::other(format!(
                "store degraded: {what} failed persistently: {err}"
            )))));
        }
        drop(slot);
        self.degraded.store(true, Ordering::Release);
        // Flight-recorder postmortem: the trip plus the auto-dump, after
        // the reason lock is released (the dump takes its own leaf lock).
        self.telemetry.event(TraceEventKind::Degraded, 0, 0);
        self.telemetry.dump_to_stderr(what);
    }

    /// The [`WriteError`] a write on a degraded store reports.
    fn degraded_error(&self) -> WriteError {
        let err = self.degraded_reason.lock().clone().unwrap_or_else(|| {
            Arc::new(StorageError::Io(std::io::Error::other(
                "store degraded by a persistent background I/O failure",
            )))
        });
        WriteError::Poisoned(err)
    }

    /// Rejects new writes once the health latch is closed. One choke
    /// point for every write path, WAL-enabled or not.
    fn check_degraded(&self) -> Result<(), WriteError> {
        if self.is_degraded() {
            return Err(self.degraded_error());
        }
        Ok(())
    }
}

/// Maximum reattempts for one background I/O operation before it is
/// treated as persistently failing.
const IO_RETRY_LIMIT: u32 = 3;

/// Runs `op` with bounded retry-with-backoff for transient I/O errors:
/// each failed attempt is counted in `io_retries`, ramped through the
/// shared [`Backoff`] (yields first) and then a short real sleep —
/// transient conditions like a full device queue or a briefly
/// unwritable directory clear in milliseconds, not in spin loops. After
/// [`IO_RETRY_LIMIT`] reattempts the last error is returned and the
/// caller decides the degradation (latch, counter, or give-up).
fn io_with_retries<T>(
    inner: &Inner,
    mut op: impl FnMut() -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt >= IO_RETRY_LIMIT {
                    return Err(e);
                }
                attempt += 1;
                FloDbStats::bump(&inner.stats.io_retries);
                inner
                    .telemetry
                    .event(TraceEventKind::IoRetry, u64::from(attempt), 0);
                let backoff = Backoff::new();
                while !backoff.is_completed() {
                    backoff.snooze();
                }
                std::thread::sleep(Duration::from_millis(1 << attempt.min(4)));
            }
        }
    }
}

fn membuffer_config(opts: &FloDbOptions) -> MemBufferConfig {
    MemBufferConfig::for_capacity_bytes(
        opts.membuffer_bytes(),
        opts.partition_bits,
        opts.avg_entry_bytes,
    )
}

impl FloDb {
    /// Opens a store with `opts`, spawning the background threads.
    ///
    /// The disk component recovers its file layout from the manifest (when
    /// `opts.disk.manifest` is set). If a write-ahead log is enabled and
    /// log files exist in the environment, their intact frames are
    /// replayed, flushed to the recovered disk component, and the consumed
    /// logs deleted; sequence numbering resumes past them.
    ///
    /// # Errors
    ///
    /// [`OpenError::Options`] if `opts` fails validation,
    /// [`OpenError::Storage`] if manifest recovery, log replay or log
    /// creation fails, and [`OpenError::Spawn`] if a background thread
    /// cannot be started.
    pub fn open(opts: FloDbOptions) -> Result<Self, OpenError> {
        opts.validate()?;
        let disk = DiskComponent::open(Arc::clone(&opts.env), opts.disk)?;

        // Recover WAL contents, if any. The sequence counter must resume
        // past everything already persisted: disk records keep their
        // original sequence numbers, and a fresh write stamped below them
        // would lose every seq-based merge (scans would resurrect stale
        // disk values).
        let mtb = Arc::new(SkipList::new());
        let mut max_seq = disk.max_persisted_seq();
        let mut next_generation = 1u64;
        if !matches!(opts.wal, WalMode::Disabled) {
            // Replay only the live generations: segments below the
            // manifest's oldest-live mark were retired (their contents
            // persisted) — any still on disk are leftovers of a crash
            // between the mark and the deletions.
            let recovered =
                log_manager::recover_segments(opts.env.as_ref(), disk.wal_oldest_live())?;
            for r in recovered.records {
                mtb.insert(&r.key, r.value.as_deref(), r.seq);
            }
            max_seq = max_seq.max(recovered.max_seq);
            next_generation = recovered.max_generation + 1;
            // With a manifest, settle the recovered state onto disk so the
            // replayed logs can be pruned; log growth is thereby bounded
            // across restarts. A crash in here simply replays the same
            // logs again (flushing is idempotent: duplicate records carry
            // identical seqs). Without a manifest the flushed layout would
            // not survive the *next* restart, so the recovered entries
            // must stay in the memory component and the logs must remain.
            if opts.disk.manifest {
                if !mtb.is_empty() {
                    let records: Vec<Record> = mtb
                        .collect_entries()
                        .into_iter()
                        .map(|(key, vv)| Record {
                            key,
                            seq: vv.seq,
                            value: vv.value,
                        })
                        .collect();
                    disk.flush_records(records)?;
                }
                // Advance the oldest-live mark durably *before* deleting
                // the consumed segments (crash in between leaves stale
                // files below the mark, which recovery ignores and the
                // next open prunes right here).
                disk.record_wal_oldest_live(next_generation)?;
                for log in &recovered.segment_names {
                    opts.env.delete(log)?;
                }
                opts.env.sync_dir()?;
            }
        }
        let mtb = if opts.disk.manifest && !matches!(opts.wal, WalMode::Disabled) {
            Arc::new(SkipList::new())
        } else {
            mtb
        };

        let wal = match opts.wal {
            WalMode::Disabled => None,
            WalMode::Enabled { sync } => {
                let log = LogManager::create(
                    Arc::clone(&opts.env),
                    LogConfig {
                        segment_max_bytes: opts.wal_segment_max_bytes as u64,
                        sync_on_write: sync,
                    },
                    next_generation,
                )?;
                Some(WalState {
                    committer: GroupCommitter::new(GroupCommitConfig {
                        // Groups are framed in place: the leader patches
                        // the WAL header into this reserved prefix and
                        // appends with one write, no payload re-copy.
                        frame_prefix: wal::FRAME_HEADER_BYTES,
                        ..GroupCommitConfig::default()
                    }),
                    log: ranked_mutex(WAL_LOG, log),
                    inflight: PhasedInflight::new(),
                    poisoned: AtomicBool::new(false),
                    poison: ranked_mutex(WAL_POISON, None),
                })
            }
        };

        let membuffer_enabled = opts.membuffer_enabled;
        let memtable_trigger = opts.memtable_bytes();
        let drain_style = if opts.use_multi_insert {
            DrainStyle::MultiInsert
        } else {
            DrainStyle::SimpleInsert
        };
        let drain_threads = opts.drain_threads;

        let inner = Arc::new(Inner {
            memtable_trigger,
            drain_style,
            view: ViewCell::new(MemView {
                mbf: membuffer_enabled.then(|| {
                    Arc::new(MemBuffer::new(membuffer_config(&opts)))
                }),
                imm_mbf: None,
                mtb,
                imm_mtb: None,
            }),
            seq: SequenceGenerator::starting_at(max_seq + 1),
            disk,
            pause_writers: PauseFlag::new(),
            pause_draining: PauseFlag::new(),
            coord: ScanCoordinator::new(),
            freeze_lock: ranked_mutex(CORE_FREEZE, None),
            stats: FloDbStats::default(),
            stop: AtomicBool::new(false),
            force_flush: AtomicBool::new(false),
            room: ranked_mutex(CORE_ROOM, ()),
            room_cv: ranked_condvar(CORE_ROOM),
            persist_park: ranked_mutex(CORE_PERSIST_PARK, ()),
            persist_cv: ranked_condvar(CORE_PERSIST_PARK),
            wal,
            degraded: AtomicBool::new(false),
            degraded_reason: ranked_mutex(CORE_DEGRADED, None),
            telemetry: EngineTelemetry::new(opts.telemetry),
            opts,
        });
        if let Some(wal) = &inner.wal {
            let log = wal.log.lock();
            inner
                .stats
                .wal_generations
                .store(log.live_generations(), Ordering::Relaxed);
            inner
                .stats
                .wal_active_bytes
                .store(log.active_bytes(), Ordering::Relaxed);
        }

        let mut threads = Vec::new();
        if membuffer_enabled {
            for i in 0..drain_threads {
                let inner = Arc::clone(&inner);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("flodb-drain-{i}"))
                        .spawn(move || drain_loop(&inner, i))
                        .map_err(OpenError::Spawn)?,
                );
            }
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("flodb-persist".into())
                    .spawn(move || persist_loop(&inner))
                    .map_err(OpenError::Spawn)?,
            );
        }

        Ok(Self {
            inner,
            threads: ranked_mutex(CORE_THREADS, threads),
        })
    }

    /// Snapshot of FloDB-specific counters.
    pub fn flodb_stats(&self) -> &FloDbStats {
        &self.inner.stats
    }

    /// Snapshot of the engine's telemetry: counters plus (at
    /// `TelemetryLevel::Full`) per-op and per-stage latency histograms.
    /// Delta-able ([`TelemetrySnapshot::delta_since`]) and exportable as
    /// Prometheus-style text or JSON.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry.snapshot(self.inner.stats.snapshot())
    }

    /// The flight recorder's published events, oldest first (empty below
    /// `TelemetryLevel::Counters`). A bounded, allocation-free-in-steady-
    /// state trace of structural engine events — freezes, drains,
    /// rotations, retirements, flushes, compactions, stalls, I/O retries
    /// and the degraded latch — for postmortems: the same dump is written
    /// to stderr automatically when the store degrades.
    pub fn trace_dump(&self) -> Vec<TraceEvent> {
        self.inner.telemetry.trace_dump()
    }

    /// Whether the store has latched degraded: a background flush or
    /// compaction kept failing through its bounded retries. A degraded
    /// store rejects writes ([`WriteError::Poisoned`]), keeps serving
    /// every acknowledged read (the un-flushable Memtable stays
    /// resident), and never retires its WAL — so a reopen replays the
    /// log and recovers the full acknowledged state. See ARCHITECTURE.md
    /// "Failure model" for the contract.
    pub fn is_degraded(&self) -> bool {
        self.inner.is_degraded()
    }

    /// Disk-component statistics (files per level, compactions, bytes).
    pub fn disk_stats(&self) -> flodb_storage::DiskStats {
        self.inner.disk.stats()
    }

    /// Approximate bytes resident in the memory component.
    pub fn memory_usage(&self) -> usize {
        self.inner.view.read(|v| {
            v.mbf.as_ref().map_or(0, |m| m.approximate_bytes())
                + v.mtb.approximate_bytes()
                + v.imm_mtb.as_ref().map_or(0, |m| m.approximate_bytes())
        })
    }

    /// Forces the entire memory component down to disk and waits for
    /// quiescence (drains, flushes and compactions complete).
    pub fn flush_all(&self) {
        // ORDERING: the flag must be SC-ordered with the persist thread's
        // drain decision — store, then wake, then poll; a weaker store
        // could let a concurrently-parking persist thread read the old
        // flag after consuming the wake. Maintenance path, not hot.
        self.inner.force_flush.store(true, Ordering::SeqCst);
        let backoff = Backoff::new();
        loop {
            self.wake_persist();
            if self.inner.is_degraded() {
                // The remaining memory-resident data cannot be forced
                // down (that is what degraded *means*); waiting would
                // wedge this maintenance call forever.
                break;
            }
            let (mbf_len, imm_mbf, mtb_len, imm_mtb) = self.inner.view.read(|v| {
                (
                    v.mbf.as_ref().map_or(0, |m| m.len()),
                    v.imm_mbf.is_some(),
                    v.mtb.len(),
                    v.imm_mtb.is_some(),
                )
            });
            if mbf_len == 0 && !imm_mbf && mtb_len == 0 && !imm_mtb {
                break;
            }
            backoff.snooze();
        }
        // ORDERING: symmetric with the set above; the clear must not be
        // reorderable before the final emptiness poll that justified it.
        self.inner.force_flush.store(false, Ordering::SeqCst);
        if self.inner.is_degraded() {
            return;
        }
        if let Err(e) = io_with_retries(&self.inner, || self.inner.disk.compact_all()) {
            // Maintenance entry point, not the write path: a persistently
            // broken disk degrades the store instead of panicking; the
            // flushed data is already durable.
            self.inner.degrade("compaction", &e);
        }
    }

    fn wake_persist(&self) {
        let _g = self.inner.persist_park.lock();
        self.inner.persist_cv.notify_all();
    }

    /// Appends one write to the commit log (when enabled), then applies it
    /// to the memory component. `Err` means the write was *not*
    /// acknowledged: its log group failed (or the store was already
    /// poisoned) and nothing was applied.
    ///
    /// The in-flight window spans log append through memory apply: WAL
    /// segment retirement flips this tracker and waits, so a segment is
    /// never retired while a write logged into it has yet to reach the
    /// memory component (where the retirement checkpoint's flush covers
    /// it).
    fn put_impl(&self, key: &[u8], value: Option<&[u8]>) -> Result<(), WriteError> {
        let _inflight = self.inner.wal.as_ref().map(|w| w.inflight.enter());
        self.wal_append(|inner, buf| encode_record_parts(buf, key, inner.seq.next(), value), 1)?;
        self.apply_to_memory(key, value);
        Ok(())
    }

    /// Appends every operation of `batch` to the commit log as **one**
    /// submission, then applies the operations to the memory component in
    /// insertion order. One submission means the whole batch lands inside
    /// a single group — and therefore a single WAL frame — so crash
    /// recovery (which truncates at frame granularity) replays it
    /// all-or-nothing. This is the body of [`KvStore::write`].
    ///
    /// With `tag` set the frame is also stamped with a sub-batch
    /// annotation (see [`wal::BatchAnnotation`]). The sharded router uses
    /// this to tie sibling sub-batches together across shard logs: the
    /// annotation is encoded at the head of the submission, inside the
    /// committer's critical section, so it and its records are contiguous
    /// in one frame and recover all-or-nothing. Recovery strips
    /// annotations out of the replayed records, so a tagged write replays
    /// exactly like an untagged one, and `wal_group_records` counts only
    /// the real operations, not the annotation.
    pub fn write_tagged(
        &self,
        batch: &WriteBatch,
        tag: Option<&wal::BatchAnnotation>,
    ) -> Result<(), WriteError> {
        let inner = &*self.inner;
        debug_assert!(
            tag.is_none_or(|tag| tag.ops as usize == batch.len()),
            "annotation ops must match batch"
        );
        let t0 = inner.telemetry.full().then(Instant::now);
        if batch.is_empty() {
            // Even an empty commit observes the poison and health
            // latches — the contract is that *every* write on a poisoned
            // or degraded store reports it, so an empty batch cannot
            // read as a healthy write path.
            inner.check_degraded()?;
            if let Some(wal) = &inner.wal {
                if wal.poisoned.load(Ordering::Acquire) {
                    return Err(wal.poison_error());
                }
            }
        } else {
            // Logged→applied window; see `put_impl`.
            let _inflight = inner.wal.as_ref().map(|w| w.inflight.enter());
            self.wal_append(
                |inner, buf| {
                    if let Some(tag) = tag {
                        tag.encode_into(buf);
                    }
                    for (key, value) in batch.iter() {
                        encode_record_parts(buf, key, inner.seq.next(), value);
                    }
                },
                batch.len() as u64,
            )?;
            for (key, value) in batch.iter() {
                self.apply_to_memory(key, value);
            }
            FloDbStats::add(&inner.stats.puts, batch.puts());
            FloDbStats::add(&inner.stats.deletes, batch.deletes());
        }
        if let Some(t0) = t0 {
            // One sample per batch: the caller-visible commit latency.
            inner
                .telemetry
                .record_op(OpClass::Put, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Runs one validated scan of `[low, high)` and returns the live
    /// entries as an owned, sorted snapshot.
    ///
    /// This is the fan-out building block for the sharded router: each
    /// shard materializes its snapshot through the full restart protocol,
    /// then the router k-way-merges the per-shard snapshots and streams
    /// them to the caller's visitor. Unlike [`KvStore::scan_with`], an
    /// early `ControlFlow::Break` in that merge prunes the *emission*, not
    /// the snapshot construction — the restart protocol validates a whole
    /// range at a time. Counts one `scans` and the returned entries as
    /// `scanned_keys`, so aggregated stats stay comparable with the
    /// unsharded path.
    pub fn scan_snapshot(&self, low: &[u8], high: &[u8]) -> Vec<ScanEntry> {
        let t0 = self.inner.telemetry.full().then(Instant::now);
        let merged = self.scan_impl(low, high);
        if let Some(t0) = t0 {
            self.inner
                .telemetry
                .record_op(OpClass::Scan, t0.elapsed().as_nanos() as u64);
        }
        FloDbStats::bump(&self.inner.stats.scans);
        let out: Vec<ScanEntry> = merged
            .iter()
            .filter_map(|(key, (_, value))| {
                value.as_ref().map(|v| (key.to_vec(), v.to_vec()))
            })
            .collect();
        FloDbStats::add(&self.inner.stats.scanned_keys, out.len() as u64);
        out
    }

    /// Commits one submission — `encode` writes its record(s), `records`
    /// many — through the log pipeline. Infallibly a no-op when the WAL is
    /// disabled.
    fn wal_append(
        &self,
        encode: impl FnOnce(&Inner, &mut Vec<u8>),
        records: u64,
    ) -> Result<(), WriteError> {
        let inner = &*self.inner;
        // The health latch gates every write path, WAL-enabled or not:
        // once background persistence failed persistently, accepting
        // writes would grow memory without bound (nothing drains it).
        inner.check_degraded()?;
        let Some(wal) = &inner.wal else {
            return Ok(());
        };
        if wal.poisoned.load(Ordering::Acquire) {
            return Err(wal.poison_error());
        }
        // Commit-wait attribution (`TelemetryLevel::Full`): time the whole
        // submission, subtract the time this thread's own commit closure
        // ran. For a leader that leaves queueing plus group formation; for
        // a follower (whose closure never runs) the whole submission is
        // waiting on another thread's commit.
        let t_submit = inner.telemetry.full().then(Instant::now);
        let commit_ns = std::cell::Cell::new(0u64);
        let outcome = wal.committer.submit(
            // Encoding runs inside the committer's critical section, so
            // sampling sequence numbers there makes log order match
            // sequence order exactly — and keeps a multi-record
            // submission's records contiguous in the group.
            |buf| encode(inner, buf),
            |frame| self.commit_group_frame(wal, frame, &commit_ns),
        );
        if let Some(t_submit) = t_submit {
            let total = t_submit.elapsed().as_nanos() as u64;
            inner
                .telemetry
                .record_stage(StageClass::CommitWait, total.saturating_sub(commit_ns.get()));
        }
        // `CommitRole::Leader::records` counts *submissions*; a
        // multi-record submission tops the record counter up by the
        // records beyond the one its submission already contributed.
        match outcome {
            Ok(CommitRole::Leader { records: subs, .. }) => {
                FloDbStats::bump(&inner.stats.wal_groups);
                FloDbStats::add(&inner.stats.wal_group_records, subs + records - 1);
            }
            Ok(CommitRole::Follower) => {
                FloDbStats::bump(&inner.stats.wal_follower_writes);
                FloDbStats::add(&inner.stats.wal_group_records, records - 1);
            }
            Err(e) => return Err(WriteError::Wal(e)),
        }
        Ok(())
    }

    /// Commits one group frame through the segmented log: append, then
    /// (inside the same poison-checked critical section) roll to a fresh
    /// segment if the active one crossed its size threshold. Appends are
    /// whole groups, so the roll is exactly at a group boundary. Rotation
    /// seals a segment for retirement, so the persist thread is notified.
    ///
    /// At `TelemetryLevel::Full` the commit's total duration is written
    /// into `commit_ns`, so `wal_append` can subtract it from the
    /// submission total for commit-wait attribution without timing the
    /// same interval twice.
    fn commit_group_frame(
        &self,
        wal: &WalState,
        frame: &mut [u8],
        commit_ns: &std::cell::Cell<u64>,
    ) -> Result<(), StorageError> {
        let inner = &*self.inner;
        let t0 = inner.telemetry.full().then(Instant::now);
        let outcome = wal.append_checked(|log| {
            let outcome = log.append_group_frame(frame)?;
            // Published under the log lock, like retirement's update of
            // the same gauge: a store after the unlock could overwrite a
            // newer count with this stale one.
            inner
                .stats
                .wal_active_bytes
                .store(outcome.active_bytes, Ordering::Relaxed);
            inner
                .stats
                .wal_generations
                .store(outcome.live_generations, Ordering::Relaxed);
            Ok(outcome)
        })?;
        if outcome.sync_ns > 0 && inner.telemetry.counters() {
            FloDbStats::add(&inner.stats.wal_sync_ns, outcome.sync_ns);
        }
        if let Some(t0) = t0 {
            // Split the commit into its stages: the append outcome carries
            // the fsync and rotation shares, the remainder is the write
            // itself (frame copy + file append + lock).
            let total = t0.elapsed().as_nanos() as u64;
            commit_ns.set(total);
            inner.telemetry.record_stage(
                StageClass::WalWrite,
                total.saturating_sub(outcome.sync_ns + outcome.rotation_ns),
            );
            if outcome.sync_ns > 0 {
                inner
                    .telemetry
                    .record_stage(StageClass::WalFsync, outcome.sync_ns);
            }
            if outcome.rotated || outcome.rotation_failed {
                inner
                    .telemetry
                    .record_stage(StageClass::WalRotation, outcome.rotation_ns);
            }
        }
        if outcome.rotated {
            FloDbStats::bump(&inner.stats.wal_rotations);
            inner.telemetry.event(
                TraceEventKind::WalRotation,
                outcome.sealed_bytes,
                outcome.rotation_ns,
            );
            // Checkpoint notification: a sealed generation now awaits
            // retirement; wake the persist thread so the on-disk log
            // stays bounded instead of waiting for the next size-triggered
            // flush.
            self.wake_persist();
        } else if outcome.rotation_failed {
            // A due roll was deferred because the next segment could not
            // be created; the log manager retries at the next group
            // boundary. Count the deferral so a misbehaving device is
            // visible even though the append itself succeeded.
            FloDbStats::bump(&inner.stats.io_retries);
        }
        Ok(())
    }

    /// Applies one acknowledged write to the memory component (Algorithm
    /// 2); infallible — by the time a write reaches here it is durable (or
    /// durability is off).
    fn apply_to_memory(&self, key: &[u8], value: Option<&[u8]>) {
        let inner = &*self.inner;
        // Fast path: complete in the Membuffer (Algorithm 2, lines 10-11).
        if inner.opts.membuffer_enabled {
            let fast = inner.view.read(|v| {
                v.mbf
                    .as_ref()
                    .map(|mbf| mbf.add(key, value))
                    .unwrap_or(AddResult::BucketFull)
            });
            if !matches!(fast, AddResult::BucketFull) {
                FloDbStats::bump(&inner.stats.membuffer_writes);
                return;
            }
        }

        // Slow path (Algorithm 2, lines 12-20).
        loop {
            // Honor pauseWriters: help drain or wait (lines 12-16). A
            // frozen Membuffer only becomes claimable once the freeze's
            // grace period has elapsed (`drain_ready`); helping before
            // that could claim a bucket a straggling writer is still
            // adding to, and the straggler's entry would be dropped with
            // the buffer. The short timed wait re-checks readiness so
            // writers still join the drain once it opens.
            while inner.pause_writers.is_paused() {
                let imm = inner.view.read(|v| v.imm_mbf.clone());
                match imm {
                    // Help only while chunks remain; once the last one is
                    // claimed the frozen buffer is someone else's to
                    // finish, and re-entering the help would spin a core
                    // the master needs until `is_complete`.
                    Some(imm) if imm.drain_ready() && !imm.tracker.exhausted() => {
                        // The view-coupled variant: a persist switch
                        // racing this help must not strand the batch in a
                        // Memtable whose flush already collected entries.
                        let help = drain::help_drain_imm_via(
                            &imm,
                            &inner.view,
                            &inner.seq,
                            inner.drain_style,
                        );
                        if help.chunks > 0 {
                            FloDbStats::bump(&inner.stats.writer_drain_helps);
                        }
                    }
                    Some(imm) => {
                        // Let go before parking: a reference held across
                        // the wait would keep the freezer from recycling
                        // the drained buffer.
                        drop(imm);
                        inner
                            .pause_writers
                            .wait_until_resumed_timeout(Duration::from_micros(50));
                    }
                    None => inner.pause_writers.wait_until_resumed(),
                }
            }
            // Wait for Memtable room (lines 17-18).
            let mut stall_start: Option<Instant> = None;
            loop {
                if inner.pause_writers.is_paused() {
                    break;
                }
                let bytes = inner.view.read(|v| v.mtb.approximate_bytes());
                if bytes <= inner.memtable_trigger {
                    break;
                }
                if inner.is_degraded() {
                    // Room is made by flushes — the very thing that just
                    // failed persistently. This write was already
                    // acknowledged in the WAL, so it must reach memory;
                    // only writes in flight before the health latch
                    // closed can be here, a bounded set, so memory stays
                    // bounded too.
                    break;
                }
                if stall_start.is_none() {
                    FloDbStats::bump(&inner.stats.write_stalls);
                    // The stall duration (`write_stall_ns`, the stage
                    // histogram and the begin/end event pair) is what
                    // attributes a write-latency tail to Memtable
                    // backpressure; the `Instant` is only sampled once a
                    // stall actually begins, so the unstalled hot path
                    // pays nothing for it.
                    stall_start = Some(Instant::now());
                    inner.telemetry.event(TraceEventKind::StallBegin, 0, 0);
                }
                self.wake_persist();
                let mut g = inner.room.lock();
                inner
                    .room_cv
                    .wait_for(&mut g, Duration::from_micros(500));
            }
            if let Some(t0) = stall_start {
                let ns = t0.elapsed().as_nanos() as u64;
                if inner.telemetry.counters() {
                    FloDbStats::add(&inner.stats.write_stall_ns, ns);
                }
                inner.telemetry.record_stage(StageClass::WriteStall, ns);
                inner.telemetry.event(TraceEventKind::StallEnd, ns, 0);
            }

            // Insert with a fresh sequence number (lines 19-20). The pause
            // re-check, the sequence acquisition and the insert share one
            // RCU read-side critical section: if this write obtains a
            // sequence number below a scan's stamp, the scan's grace period
            // (master_prepare / fallback) cannot return before the insert
            // has completed — otherwise a descheduled writer could slip a
            // pre-stamp entry into a range the scan already iterated past,
            // tearing the snapshot without triggering a restart.
            let inserted = inner.view.read(|v| {
                if inner.pause_writers.is_paused() {
                    return false;
                }
                let seq = inner.seq.next();
                v.mtb.insert(key, value, seq);
                true
            });
            if inserted {
                FloDbStats::bump(&inner.stats.memtable_writes);
                return;
            }
        }
    }

    /// The commit-log failure that poisoned this store, if any.
    ///
    /// While poisoned, reads and scans keep serving the already-applied
    /// state but every write is rejected with [`WriteError::Poisoned`].
    /// Reopening the store recovers the log's acknowledged prefix.
    pub fn wal_poison(&self) -> Option<Arc<StorageError>> {
        self.inner.wal.as_ref().and_then(WalState::poison_err)
    }

    fn get_impl(&self, key: &[u8]) -> Option<Vec<u8>> {
        let inner = &*self.inner;
        // Memory levels, freshest first, inside one critical section.
        let mem: Option<Option<Vec<u8>>> = inner.view.read(|v| {
            if let Some(mbf) = &v.mbf {
                if let Some(val) = mbf.get(key) {
                    return Some(val.map(Vec::from));
                }
            }
            if let Some(imm) = &v.imm_mbf {
                if let Some(val) = imm.buffer.get(key) {
                    return Some(val.map(Vec::from));
                }
            }
            if let Some(vv) = v.mtb.get(key) {
                return Some(vv.value.map(Vec::from));
            }
            if let Some(imm) = &v.imm_mtb {
                if let Some(vv) = imm.get(key) {
                    return Some(vv.value.map(Vec::from));
                }
            }
            None
        });
        match mem {
            Some(hit) => hit, // `None` inside means tombstone: deleted.
            None => inner
                .disk
                .get(key)
                // PANIC-OK: the read path has no error channel by design
                // (ROADMAP: fallible reads ride with the async-API item);
                // an I/O error on an in-memory env is a test-harness bug.
                .expect("disk read failed")
                .and_then(|r| r.value.map(Vec::from)),
        }
    }

    /// Runs the restart protocol to a validated snapshot of the range.
    ///
    /// The merged map is only handed out once an attempt validates (no
    /// entry fresher than the scan stamp was seen), so callers can stream
    /// it to a visitor without ever re-emitting across restarts.
    fn scan_impl(&self, low: &[u8], high: &[u8]) -> MergedRange {
        let inner = &*self.inner;
        let mut restarts = 0u32;
        loop {
            let role = inner.coord.enter(
                PIGGYBACK_CHAIN_LIMIT,
                inner.opts.master_reuse_limit,
                inner.opts.linearizable_scans,
            );
            let scan_seq = match role {
                ScanRole::Master => {
                    FloDbStats::bump(&inner.stats.master_scans);
                    let seq = self.master_prepare();
                    inner.coord.publish(seq);
                    seq
                }
                ScanRole::MasterReuse(seq) => {
                    FloDbStats::bump(&inner.stats.master_reuse_scans);
                    seq
                }
                ScanRole::Piggyback(seq) => {
                    FloDbStats::bump(&inner.stats.piggyback_scans);
                    seq
                }
            };
            let result = self.collect_range(low, high, scan_seq);
            inner.coord.exit(role);
            match result {
                Ok(entries) => return entries,
                Err(Restart) => {
                    FloDbStats::bump(&inner.stats.scan_restarts);
                    if matches!(role, ScanRole::MasterReuse(_)) {
                        // The reused stamp went stale; force the retry to
                        // establish a fresh one.
                        inner.coord.invalidate_reuse();
                    }
                    restarts += 1;
                    if restarts >= SCAN_RESTART_THRESHOLD {
                        return self.fallback_scan(low, high);
                    }
                }
            }
        }
    }

    /// Algorithm 3, lines 4-14: freeze, swap, drain, stamp, unfreeze.
    fn master_prepare(&self) -> u64 {
        let inner = &*self.inner;
        inner.pause_draining.pause();
        inner.pause_writers.pause();
        let seq = {
            let mut freezing = inner.freeze_lock.lock();
            freeze_and_drain_membuffer(inner, &mut freezing);
            // Line 12: the scan's linearization stamp.
            inner.seq.next()
        };
        // Lines 13-14: release writers and drainers.
        inner.pause_writers.resume();
        inner.pause_draining.resume();
        seq
    }

    /// Algorithm 3, lines 15-30: iterate MTB, IMM_MTB and disk, restarting
    /// on any entry fresher than the scan stamp.
    fn collect_range(
        &self,
        low: &[u8],
        high: &[u8],
        scan_seq: u64,
    ) -> Result<MergedRange, Restart> {
        let inner = &*self.inner;
        let view = inner.view.snapshot();
        // key -> (seq, value); freshest wins among seqs <= scan_seq.
        let mut merged: MergedRange = std::collections::BTreeMap::new();

        let mut absorb = |key: &[u8], seq: u64, value: Option<Box<[u8]>>| {
            match merged.entry(Box::from(key)) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert((seq, value));
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if seq > e.get().0 {
                        e.insert((seq, value));
                    }
                }
            }
        };

        let memtables = [Some(&view.mtb), view.imm_mtb.as_ref()];
        for list in memtables.into_iter().flatten() {
            let mut it = list.iter();
            it.seek(low);
            while it.valid() && it.key() <= high {
                let vv = it.value();
                if vv.seq > scan_seq {
                    return Err(Restart);
                }
                absorb(it.key(), vv.seq, vv.value);
                it.next();
            }
        }

        let mut fresher = false;
        let scanned = inner.disk.scan_each(low, high, &mut |record| {
            if record.seq > scan_seq {
                fresher = true;
                return ControlFlow::Break(());
            }
            absorb(&record.key, record.seq, record.value);
            ControlFlow::Continue(())
        });
        // PANIC-OK: same contract as `get` — the scan path is infallible
        // until fallible reads land (see ROADMAP), so a disk error aborts.
        scanned.expect("disk scan failed");
        if fresher {
            return Err(Restart);
        }

        Ok(merged)
    }

    /// The writer-blocking fallback guaranteeing scan liveness (§4.4).
    ///
    /// Unlike a master scan, the pauses are held through the collection:
    /// with Memtable writers and drains frozen, nothing can stamp a newer
    /// sequence number mid-iteration, so the scan cannot be invalidated.
    /// The Membuffer must still be frozen and drained first — fast-path
    /// writes are never blocked, and a fallback reading only the Memtable
    /// and disk would miss every update still resident in the Membuffer.
    fn fallback_scan(&self, low: &[u8], high: &[u8]) -> MergedRange {
        let inner = &*self.inner;
        FloDbStats::bump(&inner.stats.fallback_scans);
        inner.pause_draining.pause();
        inner.pause_writers.pause();
        // Hold the freeze lock through the collection: no other scan can
        // freeze-and-stamp mid-iteration, so (with writers and drains
        // paused) no post-stamp entry can appear and the loop terminates
        // once the bounded population of racing writers has quiesced.
        let mut freezing = inner.freeze_lock.lock();
        let result = loop {
            freeze_and_drain_membuffer(inner, &mut freezing);
            let seq = inner.seq.next();
            match self.collect_range(low, high, seq) {
                Ok(entries) => break entries,
                // A writer slipped in between our pause and its own pause
                // check; the population of such racers is bounded by the
                // thread count, so retrying terminates.
                Err(Restart) => continue,
            }
        };
        drop(freezing);
        inner.pause_writers.resume();
        inner.pause_draining.resume();
        result
    }
}

/// Background draining (Figure 6): continuously move Membuffer entries
/// into the Memtable, keeping Membuffer occupancy low.
///
/// Each worker owns a disjoint bucket range (see [`drain::drain_sweep`]);
/// the pause check runs *inside* the read-side critical section so a
/// master scan's freeze either waits for this batch or is observed by it
/// — a batch that slipped past both could stamp post-freeze writes with
/// pre-stamp sequence numbers.
fn drain_loop(inner: &Arc<Inner>, worker: usize) {
    let workers = inner.opts.drain_threads.max(1);
    let mut cursor = 0usize;
    let mut idle_beats = 0usize;
    let batch = inner.opts.drain_batch_entries.max(1);
    while !inner.stop.load(Ordering::Acquire) {
        if inner.pause_draining.is_paused() {
            inner
                .pause_draining
                .wait_until_resumed_timeout(Duration::from_millis(10));
            continue;
        }
        // The whole batch runs inside one read-side critical section so a
        // concurrent component switch waits for it (see ViewCell docs).
        let moved = inner.view.read(|v| {
            if inner.pause_draining.is_paused() {
                return 0;
            }
            let Some(mbf) = &v.mbf else { return 0 };
            let total = mbf.total_buckets();
            let start = total * worker / workers;
            let len = total * (worker + 1) / workers - start;
            let (moved, next) = drain::drain_sweep(
                mbf,
                &v.mtb,
                &inner.seq,
                start,
                len,
                cursor,
                batch,
                inner.drain_style,
            );
            cursor = next;
            moved
        });
        if moved == 0 {
            // Nothing to drain: use the idle beat to walk the reclamation
            // epoch forward (hot-path pins only attempt this sporadically).
            // `flush` takes the global participant/garbage mutexes, so an
            // idle store must not hammer them every 100us from every
            // worker: throttle to every 8th beat — the bound that matters
            // when a live guard elsewhere holds the counter gap open
            // indefinitely — and with the shim counters also skip entirely
            // while no garbage is outstanding (two relaxed loads).
            idle_beats = idle_beats.wrapping_add(1);
            let flush = idle_beats.is_multiple_of(8) && {
                #[cfg(feature = "epoch-shim-stats")]
                {
                    crossbeam_epoch::shim_stats::destructions_executed()
                        != crossbeam_epoch::shim_stats::destructions_deferred()
                }
                #[cfg(not(feature = "epoch-shim-stats"))]
                {
                    true
                }
            };
            if flush {
                crossbeam_epoch::pin().flush();
            }
            std::thread::sleep(Duration::from_micros(100));
        } else {
            FloDbStats::add(&inner.stats.drained_entries, moved as u64);
            FloDbStats::bump(&inner.stats.drain_batches);
        }
    }
}

/// Lines 6-11 of Algorithm 3: install a fresh Membuffer, freeze the
/// old one, and fully drain it into the Memtable (cooperating with
/// helping writers). Callers must hold `pause_draining` and
/// `pause_writers` and pass the state behind `freeze_lock`: `spare` is the
/// Membuffer to install (a new one is built only when there is none) and
/// receives the drained one back if nobody else still holds it. Both
/// master scans and the WAL-retirement checkpoint come through here.
fn freeze_and_drain_membuffer(inner: &Inner, spare: &mut Option<Arc<MemBuffer>>) {
    let t0 = inner.telemetry.counters().then(Instant::now);
    inner.telemetry.event(TraceEventKind::FreezeBegin, 0, 0);
    if inner.opts.membuffer_enabled {
        // Install a fresh Membuffer; freeze the old one (lines 6-7).
        // `update` waits a grace period, subsuming MemBufferRCUWait and
        // MemTableRCUWait (lines 8-9).
        inner.view.update(|old| MemView {
            mbf: Some(spare.take().unwrap_or_else(|| inner.new_membuffer())),
            imm_mbf: old
                .mbf
                .as_ref()
                .map(|m| Arc::new(ImmMembuffer::new(Arc::clone(m)))),
            ..old.clone()
        });
        // Drain the frozen buffer, cooperating with helping writers
        // (lines 10-11). The drain opens only now — after `update`'s
        // grace period — because the frozen view was visible to paused
        // writers *during* the grace, while straggling writers could
        // still be adding to the frozen buffer; a bucket claimed that
        // early would miss a straggler's entry and drop it with the
        // buffer (an acknowledged write lost — the root cause of the
        // long-standing message_queue backlog flake). The view-coupled
        // drain variant resolves the Memtable per chunk, inside a
        // read-side critical section: a concurrent persist switch would
        // otherwise race the drain into a Memtable whose flush already
        // collected its entries, dropping them when the immutable table
        // is released.
        let imm = inner.view.read(|v| v.imm_mbf.clone());
        if let Some(imm) = &imm {
            imm.open_for_drain();
            let moved =
                drain::help_drain_imm_via(imm, &inner.view, &inner.seq, inner.drain_style).entries;
            FloDbStats::add(&inner.stats.drained_entries, moved as u64);
            inner.telemetry.event(TraceEventKind::Drain, moved as u64, 0);
            let backoff = Backoff::new();
            while !imm.tracker.is_complete() {
                backoff.snooze();
            }
            debug_assert_eq!(
                imm.buffer.len(),
                0,
                "a fully drained frozen Membuffer must be empty — anything \
                 left here is an acknowledged write about to be dropped"
            );
        }
        inner.view.update(|old| MemView {
            imm_mbf: None,
            ..old.clone()
        });
        // That switch's grace period has retired the last view holding
        // the drained buffer: keep it for the next freeze unless a
        // snapshot or a late helper still owns a reference.
        *spare = imm.and_then(ImmMembuffer::reclaim);
        if spare.is_some() {
            FloDbStats::bump(&inner.stats.membuffer_recycles);
        }
    } else {
        // No Membuffer: a pure grace period quiesces in-flight writes.
        inner.view.update(MemView::clone);
    }
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        inner.telemetry.record_stage(StageClass::FreezeDrain, ns);
        inner.telemetry.event(TraceEventKind::FreezeEnd, ns, 0);
    }
}

/// Background persisting: switch a full Memtable out (RCU), flush it to
/// the disk component, then release it — and, when sealed WAL segments
/// await, run a retirement checkpoint so the on-disk log stays bounded.
fn persist_loop(inner: &Arc<Inner>) {
    while !inner.stop.load(Ordering::Acquire) {
        let persisted = persist_once(inner);
        let retired = maybe_retire_wal(inner);
        let compacted = maybe_compact(inner);
        if !persisted && !retired && !compacted {
            let mut g = inner.persist_park.lock();
            inner
                .persist_cv
                .wait_for(&mut g, Duration::from_micros(500));
        }
    }
    // Final drain-through so `Drop` leaves no frozen component behind.
    persist_once(inner);
}

/// Services compaction debt that no flush is around to piggyback on:
/// recovery flushes at open (and flushes whose follow-up compaction was
/// cut short) can leave `needs_compaction()` true with an empty memory
/// component, and nothing else would ever clear it — `quiesce` would
/// wait on that debt forever. Degrades rather than panics on persistent
/// failure, like every other persist-thread I/O.
fn maybe_compact(inner: &Arc<Inner>) -> bool {
    if !inner.opts.persist_enabled || inner.is_degraded() || !inner.disk.needs_compaction() {
        return false;
    }
    let t0 = inner.telemetry.counters().then(Instant::now);
    if let Err(e) = io_with_retries(inner, || inner.disk.compact_all()) {
        inner.degrade("compaction", &e);
        return false;
    }
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        inner.telemetry.record_stage(StageClass::Compaction, ns);
        inner.telemetry.event(TraceEventKind::Compaction, ns, 0);
    }
    true
}

fn persist_once(inner: &Arc<Inner>) -> bool {
    let view = inner.view.snapshot();
    let force = inner.force_flush.load(Ordering::Acquire);
    let should_switch = view.imm_mtb.is_none()
        && (view.mtb.approximate_bytes() >= inner.memtable_trigger
            || (force && !view.mtb.is_empty()));
    if should_switch {
        // Make the Memtable immutable and install a fresh one; the grace
        // period inside `update` is the paper's "RCU to make sure that all
        // pending updates to the immutable Memtable have completed".
        inner.view.update(|old| MemView {
            mtb: Arc::new(SkipList::new()),
            imm_mtb: Some(Arc::clone(&old.mtb)),
            ..old.clone()
        });
        let _g = inner.room.lock();
        inner.room_cv.notify_all();
    }

    let view = inner.view.snapshot();
    let Some(imm) = view.imm_mtb.clone() else {
        return should_switch;
    };
    flush_imm(inner, &imm) || should_switch
}

/// Flushes one immutable Memtable to the disk component and releases it.
///
/// Returns whether progress was made. Transient disk errors are retried
/// with backoff ([`io_with_retries`]); a persistent failure latches the
/// store degraded and keeps the table **resident** — reads serve it
/// live, nothing acknowledged is lost, and since the WAL is never
/// retired on a degraded store, a reopen replays it all. Never panics:
/// writers were acked when their WAL frame went durable, and the log
/// stays intact for recovery.
fn flush_imm(inner: &Arc<Inner>, imm: &Arc<SkipList>) -> bool {
    if inner.opts.persist_enabled && !imm.is_empty() {
        if inner.is_degraded() {
            // Releasing the table would drop acknowledged reads (its
            // records never reached disk); leave it for reopen to heal.
            return false;
        }
        let records: Vec<Record> = imm
            .collect_entries()
            .into_iter()
            .map(|(key, vv)| Record {
                key,
                seq: vv.seq,
                value: vv.value,
            })
            .collect();
        let record_count = records.len() as u64;
        let t0 = inner.telemetry.counters().then(Instant::now);
        if let Err(e) = io_with_retries(inner, || inner.disk.flush_records(records.clone())) {
            inner.degrade("memtable flush", &e);
            return false;
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            inner.telemetry.record_stage(StageClass::MemtableFlush, ns);
            inner
                .telemetry
                .event(TraceEventKind::Flush, record_count, ns);
        }
        let t0 = inner.telemetry.counters().then(Instant::now);
        if let Err(e) = io_with_retries(inner, || inner.disk.compact_all()) {
            // The flush itself landed, so the table can still be
            // released below — only the level shape degrades.
            inner.degrade("compaction", &e);
        } else if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            inner.telemetry.record_stage(StageClass::Compaction, ns);
            inner.telemetry.event(TraceEventKind::Compaction, ns, 0);
        }
    }
    // Counted before the release: `quiesce` reads "no immutable Memtable"
    // as "flush settled", counters included.
    FloDbStats::bump(&inner.stats.persists);
    // Release the immutable Memtable; scans holding a snapshot keep it
    // alive through their Arc (the paper's second RCU use, realized by
    // reference counting on top of the snapshot grace period).
    inner.view.update(|old| MemView {
        imm_mtb: None,
        ..old.clone()
    });
    let _g = inner.room.lock();
    inner.room_cv.notify_all();
    true
}

/// Pushes the current Memtable contents down to the disk component,
/// regardless of the size trigger: flush any pending immutable table,
/// then switch the live one out **once** and flush it. One switch is
/// exactly what the retirement checkpoint needs — everything it must
/// cover is already in the Memtable when this runs, and writes landing
/// after the switch belong to the next checkpoint. Looping until the
/// table observes empty would instead chase resumed writers forever
/// under sustained traffic, churning out tiny SSTs. Only the persist
/// thread calls this, so no other thread can be mid-switch.
fn flush_memtable_now(inner: &Arc<Inner>) {
    let view = inner.view.snapshot();
    if let Some(imm) = view.imm_mtb.clone() {
        flush_imm(inner, &imm);
    }
    let view = inner.view.snapshot();
    if view.mtb.is_empty() {
        return;
    }
    inner.view.update(|old| MemView {
        mtb: Arc::new(SkipList::new()),
        imm_mtb: Some(Arc::clone(&old.mtb)),
        ..old.clone()
    });
    {
        let _g = inner.room.lock();
        inner.room_cv.notify_all();
    }
    let view = inner.view.snapshot();
    if let Some(imm) = view.imm_mtb.clone() {
        flush_imm(inner, &imm);
    }
}

/// Retires sealed WAL segments once a persisted checkpoint covers them.
/// Returns whether anything was retired. Runs on the persist thread.
///
/// The protocol, in order — each step is what makes the next one sound:
///
/// 1. **Capture** the sealed backlog (generations `<= horizon`). Segments
///    sealed *during* the checkpoint keep their files and wait for the
///    next pass.
/// 2. **Grace period**: flip the [`PhasedInflight`] tracker and wait for
///    every write in its logged→applied window to finish. A record logged
///    into a sealed segment was logged before its seal, so its writer is
///    in the old phase; after the grace it has reached the memory
///    component. The wait loop *services* `persist_once`, because a
///    room-stalled writer needs this very thread to flush before it can
///    finish.
/// 3. **Checkpoint**: freeze-and-drain the Membuffer (same machinery as a
///    master scan), then flush the Memtable unconditionally. Every record
///    from step 2 is in the Membuffer or Memtable (or already flushed /
///    superseded by a later logged write), so afterwards the disk
///    component covers everything the captured segments hold.
/// 4. **Record** the new oldest-live generation durably in the manifest,
///    **then** delete the segment files and sync the directory. A crash
///    between the two leaves stale files below the mark — ignored by
///    recovery, pruned at the next open. The reverse order could delete
///    segments a pre-mark recovery still needs.
///
/// Requires the manifest (without it the flushed layout would not survive
/// a restart, so segments must never be deleted) and an enabled persist
/// path (with persisting off, flushes drop data and the log is the only
/// durable state).
fn maybe_retire_wal(inner: &Arc<Inner>) -> bool {
    let Some(wal) = &inner.wal else { return false };
    if !inner.opts.disk.manifest || !inner.opts.persist_enabled {
        return false;
    }
    if inner.is_degraded() {
        // The checkpoint's flush cannot succeed, so no sealed segment
        // can ever be covered — and the segments must stay: a degraded
        // store's WAL is the only durable copy of everything that never
        // reached disk, and reopen heals from it.
        return false;
    }
    let horizon = {
        let log = wal.log.lock();
        match log.sealed().last() {
            Some(seg) => seg.generation,
            None => return false,
        }
    };
    // Times the whole retirement pass (grace + checkpoint + mark +
    // deletions); recorded only when the pass actually retires.
    let t0 = inner.telemetry.counters().then(Instant::now);

    // Step 2: grace over logged→applied windows, servicing flushes so
    // room-stalled writers can make progress (the wait is bounded: each
    // window is one write operation, and nothing new extends it).
    wal.inflight.quiesce_with(|| {
        if !persist_once(inner) {
            std::thread::sleep(Duration::from_micros(100));
        }
    });

    // Step 3: checkpoint. Freeze protocol identical to a master scan's
    // (the pause flags are counting, so overlapping a concurrent scan's
    // freeze is fine; the freeze lock serializes the swaps).
    inner.pause_draining.pause();
    inner.pause_writers.pause();
    {
        let mut freezing = inner.freeze_lock.lock();
        freeze_and_drain_membuffer(inner, &mut freezing);
    }
    inner.pause_writers.resume();
    inner.pause_draining.resume();
    flush_memtable_now(inner);
    if inner.is_degraded() {
        // The checkpoint's flush failed: the sealed segments are NOT
        // covered by disk state, so neither the oldest-live mark nor the
        // deletions may proceed — the segments are the durable copy.
        // They stay tracked; the degraded check at the top keeps this
        // pass from being re-attempted.
        return false;
    }

    // Step 4: durable mark, then deletion. Errors here must not panic
    // the persist thread (writers would then stall on Memtable room
    // forever) and must not leave the sealed backlog re-attempted every
    // pass (quiesce would never settle): on failure the segments are
    // untracked anyway — their files stay on disk relative to whatever
    // mark was recorded, recovery handles both cases (live files replay,
    // stale files are ignored), and the next open prunes them; only
    // disk-footprint boundedness degrades, which `wal_retire_errors`
    // (and `io_degraded`) make observable. Transient failures never get
    // that far — both the manifest append and the deletions are retried
    // with backoff first (appending a duplicate oldest-live record and
    // re-deleting are both idempotent).
    if io_with_retries(inner, || {
        inner.disk.record_wal_oldest_live(new_oldest(wal, horizon))
    })
    .is_err()
    {
        FloDbStats::bump(&inner.stats.wal_retire_errors);
        FloDbStats::bump(&inner.stats.io_degraded);
        wal.log.lock().take_sealed_up_to(horizon);
        return false;
    }
    // Copy the backlog under the log lock (cheap), but run the deletions
    // and the directory fsync outside it: every committing writer
    // serializes on that lock, and sealed files need no coordination with
    // appends. The segments stay *tracked* until the files are gone and
    // the counters say so: `quiesce` reads a non-empty sealed list as
    // "retirement pending", and untracking first would let it return
    // with segment files still on disk and `wal_retired_bytes` short.
    let doomed: Vec<_> = {
        let log = wal.log.lock();
        log.sealed()
            .iter()
            .filter(|seg| seg.generation <= horizon)
            .copied()
            .collect()
    };
    let retired = match io_with_retries(inner, || {
        log_manager::delete_segments(inner.opts.env.as_ref(), &doomed)
    }) {
        Ok(retired) => {
            FloDbStats::add(&inner.stats.wal_retired_bytes, retired.bytes);
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                inner.telemetry.record_stage(StageClass::WalRetirement, ns);
                inner.telemetry.event(
                    TraceEventKind::WalRetirement,
                    retired.segments,
                    retired.bytes,
                );
            }
            retired.segments > 0
        }
        Err(_) => {
            FloDbStats::bump(&inner.stats.wal_retire_errors);
            FloDbStats::bump(&inner.stats.io_degraded);
            false
        }
    };
    let mut log = wal.log.lock();
    log.take_sealed_up_to(horizon);
    inner
        .stats
        .wal_generations
        .store(log.live_generations(), Ordering::Relaxed);
    retired
}

/// The oldest generation that must stay live once everything up to
/// `horizon` retires: the oldest still-sealed segment above it, or the
/// active segment.
fn new_oldest(wal: &WalState, horizon: u64) -> u64 {
    let log = wal.log.lock();
    log.sealed()
        .iter()
        .map(|seg| seg.generation)
        .find(|&generation| generation > horizon)
        .unwrap_or_else(|| log.active_generation())
}

/// The write methods return `Err(`[`WriteError`]`)` when the write-ahead
/// log could not acknowledge the write; nothing is applied in that case
/// and the store is poisoned (see [`WriteError`] for the contract). A lost
/// append is therefore never silently acknowledged, and never a panic.
impl KvStore for FloDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), WriteError> {
        let t0 = self.inner.telemetry.full().then(Instant::now);
        self.put_impl(key, Some(value))?;
        FloDbStats::bump(&self.inner.stats.puts);
        if let Some(t0) = t0 {
            self.inner
                .telemetry
                .record_op(OpClass::Put, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<(), WriteError> {
        let t0 = self.inner.telemetry.full().then(Instant::now);
        self.put_impl(key, None)?;
        FloDbStats::bump(&self.inner.stats.deletes);
        if let Some(t0) = t0 {
            // Deletes are tombstone puts; they share the put class.
            self.inner
                .telemetry
                .record_op(OpClass::Put, t0.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn write(&self, batch: &WriteBatch) -> Result<(), WriteError> {
        self.write_tagged(batch, None)
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let t0 = self.inner.telemetry.full().then(Instant::now);
        let r = self.get_impl(key);
        FloDbStats::bump(&self.inner.stats.gets);
        if let Some(t0) = t0 {
            self.inner
                .telemetry
                .record_op(OpClass::Get, t0.elapsed().as_nanos() as u64);
        }
        r
    }

    fn scan_with(
        &self,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) {
        let t0 = self.inner.telemetry.full().then(Instant::now);
        let merged = self.scan_impl(low, high);
        if let Some(t0) = t0 {
            // The scan sample covers the restart protocol and snapshot
            // construction, not the caller's visitor.
            self.inner
                .telemetry
                .record_op(OpClass::Scan, t0.elapsed().as_nanos() as u64);
        }
        FloDbStats::bump(&self.inner.stats.scans);
        let mut emitted = 0u64;
        for (key, (_, value)) in &merged {
            let Some(value) = value else { continue };
            emitted += 1;
            if visitor(key, value).is_break() {
                break;
            }
        }
        FloDbStats::add(&self.inner.stats.scanned_keys, emitted);
    }

    fn name(&self) -> &'static str {
        "FloDB"
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats.snapshot()
    }

    fn quiesce(&self) {
        let backoff = Backoff::new();
        loop {
            self.wake_persist();
            let (mbf_len, imm_mbf, mtb_bytes, imm_mtb) = self.inner.view.read(|v| {
                (
                    v.mbf.as_ref().map_or(0, |m| m.len()),
                    v.imm_mbf.is_some(),
                    v.mtb.approximate_bytes(),
                    v.imm_mtb.is_some(),
                )
            });
            // An over-trigger Memtable means a persist switch is pending
            // (or already in flight between its trigger check and the
            // swap): quiesce must wait it out, or a caller's first
            // post-quiesce scan races the switch/flush/release sequence —
            // the pre-existing message_queue flake. Below the trigger,
            // with no force-flush set, the persist thread provably leaves
            // the view alone until the next write.
            let switch_pending = mtb_bytes >= self.inner.memtable_trigger;
            // Sealed WAL segments awaiting retirement: the retirement
            // checkpoint flushes and rewrites the manifest; let it finish
            // so "quiesced" also means the on-disk log is back to one
            // active segment (the bounded-log invariant tests rely on).
            let retire_pending = self.inner.opts.disk.manifest
                && self.inner.opts.persist_enabled
                && self
                    .inner
                    .wal
                    .as_ref()
                    .is_some_and(|w| !w.log.lock().sealed().is_empty());
            // A degraded store can still settle its memory-only work
            // (drains run without disk I/O), but the resident immutable
            // Memtable, pending switch, retirement backlog and
            // compaction debt are permanently un-servable — treating
            // them as pending would wedge quiesce forever. "Quiesced"
            // then means: no *achievable* background work remains.
            let degraded = self.inner.is_degraded();
            // Compaction debt is only worth waiting on when the persist
            // thread services it; with persisting off nobody ever will,
            // and waiting would wedge.
            let compaction_pending =
                self.inner.opts.persist_enabled && self.inner.disk.needs_compaction();
            if mbf_len == 0
                && !imm_mbf
                && (degraded
                    || (!imm_mtb
                        && !switch_pending
                        && !retire_pending
                        && !compaction_pending))
            {
                break;
            }
            backoff.snooze();
        }
        // Background work has settled; also settle epoch reclamation. Each
        // round can advance the epoch one step past this thread's own pin,
        // so repeated rounds walk sealed garbage through its two-epoch
        // grace period. The background drain threads keep pinning on their
        // idle beat, which can make any individual advancement attempt
        // fail, so with the shim's counters available we retry until
        // executed catches up to deferred — bounded, because a thread
        // holding a guard open (legitimately) stalls reclamation forever.
        #[cfg(feature = "epoch-shim-stats")]
        {
            // Garbage can also sit in a drain thread's *unsealed* local
            // bag, which only that thread's own idle-beat flush (100us
            // cadence, see drain_loop) can seal — so once backoff stops
            // spinning, block in real sleeps long enough for every drain
            // thread to take an idle beat; pure yields could burn the whole
            // budget before they are scheduled. The budget is a wall-clock
            // deadline (not an iteration count) so a briefly-descheduled
            // drain thread cannot exhaust it, yet a guard held open across
            // quiesce (which legitimately stalls reclamation forever)
            // still cannot hang us.
            // The counters are process-global, so another epoch user in
            // this process (a second store, a raw skiplist) can hold the
            // gap open forever; once pumping stops shrinking it, further
            // rounds are wasted — bail after a stretch of no progress
            // (~6ms of sleeps, dozens of drain idle beats) rather than
            // burning the whole deadline.
            let deadline = std::time::Instant::now() + Duration::from_secs(1);
            let backoff = Backoff::new();
            let mut best_gap = u64::MAX;
            let mut stalled_rounds = 0u32;
            loop {
                let executed = crossbeam_epoch::shim_stats::destructions_executed();
                let deferred = crossbeam_epoch::shim_stats::destructions_deferred();
                if executed == deferred {
                    break;
                }
                let gap = deferred - executed;
                if gap < best_gap {
                    best_gap = gap;
                    stalled_rounds = 0;
                } else {
                    stalled_rounds += 1;
                    if stalled_rounds >= 64 {
                        break;
                    }
                }
                if std::time::Instant::now() >= deadline {
                    break;
                }
                crossbeam_epoch::pin().flush();
                if backoff.is_completed() {
                    std::thread::sleep(Duration::from_micros(100));
                } else {
                    backoff.snooze();
                }
            }
        }
        #[cfg(not(feature = "epoch-shim-stats"))]
        for _ in 0..4 {
            crossbeam_epoch::pin().flush();
        }
    }
}

impl Drop for FloDb {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        self.wake_persist();
        for handle in self.threads.lock().drain(..) {
            // LOCK-OK: shutdown-only join; the joined workers never take
            // FloDb.threads, and drop is the lock's only contender.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for FloDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FloDb")
            .field("memory_usage", &self.memory_usage())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> FloDb {
        FloDb::open(FloDbOptions::small_for_tests()).unwrap()
    }

    fn k(n: u64) -> [u8; 8] {
        n.to_be_bytes()
    }

    #[test]
    fn put_get_roundtrip() {
        let db = db();
        db.put(b"hello", b"world").unwrap();
        assert_eq!(db.get(b"hello"), Some(b"world".to_vec()));
        assert_eq!(db.get(b"missing"), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let db = db();
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k"), Some(b"v2".to_vec()));
    }

    #[test]
    fn delete_hides_key() {
        let db = db();
        db.put(b"k", b"v").unwrap();
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k"), None);
        // Deleting a missing key is fine.
        db.delete(b"never-existed").unwrap();
        assert_eq!(db.get(b"never-existed"), None);
    }

    #[test]
    fn get_falls_through_to_disk() {
        let db = db();
        for i in 0..500u64 {
            db.put(&k(i), &i.to_le_bytes()).unwrap();
        }
        db.flush_all();
        // Everything is on disk now; memory is empty.
        for i in (0..500u64).step_by(37) {
            assert_eq!(db.get(&k(i)), Some(i.to_le_bytes().to_vec()), "key {i}");
        }
        assert!(db.disk_stats().flushes > 0);
    }

    #[test]
    fn delete_shadows_disk_resident_value() {
        let db = db();
        db.put(b"k", b"old").unwrap();
        db.flush_all();
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k"), None);
        db.flush_all();
        assert_eq!(db.get(b"k"), None);
    }

    #[test]
    fn scan_returns_sorted_range() {
        let db = db();
        for i in [5u64, 1, 9, 3, 7] {
            db.put(&k(i), &i.to_le_bytes()).unwrap();
        }
        let out = db.scan(&k(2), &k(8));
        let keys: Vec<u64> = out
            .iter()
            .map(|(key, _)| u64::from_be_bytes(key.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![3, 5, 7]);
    }

    #[test]
    fn scan_sees_membuffer_writes_via_drain() {
        // Entries that only ever lived in the Membuffer must still appear:
        // the master scan drains them first.
        let db = db();
        db.put(&k(1), b"one").unwrap();
        db.put(&k(2), b"two").unwrap();
        let out = db.scan(&k(0), &k(10));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, b"one".to_vec());
    }

    #[test]
    fn scan_merges_memory_and_disk() {
        let db = db();
        for i in 0..20u64 {
            db.put(&k(i), b"disk").unwrap();
        }
        db.flush_all();
        db.put(&k(5), b"fresh").unwrap();
        db.delete(&k(6)).unwrap();
        let out = db.scan(&k(0), &k(19));
        assert_eq!(out.len(), 19, "deleted key must vanish");
        let five = out
            .iter()
            .find(|(key, _)| key.as_slice() == k(5))
            .unwrap();
        assert_eq!(five.1, b"fresh".to_vec());
    }

    #[test]
    fn empty_scan() {
        let db = db();
        assert!(db.scan(&k(0), &k(100)).is_empty());
    }

    #[test]
    fn stats_track_fast_path() {
        let db = db();
        for i in 0..50u64 {
            db.put(&k(i), b"v").unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.puts, 50);
        assert!(
            stats.fast_level_writes > 0,
            "most writes should hit the Membuffer"
        );
    }

    #[test]
    fn quiesce_drains_membuffer() {
        let db = db();
        for i in 0..100u64 {
            db.put(&k(i), b"v").unwrap();
        }
        db.quiesce();
        let mbf_len = db.inner.view.read(|v| v.mbf.as_ref().unwrap().len());
        assert_eq!(mbf_len, 0, "background drain must empty the Membuffer");
    }

    #[test]
    fn no_membuffer_mode_works() {
        let mut opts = FloDbOptions::small_for_tests();
        opts.membuffer_enabled = false;
        opts.drain_threads = 0;
        let db = FloDb::open(opts).unwrap();
        db.put(b"a", b"1").unwrap();
        assert_eq!(db.get(b"a"), Some(b"1".to_vec()));
        let out = db.scan(b"a", b"z");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn simple_insert_drain_mode_works() {
        let mut opts = FloDbOptions::small_for_tests();
        opts.use_multi_insert = false;
        let db = FloDb::open(opts).unwrap();
        for i in 0..100u64 {
            db.put(&k(i), b"v").unwrap();
        }
        db.quiesce();
        assert_eq!(db.get(&k(42)), Some(b"v".to_vec()));
    }

    #[test]
    fn persist_disabled_drops_memtables() {
        let mut opts = FloDbOptions::small_for_tests();
        opts.persist_enabled = false;
        let db = FloDb::open(opts).unwrap();
        for i in 0..5000u64 {
            db.put(&k(i), &[0u8; 64]).unwrap();
        }
        db.quiesce();
        assert_eq!(db.disk_stats().flushes, 0, "nothing may reach disk");
    }

    #[test]
    fn write_batch_applies_all_ops_in_order() {
        let db = db();
        db.put(b"gone", b"x").unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1").put(b"b", b"2").delete(b"gone");
        batch.put(b"a", b"overwritten");
        db.write(&batch).unwrap();
        assert_eq!(db.get(b"a"), Some(b"overwritten".to_vec()));
        assert_eq!(db.get(b"b"), Some(b"2".to_vec()));
        assert_eq!(db.get(b"gone"), None);
        let stats = db.stats();
        assert_eq!(stats.puts, 1 + 3);
        assert_eq!(stats.deletes, 1);
        // An empty batch is a no-op.
        db.write(&WriteBatch::new()).unwrap();
    }

    #[test]
    fn write_batch_survives_crash_as_a_unit() {
        let env: Arc<dyn flodb_storage::Env> = Arc::new(flodb_storage::MemEnv::new(None));
        let mut opts = FloDbOptions::small_for_tests();
        opts.env = Arc::clone(&env);
        opts.wal = WalMode::Enabled { sync: false };
        {
            let db = FloDb::open(opts.clone()).unwrap();
            let mut batch = WriteBatch::new();
            for i in 0..10u64 {
                batch.put(&k(i), &i.to_le_bytes());
            }
            batch.delete(&k(3));
            db.write(&batch).unwrap();
            // Simulated crash: drop without flushing.
        }
        let db = FloDb::open(opts).unwrap();
        for i in 0..10u64 {
            let expect = (i != 3).then(|| i.to_le_bytes().to_vec());
            assert_eq!(db.get(&k(i)), expect, "key {i}");
        }
    }

    #[test]
    fn scan_with_early_break_stops_emission() {
        let db = db();
        for i in 0..20u64 {
            db.put(&k(i), b"v").unwrap();
        }
        let mut seen = Vec::new();
        db.scan_with(&k(0), &k(19), &mut |key, _| {
            seen.push(key.to_vec());
            if seen.len() == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4], k(4).to_vec());
        // The counter reflects emitted keys, not the full range.
        assert_eq!(db.stats().scanned_keys, 5);
    }

    #[test]
    fn wal_recovery_restores_memory_component() {
        let env: Arc<dyn flodb_storage::Env> = Arc::new(flodb_storage::MemEnv::new(None));
        let mut opts = FloDbOptions::small_for_tests();
        opts.env = Arc::clone(&env);
        opts.wal = WalMode::Enabled { sync: false };
        {
            let db = FloDb::open(opts.clone()).unwrap();
            db.put(b"alpha", b"1").unwrap();
            db.put(b"beta", b"2").unwrap();
            db.delete(b"alpha").unwrap();
            // Simulated crash: drop without flushing.
        }
        let db = FloDb::open(opts).unwrap();
        assert_eq!(db.get(b"alpha"), None, "tombstone must replay");
        assert_eq!(db.get(b"beta"), Some(b"2".to_vec()));
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let db = Arc::new(db());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = t * 1000 + i;
                    db.put(&k(key), &key.to_le_bytes()).unwrap();
                    if i % 7 == 0 {
                        let _ = db.get(&k(t * 1000 + i / 2));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in (0..500u64).step_by(41) {
                let key = t * 1000 + i;
                assert_eq!(db.get(&k(key)), Some(key.to_le_bytes().to_vec()));
            }
        }
    }

    #[test]
    fn concurrent_scans_and_writes_are_consistent() {
        let db = Arc::new(db());
        for i in 0..100u64 {
            db.put(&k(i), &0u64.to_le_bytes()).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..100u64 {
                        db.put(&k(i), &round.to_le_bytes()).unwrap();
                    }
                    round += 1;
                }
            })
        };
        for _ in 0..20 {
            let out = db.scan(&k(0), &k(99));
            // Serializable snapshot: all 100 keys present; values form a
            // consistent cut (each key's round within 1 generation of the
            // minimum is NOT guaranteed, but presence and order are).
            assert_eq!(out.len(), 100);
            for w in out.windows(2) {
                assert!(w[0].0 < w[1].0, "scan must be sorted");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn master_reuse_mode_trades_freshness_for_drains() {
        let mut opts = FloDbOptions::small_for_tests();
        opts.master_reuse_limit = 4;
        let db = FloDb::open(opts).unwrap();
        for i in 0..50u64 {
            db.put(&k(i), b"v").unwrap();
        }
        // Back-to-back scans of a quiet store: the first drains, the rest
        // reuse its stamp (and stay correct).
        for _ in 0..5 {
            assert_eq!(db.scan(&k(0), &k(49)).len(), 50);
        }
        let f = db.flodb_stats();
        let reused = f.master_reuse_scans.load(Ordering::Relaxed);
        assert!(reused >= 1, "expected reuse on a quiet store, got {reused}");
        // Reused scans may serve a stale-but-consistent snapshot (the
        // Membuffer is not re-drained), but the reuse budget bounds the
        // staleness: within `master_reuse_limit + 1` scans a fresh master
        // drains and surfaces the write.
        db.put(&k(25), b"w").unwrap();
        let mut saw_fresh = false;
        for _ in 0..=5 {
            let out = db.scan(&k(0), &k(49));
            assert_eq!(out.len(), 50, "reused snapshots must stay complete");
            let v25 = out.iter().find(|(key, _)| key.as_slice() == k(25)).unwrap();
            if v25.1 == b"w".to_vec() {
                saw_fresh = true;
                break;
            }
            assert_eq!(v25.1, b"v".to_vec(), "stale value must be the old one");
        }
        assert!(saw_fresh, "the write must appear within the reuse budget");
    }

    #[test]
    fn linearizable_scan_mode() {
        let mut opts = FloDbOptions::small_for_tests();
        opts.linearizable_scans = true;
        let db = FloDb::open(opts).unwrap();
        db.put(b"x", b"1").unwrap();
        let out = db.scan(b"a", b"z");
        assert_eq!(out.len(), 1);
        // A linearizable scan must reflect every prior put.
        db.put(b"y", b"2").unwrap();
        let out = db.scan(b"a", b"z");
        assert_eq!(out.len(), 2);
    }
}
