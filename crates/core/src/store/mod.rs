//! The FloDB store: user-facing operations and background threads.
//!
//! Operation flow follows the paper exactly, and the module tree follows
//! the stages the telemetry names — each stage is a module, and the
//! modules share state only through [`Inner`]:
//!
//! - [`write`] — **Put/Delete** (Algorithm 2): try the Membuffer; on a full
//!   bucket fall through to the Memtable, first honoring the freeze flag
//!   (waiting out the freezer's drain of the frozen Membuffer) and waiting
//!   for Memtable room. [`commit`] is its durability half: the group-commit
//!   pipeline in front of the segmented log.
//! - [`read`] — **Get** (Algorithm 2): MBF → IMM_MBF → MTB → IMM_MTB →
//!   disk; first hit wins because levels are searched in data-flow order.
//! - [`scan`] — **Scan** (Algorithm 3): a master scan opens a freeze
//!   window ([`freeze`]: pause writers, swap in a fresh Membuffer, drain
//!   the frozen one alone), takes a sequence number and a
//!   snapshot of MTB/IMM_MTB/disk, unfreezes, then streams the snapshot
//!   as of its stamp to the visitor in one pass. Memtable updates keep the
//!   versions a live stamp reads, so nothing restarts. Concurrent scans
//!   piggyback on the master's snapshot.
//! - [`drain`] — **draining** (Figure 6) has one primitive: drain one
//!   64-bucket chunk inside one RCU read section. The background drain
//!   threads lap their own disjoint chunk ranges of the live Membuffer
//!   with it, and the freezer drains the frozen Membuffer with it, chunk by
//!   chunk, alone.
//! - [`persist`] — **persisting** runs on a background thread, and has one
//!   step: the Memtable switch, which is also the WAL checkpoint — roll
//!   the log, wait out the writes logged before the roll, freeze-drain
//!   the Membuffer, switch and flush the Memtable, then retire the sealed
//!   segments it covers. Component switches use RCU and never block
//!   readers; [`recover`] replays the log at open.
//!
//! This file holds the shared state, `open` and the thin [`KvStore`] impl;
//! [`settle`] is `flush_all`/`quiesce`, and [`latch`] the error latch
//! behind the poisoned and degraded states.

mod commit;
#[cfg(flodb_model)]
pub mod drain;
#[cfg(not(flodb_model))]
mod drain;
mod freeze;
mod latch;
mod persist;
mod read;
mod recover;
mod scan;
mod settle;
mod write;

use std::iter;
use std::ops::ControlFlow;
use std::time::Instant;

use flodb_membuffer::{MemBuffer, MemBufferConfig};
use flodb_storage::{DiskComponent, StorageError};
use flodb_sync::lock_order::{CORE_FREEZE, CORE_THREADS};
use flodb_sync::shim::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use flodb_sync::shim::thread::{self, JoinHandle};
use flodb_sync::shim::{ranked_mutex, Arc, Mutex};
use flodb_sync::{Park, PauseFlag, SequenceGenerator};

use self::commit::WalState;
use self::drain::DrainStyle;
use self::latch::ErrorLatch;
use self::scan::ScanCoordinator;
use crate::api::{KvStore, StoreStats, WriteBatch};
use crate::error::{OpenError, WriteError};
use crate::options::{FloDbOptions, WalMode};
use crate::stats::FloDbStats;
use crate::telemetry::{EngineTelemetry, OpClass, TelemetrySnapshot, TraceEvent, TraceEventKind};
use crate::view::{MemView, ViewCell};

/// Everything the stages share.
struct Inner {
    opts: FloDbOptions,
    memtable_trigger: usize,
    drain_style: DrainStyle,
    view: ViewCell,
    seq: SequenceGenerator,
    disk: DiskComponent,
    /// Algorithm 3's `pauseWriters` and `pauseDrainingThreads` as one flag:
    /// the paper sets them together (lines 4-5) and clears them together
    /// (13-14), and only [`Inner::freeze_window`] ever flips either, so
    /// Memtable writers and the drain loop read the same counting flag.
    frozen: PauseFlag,
    coord: ScanCoordinator,
    /// Serializes [freeze .. stamp] windows across master scans and
    /// switches. Two interleaved freezes would let the second one drain
    /// writes made *after* the first scan's linearization point into the
    /// Memtable with sequence numbers *below* the first scan's stamp,
    /// silently including a partial post-cut round in its snapshot.
    ///
    /// The lock also owns the *spare* Membuffer: a fully drained buffer
    /// the last freeze got back as sole owner (`view::reclaim`),
    /// which the next freeze installs instead of building a new one.
    freeze_lock: Mutex<Option<Arc<MemBuffer>>>,
    stats: FloDbStats,
    stop: AtomicBool,
    /// `flush_all` calls waiting for memory to empty: while any is, the
    /// persist thread switches whenever memory holds anything. A count,
    /// like `settling`, so the first call to return cannot clear it under
    /// another.
    force_flush: AtomicUsize,
    /// `flush_all`/`quiesce` calls waiting: the persist thread then merges
    /// a lone flushed run too. A `Relaxed` hint, re-read every round.
    settling: AtomicUsize,
    /// Writers waiting for Memtable room (Algorithm 2, line 18), or for a
    /// switch's cut, park here; the switch and a degrade wake them.
    room: Park,
    /// The persist thread parks here while no switch is due and no
    /// compaction is wanted.
    persist_park: Park,
    /// The drain threads park here after a lap that found nothing, until
    /// their flag in `drain_kicks` is set ([`Inner::kick_drainers`]).
    drain_park: Park,
    drain_kicks: Box<[AtomicBool]>,
    /// `flush_all` and `quiesce` park here until the background threads
    /// end a step ([`Inner::post_progress`]), counted in `steps`.
    progress: Park,
    steps: AtomicU64,
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
    degraded: ErrorLatch,
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

fn new_membuffer(opts: &FloDbOptions) -> Arc<MemBuffer> {
    Arc::new(MemBuffer::new(MemBufferConfig::for_capacity_bytes(
        opts.membuffer_bytes(),
        opts.partition_bits,
        opts.avg_entry_bytes,
    )))
}

/// Starts one background thread running `body` over the shared state.
fn spawn(
    inner: &Arc<Inner>,
    name: String,
    body: impl FnOnce(&Inner) + Send + 'static,
) -> Result<JoinHandle<()>, OpenError> {
    let inner = Arc::clone(inner);
    thread::spawn_named(name, move || body(&inner)).map_err(OpenError::Spawn)
}

impl Inner {
    fn is_degraded(&self) -> bool {
        self.degraded.is_closed()
    }

    /// Latches the store degraded after `what` kept failing through its
    /// bounded retries.
    fn degrade(&self, what: &str, err: &StorageError) {
        FloDbStats::bump(&self.stats.io_degraded);
        let cause = StorageError::Io(std::io::Error::other(format!(
            "store degraded: {what} failed persistently: {err}"
        )));
        self.degraded.close(&mut self.degraded.cause.lock(), cause);
        // Flight-recorder postmortem: the trip plus the auto-dump, after
        // the cause lock is released (the dump takes its own leaf lock).
        self.telemetry.event(TraceEventKind::Degraded, 0, 0);
        self.telemetry.dump_to_stderr(what);
        // Room waiters and settles treat a degraded store as settled.
        self.room.wake();
        self.post_progress();
    }

    /// Wakes the persist thread if the Memtable has reached its trigger,
    /// else the writers waiting for room (a cut of a scan's retained
    /// versions lowers the figure with no switch). Called after anything
    /// that inserts into it: a drain, a writer's slow path, a freeze.
    fn wake_persist_if_full(&self) {
        if self.view.read(|v| v.mtb.approximate_bytes()) >= self.memtable_trigger {
            self.persist_park.wake();
        } else {
            self.room.wake();
        }
    }

    /// Asks every drain thread for another lap — a writer found its bucket
    /// full, or a settle waits for the Membuffer to empty — and wakes the
    /// parked ones. A flag already set is only read, so writers that find
    /// buckets full while the drainers lap write no shared line.
    fn kick_drainers(&self) {
        for kick in self.drain_kicks.iter() {
            if !kick.load(Ordering::Relaxed) {
                kick.store(true, Ordering::Relaxed);
            }
        }
        self.drain_park.wake();
    }

    /// Ends a background step: counts it, then wakes `flush_all` and
    /// `quiesce` to re-check what they wait for.
    fn post_progress(&self) {
        self.steps.fetch_add(1, Ordering::Release);
        self.progress.wake();
    }

    /// Seals this thread's epoch bag and collects what is due. Only a
    /// bag's owner can seal it, so an engine thread calls this before it
    /// parks; skipped while the collector's counters show no garbage
    /// outstanding (two relaxed loads).
    fn flush_epoch_bag() {
        let garbage = FloDbStats::reclamation();
        if garbage.destructions_executed != garbage.destructions_deferred {
            crossbeam_epoch::pin().flush();
        }
    }

    /// The start of a latency sample: `Some(now)` at
    /// `TelemetryLevel::Full`, one branch on the cached level below it.
    #[inline]
    fn full_timer(&self) -> Option<Instant> {
        self.telemetry.full().then(Instant::now)
    }

    /// Records the user operation begun at `t0` ([`Self::full_timer`]).
    #[inline]
    fn record_op(&self, class: OpClass, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.telemetry
                .record_op(class, t0.elapsed().as_nanos() as u64);
        }
    }
}

impl FloDb {
    /// Opens a store with `opts`, spawning the background threads.
    ///
    /// The disk component recovers its file layout from the manifest. If a
    /// write-ahead log is enabled and log files exist in the environment,
    /// their intact frames are replayed, flushed to the recovered disk
    /// component, and the consumed logs deleted; sequence numbering resumes
    /// past them.
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
        let recovered = recover::recover_wal(&opts, &disk)?;
        let wal = match opts.wal {
            WalMode::Disabled => None,
            WalMode::Enabled { sync } => {
                Some(WalState::create(&opts, sync, recovered.next_generation)?)
            }
        };

        let membuffer_enabled = opts.membuffer_enabled;
        let drain_threads = opts.drain_threads;
        let coord = ScanCoordinator::new();
        let inner = Arc::new(Inner {
            memtable_trigger: opts.memtable_bytes(),
            drain_style: if opts.use_multi_insert {
                DrainStyle::MultiInsert
            } else {
                DrainStyle::SimpleInsert
            },
            view: ViewCell::new(MemView {
                mbf: membuffer_enabled.then(|| new_membuffer(&opts)),
                imm_mbf: None,
                mtb: Arc::new(coord.memtable()),
                imm_mtb: None,
            }),
            seq: SequenceGenerator::starting_at(recovered.max_seq + 1),
            disk,
            frozen: PauseFlag::new(),
            coord,
            freeze_lock: ranked_mutex(CORE_FREEZE, None),
            stats: FloDbStats::default(),
            stop: AtomicBool::new(false),
            force_flush: AtomicUsize::new(0),
            settling: AtomicUsize::new(0),
            room: Park::new(),
            persist_park: Park::new(),
            drain_park: Park::new(),
            drain_kicks: (0..drain_threads).map(|_| AtomicBool::new(false)).collect(),
            progress: Park::new(),
            steps: AtomicU64::new(0),
            wal,
            degraded: ErrorLatch::new("store degraded by a persistent background I/O failure"),
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
                let name = format!("flodb-drain-{i}");
                threads.push(spawn(&inner, name, move |inner| inner.drain_loop(i))?);
            }
        }
        threads.push(spawn(&inner, "flodb-persist".into(), Inner::persist_loop)?);

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

    /// The commit-log failure that poisoned this store, if any.
    ///
    /// While poisoned, reads and scans keep serving the already-applied
    /// state but every write is rejected with [`WriteError::Poisoned`].
    /// Reopening the store recovers the log's acknowledged prefix.
    pub fn wal_poison(&self) -> Option<Arc<StorageError>> {
        self.inner.wal.as_ref().and_then(|wal| wal.poison.cause())
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
}

/// The write methods return `Err(`[`WriteError`]`)` when the write-ahead
/// log could not acknowledge the write; nothing is applied in that case
/// and the store is poisoned (see [`WriteError`] for the contract). A lost
/// append is therefore never silently acknowledged, and never a panic.
impl KvStore for FloDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), WriteError> {
        self.inner.commit_and_apply(iter::once((key, Some(value))), None)
    }

    fn delete(&self, key: &[u8]) -> Result<(), WriteError> {
        self.inner.commit_and_apply(iter::once((key, None)), None)
    }

    fn write(&self, batch: &WriteBatch) -> Result<(), WriteError> {
        self.write_tagged(batch, None)
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.get_impl(key)
    }

    fn scan_with(
        &self,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) {
        self.inner.scan_with(low, high, visitor);
    }

    fn name(&self) -> &'static str {
        "FloDB"
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats.snapshot()
    }

    fn quiesce(&self) {
        self.inner.quiesce();
    }
}

impl Drop for FloDb {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.persist_park.wake();
        self.inner.kick_drainers();
        // A drainer may be waiting out a pause nobody will resume.
        self.inner.frozen.notify();
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

    pub(super) fn db() -> FloDb {
        FloDb::open(FloDbOptions::small_for_tests()).unwrap()
    }

    pub(super) fn k(n: u64) -> [u8; 8] {
        n.to_be_bytes()
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
}
