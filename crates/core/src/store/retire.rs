//! The retire stage: deleting sealed WAL segments once a persisted
//! checkpoint covers them, so the on-disk log stays bounded.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use flodb_storage::log_manager;

use super::commit::WalState;
use super::Inner;
use crate::stats::FloDbStats;
use crate::telemetry::{StageClass, TraceEventKind};

impl Inner {
    /// The log this store retires segments of, if it retires at all: that
    /// requires an enabled persist path (with persisting off, flushes drop
    /// data and the log is the only durable state).
    fn retiring_wal(&self) -> Option<&WalState> {
        self.wal.as_ref().filter(|_| self.opts.persist_enabled)
    }

    /// Whether sealed segments await retirement.
    pub(super) fn retirement_pending(&self) -> bool {
        self.retiring_wal()
            .is_some_and(|wal| !wal.log.lock().sealed().is_empty())
    }

    /// Retires sealed WAL segments once a persisted checkpoint covers
    /// them. Returns whether anything was retired. Runs on the persist
    /// thread.
    ///
    /// The protocol, in order — each step is what makes the next one
    /// sound:
    ///
    /// 1. **Capture** the sealed backlog (generations `<= horizon`).
    ///    Segments sealed *during* the checkpoint keep their files and
    ///    wait for the next pass.
    /// 2. **Grace period**: flip the `PhasedInflight` tracker and wait for
    ///    every write in its logged→applied window to finish. A record
    ///    logged into a sealed segment was logged before its seal, so its
    ///    writer is in the old phase; after the grace it has reached the
    ///    memory component. The wait loop *services* `persist_once`,
    ///    because a room-stalled writer needs this very thread to flush
    ///    before it can finish.
    /// 3. **Checkpoint**: freeze-and-drain the Membuffer (same machinery
    ///    as a master scan), then flush the Memtable unconditionally.
    ///    Every record from step 2 is in the Membuffer or Memtable (or
    ///    already flushed / superseded by a later logged write), so
    ///    afterwards the disk component covers everything the captured
    ///    segments hold. The flushes leave their compaction debt to the
    ///    persist loop's next round.
    /// 4. **Record** the new oldest-live generation durably in the
    ///    manifest, **then** delete the segment files and sync the
    ///    directory. A crash between the two leaves stale files below the
    ///    mark — ignored by recovery, pruned at the next open. The reverse
    ///    order could delete segments a pre-mark recovery still needs.
    ///
    pub(super) fn maybe_retire_wal(&self) -> bool {
        let Some(wal) = self.retiring_wal() else { return false };
        if self.is_degraded() {
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
        // Times the retirement pass — grace wait, freeze/drain, mark and
        // deletions; recorded only when the pass actually retires. The
        // pass's own flushes are recorded where every flush is, as
        // `MemtableFlush`, so their time is taken out of this sample.
        let t0 = self.telemetry.counters().then(Instant::now);
        let mut flushing = Duration::ZERO;
        let mut persist_once = |checkpoint: bool| {
            let began = t0.map(|_| Instant::now());
            let progress = self.persist_once(checkpoint).is_some();
            flushing += began.map_or(Duration::ZERO, |began| began.elapsed());
            progress
        };

        // Step 2: grace over logged→applied windows, servicing flushes so
        // room-stalled writers can make progress (the wait is bounded: each
        // window is one write operation, and nothing new extends it).
        wal.inflight.quiesce_with(|| {
            if !persist_once(false) {
                std::thread::sleep(Duration::from_micros(100));
            }
        });

        // Step 3: checkpoint. The freeze window may overlap a concurrent
        // scan's; the freeze lock serializes the swaps.
        self.freeze_window(|spare| self.freeze_and_drain_membuffer(spare));
        persist_once(true);
        if self.is_degraded() {
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
        let marked =
            self.io_with_retries(|| self.disk.record_wal_oldest_live(new_oldest(wal, horizon)));
        // Copy the backlog under the log lock (cheap), but run the deletions
        // and the directory fsync outside it: every committing writer
        // serializes on that lock, and sealed files need no coordination with
        // appends. The segments stay *tracked* until the files are gone and
        // the counters say so: `quiesce` reads a non-empty sealed list as
        // "retirement pending", and untracking first would let it return
        // with segment files still on disk and `wal_retired_bytes` short.
        let deleted = marked.and_then(|()| {
            let doomed: Vec<_> = {
                let log = wal.log.lock();
                log.sealed()
                    .iter()
                    .filter(|seg| seg.generation <= horizon)
                    .copied()
                    .collect()
            };
            self.io_with_retries(|| log_manager::delete_segments(self.opts.env.as_ref(), &doomed))
        });
        let retired = match deleted {
            Ok(retired) => {
                FloDbStats::add(&self.stats.wal_retired_bytes, retired.bytes);
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().saturating_sub(flushing).as_nanos() as u64;
                    self.telemetry.record_stage(StageClass::WalRetirement, ns);
                    self.telemetry.event(
                        TraceEventKind::WalRetirement,
                        retired.segments,
                        retired.bytes,
                    );
                }
                retired.segments > 0
            }
            Err(_) => {
                FloDbStats::bump(&self.stats.wal_retire_errors);
                FloDbStats::bump(&self.stats.io_degraded);
                false
            }
        };
        let mut log = wal.log.lock();
        log.take_sealed_up_to(horizon);
        self.stats
            .wal_generations
            .store(log.live_generations(), Ordering::Relaxed);
        retired
    }
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
