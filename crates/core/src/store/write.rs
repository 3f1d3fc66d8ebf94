//! The write stage (Algorithm 2): log the write, then apply it to the
//! memory component — the Membuffer when its bucket has room, the
//! Memtable otherwise.

use std::time::Instant;

use flodb_membuffer::AddResult;
use flodb_storage::record::encode_record_parts;
use flodb_storage::wal;
use flodb_sync::shim::atomic::Ordering;
use flodb_sync::InflightGuard;

use super::commit::WalState;
use super::{FloDb, Inner};
use crate::api::WriteBatch;
use crate::error::WriteError;
use crate::stats::FloDbStats;
use crate::telemetry::{OpClass, StageClass, TraceEventKind};

impl FloDb {
    /// Commits every operation of `batch` to the commit log as **one**
    /// submission, then applies the operations to the memory component in
    /// insertion order. One submission means the whole batch lands inside
    /// a single group — and therefore a single WAL frame — so crash
    /// recovery (which truncates at frame granularity) replays it
    /// all-or-nothing. This is the body of
    /// [`KvStore::write`](crate::KvStore::write).
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
        debug_assert!(
            tag.is_none_or(|tag| tag.ops as usize == batch.len()),
            "annotation ops must match batch"
        );
        self.inner.commit_and_apply(batch.iter(), tag)
    }
}

impl Inner {
    /// One submission: appends `ops` to the commit log (when enabled) as one
    /// frame's worth of records, then applies them to the memory component
    /// in order. A put or delete is the one-op submission
    /// (`iter::once`), a `WriteBatch` the many-op one; the body is
    /// monomorphised per caller, so the single put builds no batch and
    /// allocates nothing here. `Err` means the submission was *not*
    /// acknowledged: its log group failed (or the store was already
    /// poisoned or degraded) and nothing was applied.
    ///
    /// The in-flight window spans log append through memory apply: a
    /// Memtable switch flips this tracker when it rolls the log and waits,
    /// so a segment is never retired while a write logged into it has yet
    /// to reach the memory component (where the switch's flush covers
    /// it).
    pub(super) fn commit_and_apply<'a>(
        &self,
        ops: impl ExactSizeIterator<Item = (&'a [u8], Option<&'a [u8]>)> + Clone,
        tag: Option<&wal::BatchAnnotation>,
    ) -> Result<(), WriteError> {
        let t0 = self.full_timer();
        let records = ops.len() as u64;
        if records == 0 {
            // Even an empty commit observes the poison and health
            // latches — the contract is that *every* write on a poisoned
            // or degraded store reports it, so an empty batch cannot
            // read as a healthy write path.
            self.check_writable()?;
        } else {
            let inflight = self.wal.as_ref().map(|w| w.inflight.enter());
            self.wal_append(
                |buf| {
                    if let Some(tag) = tag {
                        tag.encode_into(buf);
                    }
                    // A log record's order is its position; the sequence
                    // field only tells data (0) from annotation.
                    for (key, value) in ops.clone() {
                        encode_record_parts(buf, key, 0, value);
                    }
                },
                records,
            )?;
            if let (Some(wal), Some(window), true) = (&self.wal, &inflight, records > 1) {
                self.wait_for_cut(wal, window);
            }
            let mut puts = 0;
            for (key, value) in ops {
                self.apply_to_memory(key, value, inflight.as_ref());
                puts += u64::from(value.is_some());
            }
            FloDbStats::add(&self.stats.puts, puts);
            FloDbStats::add(&self.stats.deletes, records - puts);
        }
        // One sample per submission: the caller-visible commit latency.
        // Deletes are tombstone puts; they share the put class.
        self.record_op(OpClass::Put, t0);
        Ok(())
    }

    /// Holds a batch that logged after a switch's roll until the switch has
    /// swapped its Memtable out. Applied across the swap, part of the batch
    /// would reach the flushed table while its frame is only in the live
    /// segment, and losing that segment's tail would recover the batch in
    /// part. A batch that logged before the roll goes ahead: the switch's
    /// grace waits for it, so all of it is in the table. A single write
    /// needs no wait — it is before the swap or after it.
    fn wait_for_cut(&self, wal: &WalState, window: &InflightGuard<'_>) {
        // The switch clears the flag after its swap and wakes the room.
        self.room.park_until(|| {
            // ORDERING: pairs with the persist thread's SeqCst store before
            // its phase flip: a window that entered after the flip (not
            // awaited) must see the flag, or the batch would apply across
            // the swap.
            !wal.cutting.load(Ordering::SeqCst) || window.is_awaited()
        });
    }

    /// Applies one acknowledged write to the memory component (Algorithm
    /// 2); infallible — by the time a write reaches here it is durable (or
    /// durability is off). `inflight` is the write's logged→applied window,
    /// if the log is on.
    fn apply_to_memory(
        &self,
        key: &[u8],
        value: Option<&[u8]>,
        inflight: Option<&InflightGuard<'_>>,
    ) {
        // Fast path: complete in the Membuffer (Algorithm 2, lines 10-11).
        if self.opts.membuffer_enabled {
            let fast = self.view.read(|v| {
                v.mbf
                    .as_ref()
                    .map(|mbf| mbf.add(key, value))
                    .unwrap_or(AddResult::BucketFull)
            });
            if !matches!(fast, AddResult::BucketFull) {
                FloDbStats::bump(&self.stats.membuffer_writes);
                return;
            }
            // A full bucket is work for a parked drainer. Waking only here,
            // on the slow path, keeps the fast path's puts free of it.
            self.kick_drainers();
        }

        // Slow path (Algorithm 2, lines 12-20).
        loop {
            // Honor the freeze (lines 12-16): wait for the resume. The
            // freezer drains the frozen Membuffer alone.
            self.frozen.wait_until_resumed_or(|| false);
            // Wait for Memtable room (lines 17-18). The switch's swap
            // makes room and wakes the room; so do its roll (for the
            // exemption below) and a degrade.
            let has_room = || {
                self.view.read(|v| v.mtb.approximate_bytes()) <= self.memtable_trigger
                    // Room is made by flushes — the very thing that fails
                    // on a degraded store. This write was already
                    // acknowledged in the WAL, so it must reach memory;
                    // only writes in flight before the health latch closed
                    // can be here, a bounded set, so memory stays bounded
                    // too.
                    || self.is_degraded()
                    // The switch that makes room waits for this write to
                    // reach memory: overshoot the trigger by this one
                    // submission rather than wait on that very switch.
                    || inflight.is_some_and(InflightGuard::is_awaited)
            };
            let mut stall_start: Option<Instant> = None;
            if !self.frozen.is_paused() && !has_room() {
                FloDbStats::bump(&self.stats.write_stalls);
                // The stall duration (`write_stall_ns`, the stage
                // histogram and the begin/end event pair) is what
                // attributes a write-latency tail to Memtable
                // backpressure; the `Instant` is only sampled once a
                // stall actually begins, so the unstalled hot path pays
                // nothing for it.
                stall_start = Some(Instant::now());
                self.telemetry.event(TraceEventKind::StallBegin, 0, 0);
                self.persist_park.wake();
                self.room.park_until(has_room);
            }
            if let Some(t0) = stall_start {
                let ns = t0.elapsed().as_nanos() as u64;
                if self.telemetry.counters() {
                    FloDbStats::add(&self.stats.write_stall_ns, ns);
                }
                self.telemetry.record_stage(StageClass::WriteStall, ns);
                self.telemetry.event(TraceEventKind::StallEnd, ns, 0);
            }

            // Insert with a fresh sequence number (lines 19-20). The pause
            // re-check, the sequence acquisition and the insert share one
            // RCU read-side critical section: if this write obtains a
            // sequence number below a scan's stamp, the scan's freeze
            // cannot return before the insert has completed — otherwise a
            // descheduled writer could slip a pre-stamp entry into a range
            // the scan already iterated past, tearing its snapshot.
            let inserted = self.view.read(|v| {
                if self.frozen.is_paused() {
                    return None;
                }
                let seq = self.seq.next();
                v.mtb.insert(key, value, seq);
                Some(())
            });
            if inserted.is_some() {
                FloDbStats::bump(&self.stats.memtable_writes);
                self.wake_persist_if_full();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::store::tests::{db, k};
    use crate::{KvStore, WriteBatch};

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
}
