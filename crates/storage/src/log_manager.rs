//! WAL lifecycle management: segment rotation, retirement, recovery.
//!
//! A single log generation grows without bound under sustained write
//! traffic, so the commit log is split into **generation-numbered
//! segments** (`000001.log`, `000002.log`, ...), each opened by a
//! checksummed header ([`crate::wal::segment_header`]). The
//! [`LogManager`] owns the set:
//!
//! - **active → sealed**: every append lands in the *active* segment. A
//!   [`LogManager::roll`] *seals* it and makes a fresh generation active.
//!   The owner decides when: FloDB rolls at every Memtable switch, with a
//!   segment it created outside its log lock; a manager configured with a
//!   size trigger also rolls by itself once the active segment crosses
//!   `segment_max_bytes`. Appends are whole commit groups (one frame per
//!   call), so a roll always happens at a group boundary and a
//!   multi-record batch frame is never split across segments.
//! - **sealed → retired**: when the store has persisted a checkpoint
//!   covering a sealed segment's records, [`delete_segments`] removes the
//!   segment files and syncs the directory, and
//!   [`LogManager::take_sealed_up_to`] untracks them. The caller must
//!   first durably record the new oldest-live generation (FloDB puts it
//!   in the MANIFEST, see `manifest::ManifestWriter::set_wal_oldest_live`)
//!   so a crash between the record and the deletion leaves only ignorable
//!   stale files, never a recovery that replays retired data under live
//!   data.
//!
//! Recovery ([`recover_segments`]) scans only generations at or above the
//! recorded oldest-live mark, in generation order, truncating each
//! segment at its own first torn or corrupt frame. Per-segment
//! truncation is sound because a process crash can only tear the frame
//! being written — always in the newest write region — and a sealed
//! segment is fully written (and, under sync-on-write, fully fsynced)
//! before the next generation accepts its first frame; a tear sitting in
//! a *middle* generation is therefore an old crash point that some
//! earlier open already accepted as truncation, and the later
//! generations were written on top of that accepted state (forfeiting
//! them — as a global stop-at-first-tear rule would — loses their
//! acknowledged writes, which matters to any caller whose old segments
//! survive across runs). Recovery time stays proportional to
//! the live window, not the store's lifetime.

use std::mem;

use flodb_sync::shim::Arc;

use crate::env::Env;
use crate::error::Result;
use crate::record::Record;
use crate::wal::{parse_wal_name, wal_file_name, BatchAnnotation, WalWriter};

/// Tuning for a [`LogManager`].
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Active-segment size (header included) that makes an append roll to
    /// a fresh generation at the next group boundary; `u64::MAX` turns
    /// the size trigger off and leaves every roll to the owner. The active
    /// segment can exceed this by at most one commit group, so live log
    /// bytes stay bounded by `segment_max_bytes + max group size` once
    /// sealed segments retire.
    pub segment_max_bytes: u64,
    /// Fsync every appended frame (durability over latency).
    pub sync_on_write: bool,
}

/// A sealed (rotated-out, not yet retired) segment.
#[derive(Debug, Clone, Copy)]
pub struct SealedSegment {
    /// The segment's generation number.
    pub generation: u64,
    /// Total file bytes, header included.
    pub bytes: u64,
}

/// What one append did to the segment set.
#[derive(Debug, Clone, Copy)]
pub struct AppendOutcome {
    /// Whether this append sealed the active segment and rolled to a
    /// fresh generation.
    pub rotated: bool,
    /// Bytes now in the active segment (header included).
    pub active_bytes: u64,
    /// Nanoseconds this append spent fsyncing (0 with `sync_on_write`
    /// off). Drained from the writer before any rotation swaps it, so the
    /// time is always attributed to the group that paid it.
    pub sync_ns: u64,
    /// Nanoseconds spent on a due roll, whether or not it succeeded (0
    /// below the threshold).
    pub rotation_ns: u64,
}

/// What a retirement pass deleted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Retired {
    /// Segments deleted.
    pub segments: u64,
    /// Their total file bytes.
    pub bytes: u64,
}

/// Owns the WAL's generation-numbered segment set: the active writer, the
/// sealed backlog awaiting retirement, and the rotation counters.
///
/// The manager itself is not thread-safe; the store serializes access the
/// same way it serialized the single `WalWriter` before (one leader at a
/// time commits a group).
pub struct LogManager {
    env: Arc<dyn Env>,
    cfg: LogConfig,
    active_generation: u64,
    writer: WalWriter,
    /// Sealed segments in generation order (oldest first).
    sealed: Vec<SealedSegment>,
    rotations: u64,
}

impl LogManager {
    /// Creates a manager whose active segment is `first_generation`
    /// (header written and synced).
    pub fn create(env: Arc<dyn Env>, cfg: LogConfig, first_generation: u64) -> Result<Self> {
        let writer = WalWriter::create_segment(env.as_ref(), first_generation, cfg.sync_on_write)?;
        Ok(Self {
            env,
            cfg,
            active_generation: first_generation,
            writer,
            sealed: Vec::new(),
            rotations: 0,
        })
    }

    /// Appends one commit-group frame (header patched in place, see
    /// [`WalWriter::append_group_frame`]) to the active segment, then
    /// rolls to a fresh generation if the segment crossed its size
    /// threshold. Appends are whole groups, so the roll is always at a
    /// group boundary and no frame straddles two segments.
    pub fn append_group_frame(&mut self, frame: &mut [u8]) -> Result<AppendOutcome> {
        self.writer.append_group_frame(frame)?;
        // Drain the fsync time *before* a rotation can swap the writer
        // out, losing the nanoseconds this group just paid.
        let sync_ns = self.writer.take_sync_ns();
        let (rotated, rotation_ns) = self.maybe_rotate();
        Ok(AppendOutcome {
            rotated,
            active_bytes: self.writer.bytes_written(),
            sync_ns,
            rotation_ns,
        })
    }

    /// Seals the active segment and opens the next generation when the
    /// size threshold is crossed. The fresh segment is created (header
    /// synced) *before* the old writer is finished, so a creation failure
    /// leaves the current segment fully usable — the roll is simply
    /// retried at the next group boundary, and the log grows past its
    /// threshold instead of losing durability. Returns whether it rolled
    /// and the nanoseconds a due roll took.
    fn maybe_rotate(&mut self) -> (bool, u64) {
        if self.writer.bytes_written() < self.cfg.segment_max_bytes {
            return (false, 0);
        }
        let t0 = std::time::Instant::now();
        let next = self.active_generation + 1;
        let Ok(fresh) = WalWriter::create_segment(self.env.as_ref(), next, self.cfg.sync_on_write)
        else {
            return (false, t0.elapsed().as_nanos() as u64);
        };
        // Redundant under sync-on-write; best effort otherwise (a failed
        // final sync only matters under power loss, where an unsynced
        // log makes no promises anyway).
        let _ = self.roll(fresh).finish();
        (true, t0.elapsed().as_nanos() as u64)
    }

    /// Seals the active segment and makes `fresh` — generation
    /// [`Self::active_generation`]` + 1`, from
    /// [`WalWriter::create_segment`] — the active one. Returns the sealed
    /// segment's writer for the caller to [`WalWriter::finish`], which
    /// syncs it; a caller that guards the manager with a lock can create
    /// the fresh segment and finish the sealed one outside it, so the
    /// swap is the only work under the lock.
    pub fn roll(&mut self, fresh: WalWriter) -> WalWriter {
        let sealed = mem::replace(&mut self.writer, fresh);
        self.sealed.push(SealedSegment {
            generation: self.active_generation,
            bytes: sealed.bytes_written(),
        });
        self.active_generation += 1;
        self.rotations += 1;
        sealed
    }

    /// Removes sealed segments with `generation <= up_to` from tracking
    /// and returns them — without touching their files.
    ///
    /// Two uses: untracking segments whose files [`delete_segments`]
    /// already removed outside the log lock (untrack *last*, so a
    /// non-empty sealed list keeps meaning "retirement pending"), and
    /// giving up on a failed retirement — the files then stay on disk,
    /// recovery still sees them relative to the recorded oldest-live
    /// mark, and the next open prunes them; a persistently failing
    /// environment degrades to leftover files instead of wedging the
    /// persist thread or `quiesce`.
    pub fn take_sealed_up_to(&mut self, up_to: u64) -> Vec<SealedSegment> {
        let mut taken = Vec::new();
        self.sealed.retain(|seg| {
            if seg.generation <= up_to {
                taken.push(*seg);
                false
            } else {
                true
            }
        });
        taken
    }

    /// The sealed (rotated-out, unretired) segments, oldest first.
    pub fn sealed(&self) -> &[SealedSegment] {
        &self.sealed
    }

    /// The active segment's generation number.
    pub fn active_generation(&self) -> u64 {
        self.active_generation
    }

    /// Bytes in the active segment, header included.
    pub fn active_bytes(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Live generations on disk (sealed + active).
    pub fn live_generations(&self) -> u64 {
        self.sealed.len() as u64 + 1
    }

    /// Total rotations performed by this manager.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// The oldest generation recovery would need: the oldest sealed
    /// segment, or the active one when nothing is sealed.
    pub fn oldest_live(&self) -> u64 {
        self.sealed
            .first()
            .map_or(self.active_generation, |s| s.generation)
    }
}

/// Deletes the given sealed segments' files and syncs the directory.
/// Runs no manager lock — sealed segments are immutable, so deleting
/// them needs no coordination with appends, and the file I/O stays outside
/// whatever lock guards the manager.
///
/// The caller must already have durably recorded an oldest-live generation
/// above these segments: retirement only ever *narrows* what recovery
/// would scan, and a crash mid-deletion leaves stale segments below the
/// recorded mark, which recovery ignores and the next open prunes.
///
/// On error, already-deleted files are gone and the rest remain as stale
/// leftovers below the caller's recorded oldest-live mark (recovery
/// ignores them; the next open prunes them).
pub fn delete_segments(env: &dyn Env, segments: &[SealedSegment]) -> Result<Retired> {
    let mut retired = Retired::default();
    for seg in segments {
        env.delete(&wal_file_name(seg.generation))?;
        retired.segments += 1;
        retired.bytes += seg.bytes;
    }
    if retired.segments > 0 {
        env.sync_dir()?;
    }
    Ok(retired)
}

/// The result of replaying a store's live segment set.
#[derive(Debug)]
pub struct RecoveredWal {
    /// Every recovered record across all replayed segments, in log order:
    /// generations ascending, frames in append order. Position in this
    /// vector is the only order replay reports.
    pub records: Vec<Record>,
    /// Sub-batch annotations recovered across the replayed segments, in
    /// log order (empty for unsharded stores).
    pub annotations: Vec<BatchAnnotation>,
    /// Highest generation present on disk (0 when no segments exist); the
    /// reopened store's active segment must use a strictly higher one.
    pub max_generation: u64,
    /// Every generation-named segment file found, stale ones included —
    /// the set the caller deletes once the recovered state is flushed.
    pub segment_names: Vec<String>,
}

/// Replays the live WAL segments on `env`, in generation order.
///
/// Segments below `oldest_live` (the mark recorded in the manifest at the
/// last retirement) are stale — their contents were persisted before they
/// were deleted, so a crash mid-deletion may have left the files behind —
/// and are listed but not replayed. Each segment truncates at its own
/// first torn or corrupt frame (see the module docs for why per-segment
/// truncation is the sound rule). Files ending in `.log` whose stem is
/// not a generation number are ignored entirely.
pub fn recover_segments(env: &dyn Env, oldest_live: u64) -> Result<RecoveredWal> {
    let mut segments: Vec<(u64, String)> = env
        .list()?
        .into_iter()
        .filter_map(|n| parse_wal_name(&n).map(|generation| (generation, n)))
        .collect();
    segments.sort_unstable_by_key(|(generation, _)| *generation);

    let mut out = RecoveredWal {
        records: Vec::new(),
        annotations: Vec::new(),
        max_generation: segments.last().map_or(0, |(generation, _)| *generation),
        segment_names: segments.iter().map(|(_, n)| n.clone()).collect(),
    };
    for (generation, name) in &segments {
        if *generation < oldest_live {
            continue;
        }
        let replay = crate::wal::replay_segment(env, name, *generation)?;
        out.records.extend(replay.records);
        out.annotations.extend(replay.annotations);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;
    use crate::wal::{group_frame, SEGMENT_HEADER_BYTES};

    fn env() -> Arc<MemEnv> {
        Arc::new(MemEnv::new(None))
    }

    fn cfg(max: u64) -> LogConfig {
        LogConfig {
            segment_max_bytes: max,
            sync_on_write: false,
        }
    }

    /// Appends one single-record group frame for `key`, with the
    /// sequence field the store writes (0).
    fn append_one(lm: &mut LogManager, key: u64) -> AppendOutcome {
        let record = Record::put(key.to_be_bytes().as_slice(), 0, [7u8; 32].as_slice());
        lm.append_group_frame(&mut group_frame(&[record])).unwrap()
    }

    /// The keys `append_one` wrote, as replayed.
    fn keys(r: &RecoveredWal) -> Vec<u64> {
        r.records
            .iter()
            .map(|rec| u64::from_be_bytes(rec.key.as_ref().try_into().unwrap()))
            .collect()
    }

    #[test]
    fn rotation_happens_at_group_boundaries() {
        let env = env();
        let mut lm = LogManager::create(Arc::clone(&env) as Arc<dyn Env>, cfg(256), 1).unwrap();
        let mut rotations = 0;
        for i in 0..40u64 {
            if append_one(&mut lm, i).rotated {
                rotations += 1;
            }
        }
        assert!(rotations >= 2, "40 records over 256-byte segments must roll");
        assert_eq!(lm.rotations(), rotations);
        assert_eq!(lm.sealed().len() as u64, rotations);
        assert_eq!(lm.active_generation(), 1 + rotations);
        assert_eq!(lm.live_generations(), rotations + 1);
        // Every sealed segment crossed the threshold, and none grew much
        // past it (one record, here).
        for seg in lm.sealed() {
            assert!(seg.bytes >= 256, "sealed below threshold: {seg:?}");
        }
        // Everything replays, in order, across the generation boundaries.
        let r = recover_segments(env.as_ref(), 0).unwrap();
        assert_eq!(keys(&r), (0..40).collect::<Vec<_>>(), "replay out of order");
        assert_eq!(r.max_generation, lm.active_generation());
    }

    #[test]
    fn retirement_deletes_files_and_recovery_skips_stale() {
        let env = env();
        let mut lm = LogManager::create(Arc::clone(&env) as Arc<dyn Env>, cfg(256), 1).unwrap();
        for i in 0..40u64 {
            append_one(&mut lm, i);
        }
        let sealed: Vec<u64> = lm.sealed().iter().map(|s| s.generation).collect();
        assert!(sealed.len() >= 2);
        let horizon = sealed[sealed.len() - 1];
        // The store's order: delete the files, then untrack.
        let doomed: Vec<SealedSegment> = lm.sealed().to_vec();
        let retired = delete_segments(env.as_ref(), &doomed).unwrap();
        assert_eq!(lm.take_sealed_up_to(horizon).len(), doomed.len());
        assert_eq!(retired.segments, sealed.len() as u64);
        assert!(retired.bytes >= 256 * retired.segments);
        assert!(lm.sealed().is_empty());
        assert_eq!(lm.oldest_live(), lm.active_generation());
        for generation in sealed {
            assert!(!env.exists(&wal_file_name(generation)), "gen {generation}");
        }
        // Recovery from the new oldest-live mark sees only the active tail.
        let r = recover_segments(env.as_ref(), lm.active_generation()).unwrap();
        let replayed = r.records.len() as u64;
        assert!(replayed < 40);
        assert_eq!(keys(&r), (40 - replayed..40).collect::<Vec<_>>());
    }

    #[test]
    fn recovery_ignores_stale_segments_below_oldest_live() {
        // A crash between the manifest's oldest-live record and the file
        // deletions leaves stale segments; they must be listed (for
        // pruning) but never replayed.
        let env = env();
        let mut lm = LogManager::create(Arc::clone(&env) as Arc<dyn Env>, cfg(128), 1).unwrap();
        for i in 0..30u64 {
            append_one(&mut lm, i);
        }
        assert!(!lm.sealed().is_empty());
        let first_live = lm.sealed()[1].generation;
        let all_files = env.list().unwrap().len();
        let r = recover_segments(env.as_ref(), first_live).unwrap();
        assert_eq!(r.segment_names.len(), all_files, "stale names listed");
        assert!(
            keys(&r).iter().all(|&key| key > 0),
            "generation 1's records must not replay below the mark"
        );
    }

    #[test]
    fn old_middle_tear_truncates_only_its_own_segment() {
        // A tear in a non-newest generation is an old, already-accepted
        // crash point (a caller may keep such segments across runs): its
        // own tail is dropped, but the later generations —
        // written on top of the accepted truncation — must replay.
        let env = env();
        let mut lm = LogManager::create(Arc::clone(&env) as Arc<dyn Env>, cfg(128), 1).unwrap();
        for i in 0..30u64 {
            append_one(&mut lm, i);
        }
        assert!(lm.sealed().len() >= 2);
        let victim = lm.sealed()[0].generation;
        let victim_records = {
            let full = recover_segments(env.as_ref(), 0).unwrap();
            let after = recover_segments(env.as_ref(), victim + 1).unwrap();
            full.records.len() - after.records.len()
        };
        assert!(victim_records >= 1);

        // Tear the oldest sealed segment just past its header.
        let name = wal_file_name(victim);
        let data = env
            .open_random(&name)
            .unwrap()
            .read_at(0, SEGMENT_HEADER_BYTES + 5)
            .unwrap();
        let mut f = env.new_writable(&name).unwrap();
        f.append(&data).unwrap();

        let r = recover_segments(env.as_ref(), 0).unwrap();
        assert_eq!(
            r.records.len(),
            30 - victim_records,
            "only the torn generation's own records drop; later ones replay"
        );
        assert!(
            keys(&r).iter().all(|&key| key >= victim_records as u64),
            "the surviving records are exactly the later generations'"
        );
    }

    #[test]
    fn non_generation_log_names_are_ignored() {
        let env = env();
        let mut f = env.new_writable("matrix.log").unwrap();
        f.append(b"not a segment").unwrap();
        let r = recover_segments(env.as_ref(), 0).unwrap();
        assert!(r.records.is_empty());
        assert!(r.segment_names.is_empty());
        assert_eq!(r.max_generation, 0);
    }

    #[test]
    fn oversized_group_still_lands_in_one_segment() {
        // A frame larger than the whole segment budget commits intact and
        // the roll happens after it: frames never straddle segments.
        let env = env();
        let mut lm = LogManager::create(Arc::clone(&env) as Arc<dyn Env>, cfg(64), 1).unwrap();
        let records: Vec<Record> = (0..10u64)
            .map(|i| Record::put(i.to_be_bytes().as_slice(), i + 1, [1u8; 64].as_slice()))
            .collect();
        let out = lm.append_group_frame(&mut group_frame(&records)).unwrap();
        assert!(out.rotated);
        assert_eq!(lm.sealed().len(), 1);
        let r = recover_segments(env.as_ref(), 0).unwrap();
        assert_eq!(r.records.len(), 10);
    }
}
