//! The drain stage (Figure 6): moving entries Membuffer → Memtable.
//!
//! Draining has one primitive, [`drain_chunk`]: retrieve and mark the
//! unmarked entries of one chunk — the 64 buckets of one occupancy word, at
//! most 256 entries — stamp them with fresh sequence numbers, insert them
//! into the Memtable with one multi-insert (a chunk is a run of one
//! partition's buckets, so the batch is key-neighborhood-local, §4.3), and
//! remove them from the Membuffer, skipping any entry that was concurrently
//! updated in place. Every caller runs it inside one RCU read-side section
//! on the view, so a component switch's grace period waits for the whole
//! chunk. There are two callers:
//!
//! - the background drainers ([`Drainer::lap`], looped by
//!   `Inner::drain_loop`): each laps its own disjoint range of the live
//!   buffer's chunks;
//! - the cooperative full drain of a frozen buffer ([`help_drain_imm_via`],
//!   Algorithm 3's freeze drain): master scans, the
//!   Memtable switch and helping writers take chunks from the buffer's
//!   `DrainTracker`.
//!
//! Reclamation note: nothing in this pipeline holds an epoch-protected
//! pointer across stages. A claimed `DrainedEntry` carries *owned clones*
//! made under the claiming pin, so the hand-off Membuffer → skiplist is
//! pointer-free; the retire of the removed `HtEntry` happens inside
//! [`MemBuffer::remove_drained`] under that call's own pin.

use std::ops::Range;

use flodb_membuffer::{MemBuffer, RemoveToken};
use flodb_memtable::{BatchEntry, SkipList};
use flodb_sync::shim::atomic::Ordering;
use flodb_sync::{PauseFlag, SequenceGenerator};

use super::Inner;
use crate::stats::FloDbStats;
use crate::view::{ImmMembuffer, ViewCell};

/// How a chunk's entries are applied to the skiplist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainStyle {
    /// One multi-insert per chunk (the paper's design).
    MultiInsert,
    /// One plain insert per entry (the Figure 17 ablation).
    SimpleInsert,
}

/// Drains chunk `chunk` of `mbf` into `mtb` (Figure 6): claims the chunk's
/// unmarked entries, stamps them with fresh sequence numbers, inserts them
/// the `style` way and removes them from `mbf`. Returns the number of
/// entries moved.
///
/// Call it inside one read-side critical section of the view `mtb` was
/// read from, so that a persist switch's grace period waits for the insert
/// (see [`help_drain_imm_via`]); [`Drainer::lap`] says why the live
/// buffer's claim must be inside that section too.
pub fn drain_chunk(
    mbf: &MemBuffer,
    mtb: &SkipList,
    seq: &SequenceGenerator,
    chunk: usize,
    style: DrainStyle,
) -> usize {
    let drained = mbf.claim_chunk(chunk);
    if drained.is_empty() {
        return 0;
    }
    let n = drained.len();
    let first_seq = seq.next_block(n as u64);
    let mut tokens: Vec<RemoveToken> = Vec::with_capacity(n);
    match style {
        DrainStyle::MultiInsert => {
            let mut batch = Vec::with_capacity(n);
            for (i, d) in drained.into_iter().enumerate() {
                tokens.push(d.token);
                batch.push(BatchEntry {
                    key: d.key,
                    value: d.value,
                    seq: first_seq + i as u64,
                });
            }
            mtb.multi_insert(batch);
        }
        DrainStyle::SimpleInsert => {
            for (i, d) in drained.into_iter().enumerate() {
                mtb.insert(&d.key, d.value.as_deref(), first_seq + i as u64);
                tokens.push(d.token);
            }
        }
    }
    mbf.remove_drained(&tokens);
    n
}

/// What one participant drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainHelp {
    /// Chunks it drained: taken from a frozen buffer's tracker, or found
    /// occupied by a lap over the live buffer.
    pub chunks: usize,
    /// Entries it moved into the Memtable.
    pub entries: usize,
}

/// A background drainer: the chunks of the live Membuffer it owns, and
/// where its next lap starts.
#[derive(Debug)]
pub struct Drainer {
    chunks: Range<usize>,
    cursor: usize,
}

impl Drainer {
    /// Drainer `worker` of `workers` over buffers of `chunks` chunks (every
    /// Membuffer of a store has one shape). Workers own contiguous ranges
    /// that are disjoint and together cover every chunk; with fewer chunks
    /// than workers, some own none.
    pub fn new(chunks: usize, worker: usize, workers: usize) -> Self {
        let range = chunks * worker / workers..chunks * (worker + 1) / workers;
        Self {
            cursor: range.start,
            chunks: range,
        }
    }

    /// One lap over this drainer's chunks of the live Membuffer: from the
    /// cursor to the end of the range, then the chunks before it, each
    /// occupied chunk drained with [`drain_chunk`]. The cursor is left just
    /// past the last chunk drained, so consecutive laps take the range
    /// round-robin. A raised `paused` ends the lap early; the next lap
    /// picks up there.
    ///
    /// Each chunk is claimed, inserted and removed inside one read-side
    /// critical section, and the pause check runs inside it too. The claim
    /// must be in there: a chunk claimed outside marks entries that a
    /// freeze's grace period does not wait for, so the frozen drain skips
    /// them as marked and completes while they are still on their way to
    /// the Memtable — a scan stamped after it misses them. Checking the
    /// pause inside the section means a freeze either waits for the chunk
    /// or is seen by it; a chunk that slipped past both could stamp
    /// post-freeze writes with sequence numbers below the scan's stamp.
    ///
    /// The search for the next occupied chunk runs inside the same
    /// section, so an idle lap is one section and one occupancy load per
    /// chunk: no bucket lock, no allocation.
    ///
    /// Ranges must be disjoint (see [`Drainer::new`]): two drainers sharing
    /// a bucket could both have a claim of the same key in flight (the
    /// first claims, a writer updates in place, the second claims the
    /// fresh entry), and their Memtable inserts could then land in an order
    /// that leaves the stale value stamped with the newer sequence number —
    /// a lost update.
    pub fn lap(
        &mut self,
        view: &ViewCell,
        paused: &PauseFlag,
        seq: &SequenceGenerator,
        style: DrainStyle,
    ) -> DrainHelp {
        let mut help = DrainHelp::default();
        let first = self.cursor;
        // The leg being searched, `at..end`, and whether it is the second.
        let (mut at, mut end, mut wrapped) = (first, self.chunks.end, false);
        loop {
            // Mutation hook (`Hook::LapSection`, tests/model_mutation.rs):
            // drain the chunk found below after leaving the section.
            #[cfg(flodb_model_mutation)]
            let mut outside = None;
            let moved = view.read(|v| {
                if paused.is_paused() {
                    return None;
                }
                let mbf = v.mbf.as_ref()?;
                loop {
                    if let Some(chunk) = mbf.next_occupied_chunk(at, end) {
                        at = chunk + 1;
                        self.cursor = if at == self.chunks.end { self.chunks.start } else { at };
                        #[cfg(flodb_model_mutation)]
                        if flodb_sync::shim::mutation::on(flodb_sync::shim::mutation::Hook::LapSection) {
                            outside = Some((mbf.clone(), v.mtb.clone(), chunk));
                            return Some(0);
                        }
                        return Some(drain_chunk(mbf, &v.mtb, seq, chunk, style));
                    }
                    if wrapped {
                        return None;
                    }
                    (at, end, wrapped) = (self.chunks.start, first, true);
                }
            });
            #[cfg(flodb_model_mutation)]
            let moved = match outside {
                Some((mbf, mtb, chunk)) => Some(drain_chunk(&mbf, &mtb, seq, chunk, style)),
                None => moved,
            };
            let Some(moved) = moved else { return help };
            help.chunks += 1;
            help.entries += moved;
        }
    }
}

/// Participates in the cooperative full drain of a frozen Membuffer
/// (master scans, helping writers and the Memtable switch, Algorithm 2
/// lines 12-16), draining each chunk with [`drain_chunk`]
/// *inside its own RCU read-side critical section* of `view`.
///
/// Claims chunks from the shared tracker until none remain. An empty
/// chunk costs its two tracker RMWs and one load, outside any section —
/// a frozen buffer's words only ever clear once its drain is open — so
/// the drain is proportional to what the buffer holds, not to what it
/// could hold.
///
/// The per-chunk view coupling is what makes the help race-safe against
/// the persist thread: resolving the Memtable once up front (an `Arc`
/// clone) and inserting outside any critical section would let a persist
/// switch land between the lookup and the insert — the batch would then
/// go into the *immutable* Memtable after its flush already collected
/// entries, and be dropped with it: acknowledged writes silently lost.
/// Inside the read-side section the switch's grace period waits for the
/// in-flight chunk instead, so every drained entry lands either in the
/// snapshot the flush collects or in the fresh Memtable — never in the
/// gap. A switch mid-drain simply routes later chunks to the new table.
pub fn help_drain_imm_via(
    imm: &ImmMembuffer,
    view: &ViewCell,
    seq: &SequenceGenerator,
    style: DrainStyle,
) -> DrainHelp {
    let mut help = DrainHelp::default();
    while let Some(chunk) = imm.tracker.claim() {
        help.chunks += 1;
        if imm.buffer.next_occupied_chunk(chunk, chunk + 1).is_some() {
            help.entries += view.read(|v| drain_chunk(&imm.buffer, &v.mtb, seq, chunk, style));
        }
        imm.tracker.finish();
    }
    help
}

impl Inner {
    /// Background draining (Figure 6): drainer `worker` laps its chunks of
    /// the live Membuffer ([`Drainer::lap`]), keeping occupancy low. While
    /// a freeze pauses it, it waits for the resume (or the shutdown). After
    /// a lap that found nothing it parks, unless it was kicked since the
    /// lap began, until a kick ([`Inner::kick_drainers`]): a writer that
    /// finds its bucket full (`write.rs`), a settle, or the shutdown.
    /// Entries added in between wait in the Membuffer, which absorbs them
    /// by design; waking on every empty → non-empty flip instead would put
    /// a wake on the fast path of every put into an idle store.
    pub(super) fn drain_loop(&self, worker: usize) {
        let chunks = self.view.read(|v| v.mbf.as_ref().map_or(0, |m| m.chunks()));
        let mut drainer = Drainer::new(chunks, worker, self.opts.drain_threads.max(1));
        let kicked = &self.drain_kicks[worker];
        let has_work = || self.stop.load(Ordering::Acquire) || kicked.load(Ordering::Relaxed);
        while !self.stop.load(Ordering::Acquire) {
            if self.frozen.is_paused() {
                self.frozen
                    .wait_until_resumed_or(|| self.stop.load(Ordering::Acquire));
                continue;
            }
            // A kick from here on asks for another lap.
            if kicked.load(Ordering::Relaxed) {
                kicked.store(false, Ordering::Relaxed);
            }
            let help = drainer.lap(&self.view, &self.frozen, &self.seq, self.drain_style);
            if help.entries > 0 {
                FloDbStats::add(&self.stats.drained_entries, help.entries as u64);
                FloDbStats::add(&self.stats.drain_batches, help.chunks as u64);
                self.wake_persist_if_full();
            } else if !has_work() {
                Self::flush_epoch_bag();
                self.post_progress();
                self.drain_park.park_until(has_work);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use flodb_membuffer::MemBufferConfig;

    use super::*;
    use crate::view::MemView;

    /// A live view over `mbf` and a fresh Memtable.
    fn live_view(mbf: MemBuffer) -> (ViewCell, Arc<MemBuffer>, Arc<SkipList>) {
        let (mbf, mtb) = (Arc::new(mbf), Arc::new(SkipList::new()));
        let view = ViewCell::new(MemView {
            mbf: Some(Arc::clone(&mbf)),
            imm_mbf: None,
            mtb: Arc::clone(&mtb),
            imm_mtb: None,
        });
        (view, mbf, mtb)
    }

    fn small_mbf() -> MemBuffer {
        MemBuffer::new(MemBufferConfig {
            partition_bits: 2,
            buckets_per_partition: 32,
        })
    }

    /// The benchmark store's shape: 16 partitions x 512 buckets.
    fn bench_shape_mbf() -> MemBuffer {
        let mbf = MemBuffer::new(MemBufferConfig {
            partition_bits: 4,
            buckets_per_partition: 512,
        });
        assert_eq!((mbf.total_buckets(), mbf.chunks()), (8192, 128));
        mbf
    }

    /// One lap of a lone drainer over `view`, unpaused.
    fn lap(view: &ViewCell, drainer: &mut Drainer, style: DrainStyle) -> DrainHelp {
        drainer.lap(view, &PauseFlag::new(), &SequenceGenerator::new(), style)
    }

    #[test]
    fn a_lap_moves_everything() {
        let (view, mbf, mtb) = live_view(small_mbf());
        for i in 0..100u64 {
            mbf.add(&i.to_be_bytes(), Some(&i.to_le_bytes()));
        }
        let mut drainer = Drainer::new(mbf.chunks(), 0, 1);
        assert_eq!(lap(&view, &mut drainer, DrainStyle::MultiInsert).entries, 100);
        assert_eq!(mbf.len(), 0);
        assert_eq!(mtb.len(), 100);
        // Sequence numbers were assigned.
        assert!(mtb.get(&5u64.to_be_bytes()).unwrap().seq >= 1);
    }

    #[test]
    fn the_next_lap_resumes_at_its_cursor() {
        let (view, mbf, mtb) = live_view(bench_shape_mbf());
        let seq = SequenceGenerator::new();
        let paused = PauseFlag::new();
        // Partition `p` owns chunks 8p..8p+8; a key's top nibble picks it.
        let key = |p: u64| (p << 60).to_be_bytes();
        let mut drainer = Drainer::new(mbf.chunks(), 0, 1);
        for p in [3, 9] {
            mbf.add(&key(p), Some(b"v"));
        }
        let help = drainer.lap(&view, &paused, &seq, DrainStyle::MultiInsert);
        assert_eq!((help.chunks, help.entries), (2, 2), "a lap moves everything");
        assert!(mbf.is_drained());
        // The cursor now sits just past partition 9's chunk, so the next
        // lap drains partition 12 before partition 5: it stamps it first.
        for p in [5, 12] {
            mbf.add(&key(p), Some(b"v"));
        }
        drainer.lap(&view, &paused, &seq, DrainStyle::MultiInsert);
        let stamp = |p| mtb.get(&key(p)).unwrap().seq;
        assert!(stamp(12) < stamp(5), "the lap restarted at the range's start");
    }

    #[test]
    fn simple_and_multi_styles_agree() {
        for style in [DrainStyle::MultiInsert, DrainStyle::SimpleInsert] {
            let (view, mbf, mtb) = live_view(small_mbf());
            for i in 0..50u64 {
                mbf.add(&i.to_be_bytes(), Some(&i.to_le_bytes()));
            }
            lap(&view, &mut Drainer::new(mbf.chunks(), 0, 1), style);
            assert_eq!(mtb.len(), 50, "{style:?}");
            for i in 0..50u64 {
                let v = mtb.get(&i.to_be_bytes()).unwrap();
                assert_eq!(v.value.as_deref(), Some(i.to_le_bytes().as_slice()));
            }
        }
    }

    #[test]
    fn tombstones_drain_as_tombstones() {
        let (view, mbf, mtb) = live_view(small_mbf());
        mbf.add(b"gone", None);
        lap(&view, &mut Drainer::new(mbf.chunks(), 0, 1), DrainStyle::MultiInsert);
        assert!(mtb.get(b"gone").unwrap().is_tombstone());
    }

    #[test]
    fn a_paused_lap_drains_nothing() {
        let (view, mbf, _) = live_view(small_mbf());
        mbf.add(b"k", Some(b"v"));
        let paused = PauseFlag::new();
        paused.pause();
        let mut drainer = Drainer::new(mbf.chunks(), 0, 1);
        let help = drainer.lap(&view, &paused, &SequenceGenerator::new(), DrainStyle::MultiInsert);
        assert_eq!(help, DrainHelp::default());
        assert_eq!(mbf.len(), 1);
    }

    #[test]
    fn worker_ranges_are_disjoint_and_cover_every_chunk() {
        // `small_for_tests` has 4 chunks, as many as the most workers; 1
        // and 3 chunks leave some workers none.
        let small = crate::FloDbOptions::small_for_tests();
        let small_chunks = crate::store::new_membuffer(&small).chunks();
        for chunks in [small_chunks, 1, 3, 128] {
            for workers in 1..=4 {
                let mut owner = vec![None; chunks];
                for worker in 0..workers {
                    for chunk in Drainer::new(chunks, worker, workers).chunks {
                        assert_eq!(owner[chunk], None, "chunk {chunk} owned twice");
                        owner[chunk] = Some(worker);
                    }
                }
                assert!(
                    owner.iter().all(Option::is_some),
                    "{workers} workers leave a chunk of {chunks} unowned"
                );
            }
        }
    }

    #[test]
    fn idle_lap_takes_no_bucket_lock() {
        let (view, mbf, _) = live_view(bench_shape_mbf());
        let view = Arc::new(view);
        // Hold an empty bucket's lock for the whole test: a lap that tried
        // to take it would spin forever instead of answering.
        let _held = mbf.hold_bucket_lock(4000);
        let (tx, rx) = std::sync::mpsc::channel();
        let drainer = {
            let view = Arc::clone(&view);
            let chunks = mbf.chunks();
            std::thread::spawn(move || {
                let help = lap(&view, &mut Drainer::new(chunks, 0, 1), DrainStyle::MultiInsert);
                tx.send(help).unwrap();
            })
        };
        let help = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("an idle lap waited for a bucket lock");
        assert_eq!(help, DrainHelp::default());
        drainer.join().unwrap();
    }

    #[test]
    fn idle_lap_touches_no_bucket_and_the_next_add_is_found() {
        let (view, mbf, mtb) = live_view(bench_shape_mbf());
        let mut drainer = Drainer::new(mbf.chunks(), 0, 1);
        drainer.cursor = 62;
        assert_eq!(lap(&view, &mut drainer, DrainStyle::MultiInsert).entries, 0);
        // One key per partition, so chunks on both sides of the cursor —
        // the first and the last included — get an entry in turn.
        for p in 0..16u64 {
            let key = (p << 60 | p).to_be_bytes();
            mbf.add(&key, Some(b"v"));
            let moved = lap(&view, &mut drainer, DrainStyle::MultiInsert).entries;
            assert_eq!(moved, 1, "the lap after the add to partition {p} missed it");
            assert!(mtb.get(&key).is_some());
        }
        assert!(mbf.is_drained());
        assert_eq!(lap(&view, &mut drainer, DrainStyle::MultiInsert), DrainHelp::default());
    }

    #[test]
    fn cooperative_imm_drain_completes_with_helpers() {
        let mbf = Arc::new(small_mbf());
        // Small u64 keys all share their top bits, so they all land in
        // partition 0 (the paper's skew vulnerability, §4.3): only that
        // partition's capacity is usable. Count what was accepted.
        let mut accepted = 0;
        for i in 0..200u64 {
            if mbf.add(&i.to_be_bytes(), Some(b"v")) == flodb_membuffer::AddResult::Added {
                accepted += 1;
            }
        }
        assert!(accepted > 0);
        let imm = Arc::new(ImmMembuffer::new(Arc::clone(&mbf)));
        let mtb = Arc::new(SkipList::new());
        let view = Arc::new(ViewCell::new(MemView {
            mbf: None,
            imm_mbf: Some(Arc::clone(&imm)),
            mtb: Arc::clone(&mtb),
            imm_mtb: None,
        }));
        let seq = Arc::new(SequenceGenerator::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let imm = Arc::clone(&imm);
            let view = Arc::clone(&view);
            let seq = Arc::clone(&seq);
            handles.push(std::thread::spawn(move || {
                help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert).entries
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, accepted);
        assert!(imm.tracker.is_complete());
        assert_eq!(mtb.len(), accepted);
        assert_eq!(mbf.len(), 0);
    }

    #[test]
    fn view_coupled_help_routes_late_chunks_to_a_switched_memtable() {
        // A persist switch mid-drain must not lose entries: chunks drained
        // before the switch land in the old table, chunks after in the new
        // one — and the two tables together hold everything.
        let mbf = Arc::new(MemBuffer::new(MemBufferConfig {
            partition_bits: 2,
            buckets_per_partition: 64,
        }));
        // One 64-bucket chunk per partition; the key's top two bits pick
        // the partition, so every chunk holds something.
        let mut accepted = 0;
        for i in 0..100u64 {
            let key = (i % 4) << 62 | i;
            if mbf.add(&key.to_be_bytes(), Some(b"v")) == flodb_membuffer::AddResult::Added {
                accepted += 1;
            }
        }
        let imm = Arc::new(ImmMembuffer::new(Arc::clone(&mbf)));
        assert_eq!(imm.tracker.total(), 4);
        let old_mtb = Arc::new(SkipList::new());
        let view = ViewCell::new(MemView {
            mbf: None,
            imm_mbf: Some(Arc::clone(&imm)),
            mtb: Arc::clone(&old_mtb),
            imm_mtb: None,
        });
        let seq = SequenceGenerator::new();
        // Drain two chunks into the current table...
        let mut moved = 0;
        for _ in 0..2 {
            let chunk = imm.tracker.claim().unwrap();
            moved += view.read(|v| {
                drain_chunk(&imm.buffer, &v.mtb, &seq, chunk, DrainStyle::MultiInsert)
            });
            imm.tracker.finish();
        }
        // ...then a persist-style switch...
        let new_mtb = Arc::new(SkipList::new());
        view.switch_memtable(Arc::clone(&new_mtb));
        // ...and the rest of the cooperative drain follows the view.
        let help = help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert);
        assert_eq!(help.chunks, 2);
        assert_eq!(moved + help.entries, accepted);
        assert!(!old_mtb.is_empty() && !new_mtb.is_empty());
        assert_eq!(old_mtb.len() + new_mtb.len(), accepted, "no entry lost");
    }
}
