//! The drain pipeline: moving entries Membuffer → Memtable.
//!
//! Draining (Figure 6) claims batches of marked entries from Membuffer
//! buckets, stamps them with fresh sequence numbers, inserts them into the
//! skiplist — with one multi-insert per batch, exploiting the partition
//! neighborhood (§4.3) — and finally removes them from the Membuffer,
//! skipping any entry that was concurrently updated in place.
//!
//! Reclamation note: nothing in this pipeline holds an epoch-protected
//! pointer across stages. [`DrainedEntry`] carries *owned clones* made
//! under the claiming pin, so the hand-off Membuffer → skiplist is
//! pointer-free; the retire of the removed `HtEntry` happens inside
//! [`MemBuffer::remove_drained`] under that call's own pin.

use flodb_membuffer::{DrainedEntry, MemBuffer, RemoveToken};
use flodb_memtable::{BatchEntry, SkipList};
use flodb_sync::SequenceGenerator;

use crate::view::{ImmMembuffer, ViewCell};

/// How a batch of drained entries is applied to the skiplist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainStyle {
    /// One multi-insert per batch (the paper's design).
    MultiInsert,
    /// One plain insert per entry (the Figure 17 ablation).
    SimpleInsert,
}

/// Applies `drained` to `mtb` with fresh sequence numbers, then removes
/// the moved entries from `mbf`. Returns the number of entries moved.
pub fn apply_batch(
    mbf: &MemBuffer,
    mtb: &SkipList,
    seq: &SequenceGenerator,
    drained: Vec<DrainedEntry>,
    style: DrainStyle,
) -> usize {
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

/// Drains up to `max_entries` from `mbf`, sweeping the bucket range
/// `[range_start, range_start + range_len)` from relative position
/// `cursor` (wrapping within the range). Returns `(entries_moved,
/// next_cursor)`.
///
/// The sweep follows the Membuffer's occupancy summary, so it costs the
/// buckets that hold something plus one load per 64 empty ones — an idle
/// beat over an empty buffer touches no bucket. Visiting occupied buckets
/// in order keeps each batch inside one partition most of the time, which
/// is what makes multi-insert path reuse effective.
///
/// Each background drainer must own a *disjoint* bucket range: two
/// drainers sharing a bucket could both have a claim of the same key in
/// flight (the first claims, a writer updates in place, the second claims
/// the fresh entry), and their Memtable inserts could then land in an
/// order that leaves the stale value stamped with the newer sequence
/// number — a lost update.
pub fn drain_sweep(
    mbf: &MemBuffer,
    mtb: &SkipList,
    seq: &SequenceGenerator,
    range_start: usize,
    range_len: usize,
    cursor: usize,
    max_entries: usize,
    style: DrainStyle,
) -> (usize, usize) {
    debug_assert!(range_start + range_len <= mbf.total_buckets());
    let range_end = range_start + range_len;
    let first = range_start + cursor % range_len.max(1);
    let mut moved = 0;
    // A batch is applied once it reaches `flush_at` entries, so with one
    // more bucket's worth of room the vector never regrows; it is only
    // allocated once a bucket holds something (an idle beat allocates
    // nothing).
    let flush_at = max_entries.min(64);
    let room = flush_at + flodb_membuffer::SLOTS_PER_BUCKET;
    let mut pending: Vec<DrainedEntry> = Vec::new();
    // One lap: from the cursor to the end of the range, then the part
    // before the cursor.
    for (mut from, to) in [(first, range_end), (range_start, first)] {
        while let Some(bucket) = mbf.next_occupied(from, to) {
            if moved + pending.len() >= max_entries {
                moved += apply_batch(mbf, mtb, seq, pending, style);
                return (moved, bucket - range_start);
            }
            if pending.capacity() == 0 {
                pending.reserve_exact(room);
            }
            pending.extend(mbf.claim_bucket(bucket));
            from = bucket + 1;
            if pending.len() >= flush_at {
                moved += apply_batch(mbf, mtb, seq, std::mem::take(&mut pending), style);
            }
        }
    }
    moved += apply_batch(mbf, mtb, seq, pending, style);
    (moved, first - range_start)
}

/// One participant's share of a cooperative full drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainHelp {
    /// Chunks this participant claimed from the shared tracker.
    pub chunks: usize,
    /// Entries it moved into the Memtable.
    pub entries: usize,
}

/// Participates in the cooperative full drain of a frozen Membuffer
/// (master scans, helping writers and the WAL-retirement checkpoint,
/// Algorithm 2 lines 12-16), resolving the target Memtable *inside each
/// chunk's RCU read-side critical section* of `view`.
///
/// Claims chunks — 64-bucket occupancy words, see
/// [`MemBuffer::claim_chunk`] — from the shared tracker until none
/// remain. A word with no resident entry costs its two tracker RMWs and
/// one load: the drain is proportional to what the buffer holds, not to
/// what it could hold.
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
    // Mutation hook for the model-checker regression suite
    // (tests/model_mutation.rs): resolve the Memtable once, outside any
    // critical section — re-introducing the pre-PR-5 race this function's
    // docs describe, where a persist switch lands between lookup and
    // insert. Never set outside that suite.
    #[cfg(flodb_model_mutation)]
    let mtb = view.read(|v| std::sync::Arc::clone(&v.mtb));
    while let Some(chunk) = imm.tracker.claim() {
        help.chunks += 1;
        let drained = imm.buffer.claim_chunk(chunk);
        if !drained.is_empty() {
            #[cfg(flodb_model_mutation)]
            {
                help.entries += apply_batch(&imm.buffer, &mtb, seq, drained, style);
            }
            #[cfg(not(flodb_model_mutation))]
            {
                help.entries +=
                    view.read(|v| apply_batch(&imm.buffer, &v.mtb, seq, drained, style));
            }
        }
        imm.tracker.finish();
    }
    help
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use flodb_membuffer::MemBufferConfig;

    use super::*;

    fn small_mbf() -> MemBuffer {
        MemBuffer::new(MemBufferConfig {
            partition_bits: 2,
            buckets_per_partition: 32,
        })
    }

    #[test]
    fn sweep_moves_everything() {
        let mbf = small_mbf();
        let mtb = SkipList::new();
        let seq = SequenceGenerator::new();
        for i in 0..100u64 {
            mbf.add(&i.to_be_bytes(), Some(&i.to_le_bytes()));
        }
        let total = mbf.total_buckets();
        let (moved, _) =
            drain_sweep(&mbf, &mtb, &seq, 0, total, 0, usize::MAX, DrainStyle::MultiInsert);
        assert_eq!(moved, 100);
        assert_eq!(mbf.len(), 0);
        assert_eq!(mtb.len(), 100);
        // Sequence numbers were assigned.
        assert!(mtb.get(&5u64.to_be_bytes()).unwrap().seq >= 1);
    }

    #[test]
    fn sweep_respects_entry_budget() {
        let mbf = small_mbf();
        let mtb = SkipList::new();
        let seq = SequenceGenerator::new();
        for i in 0..100u64 {
            mbf.add(&i.to_be_bytes(), Some(b"v"));
        }
        let total = mbf.total_buckets();
        let (moved, cursor) =
            drain_sweep(&mbf, &mtb, &seq, 0, total, 0, 10, DrainStyle::MultiInsert);
        assert!(moved >= 10, "should move at least the budget");
        assert!(moved < 100, "budget must bound the sweep");
        assert_eq!(mbf.len(), 100 - moved);
        // Resuming from the cursor eventually drains the rest.
        let (rest, _) =
            drain_sweep(&mbf, &mtb, &seq, 0, total, cursor, usize::MAX, DrainStyle::MultiInsert);
        assert_eq!(moved + rest, 100);
    }

    #[test]
    fn simple_and_multi_styles_agree() {
        for style in [DrainStyle::MultiInsert, DrainStyle::SimpleInsert] {
            let mbf = small_mbf();
            let mtb = SkipList::new();
            let seq = SequenceGenerator::new();
            for i in 0..50u64 {
                mbf.add(&i.to_be_bytes(), Some(&i.to_le_bytes()));
            }
            let total = mbf.total_buckets();
            drain_sweep(&mbf, &mtb, &seq, 0, total, 0, usize::MAX, style);
            assert_eq!(mtb.len(), 50, "{style:?}");
            for i in 0..50u64 {
                let v = mtb.get(&i.to_be_bytes()).unwrap();
                assert_eq!(v.value.as_deref(), Some(i.to_le_bytes().as_slice()));
            }
        }
    }

    #[test]
    fn tombstones_drain_as_tombstones() {
        let mbf = small_mbf();
        let mtb = SkipList::new();
        let seq = SequenceGenerator::new();
        mbf.add(b"gone", None);
        drain_sweep(
            &mbf,
            &mtb,
            &seq,
            0,
            mbf.total_buckets(),
            0,
            usize::MAX,
            DrainStyle::MultiInsert,
        );
        assert!(mtb.get(b"gone").unwrap().is_tombstone());
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
        let view = Arc::new(ViewCell::new(crate::view::MemView {
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
        let view = ViewCell::new(crate::view::MemView {
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
            let drained = imm.buffer.claim_chunk(chunk);
            moved += view
                .read(|v| apply_batch(&imm.buffer, &v.mtb, &seq, drained, DrainStyle::MultiInsert));
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

    #[test]
    fn idle_sweep_touches_no_bucket_and_the_next_add_is_found() {
        // The benchmark store's shape: 16 partitions x 512 buckets.
        let mbf = MemBuffer::new(MemBufferConfig {
            partition_bits: 4,
            buckets_per_partition: 512,
        });
        let total = mbf.total_buckets();
        assert_eq!(total, 8192);
        let mtb = SkipList::new();
        let seq = SequenceGenerator::new();
        let sweep = |cursor| {
            drain_sweep(&mbf, &mtb, &seq, 0, total, cursor, 64, DrainStyle::MultiInsert)
        };
        let (moved, mut cursor) = sweep(4000);
        assert_eq!(moved, 0);
        // One key per partition, so buckets on both sides of the cursor —
        // the first and the last word included — get an entry in turn.
        for p in 0..16u64 {
            let key = (p << 60 | p).to_be_bytes();
            mbf.add(&key, Some(b"v"));
            let (moved, next) = sweep(cursor);
            assert_eq!(moved, 1, "the sweep after the add to partition {p} missed it");
            assert!(mtb.get(&key).is_some());
            cursor = next;
        }
        assert!(mbf.is_drained());
        assert_eq!(sweep(cursor).0, 0);
    }
}
