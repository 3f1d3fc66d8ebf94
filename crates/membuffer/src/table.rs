//! The partitioned concurrent hash table.
//!
//! # Memory reclamation
//!
//! Slots hold `Atomic<HtEntry>` pointers that lock-free readers
//! ([`MemBuffer::get`]) traverse without taking the bucket lock, so an
//! entry displaced by an in-place update or removed after a drain cannot
//! be freed immediately: it is retired with `Guard::defer_destroy` after
//! being swapped out under the bucket lock, and the epoch collector frees
//! it only once every thread pinned at retire time has unpinned. Every
//! slot load in this module therefore happens under an epoch pin, and the
//! drain path hands out *owned clones* (key/value boxes), never raw entry
//! pointers — see `ARCHITECTURE.md` for the invariant list.

use crossbeam_epoch::{self as epoch, Owned};
use crossbeam_utils::CachePadded;
use flodb_sync::kv::key_partition;
use flodb_sync::shim::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};

use crate::bucket::{Bucket, HtEntry, SLOTS};

/// Number of entry slots per bucket (re-exported for sizing math).
pub const SLOTS_PER_BUCKET: usize = SLOTS;

/// Buckets summarized by one occupancy word — and drained as one chunk
/// ([`MemBuffer::claim_chunk`]).
const WORD_BUCKETS: usize = u64::BITS as usize;

/// FNV-1a 64-bit hash; cheap, dependency-free and well distributed for the
/// short keys key-value workloads use.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Sizing and partitioning parameters for a [`MemBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBufferConfig {
    /// Number of most-significant key bits selecting the partition (`l` in
    /// §4.3). `2^partition_bits` partitions are created.
    pub partition_bits: u32,
    /// Buckets per partition; rounded up to a power of two.
    pub buckets_per_partition: usize,
}

impl MemBufferConfig {
    /// Builds a config targeting roughly `bytes` of payload capacity given
    /// an expected average entry footprint.
    ///
    /// This mirrors the paper's setup where the Membuffer is allotted a
    /// byte budget (1/4 of the memory component by default, §5.1).
    pub fn for_capacity_bytes(bytes: usize, partition_bits: u32, avg_entry_bytes: usize) -> Self {
        let entries = (bytes / avg_entry_bytes.max(1)).max(SLOTS);
        let buckets_total = (entries / SLOTS).next_power_of_two();
        let partitions = 1usize << partition_bits;
        let per_partition = (buckets_total / partitions).max(1).next_power_of_two();
        Self {
            partition_bits,
            buckets_per_partition: per_partition,
        }
    }

    /// Total entry capacity (all partitions, all slots).
    pub fn capacity_entries(&self) -> usize {
        (1usize << self.partition_bits) * self.buckets_per_partition * SLOTS
    }
}

impl Default for MemBufferConfig {
    fn default() -> Self {
        Self {
            partition_bits: 4,
            buckets_per_partition: 1024,
        }
    }
}

/// Outcome of a [`MemBuffer::add`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddResult {
    /// The key was inserted into a free slot.
    Added,
    /// The key existed and its value was replaced in place.
    Updated,
    /// The destination bucket has no free slot; the caller must fall back
    /// to the Memtable (Algorithm 2, line 20).
    BucketFull,
}

struct Partition {
    buckets: Box<[CachePadded<Bucket>]>,
}

/// A removal token referencing one previously drained slot.
///
/// Tokens compare the entry's process-unique identity (not just its
/// address — the allocator may hand a freed entry's address to a fresh
/// entry), so a slot that was concurrently updated in place is recognized
/// and left alone.
#[derive(Debug, Clone, Copy)]
pub struct RemoveToken {
    partition: usize,
    bucket: usize,
    slot: usize,
    entry_id: u64,
}

/// An entry claimed by a drainer: owned key/value plus a removal token.
#[derive(Debug)]
pub struct DrainedEntry {
    /// The key.
    pub key: Box<[u8]>,
    /// The value (`None` = tombstone).
    pub value: Option<Box<[u8]>>,
    /// Token for the post-insert removal step (Figure 6, step 3).
    pub token: RemoveToken,
}

/// The FloDB Membuffer: a fixed-capacity, partitioned concurrent hash map.
///
/// # Examples
///
/// ```
/// use flodb_membuffer::{AddResult, MemBuffer, MemBufferConfig};
///
/// let buffer = MemBuffer::new(MemBufferConfig::default());
/// assert_eq!(buffer.add(b"key", Some(b"value")), AddResult::Added);
/// assert_eq!(buffer.add(b"key", Some(b"new")), AddResult::Updated);
/// assert_eq!(buffer.get(b"key"), Some(Some(Box::from(&b"new"[..]))));
/// assert_eq!(buffer.len(), 1);
/// ```
pub struct MemBuffer {
    partitions: Box<[Partition]>,
    partition_bits: u32,
    bucket_mask: usize,
    /// Occupancy summary, one bit per bucket in global bucket order: bit
    /// `i % 64` of word `i / 64` is set iff bucket `i` holds at least one
    /// entry. Both flips happen under that bucket's lock (`add` sets on
    /// empty -> non-empty, `remove_drained` clears on non-empty -> empty),
    /// so the equivalence holds at every lock release. Drainers read it
    /// *without* the lock to skip empty buckets: on the live buffer a
    /// stale clear bit only defers an entry to the next lap; on a frozen
    /// buffer the bits are read after the freeze's grace period, which
    /// orders every writer's flip before the read.
    occupancy: Box<[AtomicU64]>,
    entries: AtomicUsize,
    bytes: AtomicIsize,
}

impl MemBuffer {
    /// Creates an empty Membuffer with the given shape.
    pub fn new(config: MemBufferConfig) -> Self {
        let partitions = 1usize << config.partition_bits;
        let per_partition = config.buckets_per_partition.next_power_of_two();
        let partitions = (0..partitions)
            .map(|_| Partition {
                buckets: (0..per_partition)
                    .map(|_| CachePadded::new(Bucket::new()))
                    .collect(),
            })
            .collect::<Box<[Partition]>>();
        let words = (partitions.len() * per_partition).div_ceil(WORD_BUCKETS);
        Self {
            partitions,
            partition_bits: config.partition_bits,
            bucket_mask: per_partition - 1,
            occupancy: (0..words).map(|_| AtomicU64::new(0)).collect(),
            entries: AtomicUsize::new(0),
            bytes: AtomicIsize::new(0),
        }
    }

    /// Returns the number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Returns whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the approximate resident payload size in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed).max(0) as usize
    }

    /// Returns the total entry capacity.
    pub fn capacity_entries(&self) -> usize {
        self.partitions.len() * (self.bucket_mask + 1) * SLOTS
    }

    /// Returns the fraction of slots currently occupied (0.0 ..= 1.0).
    pub fn occupancy(&self) -> f64 {
        self.len() as f64 / self.capacity_entries() as f64
    }

    /// Returns the number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Returns the number of buckets in each partition.
    pub fn buckets_per_partition(&self) -> usize {
        self.bucket_mask + 1
    }

    /// Returns the total number of buckets.
    pub fn total_buckets(&self) -> usize {
        self.partitions.len() * (self.bucket_mask + 1)
    }

    /// Returns the partition index a key maps to.
    pub fn partition_of(&self, key: &[u8]) -> usize {
        key_partition(key, self.partition_bits)
    }

    /// Returns the global bucket index (`0..total_buckets()`, the index
    /// space of [`Self::claim_bucket`] and [`Self::next_occupied`]) a key
    /// maps to.
    pub fn bucket_of(&self, key: &[u8]) -> usize {
        let (p, b) = self.bucket_for(key);
        self.global_index(p, b)
    }

    /// Global index of bucket `b` in partition `p` (partitions own
    /// consecutive index ranges).
    #[inline]
    fn global_index(&self, p: usize, b: usize) -> usize {
        p * (self.bucket_mask + 1) + b
    }

    #[inline]
    fn bucket_for(&self, key: &[u8]) -> (usize, usize) {
        let partition = self.partition_of(key);
        let bucket = (fnv1a(key) as usize) & self.bucket_mask;
        (partition, bucket)
    }

    /// The occupancy word and bit mask of bucket `b` in partition `p`.
    #[inline]
    fn occupancy_bit(&self, p: usize, b: usize) -> (&AtomicU64, u64) {
        let index = self.global_index(p, b);
        (
            &self.occupancy[index / WORD_BUCKETS],
            1 << (index % WORD_BUCKETS),
        )
    }

    /// Inserts or updates `key`; `None` writes a tombstone.
    ///
    /// Returns [`AddResult::BucketFull`] without modifying anything when the
    /// key is absent and its bucket has no free slot.
    pub fn add(&self, key: &[u8], value: Option<&[u8]>) -> AddResult {
        let (p, b) = self.bucket_for(key);
        let bucket = &self.partitions[p].buckets[b];
        let guard = epoch::pin();
        let _lock = bucket.lock();

        let mut free_slot = None;
        let mut occupied = false;
        for (i, slot) in bucket.slots.iter().enumerate() {
            let cur = slot.load(Ordering::Acquire, &guard);
            // SAFETY: Non-null slots point to live entries; the bucket
            // lock excludes removal while we hold it.
            match unsafe { cur.as_ref() } {
                Some(entry) => {
                    occupied = true;
                    if entry.key.as_ref() == key {
                        // In-place update: replace the slot pointer with a
                        // fresh (unmarked) entry so a concurrent drain of
                        // the old entry cannot lose this write.
                        let new = Owned::new(HtEntry::new(key, value));
                        let delta = new.charge_bytes() as isize - entry.charge_bytes() as isize;
                        let old = slot.swap(new, Ordering::AcqRel, &guard);
                        self.bytes.fetch_add(delta, Ordering::Relaxed);
                        // SAFETY: `old` was unlinked under the bucket lock,
                        // so no new reader can acquire it; lock-free readers
                        // that already loaded it are pinned, and the
                        // collector waits for them before freeing.
                        unsafe { guard.defer_destroy(old) };
                        return AddResult::Updated;
                    }
                }
                None => {
                    if free_slot.is_none() {
                        free_slot = Some(i);
                    }
                }
            }
        }

        match free_slot {
            Some(i) => {
                let new = Owned::new(HtEntry::new(key, value));
                self.bytes
                    .fetch_add(new.charge_bytes() as isize, Ordering::Relaxed);
                bucket.slots[i].store(new, Ordering::Release);
                self.entries.fetch_add(1, Ordering::Relaxed);
                if !occupied {
                    // Release pairs with the drainers' Acquire word loads.
                    let (word, bit) = self.occupancy_bit(p, b);
                    word.fetch_or(bit, Ordering::Release);
                }
                AddResult::Added
            }
            None => AddResult::BucketFull,
        }
    }

    /// Looks up `key` without taking any lock.
    ///
    /// Returns `None` if absent, `Some(None)` for a tombstone, and
    /// `Some(Some(value))` otherwise.
    pub fn get(&self, key: &[u8]) -> Option<Option<Box<[u8]>>> {
        let (p, b) = self.bucket_for(key);
        let bucket = &self.partitions[p].buckets[b];
        let guard = epoch::pin();
        for slot in &bucket.slots {
            let cur = slot.load(Ordering::Acquire, &guard);
            // SAFETY: Entries are reclaimed only through the epoch
            // collector; holding `guard` keeps `cur` alive.
            if let Some(entry) = unsafe { cur.as_ref() } {
                if entry.key.as_ref() == key {
                    return Some(entry.value.clone());
                }
            }
        }
        None
    }

    /// Returns the number of drain chunks: one per occupancy word, i.e.
    /// per 64 consecutive buckets (see [`Self::claim_chunk`]).
    pub fn chunks(&self) -> usize {
        self.occupancy.len()
    }

    /// Returns the first chunk in `from..to` (clamped to [`Self::chunks`])
    /// with an occupied bucket: one load per chunk, no bucket touched.
    pub fn next_occupied_chunk(&self, from: usize, to: usize) -> Option<usize> {
        let to = to.min(self.chunks());
        (from..to).find(|&chunk| self.occupancy[chunk].load(Ordering::Acquire) != 0)
    }

    /// Returns the first bucket in `from..to` (global bucket indices,
    /// clamped to [`Self::total_buckets`]) whose occupancy bit is set,
    /// skipping empty buckets a word at a time without touching them.
    pub fn next_occupied(&self, from: usize, to: usize) -> Option<usize> {
        let to = to.min(self.total_buckets());
        let mut at = from;
        while at < to {
            let bits =
                self.occupancy[at / WORD_BUCKETS].load(Ordering::Acquire) >> (at % WORD_BUCKETS);
            if bits != 0 {
                let found = at + bits.trailing_zeros() as usize;
                return (found < to).then_some(found);
            }
            at = (at / WORD_BUCKETS + 1) * WORD_BUCKETS;
        }
        None
    }

    /// Returns whether the buffer holds no entry *and* its occupancy
    /// summary is all clear — the state of a freshly built buffer, which
    /// is what lets a fully drained one be installed again.
    pub fn is_drained(&self) -> bool {
        self.is_empty()
            && self
                .occupancy
                .iter()
                .all(|word| word.load(Ordering::Acquire) == 0)
    }

    /// Claims every unmarked entry in the bucket with global index `chunk`
    /// (Figure 6, steps 1-2: retrieve and mark).
    ///
    /// A bucket whose occupancy bit is clear is skipped outright — no
    /// epoch pin, no bucket lock, no allocation. The engine drains whole
    /// chunks ([`Self::claim_chunk`]); this one-bucket form serves tests
    /// and the per-bucket drain probe.
    pub fn claim_bucket(&self, chunk: usize) -> Vec<DrainedEntry> {
        let mut out = Vec::new();
        if self.next_occupied(chunk, chunk + 1).is_some() {
            out.reserve_exact(SLOTS);
            self.claim_into(chunk, &mut out);
        }
        out
    }

    /// Claims every unmarked entry in the 64 buckets of occupancy word
    /// `chunk` (the unit the engine drains), visiting only
    /// the buckets whose bit is set: an empty word costs one load.
    pub fn claim_chunk(&self, chunk: usize) -> Vec<DrainedEntry> {
        // Sized once for what the set bits can hold: the drain paths never
        // regrow a vector (see ARCHITECTURE.md, "Records stay borrowed").
        let occupied = self.occupancy[chunk].load(Ordering::Acquire).count_ones() as usize;
        let mut out = Vec::with_capacity(occupied * SLOTS);
        let end = (chunk + 1) * WORD_BUCKETS;
        let mut from = chunk * WORD_BUCKETS;
        while let Some(bucket) = self.next_occupied(from, end) {
            self.claim_into(bucket, &mut out);
            from = bucket + 1;
        }
        out
    }

    /// Takes the lock of the bucket with global index `index` and holds it
    /// until the returned guard drops. Test support: a caller that must
    /// never wait on a bucket lock can be run against a held one.
    #[doc(hidden)]
    pub fn hold_bucket_lock(&self, index: usize) -> impl Sized + '_ {
        self.partitions[index / (self.bucket_mask + 1)].buckets[index & self.bucket_mask].lock()
    }

    fn claim_into(&self, index: usize, out: &mut Vec<DrainedEntry>) {
        let p = index / (self.bucket_mask + 1);
        let b = index & self.bucket_mask;
        let bucket = &self.partitions[p].buckets[b];
        let guard = epoch::pin();
        let _lock = bucket.lock();

        for (i, slot) in bucket.slots.iter().enumerate() {
            let cur = slot.load(Ordering::Acquire, &guard);
            // SAFETY: Non-null slots are live under the bucket lock.
            if let Some(entry) = unsafe { cur.as_ref() } {
                if !entry.marked.swap(true, Ordering::AcqRel) {
                    out.push(DrainedEntry {
                        key: entry.key.clone(),
                        value: entry.value.clone(),
                        token: RemoveToken {
                            partition: p,
                            bucket: b,
                            slot: i,
                            entry_id: entry.id,
                        },
                    });
                }
            }
        }
    }

    /// Removes previously drained entries (Figure 6, step 3).
    ///
    /// An entry is removed only if its slot still holds the exact entry the
    /// token references; if a writer updated the key in place meanwhile,
    /// the newer entry stays resident and will be drained later.
    pub fn remove_drained(&self, tokens: &[RemoveToken]) {
        let guard = epoch::pin();
        for token in tokens {
            let bucket = &self.partitions[token.partition].buckets[token.bucket];
            let _lock = bucket.lock();
            let slot = &bucket.slots[token.slot];
            let cur = slot.load(Ordering::Acquire, &guard);
            // SAFETY: Non-null slots hold live entries under the bucket
            // lock. The identity check (not an address check) rejects a
            // fresh entry that was allocated at the claimed entry's reused
            // address — removing it would silently drop an undrained write.
            let matches = unsafe { cur.as_ref() }.is_some_and(|e| e.id == token.entry_id);
            if matches {
                // SAFETY: The identity matches the claimed entry, which is
                // still live; swap it out under the bucket lock and defer
                // its reclamation past concurrent lock-free readers.
                let old = slot.swap(crossbeam_epoch::Shared::null(), Ordering::AcqRel, &guard);
                // SAFETY: `old` was just verified live under the bucket
                // lock; the swap only unpublished it, nothing freed it.
                let entry = unsafe { old.deref() };
                self.bytes
                    .fetch_sub(entry.charge_bytes() as isize, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                // SAFETY: `old` is unpublished (swapped to null above), so
                // no new reader can reach it; deferring past the current
                // epoch covers the lock-free readers that already did.
                unsafe { guard.defer_destroy(old) };
                let emptied = bucket
                    .slots
                    .iter()
                    .all(|s| s.load(Ordering::Acquire, &guard).is_null());
                if emptied {
                    let (word, bit) = self.occupancy_bit(token.partition, token.bucket);
                    word.fetch_and(!bit, Ordering::Release);
                }
            }
        }
    }

    /// Calls `f` for every resident entry. Buckets are visited under their
    /// lock; intended for tests and diagnostics, not the hot path.
    pub fn for_each(&self, mut f: impl FnMut(&[u8], Option<&[u8]>)) {
        let guard = epoch::pin();
        for p in self.partitions.iter() {
            for bucket in p.buckets.iter() {
                let _lock = bucket.lock();
                for slot in &bucket.slots {
                    let cur = slot.load(Ordering::Acquire, &guard);
                    // SAFETY: Live under the bucket lock.
                    if let Some(entry) = unsafe { cur.as_ref() } {
                        f(entry.key.as_ref(), entry.value.as_deref());
                    }
                }
            }
        }
    }
}

// SAFETY: All mutation is protected by per-bucket locks or atomics, and
// entry reclamation goes through the epoch collector.
unsafe impl Send for MemBuffer {}
// SAFETY: See above.
unsafe impl Sync for MemBuffer {}

impl Drop for MemBuffer {
    fn drop(&mut self) {
        // SAFETY: Exclusive access; no concurrent readers can exist, so
        // freeing entries directly (without a grace period) is sound.
        unsafe {
            let guard = epoch::unprotected();
            for p in self.partitions.iter() {
                for bucket in p.buckets.iter() {
                    for slot in &bucket.slots {
                        let cur = slot.load(Ordering::Relaxed, guard);
                        if !cur.is_null() {
                            drop(cur.into_owned());
                        }
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for MemBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemBuffer")
            .field("entries", &self.len())
            .field("capacity", &self.capacity_entries())
            .field("partitions", &self.num_partitions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;

    use super::*;

    fn small() -> MemBuffer {
        MemBuffer::new(MemBufferConfig {
            partition_bits: 2,
            buckets_per_partition: 8,
        })
    }

    fn k(n: u64) -> Box<[u8]> {
        Box::new(n.to_be_bytes())
    }

    #[test]
    fn add_get_roundtrip() {
        let m = small();
        assert_eq!(m.add(b"a", Some(b"1")), AddResult::Added);
        assert_eq!(m.get(b"a"), Some(Some(Box::from(&b"1"[..]))));
        assert_eq!(m.get(b"b"), None);
    }

    #[test]
    fn update_in_place_does_not_grow() {
        let m = small();
        assert_eq!(m.add(b"a", Some(b"1")), AddResult::Added);
        assert_eq!(m.add(b"a", Some(b"22")), AddResult::Updated);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(b"a"), Some(Some(Box::from(&b"22"[..]))));
    }

    #[test]
    fn tombstones_are_resident_entries() {
        let m = small();
        assert_eq!(m.add(b"a", None), AddResult::Added);
        assert_eq!(m.get(b"a"), Some(None));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn bucket_full_signals_fallback() {
        // One partition, one bucket: capacity is exactly SLOTS entries that
        // hash anywhere.
        let m = MemBuffer::new(MemBufferConfig {
            partition_bits: 0,
            buckets_per_partition: 1,
        });
        let mut added = 0;
        let mut full = 0;
        for i in 0..32u64 {
            match m.add(&k(i), Some(b"v")) {
                AddResult::Added => added += 1,
                AddResult::BucketFull => full += 1,
                AddResult::Updated => unreachable!("keys are distinct"),
            }
        }
        assert_eq!(added, SLOTS);
        assert_eq!(full, 32 - SLOTS as u64);
        // Updates of resident keys still succeed when the bucket is full.
        let resident: Vec<u64> = (0..32).filter(|i| m.get(&k(*i)).is_some()).collect();
        assert_eq!(resident.len(), SLOTS);
        assert_eq!(m.add(&k(resident[0]), Some(b"w")), AddResult::Updated);
    }

    #[test]
    fn capacity_config_math() {
        let c = MemBufferConfig::for_capacity_bytes(1 << 20, 4, 64);
        assert!(c.capacity_entries() >= (1 << 20) / 64 / 2);
        assert_eq!(c.partition_bits, 4);
    }

    #[test]
    fn partitioning_uses_key_prefix() {
        let m = MemBuffer::new(MemBufferConfig {
            partition_bits: 4,
            buckets_per_partition: 4,
        });
        assert_eq!(m.num_partitions(), 16);
        assert_eq!(m.partition_of(&u64::MAX.to_be_bytes()), 15);
        assert_eq!(m.partition_of(&0u64.to_be_bytes()), 0);
    }

    #[test]
    fn claim_marks_and_remove_deletes() {
        let m = small();
        for i in 0..20u64 {
            m.add(&k(i), Some(&i.to_be_bytes()));
        }
        assert_eq!(m.len(), 20);
        let mut drained = Vec::new();
        for chunk in 0..m.total_buckets() {
            drained.extend(m.claim_bucket(chunk));
        }
        assert_eq!(drained.len(), 20);
        // Claiming again yields nothing: everything is marked.
        for chunk in 0..m.total_buckets() {
            assert!(m.claim_bucket(chunk).is_empty());
        }
        let tokens: Vec<RemoveToken> = drained.iter().map(|d| d.token).collect();
        m.remove_drained(&tokens);
        assert_eq!(m.len(), 0);
        for i in 0..20u64 {
            assert_eq!(m.get(&k(i)), None);
        }
    }

    #[test]
    fn claim_of_an_empty_bucket_takes_no_lock() {
        let m = Arc::new(small());
        // Hold bucket 0's spinlock for the whole test: a claim that tried
        // to take it would spin forever instead of answering.
        let _held = m.partitions[0].buckets[0].lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let claimer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || tx.send(m.claim_bucket(0).len()).unwrap())
        };
        let claimed = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("claim_bucket on a clear-bit bucket waited for the bucket lock");
        assert_eq!(claimed, 0);
        claimer.join().unwrap();
    }

    #[test]
    fn occupancy_summary_tracks_bucket_transitions() {
        let m = small();
        assert!(m.is_drained());
        assert_eq!(m.next_occupied(0, m.total_buckets()), None);
        m.add(b"a", Some(b"1"));
        let index = m.bucket_of(b"a");
        assert_eq!(m.next_occupied(0, m.total_buckets()), Some(index));
        assert_eq!(m.next_occupied(index + 1, m.total_buckets()), None);
        assert_eq!(m.next_occupied(0, index), None, "the range end is exclusive");
        // An in-place update is not a transition; the drain of the last
        // entry is.
        m.add(b"a", Some(b"2"));
        let drained = m.claim_chunk(index / WORD_BUCKETS);
        assert_eq!(drained.len(), 1);
        assert!(!m.is_drained(), "claimed but not yet removed");
        m.remove_drained(&[drained[0].token]);
        assert!(m.is_drained());
    }

    #[test]
    fn update_during_drain_is_not_lost() {
        let m = small();
        m.add(b"key", Some(b"old"));
        let drained = {
            let mut all = Vec::new();
            for chunk in 0..m.total_buckets() {
                all.extend(m.claim_bucket(chunk));
            }
            all
        };
        assert_eq!(drained.len(), 1);
        // A writer updates the key after the drainer claimed it but before
        // removal: the update must survive.
        assert_eq!(m.add(b"key", Some(b"new")), AddResult::Updated);
        let tokens: Vec<RemoveToken> = drained.iter().map(|d| d.token).collect();
        m.remove_drained(&tokens);
        assert_eq!(m.get(b"key"), Some(Some(Box::from(&b"new"[..]))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_adds_distinct_keys() {
        let m = Arc::new(MemBuffer::new(MemBufferConfig {
            partition_bits: 4,
            buckets_per_partition: 256,
        }));
        let threads = 4u64;
        let per = 1000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut stored = 0;
                for i in 0..per {
                    let key = t * per + i;
                    if m.add(&k(key), Some(&key.to_be_bytes())) == AddResult::Added {
                        stored += 1;
                    }
                }
                stored
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(m.len() as u64, total);
        // Spot-check all stored keys read back correctly.
        let mut present = 0;
        for key in 0..threads * per {
            if let Some(Some(v)) = m.get(&k(key)) {
                assert_eq!(v.as_ref(), key.to_be_bytes());
                present += 1;
            }
        }
        assert_eq!(present, total);
    }

    #[test]
    fn concurrent_drain_and_update_never_loses_writes() {
        let m = Arc::new(MemBuffer::new(MemBufferConfig {
            partition_bits: 2,
            buckets_per_partition: 64,
        }));
        let keys = 200u64;
        for key in 0..keys {
            m.add(&k(key), Some(&0u64.to_be_bytes()));
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Drainer thread: claims and removes entries; records drained kv.
        let drainer = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_drained: HashMap<Vec<u8>, u64> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    for chunk in 0..m.total_buckets() {
                        let drained = m.claim_bucket(chunk);
                        let tokens: Vec<RemoveToken> =
                            drained.iter().map(|d| d.token).collect();
                        for d in &drained {
                            let v = u64::from_be_bytes(
                                d.value.as_deref().unwrap().try_into().unwrap(),
                            );
                            last_drained.insert(d.key.to_vec(), v);
                        }
                        m.remove_drained(&tokens);
                    }
                }
                last_drained
            })
        };
        // Writer: bumps versions of all keys.
        let mut final_version = HashMap::new();
        for round in 1..=50u64 {
            for key in 0..keys {
                m.add(&k(key), Some(&round.to_be_bytes()));
                final_version.insert(k(key).to_vec(), round);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let drained_map = drainer.join().unwrap();
        // Every key's final version must be either still resident or the
        // last thing the drainer saw.
        for (key, version) in final_version {
            let resident = m.get(&key).map(|v| {
                u64::from_be_bytes(v.as_deref().unwrap().try_into().unwrap())
            });
            let drained = drained_map.get(&key).copied();
            let observed = resident.or(drained);
            assert_eq!(
                observed,
                Some(version),
                "final write to key {key:?} was lost (resident {resident:?}, drained {drained:?})"
            );
        }
    }
}
