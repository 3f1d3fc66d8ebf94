//! Allocation budget for the disk paths: compaction and disk scans
//! allocate per *block* and per *file*, never per record, and a point get
//! allocates only the record it returns.
//!
//! A record travels from the block buffer it was read from to the output
//! block (or to the scan's visitor) as a borrow, so the only allocator
//! calls left on the merge paths are the buffers `read_at` returns, the
//! index entry and buffers of each output table, and a handful of vectors
//! per call. A point get searches its block where the file keeps it
//! (`read_with`) and borrows the version's file list. The counts are
//! deterministic, so this is the regression guard a time-based benchmark
//! on a small, noisy machine cannot be: before the borrowed-record merge
//! these paths made about eight allocator calls per record merged, and
//! before the borrowed block read a warm get of a key held in L0 and
//! below made seven.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use flodb_storage::compaction::CompactionConfig;
use flodb_storage::merge::MergeCursor;
use flodb_storage::sstable::TableIterator;
use flodb_storage::{DiskComponent, DiskOptions, MemEnv, Record};

thread_local! {
    /// Allocator calls (`alloc` and `realloc`) made by this thread. Tests
    /// run on their own threads, so they do not see each other's.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // A thread's last deallocations can come after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: `GlobalAlloc::alloc`'s contract is the caller's, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract is the caller's, passed on.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc::realloc`'s contract is the caller's, passed on.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocator calls `work` makes on this thread.
fn allocations_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const VALUE_BYTES: usize = 100;

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

/// A component holding `flushes` overlapping L0 tables of `per_flush`
/// records each over `key_space` keys (not yet compacted).
fn flushed(flushes: u64, per_flush: u64, key_space: u64) -> DiskComponent {
    let disk = DiskComponent::new(
        Arc::new(MemEnv::new(None)),
        DiskOptions {
            compaction: CompactionConfig {
                base_level_bytes: 1 << 20,
                target_file_bytes: 512 << 10,
                ..CompactionConfig::default()
            },
            ..DiskOptions::default()
        },
    );
    let mut seq = 0;
    for flush in 0..flushes {
        let batch = (0..per_flush)
            .map(|i| {
                seq += 1;
                let k = (i * 7 + flush * 13) % key_space;
                Record::put(key(k), seq, vec![k as u8; VALUE_BYTES])
            })
            .collect();
        disk.flush_records(batch).unwrap();
    }
    disk
}

#[test]
fn compaction_allocates_per_block_not_per_record() {
    const RECORDS: u64 = 50_000;
    let disk = flushed(5, RECORDS / 5, 30_000);
    let (allocations, ()) = allocations_of(|| disk.compact_all().unwrap());
    let stats = disk.stats();
    assert!(
        stats.compactions == 1 && stats.trivial_moves >= 2 && stats.files_per_level[0] == 0,
        "{stats:?}"
    );
    // Every flushed record is merged once, by the L0 compaction; its
    // output then moves down a level without a rewrite. Measured: 4 340
    // calls (0.087 per record).
    let per_record = allocations as f64 / RECORDS as f64;
    assert!(
        per_record < 0.1,
        "{allocations} allocations to compact {RECORDS} records ({per_record:.3} per record)"
    );
}

#[test]
fn disk_scan_allocates_per_block_and_file_not_per_record() {
    const SCAN_KEYS: u64 = 100;
    // Three sources under every key: two levels and one L0 table.
    let disk = flushed(5, 10_000, 30_000);
    disk.compact_all().unwrap();
    disk.flush_records(
        (0..30_000)
            .step_by(3)
            .map(|k| Record::put(key(k), 1_000_000 + k, vec![1; VALUE_BYTES]))
            .collect(),
    )
    .unwrap();
    let files: usize = disk.stats().files_per_level.iter().sum();
    assert!(disk.stats().files_per_level.iter().filter(|&&n| n > 0).count() >= 2);

    let (low, high) = (key(12_000), key(12_000 + SCAN_KEYS - 1));
    let mut seen = 0u64;
    let mut scan = || {
        seen = 0;
        let mut tables = Vec::new();
        let pinned = disk.version();
        disk.range_sources(&pinned, &low, &high, &mut tables).unwrap();
        let mut merged = MergeCursor::<TableIterator>::new(tables, u64::MAX).unwrap();
        while let Some(record) = merged.next_merged().unwrap() {
            if record.key > high.as_slice() {
                break;
            }
            assert!(record.key >= low.as_slice() && record.key <= high.as_slice());
            seen += 1;
        }
    };
    // The first scan opens the tables (an index entry per block, cached
    // from then on); the budget is for the scan itself.
    scan();
    let (allocations, ()) = allocations_of(scan);
    assert!(seen > SCAN_KEYS / 2, "the range is populated: {seen}");
    // A block per ~35 records per source, a few vectors per call.
    assert!(
        (allocations as f64) < 0.25 * seen as f64,
        "{allocations} allocations to scan {seen} keys over {files} files"
    );
}

#[test]
fn disk_get_allocates_only_its_answer() {
    const KEYS: u64 = 20_000;
    let disk = DiskComponent::new(
        Arc::new(MemEnv::new(None)),
        DiskOptions {
            compaction: CompactionConfig {
                base_level_bytes: 64 << 10,
                target_file_bytes: 32 << 10,
                ..CompactionConfig::default()
            },
            // Every table stays open: a miss would allocate the table.
            cache_capacity: 1 << 16,
            ..DiskOptions::default()
        },
    );
    // Three rounds over the key space, each flushed and compacted down:
    // a key's versions end up at different depths.
    for round in 0..3u64 {
        let batch = (0..KEYS)
            .map(|k| Record::put(key(k), round * KEYS + k + 1, vec![k as u8; VALUE_BYTES]))
            .collect();
        disk.flush_records(batch).unwrap();
        disk.compact_all().unwrap();
    }
    // And some keys in L0, so a get also walks an overlapping level.
    disk.flush_records(
        (0..KEYS)
            .step_by(5)
            .map(|k| Record::put(key(k), 10 * KEYS + k, vec![1; VALUE_BYTES]))
            .collect(),
    )
    .unwrap();
    let stats = disk.stats();
    assert!(
        stats.files_per_level.iter().skip(1).filter(|&&n| n > 0).count() >= 3,
        "{stats:?}"
    );

    let probes: Vec<u64> = (0..KEYS).step_by(97).collect();
    // The first pass opens the tables and registers this thread's read
    // slot; the budget is for a get on a warm disk.
    for &k in &probes {
        disk.get(&key(k)).unwrap().unwrap();
    }
    for &k in &probes {
        let (allocations, record) = allocations_of(|| disk.get(&key(k)).unwrap());
        let record = record.expect("every probed key is present");
        assert_eq!(record.key.as_ref(), key(k));
        // The answer's key and value: no block buffer, no file list.
        assert!(allocations <= 2, "{allocations} allocations to get key {k}");
    }
}
