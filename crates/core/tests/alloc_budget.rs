//! Allocation budget for the store's record-moving paths — the twin of
//! `flodb-storage`'s `tests/alloc_budget.rs`, one layer up.
//!
//! A scan copies each version it meets once, into its arena (two growing
//! vectors), and a Memtable flush streams the skiplist's iterator straight
//! into the table builder; neither allocates per record any more. Before,
//! a 100-key scan over memory and three disk levels made about 600
//! allocator calls (a tree node and two boxes per version, on top of the
//! disk merge's), and a flush about 7 per record plus two copies of the
//! whole Memtable. And a put is a one-op submission: it reaches the log
//! through the same commit-and-apply body as a `WriteBatch`, monomorphised,
//! so logging it builds no batch and allocates nothing — what a put
//! allocates is its entry in the memory component. The counts are
//! deterministic, which a timing on a small shared machine is not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use flodb_core::{FloDb, FloDbOptions, KvStore, WalMode};

/// Allocator calls (`alloc` and `realloc`) by every thread of the process:
/// the flush runs on the store's persist thread, not the caller's.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The counter is process-wide, so the tests of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`; counting is one
// relaxed atomic add.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: `GlobalAlloc::alloc`'s contract is the caller's, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocator calls the whole process makes while `work` runs.
fn allocations_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

const VALUE_BYTES: usize = 100;

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

/// A store whose memory component outlasts the test's writes: nothing is
/// flushed until asked.
fn store(tune: impl FnOnce(&mut FloDbOptions)) -> FloDb {
    let mut opts = FloDbOptions::default_in_memory();
    opts.memory_bytes = 64 << 20;
    tune(&mut opts);
    FloDb::open(opts).unwrap()
}

fn put_all(db: &FloDb, keys: impl Iterator<Item = u64>, fill: u8) {
    for k in keys {
        db.put(&key(k), &[fill; VALUE_BYTES]).unwrap();
    }
}

/// One flush per round: drained first, because a forced flush racing the
/// drain writes a table per trickle, and how many it leaves in L0 decides
/// whether the next round's table trips the L0 trigger.
fn settle(db: &FloDb) {
    db.quiesce();
    db.flush_all();
}

#[test]
fn scan_over_memory_and_three_disk_levels_stays_under_forty_allocations() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    const SCAN_KEYS: u64 = 100;
    // Small levels: a few MB already fill three.
    let db = store(|opts| {
        opts.disk.compaction.base_level_bytes = 256 << 10;
        opts.disk.compaction.target_file_bytes = 128 << 10;
    });
    // Oldest data deepest: each round is flushed and compacted under the
    // next, the last one small enough to stay in L0.
    put_all(&db, 0..30_000, 1);
    settle(&db);
    put_all(&db, (0..30_000).step_by(2), 2);
    settle(&db);
    put_all(&db, (0..30_000).step_by(30), 3);
    settle(&db);
    let levels = db.disk_stats().files_per_level;
    assert!(
        levels[0] > 0 && levels.iter().filter(|&&n| n > 0).count() >= 3,
        "the range must sit under three disk levels: {levels:?}"
    );
    // And the freshest versions in memory: some still in the Membuffer
    // when the scan starts (its master drains them), some in the Memtable.
    put_all(&db, (12_000..12_100).step_by(3), 4);
    db.quiesce();
    put_all(&db, (12_001..12_100).step_by(3), 5);

    let (low, high) = (key(12_000), key(12_000 + SCAN_KEYS - 1));
    let scan = || {
        let mut fills = Vec::with_capacity(SCAN_KEYS as usize);
        let counted = allocations_of(|| {
            db.scan_with(&low, &high, &mut |k, v| {
                assert!(k >= low.as_slice() && k <= high.as_slice() && v.len() == VALUE_BYTES);
                fills.push(v[0]);
                ControlFlow::Continue(())
            })
        });
        (counted.0, fills)
    };
    // The first scan opens the tables (cached from then on).
    scan();
    let (allocations, fills) = scan();
    assert_eq!(fills.len() as u64, SCAN_KEYS);
    for (i, fill) in fills.iter().enumerate() {
        let want = [4, 5, if i % 2 == 0 { 2 } else { 1 }][i % 3];
        assert_eq!(*fill, want, "key {}: freshest version wins", 12_000 + i);
    }
    assert!(allocations < 40, "{allocations} allocations for a {SCAN_KEYS}-key scan");
}

#[test]
fn memtable_flush_allocates_per_block_not_per_record() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    const RECORDS: u64 = 20_000;
    let db = store(|_| {});
    put_all(&db, 0..RECORDS, 7);
    // Everything drained into the Memtable, nothing flushed yet: what is
    // counted next is the switch, the flush (two tables, under the L0
    // trigger) and the compaction pass that finds nothing to do.
    db.quiesce();
    assert_eq!(db.disk_stats().flushes, 0);
    let (allocations, ()) = allocations_of(|| db.flush_all());
    let stats = db.disk_stats();
    assert_eq!((stats.flushes, stats.compactions), (1, 0));
    assert_eq!(db.get(&key(RECORDS - 1)), Some(vec![7; VALUE_BYTES]));
    let per_record = allocations as f64 / RECORDS as f64;
    assert!(
        per_record < 0.25,
        "{allocations} allocations to flush {RECORDS} records ({per_record:.3} per record)"
    );
}

#[test]
fn logging_a_put_allocates_nothing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    const PUTS: u64 = 5_000;
    // Straight into the Memtable, with no drain thread beside the writer
    // and no Memtable switch (its roll and flush would allocate): the only
    // difference between the two stores is the commit stage.
    let counted = |wal: WalMode| {
        let db = store(|opts| {
            opts.membuffer_enabled = false;
            opts.drain_threads = 0;
            opts.wal = wal;
            opts.wal_segment_max_bytes = 64 << 20;
        });
        // The first round sizes the group buffer and the in-memory log
        // file; the second overwrites the same keys.
        put_all(&db, 0..PUTS, 1);
        let (allocations, ()) = allocations_of(|| put_all(&db, 0..PUTS, 2));
        assert_eq!(db.get(&key(PUTS - 1)), Some(vec![2; VALUE_BYTES]));
        allocations
    };
    let unlogged = counted(WalMode::Disabled);
    let logged = counted(WalMode::Enabled { sync: false });
    // The log file doubling once more is the slack.
    assert!(
        logged <= unlogged + 8,
        "{PUTS} logged puts made {logged} allocations, unlogged ones {unlogged}"
    );
}
