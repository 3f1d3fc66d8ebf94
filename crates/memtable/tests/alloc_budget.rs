//! Allocation budget for the Memtable — the skiplist's twin of
//! `flodb-core`'s `tests/alloc_budget.rs`.
//!
//! A node, its tower and its key are one block carved out of the list's
//! own arena, so inserting an entry allocates only its value: the
//! `VersionedValue` and the payload. Before, each entry was five heap
//! objects (node, tower, key, `VersionedValue`, payload), made one by one
//! on insert and freed one by one when the table dropped. The counts are
//! deterministic, which a timing on a small shared machine is not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flodb_memtable::SkipList;

thread_local! {
    /// This thread's allocator calls that hand memory out (`alloc` and
    /// `realloc`). Per thread, because a list does all its work on its
    /// caller's and the test harness allocates on its own threads.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// This thread's allocator calls that take memory back (`dealloc`).
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A const-initialised `Cell` has no destructor, so this neither
    // allocates nor fails while the thread is being torn down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: `GlobalAlloc::alloc`'s contract is the caller's, passed on.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract is the caller's, passed on.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc::realloc`'s contract is the caller's, passed on.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `(allocations, frees)` this thread makes while `work` runs.
fn counted<T>(work: impl FnOnce() -> T) -> (u64, u64, T) {
    let (a, f) = (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    let out = work();
    (
        ALLOCATIONS.with(Cell::get) - a,
        FREES.with(Cell::get) - f,
        out,
    )
}

const ENTRIES: u64 = 20_000;
const VALUE_BYTES: usize = 100;

/// Heap objects behind one entry's value: its `VersionedValue` and the
/// payload.
const PER_ENTRY: u64 = 2;

/// Bound on the chunks `ENTRIES` nodes of 8-byte keys take: under 1 MiB
/// of blocks, in chunks doubling from 4 KiB, is eight.
const CHUNKS: u64 = 8;

/// A list of `ENTRIES` 8-byte keys with 100-byte values, and what building
/// it allocated.
fn filled_list() -> (u64, SkipList) {
    // The first pin registers this thread with the epoch collector; that
    // allocation is not the list's.
    drop(crossbeam_epoch::pin());
    let (allocations, _, list) = counted(|| {
        let list = SkipList::new();
        for i in 0..ENTRIES {
            list.insert(&i.to_be_bytes(), Some(&[7; VALUE_BYTES]), i + 1);
        }
        list
    });
    assert_eq!(list.len(), ENTRIES as usize);
    (allocations, list)
}

#[test]
fn inserting_allocates_the_value_and_nothing_per_node() {
    let (allocations, _list) = filled_list();
    assert!(
        allocations <= PER_ENTRY * ENTRIES + CHUNKS,
        "{allocations} allocations to insert {ENTRIES} entries"
    );
}

#[test]
fn dropping_a_table_frees_its_values_and_its_chunks() {
    let (_, list) = filled_list();
    let (_, frees, ()) = counted(|| drop(list));
    assert!(
        frees <= PER_ENTRY * ENTRIES + CHUNKS,
        "{frees} frees to drop {ENTRIES} entries"
    );
}
