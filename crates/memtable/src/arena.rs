//! The Memtable's bump arena: one per [`SkipList`](crate::SkipList), from
//! which every node of that list is carved.
//!
//! Skiplist nodes are never unlinked, so none is ever freed on its own:
//! they all die with their list. That makes a per-list arena the natural
//! allocator — a node is one bump of an offset instead of a trip through
//! `malloc`, the nodes of a list sit next to each other in memory, and
//! dropping the list returns its chunks instead of walking its nodes.
//!
//! Allocation is lock-free. A block is claimed with one `fetch_add` on the
//! current chunk's offset; the thread whose claim runs past the end of the
//! chunk allocates the next one, claims its own block at the front, and
//! installs it with a CAS on `current`. A thread that loses that CAS frees
//! its unpublished chunk and retries in the winner's. Once a claim on a
//! chunk has failed every later claim on it fails too (the offset only
//! grows), so a chunk that has been rolled past is never bumped again.
//!
//! Chunks double from [`FIRST_CHUNK`] up to [`MAX_CHUNK`], so an empty
//! table pins a few KiB, not a megabyte; a block larger than the next
//! chunk gets a chunk of its own size.

use std::alloc::{self, Layout};
use std::mem::size_of;
use std::ptr::{self, NonNull};

use flodb_sync::shim::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Alignment of every block, and the granularity of block sizes.
pub(crate) const ALIGN: usize = 8;

/// Data bytes of a list's first chunk. Unit tests shrink the chunks so
/// that a few thousand entries roll hundreds of them.
const FIRST_CHUNK: usize = if cfg!(test) { 512 } else { 4 << 10 };

/// Data bytes beyond which chunks stop doubling.
const MAX_CHUNK: usize = if cfg!(test) { 2 << 10 } else { 1 << 20 };

/// The front of every chunk allocation; the data bytes follow it.
#[repr(C)]
struct Chunk {
    /// The chunk installed before this one (null for the first).
    prev: *mut Chunk,
    /// Data bytes after the header.
    capacity: usize,
    /// Data bytes claimed so far; runs past `capacity` once the chunk is
    /// full, as failed claims still add their size.
    used: AtomicUsize,
}

const _: () = assert!(size_of::<Chunk>().is_multiple_of(ALIGN) && std::mem::align_of::<Chunk>() <= ALIGN);

impl Chunk {
    fn layout(capacity: usize) -> Layout {
        Layout::from_size_align(size_of::<Chunk>() + capacity, ALIGN).expect("chunk layout")
    }

    /// Allocates a chunk whose first `claimed` data bytes are already
    /// taken by the caller.
    fn allocate(capacity: usize, prev: *mut Chunk, claimed: usize) -> NonNull<Chunk> {
        let layout = Self::layout(capacity);
        // SAFETY: the layout has a non-zero size (the header).
        let raw = unsafe { alloc::alloc(layout) }.cast::<Chunk>();
        let Some(chunk) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `chunk` is a fresh allocation sized and aligned for the
        // header; nothing else can see it yet.
        unsafe {
            chunk.as_ptr().write(Chunk {
                prev,
                capacity,
                used: AtomicUsize::new(claimed),
            })
        };
        chunk
    }

    /// The first data byte of `chunk`.
    ///
    /// # Safety
    ///
    /// `chunk` must point at a live chunk allocation.
    unsafe fn data(chunk: NonNull<Chunk>) -> NonNull<u8> {
        // SAFETY: the data bytes start right after the header, inside the
        // same allocation (the caller's contract).
        unsafe { chunk.cast::<u8>().add(size_of::<Chunk>()) }
    }

    /// Frees one chunk.
    ///
    /// # Safety
    ///
    /// `chunk` came from [`Chunk::allocate`], nothing points into it any
    /// more, and it is freed once.
    unsafe fn free(chunk: NonNull<Chunk>) {
        // SAFETY: the caller's contract; the header is read before the
        // allocation is returned with the layout it was made with.
        unsafe {
            let layout = Self::layout(chunk.as_ref().capacity);
            alloc::dealloc(chunk.as_ptr().cast(), layout);
        }
    }
}

/// A chunked bump allocator whose blocks all live until it is dropped.
///
/// It owns its chunks through `current` and the `prev` links; every
/// shared mutation of a chunk goes through its atomics, and a `prev` link
/// is written before its chunk is published, so the arena is `Send` and
/// `Sync` as its `AtomicPtr` is.
pub(crate) struct Arena {
    /// The chunk blocks are claimed from; never null.
    current: AtomicPtr<Chunk>,
}

impl Arena {
    /// An arena holding one empty chunk of [`FIRST_CHUNK`] bytes.
    pub(crate) fn new() -> Self {
        let first = Chunk::allocate(FIRST_CHUNK, ptr::null_mut(), 0);
        Self {
            current: AtomicPtr::new(first.as_ptr()),
        }
    }

    /// Claims `size` bytes, aligned to [`ALIGN`], valid until the arena
    /// drops. `size` must be a non-zero multiple of [`ALIGN`].
    pub(crate) fn allocate(&self, size: usize) -> NonNull<u8> {
        debug_assert!(size > 0 && size.is_multiple_of(ALIGN), "block size {size}");
        loop {
            let chunk = self.current.load(Ordering::Acquire);
            // SAFETY: `current` is never null and every chunk lives until
            // the arena drops; the Acquire load saw its header written.
            let header = unsafe { &*chunk };
            let start = header.used.fetch_add(size, Ordering::Relaxed);
            if size <= header.capacity.saturating_sub(start) {
                // SAFETY: `start + size` is within the chunk's data bytes,
                // and the `fetch_add` gave this range to this call alone.
                return unsafe { Chunk::data(NonNull::new_unchecked(chunk)).add(start) };
            }
            let capacity = header.capacity.saturating_mul(2).min(MAX_CHUNK).max(size);
            let fresh = Chunk::allocate(capacity, chunk, size);
            match self.current.compare_exchange(
                chunk,
                fresh.as_ptr(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // SAFETY: `fresh` is live and its first `size` bytes were
                // claimed for this call at allocation.
                Ok(_) => return unsafe { Chunk::data(fresh) },
                // Another thread rolled first: ours was never published.
                // SAFETY: `fresh` is unreachable from anywhere else.
                Err(_) => unsafe { Chunk::free(fresh) },
            }
        }
    }

    /// How many chunks the arena holds.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        let mut n = 0;
        let mut chunk = self.current.load(Ordering::Acquire);
        while !chunk.is_null() {
            n += 1;
            // SAFETY: chunks live until the arena drops.
            chunk = unsafe { (*chunk).prev };
        }
        n
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        let mut chunk = *self.current.get_mut();
        while let Some(live) = NonNull::new(chunk) {
            // SAFETY: `&mut self` means no block of this arena is reachable
            // any more, and each chunk is on the `prev` chain exactly once.
            unsafe {
                chunk = live.as_ref().prev;
                Chunk::free(live);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use super::*;

    #[test]
    fn blocks_are_aligned_and_disjoint_across_rolls() {
        let arena = Arena::new();
        let mut blocks = BTreeMap::new();
        for i in 0..2000usize {
            let size = ALIGN * (1 + i % 40);
            let at = arena.allocate(size).as_ptr() as usize;
            assert_eq!(at % ALIGN, 0);
            blocks.insert(at, size);
        }
        let mut end = 0;
        for (&at, &size) in &blocks {
            assert!(at >= end, "blocks overlap");
            end = at + size;
        }
        assert!(arena.chunks() > 10, "the test must roll chunks");
    }

    #[test]
    fn a_block_larger_than_any_chunk_gets_its_own() {
        let arena = Arena::new();
        let big = MAX_CHUNK * 3;
        let block = arena.allocate(big);
        // SAFETY: the block is `big` bytes, owned by this test.
        unsafe { ptr::write_bytes(block.as_ptr(), 0xAB, big) };
        let after = arena.allocate(ALIGN).as_ptr() as usize;
        let (low, high) = (block.as_ptr() as usize, block.as_ptr() as usize + big);
        assert!(
            after + ALIGN <= low || after >= high,
            "the next block overlaps the big one"
        );
        assert_eq!(
            arena.chunks(),
            3,
            "first chunk, the big block's, the next one"
        );
    }

    #[test]
    fn concurrent_claims_never_overlap() {
        let arena = Arc::new(Arena::new());
        let threads: Vec<_> = (0..4u8)
            .map(|t| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    (0..3000usize)
                        .map(|i| {
                            let size = ALIGN * (1 + (i + t as usize) % 24);
                            let block = arena.allocate(size);
                            // SAFETY: the block is `size` bytes, claimed by
                            // this thread alone.
                            unsafe { ptr::write_bytes(block.as_ptr(), t, size) };
                            (block.as_ptr() as usize, size)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for (t, h) in threads.into_iter().enumerate() {
            for (at, size) in h.join().unwrap() {
                // SAFETY: blocks stay valid while the arena lives.
                let bytes = unsafe { std::slice::from_raw_parts(at as *const u8, size) };
                assert!(
                    bytes.iter().all(|&b| b == t as u8),
                    "a block was overwritten"
                );
                all.push((at, size));
            }
        }
        all.sort_unstable();
        for pair in all.windows(2) {
            assert!(pair[0].0 + pair[0].1 <= pair[1].0, "blocks overlap");
        }
    }
}
