//! The k-way merge: one cursor over key-ordered sources, freshest record
//! per key. Compaction, the disk's scan, FloDB's scan (Algorithm 3, lines
//! 15–30), the sharded router and the baselines all merge through it,
//! each over its own [`MergeSource`] type.

use std::cmp::Ordering;

use crate::error::Result;
use crate::record::{Record, RecordRef};
use crate::sstable::TableIterator;

/// One input of a [`MergeCursor`]: records in `(key asc, seq desc)` order,
/// already positioned where the merge starts.
pub trait MergeSource {
    /// Whether the source stands on a record.
    fn valid(&self) -> bool;
    /// The record it stands on, borrowed until it moves; only while valid.
    fn record(&self) -> RecordRef<'_>;
    /// Steps on; past the last record, or on an error, it turns invalid.
    fn next(&mut self) -> Result<()>;
}

impl MergeSource for TableIterator {
    fn valid(&self) -> bool {
        TableIterator::valid(self)
    }

    fn record(&self) -> RecordRef<'_> {
        TableIterator::record(self)
    }

    fn next(&mut self) -> Result<()> {
        TableIterator::next(self)
    }
}

/// An owned run of records in `(key asc, seq desc)` order: a snapshot
/// copied out of a memory component, or a shard's scan.
impl MergeSource for std::vec::IntoIter<Record> {
    fn valid(&self) -> bool {
        !self.as_slice().is_empty()
    }

    fn record(&self) -> RecordRef<'_> {
        (&self.as_slice()[0]).into()
    }

    fn next(&mut self) -> Result<()> {
        Iterator::next(self);
        Ok(())
    }
}

/// What a store's scan merges: a memory component (a Memtable, or a run
/// copied out of one), or one table from
/// [`DiskComponent::range_sources`](crate::DiskComponent::range_sources).
pub enum ScanSource<M> {
    /// A memory component's source.
    Memory(M),
    /// One table's iterator.
    Table(TableIterator),
}

impl<M> From<TableIterator> for ScanSource<M> {
    fn from(table: TableIterator) -> Self {
        Self::Table(table)
    }
}

impl<M: MergeSource> MergeSource for ScanSource<M> {
    fn valid(&self) -> bool {
        match self {
            Self::Memory(m) => m.valid(),
            Self::Table(t) => t.valid(),
        }
    }

    fn record(&self) -> RecordRef<'_> {
        match self {
            Self::Memory(m) => m.record(),
            Self::Table(t) => t.record(),
        }
    }

    fn next(&mut self) -> Result<()> {
        match self {
            Self::Memory(m) => m.next(),
            Self::Table(t) => t.next(),
        }
    }
}

/// A k-way merge cursor that yields, per key, the record with the largest
/// sequence number at or below its visibility bound.
///
/// The heap holds source *indices* and orders them by the records the
/// sources currently stand on — `(key asc, seq desc, index asc)` — so
/// nothing is copied to queue a source, and the record handed out is the
/// winning source's own borrow. The one thing the cursor keeps of a record
/// is the key it last emitted, in a reused buffer, to skip that key's
/// older versions (in other sources, or later in the same source's version
/// run). A record above the bound never enters the heap: its source steps
/// past it first, so an older version of its key can still win.
pub struct MergeCursor<S> {
    sources: Vec<S>,
    /// Binary min-heap of indices into `sources`; only valid sources.
    heap: Vec<usize>,
    /// Largest sequence number a record may carry to be merged.
    bound: u64,
    /// Key of the last record handed out.
    last_key: Vec<u8>,
    /// Whether the heap's top is the record handed out by the previous
    /// [`MergeCursor::next_merged`] (so the next call steps past it).
    emitted: bool,
}

impl<S: MergeSource> MergeCursor<S> {
    /// Builds a cursor over `sources`, each already positioned, that merges
    /// only records with `seq <= bound` (`u64::MAX` merges everything).
    pub fn new(sources: Vec<S>, bound: u64) -> Result<Self> {
        let mut cursor = Self {
            heap: Vec::with_capacity(sources.len()),
            sources,
            bound,
            last_key: Vec::new(),
            emitted: false,
        };
        for at in 0..cursor.sources.len() {
            if cursor.skip_invisible(at)? {
                cursor.heap.push(at);
            }
        }
        for at in (0..cursor.heap.len() / 2).rev() {
            cursor.sift_down(at);
        }
        Ok(cursor)
    }

    /// Steps source `at` past records above the bound; returns whether it
    /// still stands on one.
    fn skip_invisible(&mut self, at: usize) -> Result<bool> {
        let (source, bound) = (&mut self.sources[at], self.bound);
        while source.valid() && source.record().seq > bound {
            source.next()?;
        }
        Ok(source.valid())
    }

    /// Heap order of two sources: by the records they stand on.
    fn precedes(&self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.sources[a].record(), self.sources[b].record());
        let order = ra.key.cmp(rb.key).then(rb.seq.cmp(&ra.seq)).then(a.cmp(&b));
        order == Ordering::Less
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let mut first = at;
            for child in [2 * at + 1, 2 * at + 2] {
                if child < self.heap.len() && self.precedes(self.heap[child], self.heap[first]) {
                    first = child;
                }
            }
            if first == at {
                return;
            }
            self.heap.swap(at, first);
            at = first;
        }
    }

    /// Steps the top source past its current record (and any above the
    /// bound) and restores the heap: the source sinks to its new place, or
    /// leaves when exhausted.
    fn step_top(&mut self) -> Result<()> {
        let top = self.heap[0];
        let stepped = self.sources[top]
            .next()
            .and_then(|()| self.skip_invisible(top));
        if !self.sources[top].valid() {
            self.heap.swap_remove(0);
        }
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        stepped.map(drop)
    }

    /// Returns the next key's freshest visible record, merging duplicates.
    /// The record is borrowed from the source it came from, until the next
    /// call.
    pub fn next_merged(&mut self) -> Result<Option<RecordRef<'_>>> {
        if std::mem::take(&mut self.emitted) {
            self.step_top()?;
            // Discard older versions of the key just handed out.
            while let Some(&top) = self.heap.first() {
                if self.sources[top].record().key != self.last_key.as_slice() {
                    break;
                }
                self.step_top()?;
            }
        }
        let Some(&top) = self.heap.first() else {
            return Ok(None);
        };
        let freshest = self.sources[top].record();
        self.last_key.clear();
        self.last_key.extend_from_slice(freshest.key);
        self.emitted = true;
        Ok(Some(freshest))
    }
}
