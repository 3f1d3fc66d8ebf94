//! Leveled file metadata: versions and version edits.
//!
//! A [`Version`] is an immutable snapshot of which SSTables live in which
//! level. Readers grab an `Arc<Version>` and proceed without locks (the
//! RocksDB-style read path); writers apply [`VersionEdit`]s under the
//! [`VersionSet`] mutex, installing a fresh `Arc`.
//!
//! Invariants (checked by `Version::check_invariants`):
//! - L0 files may overlap and are ordered newest-first (higher file number
//!   first);
//! - levels ≥ 1 hold disjoint key ranges, sorted by smallest key.

use flodb_sync::lock_order::{VERSION_CLEANUP, VERSION_CURRENT};
use flodb_sync::shim::atomic::{AtomicU64, Ordering};
use flodb_sync::shim::{ranked_mutex, Arc, Mutex};

use crate::error::{Result, StorageError};
use crate::prefix::{key_prefix, Probe};

/// Number of on-disk levels (L0..=L6), matching LevelDB.
pub const NUM_LEVELS: usize = 7;

/// Metadata for one SSTable file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Monotonic file number (also names the file).
    pub number: u64,
    /// File size in bytes.
    pub size: u64,
    /// Smallest user key.
    pub smallest: Box<[u8]>,
    /// Largest user key.
    pub largest: Box<[u8]>,
    /// Record count.
    pub entries: u64,
    /// Largest sequence number in the file (recovery resumes the global
    /// sequence counter past the maximum over all live files).
    pub largest_seq: u64,
}

impl FileMeta {
    /// Returns whether this file's key range intersects `[low, high]`.
    pub fn overlaps(&self, low: &[u8], high: &[u8]) -> bool {
        self.smallest.as_ref() <= high && self.largest.as_ref() >= low
    }

    /// Returns whether `key` falls inside this file's range.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.smallest.as_ref() <= key && key <= self.largest.as_ref()
    }
}

/// A live reference to an SSTable: metadata plus a deferred cleanup hook.
///
/// Version snapshots hold `Arc<FileHandle>`s; a compaction that obsoletes a
/// file installs a cleanup closure (evict + unlink) on its handle instead
/// of deleting eagerly, so the file survives exactly as long as some
/// reader's snapshot can still reach it — LevelDB's version refcounting.
pub struct FileHandle {
    /// The file metadata.
    pub meta: FileMeta,
    cleanup: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl FileHandle {
    /// Wraps metadata with no cleanup installed.
    pub fn new(meta: FileMeta) -> Self {
        Self {
            meta,
            cleanup: ranked_mutex(VERSION_CLEANUP, None),
        }
    }

    /// Installs the action to run when the last snapshot releases this
    /// file. Replaces any previously installed action.
    pub fn set_cleanup(&self, f: impl FnOnce() + Send + 'static) {
        *self.cleanup.lock() = Some(Box::new(f));
    }
}

impl Drop for FileHandle {
    fn drop(&mut self) {
        if let Some(f) = self.cleanup.get_mut().take() {
            f();
        }
    }
}

impl std::ops::Deref for FileHandle {
    type Target = FileMeta;

    fn deref(&self) -> &FileMeta {
        &self.meta
    }
}

impl std::fmt::Debug for FileHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileHandle").field("meta", &self.meta).finish()
    }
}

/// An immutable snapshot of the file layout.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `levels[0]` newest-first; deeper levels sorted by smallest key.
    pub levels: Vec<Vec<Arc<FileHandle>>>,
    /// Per level, the [`key_prefix`] of each file's largest key, in the
    /// level's order: what a point lookup searches.
    largest: Vec<Vec<u64>>,
    /// The [`key_prefix`] of each L0 file's smallest key. Only L0 tests
    /// every file's lower bound; a deeper level tests one candidate's.
    l0_smallest: Vec<u64>,
}

impl Version {
    /// Creates an empty version.
    pub fn empty() -> Self {
        Self::with_levels(vec![Vec::new(); NUM_LEVELS])
    }

    fn with_levels(levels: Vec<Vec<Arc<FileHandle>>>) -> Self {
        Self {
            largest: levels
                .iter()
                .map(|files| files.iter().map(|f| key_prefix(&f.largest)).collect())
                .collect(),
            l0_smallest: levels[0].iter().map(|f| key_prefix(&f.smallest)).collect(),
            levels,
        }
    }

    /// Total bytes at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.size).sum()
    }

    /// Total number of files.
    pub fn num_files(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Files at `level` overlapping `[low, high]`.
    pub fn overlapping(&self, level: usize, low: &[u8], high: &[u8]) -> Vec<Arc<FileHandle>> {
        let files = &self.levels[level];
        if level == 0 {
            let mut out = Vec::with_capacity(files.len());
            out.extend(files.iter().filter(|f| f.overlaps(low, high)).cloned());
            return out;
        }
        // Levels >= 1 are sorted and disjoint: the overlapping files are
        // one contiguous run, found by two binary searches.
        let start = files.partition_point(|f| f.largest.as_ref() < low);
        let len = files[start..].partition_point(|f| f.smallest.as_ref() <= high);
        debug_assert_eq!(len, files.iter().filter(|f| f.overlaps(low, high)).count());
        files[start..start + len].to_vec()
    }

    /// Files to consult for a point lookup of `key`, in freshness order:
    /// all matching L0 files (newest first), then at most one file per
    /// deeper level. Borrowed from the version: nothing is allocated and
    /// no reference count is touched.
    pub fn files_for_key<'a>(
        &'a self,
        key: &'a [u8],
    ) -> impl Iterator<Item = (usize, &'a Arc<FileHandle>)> + 'a {
        let probe = Probe::new(key);
        let overlapping_l0 = self.levels[0]
            .iter()
            .enumerate()
            .filter(move |&(i, f)| {
                probe.at_or_above(self.l0_smallest[i], &f.smallest)
                    && probe.at_or_below(self.largest[0][i], &f.largest)
            })
            .map(|(_, f)| (0, f));
        let deeper = (1..self.levels.len()).filter_map(move |level| {
            // Levels >= 1 are sorted and disjoint: the only candidate is
            // the first file whose largest key is not below `key`.
            let files = &self.levels[level];
            let i = probe.partition(&self.largest[level], false, |i| &files[i].largest);
            let f = files.get(i)?;
            (f.smallest.as_ref() <= key).then_some((level, f))
        });
        overlapping_l0.chain(deeper)
    }

    /// Checks the structural invariants, returning a description of the
    /// first violation.
    pub fn check_invariants(&self) -> Result<()> {
        if self.levels.len() != NUM_LEVELS {
            return Err(StorageError::Corruption("wrong level count".into()));
        }
        for w in self.levels[0].windows(2) {
            if w[0].number < w[1].number {
                return Err(StorageError::Corruption(
                    "L0 not ordered newest-first".into(),
                ));
            }
        }
        for (level, files) in self.levels.iter().enumerate().skip(1) {
            for w in files.windows(2) {
                if w[0].smallest >= w[1].smallest {
                    return Err(StorageError::Corruption(format!(
                        "L{level} not sorted by smallest key"
                    )));
                }
                if w[0].largest >= w[1].smallest {
                    return Err(StorageError::Corruption(format!(
                        "L{level} files overlap"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A delta to apply to a version.
#[derive(Debug, Default, Clone)]
pub struct VersionEdit {
    /// Files to add: `(level, meta)`.
    pub added: Vec<(usize, FileMeta)>,
    /// Files to remove: `(level, file_number)`.
    pub deleted: Vec<(usize, u64)>,
}

impl VersionEdit {
    /// Records a new file at `level`.
    pub fn add(&mut self, level: usize, meta: FileMeta) {
        self.added.push((level, meta));
    }

    /// Records the removal of `file_number` from `level`.
    pub fn delete(&mut self, level: usize, file_number: u64) {
        self.deleted.push((level, file_number));
    }
}

/// The mutable set of versions: applies edits, hands out snapshots.
#[derive(Debug)]
pub struct VersionSet {
    current: Mutex<Arc<Version>>,
    next_file: AtomicU64,
}

impl VersionSet {
    /// Creates a version set with an empty current version.
    pub fn new() -> Self {
        Self {
            current: ranked_mutex(VERSION_CURRENT, Arc::new(Version::empty())),
            next_file: AtomicU64::new(1),
        }
    }

    /// Returns the current version snapshot (lock held only for the clone).
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current.lock())
    }

    // The file-number allocator is a pure monotonic counter: uniqueness
    // comes from the RMWs' single modification order, and every consumer
    // that persists a number does so under the manifest lock, which
    // provides the cross-variable ordering. Relaxed is sufficient.

    /// Allocates a fresh file number.
    pub fn new_file_number(&self) -> u64 {
        self.next_file.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the next file number without allocating it (recorded in
    /// manifest records so recovery can resume allocation).
    pub fn peek_file_number(&self) -> u64 {
        self.next_file.load(Ordering::Relaxed)
    }

    /// Moves the allocator forward to at least `n` (manifest recovery).
    pub fn bump_file_number(&self, n: u64) {
        self.next_file.fetch_max(n, Ordering::Relaxed);
    }

    /// Applies `edit`, installing and returning the new current version.
    ///
    /// Returns the handles removed from the layout; callers install their
    /// cleanup (evict + unlink) on these, which fires once the last
    /// snapshot referencing them drops. A file the edit deletes and adds
    /// again (a move to another level) keeps its handle and is not
    /// returned, so every snapshot naming the file shares one cleanup.
    pub fn apply(&self, edit: &VersionEdit) -> Result<(Arc<Version>, Vec<Arc<FileHandle>>)> {
        let mut guard = self.current.lock();
        let mut levels = guard.levels.clone();
        let mut removed = Vec::new();
        for (level, number) in &edit.deleted {
            let files = &mut levels[*level];
            let Some(pos) = files.iter().position(|f| f.number == *number) else {
                return Err(StorageError::InvalidArgument(format!(
                    "edit deletes unknown file {number} at L{level}"
                )));
            };
            removed.push(files.remove(pos));
        }
        for (level, meta) in &edit.added {
            let files = &mut levels[*level];
            let handle = match removed.iter().position(|f| f.number == meta.number) {
                Some(i) => removed.swap_remove(i),
                None => Arc::new(FileHandle::new(meta.clone())),
            };
            if *level == 0 {
                // Newest-first by file number.
                let pos = files.partition_point(|f| f.number > handle.number);
                files.insert(pos, handle);
            } else {
                let pos = files.partition_point(|f| f.smallest < handle.smallest);
                files.insert(pos, handle);
            }
        }
        let next = Version::with_levels(levels);
        next.check_invariants()?;
        let next = Arc::new(next);
        *guard = Arc::clone(&next);
        Ok((next, removed))
    }
}

impl Default for VersionSet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(number: u64, lo: u64, hi: u64) -> FileMeta {
        FileMeta {
            number,
            size: 100,
            smallest: Box::new(lo.to_be_bytes()),
            largest: Box::new(hi.to_be_bytes()),
            entries: hi - lo + 1,
            largest_seq: hi,
        }
    }

    #[test]
    fn empty_version_is_valid() {
        let v = Version::empty();
        v.check_invariants().unwrap();
        assert_eq!(v.num_files(), 0);
        assert_eq!(v.files_for_key(b"k").count(), 0);
    }

    #[test]
    fn apply_adds_files_in_order() {
        let vs = VersionSet::new();
        let mut edit = VersionEdit::default();
        edit.add(1, meta(2, 50, 99));
        edit.add(1, meta(1, 0, 49));
        edit.add(0, meta(3, 0, 100));
        edit.add(0, meta(4, 0, 100));
        let (v, removed) = vs.apply(&edit).unwrap();
        assert!(removed.is_empty());
        // L1 sorted by smallest.
        assert_eq!(v.levels[1][0].number, 1);
        assert_eq!(v.levels[1][1].number, 2);
        // L0 newest first.
        assert_eq!(v.levels[0][0].number, 4);
        assert_eq!(v.levels[0][1].number, 3);
    }

    #[test]
    fn apply_rejects_overlap_in_deep_levels() {
        let vs = VersionSet::new();
        let mut edit = VersionEdit::default();
        edit.add(1, meta(1, 0, 50));
        edit.add(1, meta(2, 40, 80));
        assert!(vs.apply(&edit).is_err());
    }

    #[test]
    fn apply_rejects_unknown_delete() {
        let vs = VersionSet::new();
        let mut edit = VersionEdit::default();
        edit.delete(1, 99);
        assert!(vs.apply(&edit).is_err());
    }

    #[test]
    fn files_for_key_order_is_freshest_first() {
        let vs = VersionSet::new();
        let mut edit = VersionEdit::default();
        edit.add(0, meta(10, 0, 100));
        edit.add(0, meta(11, 0, 100));
        edit.add(1, meta(5, 0, 60));
        edit.add(2, meta(3, 0, 60));
        let (v, _) = vs.apply(&edit).unwrap();
        let key = 30u64.to_be_bytes();
        let numbers: Vec<u64> = v.files_for_key(&key).map(|(_, f)| f.number).collect();
        assert_eq!(numbers, vec![11, 10, 5, 3]);
    }

    #[test]
    fn snapshots_are_immutable() {
        let vs = VersionSet::new();
        let before = vs.current();
        let mut edit = VersionEdit::default();
        edit.add(1, meta(1, 0, 10));
        vs.apply(&edit).unwrap();
        assert_eq!(before.num_files(), 0, "old snapshot must not change");
        assert_eq!(vs.current().num_files(), 1);
    }

    #[test]
    fn delete_then_add_same_apply() {
        let vs = VersionSet::new();
        let mut edit = VersionEdit::default();
        edit.add(1, meta(1, 0, 10));
        vs.apply(&edit).unwrap();
        let mut edit2 = VersionEdit::default();
        edit2.delete(1, 1);
        edit2.add(2, meta(2, 0, 10));
        let (v, removed) = vs.apply(&edit2).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].number, 1);
        assert!(v.levels[1].is_empty());
        assert_eq!(v.levels[2].len(), 1);
    }

    #[test]
    fn a_moved_file_keeps_its_handle() {
        let vs = VersionSet::new();
        let mut edit = VersionEdit::default();
        edit.add(1, meta(1, 0, 10));
        let (before, _) = vs.apply(&edit).unwrap();
        let mut moved = VersionEdit::default();
        moved.delete(1, 1);
        moved.add(2, meta(1, 0, 10));
        let (after, removed) = vs.apply(&moved).unwrap();
        assert!(removed.is_empty(), "a moved file is not obsolete");
        assert!(before.levels[2].is_empty() && after.levels[1].is_empty());
        assert!(Arc::ptr_eq(&before.levels[1][0], &after.levels[2][0]));
    }

    fn span(number: u64, lo: &[u8], hi: &[u8]) -> FileMeta {
        FileMeta {
            number,
            size: 100,
            smallest: lo.into(),
            largest: hi.into(),
            entries: 1,
            largest_seq: number,
        }
    }

    /// `files_for_key` by whole keys alone: every L0 file whose range holds
    /// `key`, then per deeper level the first file whose largest key is not
    /// below `key`, if its range holds it.
    fn plain_files_for_key(v: &Version, key: &[u8]) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> =
            v.levels[0].iter().filter(|f| f.contains(key)).map(|f| (0, f.number)).collect();
        for (level, files) in v.levels.iter().enumerate().skip(1) {
            let i = files.partition_point(|f| f.largest.as_ref() < key);
            if i < files.len() && files[i].contains(key) {
                out.push((level, files[i].number));
            }
        }
        out
    }

    use crate::prefix::test_keys::{probes_around, tricky_key, tricky_keys};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn files_for_key_matches_a_whole_key_partition_point(
            keys in tricky_keys(),
            draws in proptest::collection::vec(any::<u8>(), 1..64),
            extra in proptest::collection::vec(tricky_key(), 0..20),
        ) {
            // Levels 1..=3 each cut the sorted keys into disjoint files of
            // 1 to 4 keys, leaving every third span out (a gap); L0 gets
            // up to three files over arbitrary, overlapping ranges.
            let mut edit = VersionEdit::default();
            let mut draw = draws.iter().cycle().map(|&d| usize::from(d));
            let mut number = 0;
            for level in 1..=3 {
                let (mut at, mut spans) = (0, 0);
                while at < keys.len() {
                    let end = (at + 1 + draw.next().unwrap() % 4).min(keys.len());
                    if (spans + level) % 3 != 0 {
                        number += 1;
                        edit.add(level, span(number, &keys[at], &keys[end - 1]));
                    }
                    (at, spans) = (end, spans + 1);
                }
            }
            for _ in 0..draw.next().unwrap() % 4 {
                let (a, b) = (draw.next().unwrap() % keys.len(), draw.next().unwrap() % keys.len());
                number += 1;
                edit.add(0, span(number, &keys[a.min(b)], &keys[a.max(b)]));
            }
            let (v, _) = VersionSet::new().apply(&edit).unwrap();
            for probe in probes_around(&keys, &extra) {
                let fast: Vec<(usize, u64)> =
                    v.files_for_key(&probe).map(|(level, f)| (level, f.number)).collect();
                prop_assert_eq!(fast, plain_files_for_key(&v, &probe), "probe {:?}", probe);
            }
        }
    }

    #[test]
    fn overlap_queries() {
        let f = meta(1, 10, 20);
        assert!(f.overlaps(&5u64.to_be_bytes(), &15u64.to_be_bytes()));
        assert!(f.overlaps(&15u64.to_be_bytes(), &30u64.to_be_bytes()));
        assert!(!f.overlaps(&21u64.to_be_bytes(), &30u64.to_be_bytes()));
        assert!(f.contains(&10u64.to_be_bytes()));
        assert!(!f.contains(&9u64.to_be_bytes()));
    }
}
