//! Shared single-level LSM machinery for the baseline stores.
//!
//! Classic LSMs have exactly one mutable memtable plus at most one
//! immutable memtable being flushed (§2.1). `LsmCore` implements that
//! state machine — make-room/switch/stall, background flush, snapshot
//! reads — while each baseline wraps it in its own concurrency-control
//! discipline (global mutex, write leader, …), which is where the systems
//! differ (§2.2).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use flodb_storage::merge::{MergeCursor, ScanSource};
use flodb_storage::{DiskComponent, DiskOptions, Env, MemEnv, Record};
use flodb_sync::{Park, SequenceGenerator};
use parking_lot::{Mutex, RwLock};

use crate::hash_memtable::HashMemtable;
use crate::versioned_memtable::VersionedMemtable;

/// Which memtable structure a baseline uses (Figures 3-4 compare the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemtableKind {
    /// Sorted, multi-versioned skiplist (LevelDB default).
    SkipList,
    /// Unsorted hash table, sorted at flush time.
    HashTable,
}

/// A baseline memtable: either structure behind one interface.
#[derive(Debug)]
pub enum BaselineMemtable {
    /// Skiplist-backed.
    Skip(VersionedMemtable),
    /// Hash-table-backed.
    Hash(HashMemtable),
}

impl BaselineMemtable {
    /// Creates an empty memtable of `kind`.
    pub fn new(kind: MemtableKind) -> Self {
        match kind {
            MemtableKind::SkipList => Self::Skip(VersionedMemtable::new()),
            MemtableKind::HashTable => Self::Hash(HashMemtable::new()),
        }
    }

    /// Appends a version.
    pub fn insert(&self, key: &[u8], seq: u64, value: Option<&[u8]>) {
        match self {
            Self::Skip(m) => m.insert(key, seq, value),
            Self::Hash(m) => m.insert(key, seq, value),
        }
    }

    /// Freshest version with `seq <= snapshot`.
    pub fn get(&self, key: &[u8], snapshot: u64) -> Option<(u64, Option<Box<[u8]>>)> {
        match self {
            Self::Skip(m) => m.get(key, snapshot),
            Self::Hash(m) => m.get(key, snapshot),
        }
    }

    /// Every version from `low` up to `high` (no bound when `None`), in
    /// `(key asc, seq desc)` order: a flush's input, or a scan's run.
    pub fn records(&self, low: &[u8], high: Option<&[u8]>) -> Vec<Record> {
        match self {
            Self::Skip(m) => m.records(low, high),
            Self::Hash(m) => m.records(low, high),
        }
    }

    /// Approximate resident bytes.
    pub fn approximate_bytes(&self) -> usize {
        match self {
            Self::Skip(m) => m.approximate_bytes(),
            Self::Hash(m) => m.approximate_bytes(),
        }
    }

    /// Returns whether the memtable is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            Self::Skip(m) => m.is_empty(),
            Self::Hash(m) => m.is_empty(),
        }
    }
}

/// Options shared by every baseline store.
#[derive(Clone)]
pub struct BaselineOptions {
    /// Memory-component byte budget (single level).
    pub memory_bytes: usize,
    /// Memtable structure.
    pub memtable: MemtableKind,
    /// Disk component tuning (the store constructor picks the cache kind).
    pub disk: DiskOptions,
    /// Storage environment.
    pub env: Arc<dyn Env>,
}

impl BaselineOptions {
    /// Paper-shaped defaults: 128 MB memtable on an unthrottled SimDisk.
    pub fn default_in_memory() -> Self {
        Self {
            memory_bytes: 128 * 1024 * 1024,
            memtable: MemtableKind::SkipList,
            disk: DiskOptions::default(),
            env: Arc::new(MemEnv::new(None)),
        }
    }

    /// Tiny configuration for tests.
    pub fn small_for_tests() -> Self {
        let mut disk = DiskOptions::default();
        disk.compaction.l0_trigger = 2;
        disk.compaction.base_level_bytes = 64 * 1024;
        disk.compaction.target_file_bytes = 32 * 1024;
        Self {
            memory_bytes: 256 * 1024,
            disk,
            ..Self::default_in_memory()
        }
    }
}

struct MemState {
    active: Arc<BaselineMemtable>,
    imm: Option<Arc<BaselineMemtable>>,
}

#[derive(Default)]
pub(crate) struct CoreStats {
    pub puts: AtomicU64,
    pub deletes: AtomicU64,
    pub gets: AtomicU64,
    pub scans: AtomicU64,
    pub scanned_keys: AtomicU64,
    pub persists: AtomicU64,
    pub stalls: AtomicU64,
}

/// The shared single-level LSM engine.
pub(crate) struct LsmCore {
    pub seq: SequenceGenerator,
    pub disk: DiskComponent,
    memtable_kind: MemtableKind,
    budget: usize,
    state: RwLock<MemState>,
    /// Serializes flushes so `flush_once` is safe to call from any thread
    /// (background flusher and `quiesce` may race).
    flush_lock: Mutex<()>,
    /// Writers stalled on a full memtable pair park here; the flush that
    /// clears `imm` wakes them.
    room: Park,
    /// The flush and compaction loops park here until there is work: a
    /// switch leaves an immutable memtable, a flush an L0 table, and
    /// [`LsmCore::shut_down`] the stop flag.
    work: Park,
    stop: AtomicBool,
    pub stats: CoreStats,
}

impl LsmCore {
    pub fn new(opts: &BaselineOptions) -> Arc<Self> {
        Arc::new(Self {
            seq: SequenceGenerator::new(),
            disk: DiskComponent::new(Arc::clone(&opts.env), opts.disk),
            memtable_kind: opts.memtable,
            budget: opts.memory_bytes,
            state: RwLock::new(MemState {
                active: Arc::new(BaselineMemtable::new(opts.memtable)),
                imm: None,
            }),
            flush_lock: Mutex::new(()),
            room: Park::new(),
            work: Park::new(),
            stop: AtomicBool::new(false),
            stats: CoreStats::default(),
        })
    }

    /// Ensures the active memtable has room, switching or stalling
    /// (LevelDB's `MakeRoomForWrite`).
    pub fn make_room(&self) {
        loop {
            let (bytes, has_imm) = {
                let st = self.state.read();
                (st.active.approximate_bytes(), st.imm.is_some())
            };
            if bytes < self.budget {
                return;
            }
            if has_imm {
                // Both memtables full: the write stall of Figure 4.
                self.stats.stalls.fetch_add(1, Ordering::Relaxed);
                self.work.wake();
                self.room.park_until(|| {
                    let st = self.state.read();
                    st.imm.is_none() || st.active.approximate_bytes() < self.budget
                });
                continue;
            }
            let mut st = self.state.write();
            if st.imm.is_none() && st.active.approximate_bytes() >= self.budget {
                let fresh = Arc::new(BaselineMemtable::new(self.memtable_kind));
                st.imm = Some(std::mem::replace(&mut st.active, fresh));
                drop(st);
                self.work.wake();
            }
        }
    }

    /// Appends a version to the active memtable, counting it as a put or
    /// (for a tombstone) a delete.
    pub fn write(&self, key: &[u8], seq: u64, value: Option<&[u8]>) {
        let counter = if value.is_some() { &self.stats.puts } else { &self.stats.deletes };
        counter.fetch_add(1, Ordering::Relaxed);
        self.make_room();
        // Hold the state read-lock across the insert: the memtable switch
        // takes the write lock, so it cannot retire `active` into `imm`
        // (and flush + drop it) while an insert is still in flight. Without
        // this, a concurrent switch + flush could collect the memtable's
        // records before the insert lands, silently losing the write.
        let st = self.state.read();
        st.active.insert(key, seq, value);
    }

    /// Point lookup at "now".
    pub fn get_latest(&self, key: &[u8]) -> Option<Vec<u8>> {
        let snapshot = u64::MAX - 1;
        let (active, imm) = {
            let st = self.state.read();
            (Arc::clone(&st.active), st.imm.clone())
        };
        if let Some((_, v)) = active.get(key, snapshot) {
            return v.map(Vec::from);
        }
        if let Some(imm) = imm {
            if let Some((_, v)) = imm.get(key, snapshot) {
                return v.map(Vec::from);
            }
        }
        self.disk
            .get(key)
            .expect("disk read failed")
            .and_then(|r| r.value.map(Vec::from))
    }

    /// Serializable snapshot scan, streamed (multi-versioned: no restarts
    /// needed). Returns the number of live entries emitted.
    ///
    /// The memtables' versions in the range and the range's tables go
    /// through one merge bounded at the snapshot: a version written after
    /// it is stepped past, so the key's freshest version it sees wins. A visitor
    /// that returns [`ControlFlow::Break`] prunes all remaining merge work.
    pub fn scan_snapshot_with(
        &self,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) -> u64 {
        let snapshot = self.seq.current();
        let (active, imm) = {
            let st = self.state.read();
            (Arc::clone(&st.active), st.imm.clone())
        };
        let mut sources = Vec::with_capacity(2);
        for memtable in std::iter::once(&active).chain(&imm) {
            let run = memtable.records(low, Some(high));
            sources.push(ScanSource::Memory(run.into_iter()));
        }
        let pinned = self.disk.version();
        self.disk
            .range_sources(&pinned, low, high, &mut sources)
            .expect("disk scan");
        let mut merged = MergeCursor::new(sources, snapshot).expect("disk scan");
        let mut emitted = 0u64;
        while let Some(record) = merged
            .next_merged()
            .expect("disk scan")
            .filter(|r| r.key <= high)
        {
            if let Some(value) = record.value {
                emitted += 1;
                if visitor(record.key, value).is_break() {
                    break;
                }
            }
        }
        emitted
    }

    /// Stops the background loops: they finish their step and return.
    pub fn shut_down(&self) {
        self.stop.store(true, Ordering::Release);
        self.work.wake();
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Flushes the immutable memtable if one exists; returns whether work
    /// was done. `compact_inline == true` models LevelDB's single thread
    /// doing both flushing and compaction.
    pub fn flush_once(&self, compact_inline: bool) -> bool {
        // Exclusive flusher: a concurrent caller waits here, re-reads and
        // finds `imm` already cleared (or flushes the next one).
        let _flushing = self.flush_lock.lock();
        let imm = self.state.read().imm.clone();
        let Some(imm) = imm else {
            return false;
        };
        // `records` is where hash memtables pay their sort.
        let records = imm.records(&[], None);
        self.disk.flush_records(records).expect("flush failed");
        self.state.write().imm = None;
        self.stats.persists.fetch_add(1, Ordering::Relaxed);
        self.room.wake();
        self.work.wake();
        if compact_inline {
            self.disk.compact_all().expect("compaction failed");
        }
        true
    }

    /// Background flush loop: parks until a switch leaves an immutable
    /// memtable.
    pub fn flush_loop(self: &Arc<Self>, compact_inline: bool) {
        while !self.stopped() {
            if !self.flush_once(compact_inline) {
                self.work
                    .park_until(|| self.stopped() || self.state.read().imm.is_some());
            }
        }
        self.flush_once(compact_inline);
    }

    /// Background compaction loop (RocksDB's decoupled compaction): parks
    /// until a flush leaves compaction debt.
    pub fn compaction_loop(self: &Arc<Self>) {
        while !self.stopped() {
            match self.disk.maybe_compact() {
                Ok(true) => {}
                Ok(false) => self
                    .work
                    .park_until(|| self.stopped() || self.disk.needs_compaction()),
                Err(e) => panic!("compaction failed: {e}"),
            }
        }
    }

    /// Blocks until memory is drained and compaction has settled.
    ///
    /// Pumps flushes on the calling thread, so it works whether or not a
    /// background flush loop is running.
    pub fn quiesce(&self) {
        loop {
            let settled = {
                let st = self.state.read();
                st.imm.is_none() && st.active.is_empty()
            };
            if settled && !self.disk.needs_compaction() {
                return;
            }
            // Force a switch of the non-empty active memtable.
            {
                let mut st = self.state.write();
                if st.imm.is_none() && !st.active.is_empty() {
                    let fresh = Arc::new(BaselineMemtable::new(self.memtable_kind));
                    st.imm = Some(std::mem::replace(&mut st.active, fresh));
                }
            }
            if !self.flush_once(true) {
                // Nothing to flush (a racing background flush beat us to
                // it, or only compaction debt remains).
                self.disk.compact_all().expect("compaction failed");
                std::thread::yield_now();
            }
        }
    }

    pub fn snapshot_stats(&self, fast_level_writes: u64) -> flodb_core::StoreStats {
        flodb_core::StoreStats {
            puts: self.stats.puts.load(Ordering::Relaxed),
            deletes: self.stats.deletes.load(Ordering::Relaxed),
            gets: self.stats.gets.load(Ordering::Relaxed),
            scans: self.stats.scans.load(Ordering::Relaxed),
            scanned_keys: self.stats.scanned_keys.load(Ordering::Relaxed),
            persists: self.stats.persists.load(Ordering::Relaxed),
            fast_level_writes,
            ..flodb_core::StoreStats::default()
        }
    }
}

/// Spawns the named background thread.
pub(crate) fn spawn_thread(
    name: &str,
    f: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("failed to spawn background thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(core: &LsmCore, low: &[u8], high: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        core.scan_snapshot_with(low, high, &mut |key, value| {
            out.push((key.to_vec(), value.to_vec()));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn write_then_get() {
        let core = LsmCore::new(&BaselineOptions::small_for_tests());
        let seq = core.seq.next();
        core.write(b"k", seq, Some(b"v"));
        assert_eq!(core.get_latest(b"k"), Some(b"v".to_vec()));
        assert_eq!(core.get_latest(b"missing"), None);
    }

    #[test]
    fn switch_and_flush_on_budget() {
        let mut opts = BaselineOptions::small_for_tests();
        opts.memory_bytes = 4 * 1024;
        let core = LsmCore::new(&opts);
        for i in 0..200u64 {
            let seq = core.seq.next();
            core.write(&i.to_be_bytes(), seq, Some(&[0u8; 64]));
            core.flush_once(true);
        }
        assert!(core.stats.persists.load(Ordering::Relaxed) > 0);
        for i in (0..200u64).step_by(17) {
            assert!(core.get_latest(&i.to_be_bytes()).is_some(), "key {i}");
        }
    }

    #[test]
    fn scan_merges_all_sources() {
        let core = LsmCore::new(&BaselineOptions::small_for_tests());
        for i in 0..10u64 {
            let seq = core.seq.next();
            core.write(&i.to_be_bytes(), seq, Some(&i.to_le_bytes()));
        }
        core.quiesce();
        // Some data on disk now; write more in memory, delete one key.
        let seq = core.seq.next();
        core.write(&3u64.to_be_bytes(), seq, None);
        let out = scan(&core, &0u64.to_be_bytes(), &9u64.to_be_bytes());
        assert_eq!(out.len(), 9, "deleted key hidden");
    }

    /// A flush that lands while a scan runs leaves a key's newest version
    /// on disk above the scan's snapshot; the version the snapshot sees,
    /// in an older table, must still be read.
    #[test]
    fn snapshot_scan_reads_a_visible_version_under_a_newer_one_on_disk() {
        let core = LsmCore::new(&BaselineOptions::small_for_tests());
        while core.seq.current() < 5 {
            core.seq.next();
        }
        let key = 7u64.to_be_bytes();
        for (seq, value) in [(4, &b"four"[..]), (9, b"nine")] {
            core.disk
                .flush_records(vec![Record::put(key.as_slice(), seq, value)])
                .unwrap();
        }
        assert_eq!(core.disk.stats().files_per_level[0], 2);
        assert_eq!(scan(&core, &key, &key), [(key.to_vec(), b"four".to_vec())]);
    }

    /// Both memtable kinds keep every version; the snapshot's merge reads
    /// the one it sees.
    #[test]
    fn snapshot_scan_skips_memtable_versions_written_after_it() {
        for kind in [MemtableKind::SkipList, MemtableKind::HashTable] {
            let mut opts = BaselineOptions::small_for_tests();
            opts.memtable = kind;
            let core = LsmCore::new(&opts);
            while core.seq.current() < 7 {
                core.seq.next();
            }
            core.write(b"a", 5, Some(b"old"));
            core.write(b"b", 6, Some(b"b"));
            core.write(b"a", 10, Some(b"new"));
            let want = [(b"a".to_vec(), b"old".to_vec()), (b"b".to_vec(), b"b".to_vec())];
            assert_eq!(scan(&core, b"a", b"z"), want, "{kind:?}");
        }
    }

    #[test]
    fn hash_memtable_core_works() {
        let mut opts = BaselineOptions::small_for_tests();
        opts.memtable = MemtableKind::HashTable;
        let core = LsmCore::new(&opts);
        for i in 0..50u64 {
            let seq = core.seq.next();
            core.write(&i.to_be_bytes(), seq, Some(b"v"));
        }
        assert_eq!(core.get_latest(&25u64.to_be_bytes()), Some(b"v".to_vec()));
        let out = scan(&core, &0u64.to_be_bytes(), &49u64.to_be_bytes());
        assert_eq!(out.len(), 50);
        core.quiesce();
        assert_eq!(core.get_latest(&25u64.to_be_bytes()), Some(b"v".to_vec()));
    }
}
