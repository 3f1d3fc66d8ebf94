//! The four baseline stores: one store over [`LsmCore`], told apart by a
//! write discipline and two facts.
//!
//! The paper's control is that every comparator keeps "the persisting and
//! compaction mechanisms of LevelDB" (§4) and differs only in how its
//! memory component handles concurrency (§2.2). Here that is literal: a
//! [`Design`] is a row of constants, and [`BaselineStore`] is the one
//! store that reads them.
//!
//! | design | writes ([`Discipline`]) | reads take the global mutex | background threads | table cache |
//! |---|---|---|---|---|
//! | [`LevelDb`] | leader's group, applied under the global mutex | twice per read | one: flush, then compact | global lock |
//! | [`HyperLevelDb`] | sequence under the global mutex, insert concurrently, mutex again | twice per read | flush + compaction | global lock |
//! | [`RocksDb`] | leader's group, no global mutex | no | flush + compaction | sharded |
//! | [`RocksDbClsm`] | fully concurrent | no | flush + compaction | sharded |
//!
//! **LevelDB** (§2.2) "serializes writes by having threads deposit their
//! intended writes in a concurrent queue; the writes in this queue are
//! applied to the key-value store one by one by a single thread. Moreover,
//! LevelDB also requires readers to take a global lock during each
//! operation" — two brief critical sections per read (§5.2) — and "the
//! compaction process of LevelDB is single-threaded". **HyperLevelDB**
//! "replaces LevelDB's sequential memory component with a concurrent one,
//! which allows writers to apply their updates in parallel... However,
//! writers still need to acquire a global mutex lock at the start and end
//! of each operation." **RocksDB** adds "multithreaded disk-to-disk
//! compaction which runs in parallel with memory-to-disk persistence" and
//! reads without global locks (version snapshots, a concurrent table
//! cache), but "RocksDB and LevelDB use a single-writer design" (§5.2); its
//! memtable is switchable between a skiplist and a hash table (Figures
//! 3-4, `BaselineOptions::memtable`). **RocksDB/cLSM** (§5.1) is RocksDB
//! with the cLSM-style concurrent memtable writes enabled: no leader.

use std::convert::Infallible;
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use flodb_core::{KvStore, StoreStats, WriteBatch, WriteError};
use flodb_storage::record::encode_record_parts;
use flodb_storage::RecordRef;
use flodb_sync::{GroupCommitConfig, GroupCommitter};
use parking_lot::Mutex;

use crate::lsm_core::{spawn_thread, BaselineOptions, LsmCore};

/// How a design orders concurrent writers on their way into the memtable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Writers join a group; whichever leads applies every record of it,
    /// one by one, holding the global mutex.
    LeaderUnderGlobalMutex,
    /// Sequence numbers are handed out under the global mutex, the inserts
    /// proceed concurrently, and the mutex is taken again at the end.
    SequenceUnderGlobalMutex,
    /// The leader's group without any global mutex.
    Leader,
    /// No leader and no mutex: every writer takes its sequence numbers and
    /// inserts on its own.
    Concurrent,
}

/// One row of the module's table: everything that tells a baseline apart.
pub trait Design: Send + Sync + 'static {
    /// The paper's legend name.
    const NAME: &'static str;
    /// The write discipline.
    const WRITES: Discipline;
    /// Whether a read takes the global mutex at its start (acquire refs)
    /// and again at its end (release refs), §5.2.
    const READS_TAKE_GLOBAL_MUTEX: bool;
    /// Whether compaction has its own thread; otherwise the flush thread
    /// compacts after every flush.
    const COMPACTION_THREAD: bool;
    /// Sharded table cache, or (one shard) the fd cache behind one lock
    /// that LevelDB's lineage contends on (§4 footnote 2).
    const SHARDED_TABLE_CACHE: bool;
}

/// The LevelDB design: single write leader + global mutex on reads; one
/// thread flushes and compacts.
#[derive(Debug)]
pub struct LevelDb;

/// A store of the [`LevelDb`] design.
pub type LevelDbStore = BaselineStore<LevelDb>;

impl Design for LevelDb {
    const NAME: &'static str = "LevelDB";
    const WRITES: Discipline = Discipline::LeaderUnderGlobalMutex;
    const READS_TAKE_GLOBAL_MUTEX: bool = true;
    const COMPACTION_THREAD: bool = false;
    const SHARDED_TABLE_CACHE: bool = false;
}

/// The HyperLevelDB design: concurrent memtable writes, global mutex at
/// the start and end of every operation.
#[derive(Debug)]
pub struct HyperLevelDb;

/// A store of the [`HyperLevelDb`] design.
pub type HyperLevelDbStore = BaselineStore<HyperLevelDb>;

impl Design for HyperLevelDb {
    const NAME: &'static str = "HyperLevelDB";
    const WRITES: Discipline = Discipline::SequenceUnderGlobalMutex;
    const READS_TAKE_GLOBAL_MUTEX: bool = true;
    const COMPACTION_THREAD: bool = true;
    const SHARDED_TABLE_CACHE: bool = false;
}

/// The RocksDB design: lock-free reads, single write leader.
#[derive(Debug)]
pub struct RocksDb;

/// A store of the [`RocksDb`] design.
pub type RocksDbStore = BaselineStore<RocksDb>;

impl Design for RocksDb {
    const NAME: &'static str = "RocksDB";
    const WRITES: Discipline = Discipline::Leader;
    const READS_TAKE_GLOBAL_MUTEX: bool = false;
    const COMPACTION_THREAD: bool = true;
    const SHARDED_TABLE_CACHE: bool = true;
}

/// RocksDB with cLSM-style concurrent memtable writes enabled.
#[derive(Debug)]
pub struct RocksDbClsm;

/// A store of the [`RocksDbClsm`] design.
pub type RocksDbClsmStore = BaselineStore<RocksDbClsm>;

impl Design for RocksDbClsm {
    const NAME: &'static str = "RocksDB/cLSM";
    const WRITES: Discipline = Discipline::Concurrent;
    const READS_TAKE_GLOBAL_MUTEX: bool = false;
    const COMPACTION_THREAD: bool = true;
    const SHARDED_TABLE_CACHE: bool = true;
}

/// A baseline store of design `D` (see the module docs); used through
/// the aliases [`LevelDbStore`], [`HyperLevelDbStore`], [`RocksDbStore`]
/// and [`RocksDbClsmStore`].
pub struct BaselineStore<D: Design> {
    core: Arc<LsmCore>,
    /// The global mutex LevelDB's lineage brushes against on every
    /// operation (§2.2); untouched by the RocksDB designs.
    global: Mutex<()>,
    /// The write leader's batcher; unused by the leaderless designs. Its
    /// commit cannot fail: the leader applies the group to memory.
    writers: GroupCommitter<Infallible>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    _design: PhantomData<D>,
}

impl<D: Design> BaselineStore<D> {
    /// Opens a store of this design (memtable kind from `opts.memtable`).
    pub fn open(mut opts: BaselineOptions) -> Self {
        if !D::SHARDED_TABLE_CACHE {
            opts.disk.cache_shards = 1;
        }
        let core = LsmCore::new(&opts);
        let label = D::NAME.to_lowercase().replace('/', "-");
        let mut threads = vec![{
            let core = Arc::clone(&core);
            spawn_thread(&format!("{label}-flush"), move || {
                core.flush_loop(!D::COMPACTION_THREAD)
            })
        }];
        if D::COMPACTION_THREAD {
            let core = Arc::clone(&core);
            threads.push(spawn_thread(&format!("{label}-compact"), move || {
                core.compaction_loop()
            }));
        }
        Self {
            core,
            global: Mutex::new(()),
            writers: GroupCommitter::new(GroupCommitConfig::default()),
            threads: Mutex::new(threads),
            _design: PhantomData,
        }
    }

    /// Commits one submission — a put or delete is the one-op case, a
    /// `WriteBatch` the many-op one, applied contiguously — through the
    /// design's write discipline.
    fn commit<'a>(&self, ops: impl ExactSizeIterator<Item = (&'a [u8], Option<&'a [u8]>)>) {
        let core = &*self.core;
        match D::WRITES {
            Discipline::LeaderUnderGlobalMutex | Discipline::Leader => {
                // The whole submission is encoded into the open group, so
                // whichever thread leads applies it contiguously, one fresh
                // sequence number per record (LevelDB's write path).
                let encode = |group: &mut Vec<u8>| {
                    for (key, value) in ops {
                        encode_record_parts(group, key, 0, value);
                    }
                };
                let apply = |group: &mut Vec<u8>| {
                    let _global = (D::WRITES == Discipline::LeaderUnderGlobalMutex)
                        .then(|| self.global.lock());
                    let mut pos = 0;
                    while pos < group.len() {
                        let record = RecordRef::decode_from(group, &mut pos)
                            .expect("a group holds only records its members encoded");
                        core.write(record.key, core.seq.next(), record.value);
                    }
                    Ok(())
                };
                if let Err(never) = self.writers.submit(encode, apply) {
                    match *never {}
                }
            }
            Discipline::SequenceUnderGlobalMutex => {
                // One contiguous block of sequence numbers per submission
                // (version-number assignment is the serialized part).
                let first = {
                    let _global = self.global.lock();
                    core.seq.next_block(ops.len() as u64)
                };
                for ((key, value), seq) in ops.zip(first..) {
                    core.write(key, seq, value);
                }
                drop(self.global.lock());
            }
            Discipline::Concurrent => {
                for (key, value) in ops {
                    core.write(key, core.seq.next(), value);
                }
            }
        }
    }

    /// Runs a read; LevelDB's lineage brackets it with two brief critical
    /// sections on the global mutex (§5.2).
    fn read<T>(&self, read: impl FnOnce(&LsmCore) -> T) -> T {
        if D::READS_TAKE_GLOBAL_MUTEX {
            drop(self.global.lock());
        }
        let out = read(&self.core);
        if D::READS_TAKE_GLOBAL_MUTEX {
            drop(self.global.lock());
        }
        out
    }
}

impl<D: Design> KvStore for BaselineStore<D> {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), WriteError> {
        self.commit(std::iter::once((key, Some(value))));
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<(), WriteError> {
        self.commit(std::iter::once((key, None)));
        Ok(())
    }

    fn write(&self, batch: &WriteBatch) -> Result<(), WriteError> {
        self.commit(batch.iter());
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let result = self.read(|core| core.get_latest(key));
        self.core.stats.gets.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn scan_with(
        &self,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) {
        let emitted = self.read(|core| core.scan_snapshot_with(low, high, visitor));
        self.core.stats.scans.fetch_add(1, Ordering::Relaxed);
        self.core
            .stats
            .scanned_keys
            .fetch_add(emitted, Ordering::Relaxed);
    }

    fn name(&self) -> &'static str {
        D::NAME
    }

    fn stats(&self) -> StoreStats {
        self.core.snapshot_stats(0)
    }

    fn quiesce(&self) {
        self.core.quiesce();
    }
}

impl<D: Design> Drop for BaselineStore<D> {
    fn drop(&mut self) {
        self.core.shut_down();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lsm_core::MemtableKind;

    use super::*;

    fn exercise(store: &dyn KvStore) {
        store.put(b"a", b"1").unwrap();
        store.put(b"b", b"2").unwrap();
        store.put(b"a", b"3").unwrap();
        assert_eq!(store.get(b"a"), Some(b"3".to_vec()));
        store.delete(b"b").unwrap();
        assert_eq!(store.get(b"b"), None);
        // A batch commits through the store's write serialization.
        let mut batch = WriteBatch::new();
        batch
            .put(b"c", b"4")
            .delete(b"c")
            .put(b"d", b"5")
            .delete(b"d");
        store.write(&batch).unwrap();
        assert_eq!(store.get(b"c"), None);
        assert_eq!(store.get(b"d"), None);
        let out = store.scan(b"a", b"z");
        assert_eq!(out, vec![(b"a".to_vec(), b"3".to_vec())]);
        store.quiesce();
        assert_eq!(store.get(b"a"), Some(b"3".to_vec()));
    }

    fn concurrent_writers(store: Arc<dyn KvStore>, step: usize) {
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let key = (t * 1000 + i).to_be_bytes();
                    store.put(&key, &key).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in (0..250u64).step_by(step) {
                let key = (t * 1000 + i).to_be_bytes();
                assert_eq!(store.get(&key), Some(key.to_vec()));
            }
        }
    }

    #[test]
    fn leveldb_basic_ops() {
        let store = LevelDbStore::open(BaselineOptions::small_for_tests());
        exercise(&store);
        assert_eq!(store.name(), "LevelDB");
        assert_eq!(store.stats().puts, 5, "3 singles + 2 batch puts");
        assert_eq!(store.stats().deletes, 3, "1 single + 2 batch deletes");
    }

    #[test]
    fn hyperleveldb_basic_ops() {
        let store = HyperLevelDbStore::open(BaselineOptions::small_for_tests());
        exercise(&store);
        assert_eq!(store.name(), "HyperLevelDB");
    }

    #[test]
    fn rocksdb_skiplist_basic_ops() {
        let store = RocksDbStore::open(BaselineOptions::small_for_tests());
        exercise(&store);
        assert_eq!(store.name(), "RocksDB");
    }

    #[test]
    fn rocksdb_hashtable_basic_ops() {
        let mut opts = BaselineOptions::small_for_tests();
        opts.memtable = MemtableKind::HashTable;
        let store = RocksDbStore::open(opts);
        exercise(&store);
    }

    #[test]
    fn clsm_basic_ops() {
        let store = RocksDbClsmStore::open(BaselineOptions::small_for_tests());
        exercise(&store);
        assert_eq!(store.name(), "RocksDB/cLSM");
    }

    #[test]
    fn leveldb_concurrent_writers_serialize_correctly() {
        let store = LevelDbStore::open(BaselineOptions::small_for_tests());
        concurrent_writers(Arc::new(store), 31);
    }

    #[test]
    fn clsm_concurrent_writers() {
        let store = RocksDbClsmStore::open(BaselineOptions::small_for_tests());
        concurrent_writers(Arc::new(store), 29);
    }

    #[test]
    fn hyperleveldb_concurrent_same_key() {
        let store = Arc::new(HyperLevelDbStore::open(BaselineOptions::small_for_tests()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    store.put(b"hot", &i.to_be_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(store.get(b"hot").is_some());
    }

    #[test]
    fn rocksdb_flush_through_small_memtable() {
        let mut opts = BaselineOptions::small_for_tests();
        opts.memory_bytes = 8 * 1024;
        let store = RocksDbStore::open(opts);
        for i in 0..2000u64 {
            store.put(&i.to_be_bytes(), &[0u8; 32]).unwrap();
        }
        store.quiesce();
        assert!(store.stats().persists > 0, "small memtable must flush");
        for i in (0..2000u64).step_by(131) {
            assert!(store.get(&i.to_be_bytes()).is_some(), "key {i}");
        }
    }
}
