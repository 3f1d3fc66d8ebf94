//! The disk component: flushes, point reads, range scans, compaction.
//!
//! [`DiskComponent`] glues the substrate together the way LevelDB does:
//! memtable flushes become L0 tables, reads walk the leveled hierarchy
//! newest-to-oldest, scans k-way-merge every overlapping file, and a
//! compaction step keeps level budgets in shape. All five stores in this
//! repository (FloDB and the four baselines) persist through this one
//! component, mirroring the paper's control: "we keep the persisting and
//! compaction mechanisms of LevelDB" (§4).

use flodb_sync::lock_order::{DISK_COMPACTION, DISK_MANIFEST};
use flodb_sync::shim::atomic::{AtomicU64, Ordering};
use flodb_sync::shim::{ranked_mutex, Arc, Mutex};

use crate::compaction::{
    compaction_level, pick_compaction, run_compaction, CompactPointers, CompactionConfig,
    TableRoller,
};
use crate::env::Env;
use crate::error::Result;
use crate::manifest;
use crate::merge::MergeCursor;
use crate::record::Record;
use crate::sstable::{table_file_name, TableIterator};
use crate::table_cache::{ShardedTableCache, TableCache};
use crate::version::{Version, VersionEdit, VersionSet, NUM_LEVELS};

/// Options for a [`DiskComponent`].
#[derive(Debug, Clone, Copy)]
pub struct DiskOptions {
    /// Leveled-compaction tunables.
    pub compaction: CompactionConfig,
    /// Open-table cache capacity (total handles).
    pub cache_capacity: usize,
    /// Lock stripes of the table cache; 1 reproduces the LevelDB
    /// global-lock fd-cache the baselines contend on.
    pub cache_shards: usize,
}

impl Default for DiskOptions {
    fn default() -> Self {
        Self {
            compaction: CompactionConfig::default(),
            cache_capacity: 256,
            cache_shards: 16,
        }
    }
}

/// Counters exposed by [`DiskComponent::stats`].
#[derive(Debug, Clone, Default)]
pub struct DiskStats {
    /// Number of memtable flushes performed.
    pub flushes: u64,
    /// Number of compactions performed (merges; trivial moves not counted).
    pub compactions: u64,
    /// Number of trivial moves: compaction jobs that re-linked their
    /// inputs one level down instead of rewriting them.
    pub trivial_moves: u64,
    /// Table bytes compactions wrote, per output level (`[0]` is always
    /// 0; flushes are not compactions).
    pub compaction_bytes_written: Vec<u64>,
    /// Files per level.
    pub files_per_level: Vec<usize>,
    /// Bytes per level.
    pub bytes_per_level: Vec<u64>,
    /// Total bytes written through the env (write amplification numerator).
    pub env_bytes_written: u64,
    /// Table cache hits/misses.
    pub cache_hits: u64,
    /// Table cache misses.
    pub cache_misses: u64,
}

/// The on-disk half of an LSM store.
pub struct DiskComponent {
    env: Arc<dyn Env>,
    versions: VersionSet,
    cache: Arc<ShardedTableCache>,
    opts: DiskOptions,
    /// Serializes compactions (flushes may proceed concurrently) and holds
    /// the state they share: each level's compact pointer.
    compaction_lock: Mutex<CompactPointers>,
    /// Orders manifest appends with their version-set application.
    manifest: Option<Mutex<manifest::ManifestWriter>>,
    /// Oldest-live WAL generation (0 = unrecorded), mirrored from the
    /// manifest so the store reads it without taking the writer lock.
    wal_oldest_live: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    trivial_moves: AtomicU64,
    compaction_bytes: [AtomicU64; NUM_LEVELS],
}

impl DiskComponent {
    /// Creates an empty, *ephemeral* disk component on `env`: no manifest
    /// is read or written, so the layout is lost when the component drops.
    /// Use [`DiskComponent::open`] for a persistent store.
    pub fn new(env: Arc<dyn Env>, opts: DiskOptions) -> Self {
        Self::build(env, opts)
    }

    /// Opens a disk component on `env`, recovering the file layout from
    /// the newest manifest generation if one exists, then starting a fresh
    /// generation and deleting obsolete manifests and orphaned tables. Every
    /// version edit from then on is logged to that MANIFEST (LevelDB
    /// behaviour), so the next `open` can reconstruct the layout.
    pub fn open(env: Arc<dyn Env>, opts: DiskOptions) -> Result<Self> {
        let recovered = manifest::recover(env.as_ref())?;
        let mut component = Self::build(Arc::clone(&env), opts);
        let mut generation = 0;
        let mut wal_oldest = 0;
        if let Some(r) = recovered {
            for edit in &r.edits {
                component.versions.apply(edit)?;
            }
            component.versions.bump_file_number(r.next_file);
            generation = r.generation;
            wal_oldest = r.wal_oldest_live;
        }
        component.wal_oldest_live.store(wal_oldest, Ordering::Relaxed);
        // Start a fresh generation seeded with a snapshot of the live
        // layout, so older generations become redundant. The recovered
        // oldest-live WAL mark is re-stamped into the snapshot record.
        let mut writer = manifest::ManifestWriter::create(env.as_ref(), generation + 1)?;
        writer.set_wal_oldest_live(wal_oldest);
        let version = component.versions.current();
        let mut snapshot = VersionEdit::default();
        for (level, files) in version.levels.iter().enumerate() {
            for file in files {
                snapshot.add(level, file.meta.clone());
            }
        }
        writer.append(&snapshot, component.versions.peek_file_number())?;
        manifest::prune_old_generations(env.as_ref(), generation + 1)?;
        component.manifest = Some(ranked_mutex(DISK_MANIFEST, writer));
        component.remove_orphaned_tables()?;
        Ok(component)
    }

    fn build(env: Arc<dyn Env>, opts: DiskOptions) -> Self {
        let cache = Arc::new(ShardedTableCache::new(
            Arc::clone(&env),
            opts.cache_capacity,
            opts.cache_shards,
        ));
        Self {
            env,
            versions: VersionSet::new(),
            cache,
            opts,
            compaction_lock: ranked_mutex(DISK_COMPACTION, CompactPointers::default()),
            manifest: None,
            wal_oldest_live: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            trivial_moves: AtomicU64::new(0),
            compaction_bytes: Default::default(),
        }
    }

    /// Deletes `.sst` files not referenced by the current version (e.g.
    /// written by a flush whose manifest record never made it to disk).
    fn remove_orphaned_tables(&self) -> Result<()> {
        let version = self.versions.current();
        let live: std::collections::HashSet<u64> = version
            .levels
            .iter()
            .flatten()
            .map(|f| f.number)
            .collect();
        for name in self.env.list()? {
            if let Some(number) = name
                .strip_suffix(".sst")
                .and_then(|stem| stem.parse::<u64>().ok())
            {
                if !live.contains(&number) {
                    self.env.delete(&name)?;
                }
            }
        }
        Ok(())
    }

    /// Applies `edit` to the version set and, when a manifest is active,
    /// logs it in the same order.
    ///
    /// When the edit *adds* tables, the directory is synced first:
    /// fsyncing a new table's contents does not persist its directory
    /// entry, and an fsynced manifest record referencing a file that
    /// vanishes with the directory would lose the flushed data — fatally
    /// so once WAL retirement advances the oldest-live mark on the
    /// strength of that record.
    fn apply_edit(
        &self,
        edit: &VersionEdit,
    ) -> Result<(Arc<Version>, Vec<Arc<crate::version::FileHandle>>)> {
        match &self.manifest {
            Some(writer) => {
                if !edit.added.is_empty() {
                    self.env.sync_dir()?;
                }
                let mut writer = writer.lock();
                let applied = self.versions.apply(edit)?;
                writer.append(edit, self.versions.peek_file_number())?;
                Ok(applied)
            }
            None => self.versions.apply(edit),
        }
    }

    /// Returns the current version snapshot.
    pub fn version(&self) -> Arc<Version> {
        self.versions.current()
    }

    /// Largest sequence number persisted in any live table.
    ///
    /// A store reopening this component must resume its global sequence
    /// counter past this value, or fresh writes would lose seq-based
    /// merges against recovered disk records.
    pub fn max_persisted_seq(&self) -> u64 {
        self.versions
            .current()
            .levels
            .iter()
            .flatten()
            .map(|f| f.largest_seq)
            .max()
            .unwrap_or(0)
    }

    /// Returns the environment (shared with WALs and tests).
    pub fn env(&self) -> &Arc<dyn Env> {
        &self.env
    }

    /// Oldest-live WAL generation recovered from (or recorded into) the
    /// manifest; 0 means unrecorded — recovery must scan every log
    /// generation.
    pub fn wal_oldest_live(&self) -> u64 {
        self.wal_oldest_live.load(Ordering::Acquire)
    }

    /// Durably records `generation` as the oldest WAL generation recovery
    /// must scan (an fsynced manifest append). Must be called **before**
    /// older segments are deleted: a crash after the record but before the
    /// deletions leaves only stale files recovery ignores, whereas the
    /// reverse order could delete segments recovery still needs.
    ///
    /// Without an active manifest the mark is process-local only (and
    /// retirement must not run — nothing would survive a restart).
    pub fn record_wal_oldest_live(&self, generation: u64) -> Result<()> {
        if let Some(writer) = &self.manifest {
            let mut writer = writer.lock();
            writer.set_wal_oldest_live(generation);
            writer.append(&VersionEdit::default(), self.versions.peek_file_number())?;
        }
        self.wal_oldest_live.store(generation, Ordering::Release);
        Ok(())
    }

    /// Flushes a run of records into one or more L0 tables.
    ///
    /// Records need not be pre-sorted (the hash-memtable baselines flush
    /// unsorted data and pay the sort here, reproducing Figure 4's
    /// compaction-time penalty). Duplicate keys are kept as a
    /// newest-first version run — LevelDB flushes *every* version it
    /// holds, which is exactly the write amplification that prevents
    /// multi-versioned stores from capturing skewed workloads (Figure 16);
    /// versions collapse later, during compaction.
    pub fn flush_records(&self, mut records: Vec<Record>) -> Result<()> {
        records.sort_by(|a, b| a.key.cmp(&b.key).then(b.seq.cmp(&a.seq)));
        self.flush_sorted(&mut |tables| records.iter().try_for_each(|r| tables.add(r.into())))
    }

    /// Flushes whatever `fill` feeds the roller — borrowed records, in
    /// `(key asc, seq desc)` order — into one or more L0 tables; feeding
    /// nothing flushes nothing.
    ///
    /// This is the flush itself ([`DiskComponent::flush_records`] sorts an
    /// owned vector and feeds it here): a Memtable streams its iterator in,
    /// so the only copy of a record made on the way to disk is the one into
    /// its output block. A failed attempt leaves orphaned tables that no
    /// version references (deleted at the next open); calling again with a
    /// `fill` that re-iterates the same source is the retry.
    pub fn flush_sorted(
        &self,
        fill: &mut dyn FnMut(&mut TableRoller<'_>) -> Result<()>,
    ) -> Result<()> {
        let mut alloc = || self.versions.new_file_number();
        let mut roller = TableRoller::new(self.env.as_ref(), &self.opts.compaction, &mut alloc);
        fill(&mut roller)?;
        let mut edit = VersionEdit::default();
        for meta in roller.finish()? {
            edit.add(0, meta);
        }
        if edit.added.is_empty() {
            return Ok(());
        }
        self.apply_edit(&edit)?;
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Point lookup: returns the freshest on-disk record for `key`
    /// (including tombstones) or `None`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Record>> {
        let version = self.versions.current();
        let mut best_l0: Option<Record> = None;
        for (level, file) in version.files_for_key(key) {
            if level != 0 && best_l0.is_some() {
                // Deeper levels are strictly older than any L0 hit.
                break;
            }
            let Some(record) = self.cache.get(file.number)?.get(key)? else {
                continue;
            };
            if level != 0 {
                return Ok(Some(record));
            }
            // L0 files overlap; keep searching L0 for a fresher seq.
            if best_l0.as_ref().is_none_or(|b| record.seq > b.seq) {
                best_l0 = Some(record);
            }
        }
        Ok(best_l0)
    }

    /// Range scan over `[low, high]` (inclusive): freshest record per key,
    /// in key order, tombstones included so the caller can shadow.
    pub fn scan(&self, low: &[u8], high: &[u8]) -> Result<Vec<Record>> {
        let (version, mut tables) = (self.version(), Vec::new());
        self.range_sources(&version, low, high, &mut tables)?;
        let mut cursor = MergeCursor::<TableIterator>::new(tables, u64::MAX)?;
        let mut out = Vec::new();
        while let Some(record) = cursor.next_merged()?.filter(|r| r.key <= high) {
            out.push(record.to_record());
        }
        Ok(out)
    }

    /// Appends to `sources` an iterator over each table of `version` that
    /// overlaps `[low, high]`, positioned at `low` — the disk's inputs to a
    /// [`MergeCursor`]. `version` is this component's ([`Self::version`]),
    /// current or an earlier snapshot (a scan's, taken at its stamp); hold
    /// it for as long as the iterators: it pins their files, which a
    /// compaction deletes only once the last version naming them drops.
    pub fn range_sources<S: From<TableIterator>>(
        &self,
        version: &Version,
        low: &[u8],
        high: &[u8],
        sources: &mut Vec<S>,
    ) -> Result<()> {
        let files: Vec<_> = (0..NUM_LEVELS)
            .map(|level| version.overlapping(level, low, high))
            .collect();
        sources.reserve(files.iter().map(Vec::len).sum());
        for file in files.iter().flatten() {
            let mut it = self.cache.get(file.number)?.iter();
            it.seek(low)?;
            if it.valid() {
                sources.push(it.into());
            }
        }
        Ok(())
    }

    /// Runs at most one compaction step; returns whether one ran.
    pub fn maybe_compact(&self) -> Result<bool> {
        let mut pointers = self.compaction_lock.lock();
        let version = self.versions.current();
        let Some(job) = pick_compaction(&version, &self.opts.compaction, &mut pointers) else {
            return Ok(false);
        };
        let out_level = job.level + 1;
        let moved = job.is_trivial_move();
        let edit = if moved {
            job.move_edit()
        } else {
            // Tombstones can be dropped when no level below the output
            // holds data overlapping the job (then nothing older can
            // resurface).
            let drop_tombstones = ((out_level + 1)..NUM_LEVELS)
                .all(|l| version.levels[l].is_empty());
            let mut alloc = || self.versions.new_file_number();
            run_compaction(
                self.env.as_ref(),
                &self.cache,
                &job,
                &self.opts.compaction,
                &mut alloc,
                drop_tombstones,
            )?
        };
        // Counted before the edit is published: whoever sees the new
        // version (a `quiesce` that finds no debt left) sees its job too.
        if moved {
            self.trivial_moves.fetch_add(1, Ordering::Relaxed);
        } else {
            let written = edit.added.iter().map(|(_, meta)| meta.size).sum();
            self.compaction_bytes[out_level].fetch_add(written, Ordering::Relaxed);
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        let (_, removed) = self.apply_edit(&edit)?;
        for handle in removed {
            // Deletion is deferred until the last snapshot referencing the
            // file drops (LevelDB's version refcounting): install the
            // cleanup and release our reference.
            let cache = Arc::clone(&self.cache);
            let env = Arc::clone(&self.env);
            let number = handle.number;
            handle.set_cleanup(move || {
                cache.evict(number);
                // LOCK-OK: deferred-cleanup closure — it runs when the
                // last snapshot drops, not under the compaction lock the
                // lexical pass sees here.
                let _ = env.delete(&table_file_name(number));
            });
        }
        Ok(true)
    }

    /// Compacts until the shape is within budget everywhere.
    pub fn compact_all(&self) -> Result<()> {
        while self.maybe_compact()? {}
        Ok(())
    }

    /// Returns whether any compaction is currently warranted.
    pub fn needs_compaction(&self) -> bool {
        compaction_level(&self.versions.current(), &self.opts.compaction).is_some()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> DiskStats {
        let version = self.versions.current();
        let cache = self.cache.stats();
        DiskStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            trivial_moves: self.trivial_moves.load(Ordering::Relaxed),
            compaction_bytes_written: self
                .compaction_bytes
                .iter()
                .map(|bytes| bytes.load(Ordering::Relaxed))
                .collect(),
            files_per_level: version.levels.iter().map(Vec::len).collect(),
            bytes_per_level: (0..NUM_LEVELS).map(|l| version.level_bytes(l)).collect(),
            env_bytes_written: self.env.bytes_written(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;

    fn disk() -> DiskComponent {
        let opts = DiskOptions {
            compaction: CompactionConfig {
                l0_trigger: 2,
                base_level_bytes: 16 * 1024,
                target_file_bytes: 8 * 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        DiskComponent::new(Arc::new(MemEnv::new(None)), opts)
    }

    fn put(k: u64, seq: u64) -> Record {
        Record::put(k.to_be_bytes().as_slice(), seq, vec![k as u8; 32])
    }

    #[test]
    fn flush_then_get() {
        let d = disk();
        d.flush_records((0..100).map(|k| put(k, k + 1)).collect())
            .unwrap();
        let r = d.get(&42u64.to_be_bytes()).unwrap().unwrap();
        assert_eq!(r.seq, 43);
        assert!(d.get(&1000u64.to_be_bytes()).unwrap().is_none());
        assert_eq!(d.stats().flushes, 1);
    }

    #[test]
    fn newer_flush_shadows_older() {
        let d = disk();
        d.flush_records(vec![put(1, 1)]).unwrap();
        d.flush_records(vec![put(1, 2)]).unwrap();
        assert_eq!(d.get(&1u64.to_be_bytes()).unwrap().unwrap().seq, 2);
    }

    #[test]
    fn tombstone_is_returned() {
        let d = disk();
        d.flush_records(vec![put(1, 1)]).unwrap();
        d.flush_records(vec![Record::tombstone(1u64.to_be_bytes().as_slice(), 2)])
            .unwrap();
        let r = d.get(&1u64.to_be_bytes()).unwrap().unwrap();
        assert!(r.is_tombstone());
    }

    #[test]
    fn get_survives_compaction() {
        let d = disk();
        for round in 0..6u64 {
            d.flush_records((0..200).map(|k| put(k, round * 200 + k + 1)).collect())
                .unwrap();
        }
        d.compact_all().unwrap();
        assert!(!d.needs_compaction());
        let stats = d.stats();
        assert!(stats.compactions > 0);
        // All keys still resolve to the freshest round.
        for k in 0..200u64 {
            let r = d.get(&k.to_be_bytes()).unwrap().unwrap();
            assert_eq!(r.seq, 5 * 200 + k + 1, "key {k}");
        }
    }

    #[test]
    fn scan_merges_levels() {
        let d = disk();
        d.flush_records((0..50).map(|k| put(k * 2, k + 1)).collect())
            .unwrap();
        d.compact_all().unwrap();
        d.flush_records(vec![put(10, 1000), Record::tombstone(20u64.to_be_bytes().as_slice(), 1001)])
            .unwrap();

        let out = d
            .scan(&8u64.to_be_bytes(), &24u64.to_be_bytes())
            .unwrap();
        let kv: Vec<(u64, u64, bool)> = out
            .iter()
            .map(|r| {
                (
                    u64::from_be_bytes(r.key.as_ref().try_into().unwrap()),
                    r.seq,
                    r.is_tombstone(),
                )
            })
            .collect();
        // Keys 8..=24 even: 8,10,12,...,24; key 10 fresher (seq 1000), key
        // 20 shadowed by tombstone.
        assert_eq!(kv.len(), 9);
        assert_eq!(kv[0], (8, 5, false));
        assert_eq!(kv[1], (10, 1000, false));
        assert!(kv.iter().any(|&(k, _, tomb)| k == 20 && tomb));
    }

    #[test]
    fn range_sources_pin_their_files_until_the_version_drops() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let d = DiskComponent::new(Arc::clone(&env), disk().opts);
        for seq in [1, 100] {
            d.flush_records((0..50).map(|k| put(k, k + seq)).collect())
                .unwrap();
        }
        let (low, high) = (0u64.to_be_bytes(), 49u64.to_be_bytes());
        let mut tables: Vec<TableIterator> = Vec::new();
        let pinned = d.version();
        d.range_sources(&pinned, &low, &high, &mut tables).unwrap();
        let inputs: Vec<String> = pinned.levels[0]
            .iter()
            .map(|f| table_file_name(f.number))
            .collect();
        assert_eq!((inputs.len(), tables.len()), (2, 2));

        // A compaction merges both inputs away under the open sources...
        d.compact_all().unwrap();
        assert_eq!(d.stats().files_per_level[0], 0);
        let listed = env.list().unwrap();
        assert!(inputs.iter().all(|name| listed.contains(name)), "{listed:?}");
        let mut cursor = MergeCursor::new(tables, u64::MAX).unwrap();
        let mut seqs = Vec::new();
        while let Some(record) = cursor.next_merged().unwrap() {
            seqs.push(record.seq);
        }
        assert_eq!(seqs, (100..150).collect::<Vec<u64>>());
        // ...and deletes them once the last version naming them drops.
        drop((cursor, pinned));
        let listed = env.list().unwrap();
        assert!(inputs.iter().all(|name| !listed.contains(name)), "{listed:?}");
    }

    #[test]
    fn scan_empty_range() {
        let d = disk();
        d.flush_records(vec![put(5, 1)]).unwrap();
        assert!(d
            .scan(&100u64.to_be_bytes(), &200u64.to_be_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unsorted_flush_is_sorted_and_deduped() {
        let d = disk();
        d.flush_records(vec![put(5, 1), put(3, 2), put(5, 7), put(1, 3)])
            .unwrap();
        let out = d.scan(&0u64.to_be_bytes(), &10u64.to_be_bytes()).unwrap();
        let keys: Vec<u64> = out
            .iter()
            .map(|r| u64::from_be_bytes(r.key.as_ref().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(out[2].seq, 7, "duplicate must keep the larger seq");
    }

    #[test]
    fn compaction_reduces_file_count_and_deletes_inputs() {
        let d = disk();
        for round in 0..4u64 {
            d.flush_records((0..100).map(|k| put(k, round * 100 + k + 1)).collect())
                .unwrap();
        }
        let files_before: usize = d.stats().files_per_level.iter().sum();
        d.compact_all().unwrap();
        let stats = d.stats();
        let files_after: usize = stats.files_per_level.iter().sum();
        assert!(files_after < files_before);
        assert_eq!(stats.files_per_level[0], 0, "L0 fully drained");
        // Env must not keep deleted files around.
        let live: usize = d.env().list().unwrap().len();
        assert_eq!(live, files_after);
    }

    fn disk_opts() -> DiskOptions {
        DiskOptions {
            compaction: CompactionConfig {
                l0_trigger: 2,
                base_level_bytes: 16 * 1024,
                target_file_bytes: 8 * 1024,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn reopen_recovers_layout_from_manifest() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        {
            let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
            for round in 0..4u64 {
                d.flush_records((0..200).map(|k| put(k, round * 200 + k + 1)).collect())
                    .unwrap();
            }
            d.compact_all().unwrap();
        }
        let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
        for k in (0..200u64).step_by(13) {
            let r = d.get(&k.to_be_bytes()).unwrap().unwrap();
            assert_eq!(r.seq, 3 * 200 + k + 1, "key {k} lost across reopen");
        }
        // New flushes continue with fresh file numbers (no collisions).
        d.flush_records(vec![put(1, 10_000)]).unwrap();
        assert_eq!(d.get(&1u64.to_be_bytes()).unwrap().unwrap().seq, 10_000);
    }

    #[test]
    fn reopen_prunes_orphans_and_old_manifests() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        {
            let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
            d.flush_records((0..50).map(|k| put(k, k + 1)).collect())
                .unwrap();
        }
        // Simulate a flush whose manifest record never landed: an .sst not
        // referenced by any version.
        let mut orphan = env.new_writable("999999.sst").unwrap();
        orphan.append(b"garbage").unwrap();
        orphan.finish().unwrap();

        let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
        let names = env.list().unwrap();
        assert!(
            !names.contains(&"999999.sst".to_string()),
            "orphaned table must be deleted"
        );
        let manifests: Vec<&String> =
            names.iter().filter(|n| n.starts_with("MANIFEST-")).collect();
        assert_eq!(manifests.len(), 1, "only the live generation remains");
        // And the data is intact.
        assert!(d.get(&25u64.to_be_bytes()).unwrap().is_some());
    }

    fn manifest_bytes(env: &Arc<dyn Env>) -> u64 {
        let names = env.list().unwrap();
        let manifests = names.iter().filter(|n| n.starts_with("MANIFEST-"));
        manifests.map(|n| env.open_random(n).unwrap().len()).sum()
    }

    #[test]
    fn trivial_move_relinks_the_table_and_never_unlinks_it() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
        // One flush's tables are disjoint and L1 is empty: the L0 job moves.
        d.flush_records((0..600).map(|k| put(k, k + 1)).collect())
            .unwrap();
        let before = d.version();
        let mut moved: Vec<u64> = before.levels[0].iter().map(|f| f.number).collect();
        moved.sort_unstable();
        assert!(moved.len() >= 2, "{:?}", d.stats());
        let (written, logged) = (env.bytes_written(), manifest_bytes(&env));
        assert!(d.maybe_compact().unwrap());
        assert_eq!(
            env.bytes_written() - written,
            manifest_bytes(&env) - logged,
            "a move writes its MANIFEST record and no table byte"
        );
        let stats = d.stats();
        assert_eq!((stats.compactions, stats.trivial_moves), (0, 1));
        assert!(stats.compaction_bytes_written.iter().all(|&b| b == 0));

        let level_one = |d: &DiskComponent| -> Vec<u64> {
            d.version().levels[1].iter().map(|f| f.number).collect()
        };
        let all_readable = |d: &DiskComponent| {
            for k in 0..600u64 {
                assert_eq!(d.get(&k.to_be_bytes()).unwrap().unwrap().seq, k + 1, "key {k}");
            }
        };
        assert_eq!(level_one(&d), moved);
        all_readable(&d);
        // `before` holds the last references to the handles the move
        // removed from L0: a delete-cleanup on them would fire here.
        drop(before);
        all_readable(&d);
        drop(d);
        // The MANIFEST replays a delete and an add of each file number.
        let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
        assert_eq!(level_one(&d), moved);
        all_readable(&d);
    }

    #[test]
    fn a_snapshot_from_before_a_move_outlives_the_merge_of_the_moved_table() {
        let d = DiskComponent::open(Arc::new(MemEnv::new(None)), disk_opts()).unwrap();
        // Older versions of every key, placed in L2 by hand.
        d.flush_records((0..600).map(|k| put(k, k + 1)).collect())
            .unwrap();
        let mut to_l2 = VersionEdit::default();
        for f in &d.version().levels[0] {
            to_l2.delete(0, f.number);
            to_l2.add(2, f.meta.clone());
        }
        d.apply_edit(&to_l2).unwrap();
        d.flush_records((0..600).map(|k| put(k, 1000 + k)).collect())
            .unwrap();
        let before = d.version();
        // L1 is empty: the flush moves. L1 is then over budget, and its
        // smallest table merges into L2.
        assert!(d.maybe_compact().unwrap() && d.maybe_compact().unwrap());
        let stats = d.stats();
        assert_eq!((stats.trivial_moves, stats.compactions), (1, 1), "{stats:?}");
        let merged = &before.levels[0]
            .iter()
            .find(|f| !d.version().levels[1].iter().any(|g| g.number == f.number))
            .expect("one moved table was merged away")
            .meta;
        let name = table_file_name(merged.number);
        // The pre-move snapshot still names the merged table under L0.
        let table = d.cache.get(merged.number).unwrap();
        let first = table.get(&merged.smallest).unwrap().unwrap();
        assert!(first.seq >= 1000, "{first:?}");
        assert!(d.env().list().unwrap().contains(&name));
        // Its last reference gone, the table's one cleanup unlinks it.
        drop(table);
        drop(before);
        assert!(!d.env().list().unwrap().contains(&name));
    }

    #[test]
    fn wal_oldest_live_survives_reopen() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        {
            let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
            assert_eq!(d.wal_oldest_live(), 0);
            d.record_wal_oldest_live(4).unwrap();
            d.flush_records(vec![put(1, 1)]).unwrap();
            d.record_wal_oldest_live(9).unwrap();
        }
        let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
        assert_eq!(d.wal_oldest_live(), 9, "mark must survive the restart");
        // And the next manifest generation re-stamps it, so a second
        // restart (whose recovery reads only the newest generation) still
        // sees it.
        drop(d);
        let d = DiskComponent::open(env, disk_opts()).unwrap();
        assert_eq!(d.wal_oldest_live(), 9);
    }

    #[test]
    fn ephemeral_new_ignores_existing_manifest() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        {
            let d = DiskComponent::open(Arc::clone(&env), disk_opts()).unwrap();
            d.flush_records(vec![put(1, 1)]).unwrap();
        }
        let d = DiskComponent::new(Arc::clone(&env), disk_opts());
        assert!(
            d.get(&1u64.to_be_bytes()).unwrap().is_none(),
            "`new` must start empty"
        );
    }

    #[test]
    fn concurrent_reads_during_flush_and_compaction() {
        let d = Arc::new(disk());
        d.flush_records((0..500).map(|k| put(k, k + 1)).collect())
            .unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let d = Arc::clone(&d);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for k in (0..500u64).step_by(61) {
                        let r = d.get(&k.to_be_bytes()).unwrap().unwrap();
                        assert!(r.seq > k);
                    }
                }
            }));
        }
        for round in 1..5u64 {
            d.flush_records((0..500).map(|k| put(k, round * 1000 + k)).collect())
                .unwrap();
            d.maybe_compact().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
