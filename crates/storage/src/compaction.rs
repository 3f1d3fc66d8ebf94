//! Leveled compaction: merging files downwards through the hierarchy.
//!
//! Reproduces LevelDB's shape (§2.1): L0 compacts on file count, deeper
//! levels on byte size with a 10× growth ratio; an L0 compaction consumes
//! every L0 file (they may overlap) plus the overlapping files of L1;
//! deeper compactions take one file plus its L+1 overlap. Which file is
//! LevelDB's rule too: the first one past the level's compact pointer,
//! wrapping round, so a level's compactions lap its key range — except a
//! compaction into the bottom of the data, which takes the smallest-keyed
//! file (ARCHITECTURE.md, "Choosing compaction inputs", says why). A job
//! with nothing to merge — no L+1 overlap, and disjoint inputs — is a
//! trivial move: the inputs are re-linked one level down, not rewritten.
//! The merge ([`MergeCursor`]) keeps, for each key, the record with the
//! largest sequence number, and drops tombstones when the output reaches
//! the bottom of the data.

use flodb_sync::shim::Arc;

use crate::env::Env;
use crate::error::Result;
use crate::merge::MergeCursor;
use crate::record::RecordRef;
use crate::sstable::{table_file_name, TableBuilder, TableMeta};
use crate::table_cache::{ShardedTableCache, TableCache};
use crate::version::{FileHandle, FileMeta, Version, VersionEdit, NUM_LEVELS};

/// Level-to-level growth ratio (LevelDB's 10×).
const LEVEL_RATIO: u64 = 10;

/// Tunables for the leveled structure.
#[derive(Debug, Clone, Copy)]
pub struct CompactionConfig {
    /// Number of L0 files that triggers an L0→L1 compaction.
    pub l0_trigger: usize,
    /// Byte budget of L1; level `n` holds `base * LEVEL_RATIO^(n-1)`.
    pub base_level_bytes: u64,
    /// Target size of compaction output files.
    pub target_file_bytes: u64,
    /// Data block size for output tables.
    pub block_bytes: usize,
    /// Bloom filter budget for output tables.
    pub bloom_bits_per_key: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            l0_trigger: 4,
            base_level_bytes: 8 * 1024 * 1024,
            target_file_bytes: 2 * 1024 * 1024,
            block_bytes: 4096,
            bloom_bits_per_key: 10,
        }
    }
}

impl CompactionConfig {
    /// Maximum bytes allowed at `level` before it wants compaction.
    pub fn level_max_bytes(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        let mut max = self.base_level_bytes;
        for _ in 1..level {
            max = max.saturating_mul(LEVEL_RATIO);
        }
        max
    }
}

/// A selected compaction: inputs at `level` merging into `level + 1`.
#[derive(Debug)]
pub struct CompactionJob {
    /// The source level.
    pub level: usize,
    /// Files taken from `level`.
    pub inputs: Vec<Arc<FileHandle>>,
    /// Overlapping files taken from `level + 1`.
    pub next_inputs: Vec<Arc<FileHandle>>,
}

impl CompactionJob {
    /// Whether the job has nothing to merge: no file of `level + 1`
    /// overlaps it and its inputs are pairwise disjoint (one file below
    /// L0; at L0, typically one flush's tables — unless the flush cut a
    /// key's version run across two of them). Its inputs then move to
    /// `level + 1` unchanged.
    pub(crate) fn is_trivial_move(&self) -> bool {
        if !self.next_inputs.is_empty() {
            return false;
        }
        let mut ranges: Vec<&FileMeta> = self.inputs.iter().map(|f| &f.meta).collect();
        ranges.sort_by(|a, b| a.smallest.cmp(&b.smallest));
        ranges.windows(2).all(|w| w[0].largest < w[1].smallest)
    }

    /// The edit of a trivial move: each input deleted at `level` and added,
    /// the same file, at `level + 1`.
    pub(crate) fn move_edit(&self) -> VersionEdit {
        let mut edit = VersionEdit::default();
        for f in &self.inputs {
            edit.delete(self.level, f.number);
            edit.add(self.level + 1, f.meta.clone());
        }
        edit
    }
}

/// Where each level's next compaction starts: the largest key the level's
/// last compaction took (LevelDB's `compact_pointer_`), `None` at the
/// start of a lap. Kept in memory only: a reopen starts every lap again at
/// the smallest key.
#[derive(Debug, Default)]
pub struct CompactPointers([Option<Box<[u8]>>; NUM_LEVELS]);

/// The level whose compaction is most urgent, if any needs one.
///
/// Scores: L0 by file count over trigger, deeper levels by bytes over
/// budget; the level with the highest score ≥ 1.0 wins.
pub(crate) fn compaction_level(version: &Version, cfg: &CompactionConfig) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    let l0_score = version.levels[0].len() as f64 / cfg.l0_trigger as f64;
    if l0_score >= 1.0 {
        best = Some((l0_score, 0));
    }
    for level in 1..NUM_LEVELS - 1 {
        let score = version.level_bytes(level) as f64 / cfg.level_max_bytes(level) as f64;
        if score >= 1.0 && best.is_none_or(|(s, _)| score > s) {
            best = Some((score, level));
        }
    }
    best.map(|(_, level)| level)
}

/// Chooses the most urgent compaction, if any, and advances that level's
/// compact pointer past it.
pub fn pick_compaction(
    version: &Version,
    cfg: &CompactionConfig,
    pointers: &mut CompactPointers,
) -> Option<CompactionJob> {
    let level = compaction_level(version, cfg)?;
    let inputs: Vec<Arc<FileHandle>> = if level == 0 {
        // L0 files overlap each other; take them all so the merge sees a
        // consistent freshest-wins view.
        version.levels[0].clone()
    } else {
        let files = &version.levels[level];
        let into_bottom = version.levels[level + 2..].iter().all(Vec::is_empty);
        let pointer = &mut pointers.0[level];
        // Into the bottom, the smallest-keyed file; above it, the first
        // file past the pointer, wrapping to the first file.
        let at = match pointer.as_deref() {
            Some(past) if !into_bottom => files.partition_point(|f| f.largest.as_ref() <= past),
            _ => 0,
        };
        let file = files.get(at).or(files.first())?;
        *pointer = Some(file.largest.clone());
        vec![Arc::clone(file)]
    };
    if inputs.is_empty() {
        return None;
    }

    let lo = inputs
        .iter()
        .map(|f| f.smallest.clone())
        .min()
        .expect("non-empty inputs");
    let hi = inputs
        .iter()
        .map(|f| f.largest.clone())
        .max()
        .expect("non-empty inputs");
    let next_inputs = version.overlapping(level + 1, &lo, &hi);

    Some(CompactionJob {
        level,
        inputs,
        next_inputs,
    })
}

/// Writes a sorted run of records as consecutive tables, cutting to a new
/// file once the open one reaches `cfg.target_file_bytes`. Memtable
/// flushes and compaction outputs both go through here.
pub struct TableRoller<'a> {
    env: &'a dyn Env,
    cfg: &'a CompactionConfig,
    new_file_number: &'a mut dyn FnMut() -> u64,
    open: Option<(u64, TableBuilder)>,
    done: Vec<FileMeta>,
}

impl<'a> TableRoller<'a> {
    pub(crate) fn new(
        env: &'a dyn Env,
        cfg: &'a CompactionConfig,
        new_file_number: &'a mut dyn FnMut() -> u64,
    ) -> Self {
        Self {
            env,
            cfg,
            new_file_number,
            open: None,
            done: Vec::new(),
        }
    }

    /// Appends `record` (callers feed them in table order); its bytes are
    /// copied into the open table's block and nowhere else.
    pub fn add(&mut self, record: RecordRef<'_>) -> Result<()> {
        let (_, builder) = match &mut self.open {
            Some(open) => open,
            None => {
                let number = (self.new_file_number)();
                let file = self.env.new_writable(&table_file_name(number))?;
                self.open.insert((
                    number,
                    TableBuilder::new(file, self.cfg.block_bytes, self.cfg.bloom_bits_per_key),
                ))
            }
        };
        builder.add_ref(record)?;
        if builder.file_size() >= self.cfg.target_file_bytes {
            self.cut()?;
        }
        Ok(())
    }

    fn cut(&mut self) -> Result<()> {
        if let Some((number, builder)) = self.open.take() {
            self.done.push(file_meta(number, builder.finish()?));
        }
        Ok(())
    }

    /// Finishes the open table and returns every table written, in order.
    pub(crate) fn finish(mut self) -> Result<Vec<FileMeta>> {
        self.cut()?;
        Ok(self.done)
    }
}

fn file_meta(number: u64, meta: TableMeta) -> FileMeta {
    FileMeta {
        number,
        size: meta.file_size,
        smallest: meta.smallest,
        largest: meta.largest,
        entries: meta.entries,
        largest_seq: meta.largest_seq,
    }
}

/// Runs `job`, writing output files and returning the version edit plus the
/// metadata of the new files.
///
/// `drop_tombstones` should be true only when nothing below the output
/// level can hold shadowed versions of the job's key range.
pub fn run_compaction(
    env: &dyn Env,
    cache: &ShardedTableCache,
    job: &CompactionJob,
    cfg: &CompactionConfig,
    new_file_number: &mut dyn FnMut() -> u64,
    drop_tombstones: bool,
) -> Result<VersionEdit> {
    let mut iters = Vec::new();
    for f in job.inputs.iter().chain(&job.next_inputs) {
        let mut it = cache.get(f.number)?.iter();
        it.seek_to_first()?;
        iters.push(it);
    }
    let mut cursor = MergeCursor::new(iters, u64::MAX)?;

    let mut roller = TableRoller::new(env, cfg, new_file_number);
    // Block buffer to output block: the merge hands out borrows and the
    // roller's builder makes the one copy.
    while let Some(record) = cursor.next_merged()? {
        if drop_tombstones && record.is_tombstone() {
            continue;
        }
        roller.add(record)?;
    }
    let mut edit = VersionEdit::default();
    let out_level = job.level + 1;
    for meta in roller.finish()? {
        edit.add(out_level, meta);
    }
    for f in &job.inputs {
        edit.delete(job.level, f.number);
    }
    for f in &job.next_inputs {
        edit.delete(out_level, f.number);
    }
    Ok(edit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;
    use crate::record::Record;
    use crate::version::VersionSet;

    fn write_table(env: &Arc<dyn Env>, number: u64, records: &[Record]) -> FileMeta {
        let mut b = TableBuilder::new(
            env.new_writable(&table_file_name(number)).unwrap(),
            512,
            10,
        );
        for r in records {
            b.add(r).unwrap();
        }
        file_meta(number, b.finish().unwrap())
    }

    fn put(k: u64, seq: u64) -> Record {
        Record::put(k.to_be_bytes().as_slice(), seq, seq.to_be_bytes().as_slice())
    }

    fn pick_fresh(v: &Version, cfg: &CompactionConfig) -> Option<CompactionJob> {
        pick_compaction(v, cfg, &mut CompactPointers::default())
    }

    /// Metadata of a `size`-byte file over keys `lo..=hi`; picking reads
    /// only metadata, so no table is written.
    fn span(number: u64, (lo, hi): (u64, u64), size: u64) -> FileMeta {
        FileMeta {
            number,
            size,
            smallest: Box::new(lo.to_be_bytes()),
            largest: Box::new(hi.to_be_bytes()),
            entries: 1,
            largest_seq: number,
        }
    }

    fn version_of(files: &[(usize, FileMeta)]) -> Version {
        let mut edit = VersionEdit::default();
        for (level, meta) in files {
            edit.add(*level, meta.clone());
        }
        let (v, _) = VersionSet::new().apply(&edit).unwrap();
        Version::clone(&v)
    }

    /// L1 at three times its budget in files 1, 2, 3 (keys 0..300), with
    /// `below` added under it; every deeper level well within budget.
    fn l1_over_budget(below: &[(usize, FileMeta)]) -> (Version, CompactionConfig) {
        let cfg = CompactionConfig {
            base_level_bytes: 300,
            ..Default::default()
        };
        let mut files: Vec<(usize, FileMeta)> = [(0, 99), (100, 199), (200, 299)]
            .into_iter()
            .zip(1..)
            .map(|(keys, number)| (1, span(number, keys, 300)))
            .collect();
        files.extend_from_slice(below);
        (version_of(&files), cfg)
    }

    /// The L1 file numbers of `picks` successive picks on `v`.
    fn l1_picks(v: &Version, cfg: &CompactionConfig, picks: usize) -> Vec<u64> {
        let mut pointers = CompactPointers::default();
        (0..picks)
            .map(|_| {
                let job = pick_compaction(v, cfg, &mut pointers).unwrap();
                assert_eq!((job.level, job.inputs.len()), (1, 1));
                job.inputs[0].number
            })
            .collect()
    }

    #[test]
    fn compact_pointer_laps_a_level_above_the_bottom() {
        // L3 holds data, so L1→L2 is not into the bottom.
        let (v, cfg) = l1_over_budget(&[(2, span(10, (0, 299), 10)), (3, span(11, (0, 299), 10))]);
        assert_eq!(l1_picks(&v, &cfg, 5), [1, 2, 3, 1, 2], "advances, then wraps");
        // A pointer that ends inside a file (the level changed under it)
        // picks that file next.
        let mut pointers = CompactPointers::default();
        pointers.0[1] = Some(Box::new(150u64.to_be_bytes()));
        let job = pick_compaction(&v, &cfg, &mut pointers).unwrap();
        assert_eq!(job.inputs[0].number, 2);
        assert_eq!(pointers.0[1].as_deref(), Some(199u64.to_be_bytes().as_slice()));
    }

    #[test]
    fn compaction_into_the_deepest_level_takes_the_smallest_file() {
        // L2 is the deepest non-empty level; then an empty L2.
        let (v, cfg) = l1_over_budget(&[(2, span(10, (0, 299), 10))]);
        assert_eq!(l1_picks(&v, &cfg, 3), [1, 1, 1]);
        let (v, cfg) = l1_over_budget(&[]);
        assert_eq!(l1_picks(&v, &cfg, 3), [1, 1, 1]);
    }

    #[test]
    fn only_disjoint_inputs_with_nothing_below_move() {
        let cfg = CompactionConfig {
            l0_trigger: 2,
            ..Default::default()
        };
        let job = |files: &[(usize, FileMeta)]| pick_fresh(&version_of(files), &cfg).unwrap();
        // One flush's tables: disjoint, and L1 is empty.
        let flush = [(0, span(1, (0, 99), 10)), (0, span(2, (100, 199), 10))];
        let moved = job(&flush);
        assert!(moved.is_trivial_move());
        let edit = moved.move_edit();
        assert_eq!(edit.deleted, [(0, 2), (0, 1)]);
        let added: Vec<(usize, u64)> = edit.added.iter().map(|(l, m)| (*l, m.number)).collect();
        assert_eq!(added, [(1, 2), (1, 1)]);
        // Overlapping L0 files are merged even with nothing under them.
        let overlapping = job(&[(0, span(1, (0, 99), 10)), (0, span(2, (99, 199), 10))]);
        assert!(overlapping.next_inputs.is_empty() && !overlapping.is_trivial_move());
        // Disjoint, but L1 overlaps: merged.
        let under = job(&[flush[0].clone(), flush[1].clone(), (1, span(3, (150, 160), 10))]);
        assert_eq!(under.next_inputs.len(), 1);
        assert!(!under.is_trivial_move());
    }

    #[test]
    fn level_budgets_grow_geometrically() {
        let cfg = CompactionConfig::default();
        assert_eq!(cfg.level_max_bytes(1), cfg.base_level_bytes);
        assert_eq!(cfg.level_max_bytes(2), cfg.base_level_bytes * 10);
        assert_eq!(cfg.level_max_bytes(3), cfg.base_level_bytes * 100);
    }

    #[test]
    fn no_compaction_when_quiet() {
        let cfg = CompactionConfig::default();
        let v = Version::empty();
        assert!(pick_fresh(&v, &cfg).is_none());
    }

    #[test]
    fn l0_compaction_takes_all_l0_files() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let vs = VersionSet::new();
        let cfg = CompactionConfig {
            l0_trigger: 2,
            ..Default::default()
        };
        let mut edit = VersionEdit::default();
        for i in 1..=3u64 {
            edit.add(0, write_table(&env, i, &[put(10, i), put(20, i)]));
        }
        let (v, _) = vs.apply(&edit).unwrap();
        let job = pick_fresh(&v, &cfg).expect("L0 over trigger");
        assert_eq!(job.level, 0);
        assert_eq!(job.inputs.len(), 3);
    }

    #[test]
    fn merge_keeps_freshest_and_deletes_inputs() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let cache = ShardedTableCache::new(Arc::clone(&env), 16, 2);
        let vs = VersionSet::new();
        let cfg = CompactionConfig {
            l0_trigger: 2,
            ..Default::default()
        };
        let mut edit = VersionEdit::default();
        // Older file: keys 1..10 at seq 1; newer file: keys 5..15 at seq 2.
        let old: Vec<Record> = (1..=10).map(|k| put(k, 1)).collect();
        let new: Vec<Record> = (5..=15).map(|k| put(k, 2)).collect();
        edit.add(0, write_table(&env, 1, &old));
        edit.add(0, write_table(&env, 2, &new));
        let (v, _) = vs.apply(&edit).unwrap();

        let job = pick_fresh(&v, &cfg).unwrap();
        let mut next = 100u64;
        let out_edit = run_compaction(
            env.as_ref(),
            &cache,
            &job,
            &cfg,
            &mut || {
                next += 1;
                next
            },
            true,
        )
        .unwrap();
        let (v2, deleted) = vs.apply(&out_edit).unwrap();
        assert_eq!(deleted.len(), 2);
        assert!(v2.levels[0].is_empty());
        assert!(!v2.levels[1].is_empty());

        // Check merged contents: keys 1..15, overlap keys carry seq 2.
        let table = cache.get(v2.levels[1][0].number).unwrap();
        let mut it = table.iter();
        it.seek_to_first().unwrap();
        let mut seen = Vec::new();
        while it.valid() {
            let r = it.record();
            seen.push((u64::from_be_bytes(r.key.try_into().unwrap()), r.seq));
            it.next().unwrap();
        }
        assert_eq!(seen.len(), 15);
        for (k, seq) in seen {
            let expect = if (5..=15).contains(&k) { 2 } else { 1 };
            assert_eq!(seq, expect, "key {k}");
        }
    }

    #[test]
    fn tombstones_dropped_only_when_asked() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let cache = ShardedTableCache::new(Arc::clone(&env), 16, 2);
        let meta = write_table(
            &env,
            1,
            &[
                Record::tombstone(1u64.to_be_bytes().as_slice(), 5),
                put(2, 5),
            ],
        );
        let job = CompactionJob {
            level: 0,
            inputs: vec![Arc::new(FileHandle::new(meta))],
            next_inputs: vec![],
        };
        let cfg = CompactionConfig::default();

        let mut n = 10u64;
        let edit_keep = run_compaction(
            env.as_ref(),
            &cache,
            &job,
            &cfg,
            &mut || {
                n += 1;
                n
            },
            false,
        )
        .unwrap();
        // Tombstone kept: output has 2 entries.
        assert_eq!(edit_keep.added[0].1.entries, 2);

        let mut n2 = 20u64;
        let edit_drop = run_compaction(
            env.as_ref(),
            &cache,
            &job,
            &cfg,
            &mut || {
                n2 += 1;
                n2
            },
            true,
        )
        .unwrap();
        assert_eq!(edit_drop.added[0].1.entries, 1);
    }

    #[test]
    fn output_splits_at_target_size() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let cache = ShardedTableCache::new(Arc::clone(&env), 16, 2);
        let records: Vec<Record> = (0..2000u64).map(|k| put(k, 1)).collect();
        let meta = write_table(&env, 1, &records);
        let job = CompactionJob {
            level: 0,
            inputs: vec![Arc::new(FileHandle::new(meta))],
            next_inputs: vec![],
        };
        let cfg = CompactionConfig {
            target_file_bytes: 8 * 1024,
            ..Default::default()
        };
        let mut n = 10u64;
        let edit = run_compaction(
            env.as_ref(),
            &cache,
            &job,
            &cfg,
            &mut || {
                n += 1;
                n
            },
            true,
        )
        .unwrap();
        assert!(
            edit.added.len() > 1,
            "2000 records at ~30B should split beyond 8KB files"
        );
        let total: u64 = edit.added.iter().map(|(_, m)| m.entries).sum();
        assert_eq!(total, 2000);
    }
}
