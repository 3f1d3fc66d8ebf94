//! `flodb-storage`: WAL append/rotation/replay/fsync, SSTable build and
//! reads, the table cache, and the disk component's flush, compaction,
//! point reads and range scans.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flodb_storage::compaction::CompactionConfig;
use flodb_storage::env::RandomAccessFile;
use flodb_storage::log_manager::recover_segments;
use flodb_storage::record::encode_record_parts;
use flodb_storage::sstable::{table_file_name, Table, TableBuilder};
use flodb_storage::table_cache::{ShardedTableCache, TableCache};
use flodb_storage::wal::FRAME_HEADER_BYTES;
use flodb_storage::{
    DiskComponent, DiskOptions, Env, FsEnv, LogConfig, LogManager, MemEnv, Record, StorageError,
};

use crate::util::{
    absent_key, key, median_each, ns_per, try_median_each, value, Probes, BATCHES, HEAVY_BATCHES,
    VALUE_BYTES,
};

const SCAN_KEYS: u64 = 100;

fn err(what: &str) -> impl Fn(StorageError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One group frame of `records` records: header space, then the records.
fn frame(records: u64) -> Vec<u8> {
    let v = value(0);
    let mut buf = vec![0u8; FRAME_HEADER_BYTES];
    for seq in 1..=records {
        encode_record_parts(&mut buf, &key(seq), seq, Some(&v));
    }
    buf
}

fn log_on(env: Arc<dyn Env>, segment_max_bytes: u64, sync: bool) -> Result<LogManager, String> {
    let cfg = LogConfig {
        segment_max_bytes,
        sync_on_write: sync,
    };
    LogManager::create(env, cfg, 1).map_err(err("LogManager::create"))
}

fn mem_env() -> Arc<dyn Env> {
    Arc::new(MemEnv::new(None))
}

fn wal(probes: &mut Probes, scratch: &Path) -> Result<(), String> {
    let singles = probes.n(100_000);
    let groups = probes.n(2_000);
    let rotating = probes.n(1_500);
    let replay_bytes = probes.n(32 << 20);
    let syncs = probes.n(100);
    let mut one = frame(1);
    let mut sixty_four = frame(64);
    let append = err("WAL append");

    let [append_ns, append_mb, rotation_us] = try_median_each(HEAVY_BATCHES, || {
        let mut log = log_on(mem_env(), u64::MAX / 2, false)?;
        let t0 = Instant::now();
        for _ in 0..singles {
            log.append_group_frame(&mut one).map_err(&append)?;
        }
        let append_ns = t0.elapsed().as_nanos() as f64 / singles as f64;

        let mut log = log_on(mem_env(), u64::MAX / 2, false)?;
        let t0 = Instant::now();
        for _ in 0..groups {
            log.append_group_frame(&mut sixty_four).map_err(&append)?;
        }
        let append_mb =
            (groups * sixty_four.len() as u64) as f64 / 1e6 / t0.elapsed().as_secs_f64();

        // A small segment, so the log rolls every fifteen groups or so.
        let mut log = log_on(mem_env(), 256 << 10, false)?;
        let (mut rotations, mut rotation_ns) = (0u64, 0u64);
        for _ in 0..rotating {
            let outcome = log.append_group_frame(&mut sixty_four).map_err(&append)?;
            if outcome.rotated {
                rotations += 1;
                rotation_ns += outcome.rotation_ns;
            }
        }
        let rotation_us = rotation_ns as f64 / 1e3 / rotations.max(1) as f64;
        Ok([append_ns, append_mb, rotation_us])
    })?;
    probes.put("storage.wal.append_ns", append_ns);
    probes.put("storage.wal.append_mb_per_s", append_mb);
    probes.put("storage.wal.rotation_us", rotation_us);

    // One segment of 64-record groups, replayed whole.
    let env = mem_env();
    let mut log = log_on(Arc::clone(&env), u64::MAX / 2, false)?;
    let mut written = 0;
    while written < replay_bytes {
        log.append_group_frame(&mut sixty_four).map_err(&append)?;
        written += sixty_four.len() as u64;
    }
    drop(log);
    let [replay] = try_median_each(HEAVY_BATCHES, || {
        let t0 = Instant::now();
        let recovered = recover_segments(env.as_ref(), 0).map_err(err("recover_segments"))?;
        black_box(recovered.records.len());
        Ok([written as f64 / 1e6 / t0.elapsed().as_secs_f64()])
    })?;
    probes.put("storage.wal.replay_mb_per_s", replay);

    // The sandbox's device, through the real filesystem; informational.
    let dir = scratch.join("fsync-probe");
    let fs: Arc<dyn Env> = Arc::new(FsEnv::new(&dir).map_err(err("FsEnv::new"))?);
    let mut log = log_on(Arc::clone(&fs), u64::MAX / 2, true)?;
    let mut sync_ns = 0;
    for _ in 0..syncs {
        sync_ns += log.append_group_frame(&mut one).map_err(&append)?.sync_ns;
    }
    drop(log);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    probes.put("storage.wal.fsync_us", sync_ns as f64 / 1e3 / syncs as f64);
    Ok(())
}

/// Counts the reads a table makes, so a bloom false positive (an absent key
/// that still costs a block read) can be counted from outside.
struct CountingFile {
    inner: Arc<dyn RandomAccessFile>,
    reads: AtomicU64,
}

impl RandomAccessFile for CountingFile {
    fn read_at(&self, off: u64, len: usize) -> flodb_storage::Result<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_at(off, len)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

fn records(n: u64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::put(key(i), i + 1, value(i)))
        .collect()
}

fn sstable(probes: &mut Probes) -> Result<(), String> {
    let n = probes.n(50_000);
    let lookups = probes.n(20_000);
    let opens = probes.n(200);
    let cfg = CompactionConfig::default();
    let sorted = records(n);
    let bytes: u64 = sorted.iter().map(|r| r.encoded_len() as u64).sum();
    let mut rng = probes.rng(2);
    let picks: Vec<u64> = (0..lookups).map(|_| rng.below(n)).collect();

    let [build, iter, hit, absent, fp_share, open] = try_median_each(BATCHES, || {
        let env = mem_env();
        let name = table_file_name(1);
        let t0 = Instant::now();
        let file = env.new_writable(&name).map_err(err("new_writable"))?;
        let mut builder = TableBuilder::new(file, cfg.block_bytes, cfg.bloom_bits_per_key);
        for record in &sorted {
            builder.add(record).map_err(err("TableBuilder::add"))?;
        }
        builder.finish().map_err(err("TableBuilder::finish"))?;
        let build = bytes as f64 / 1e6 / t0.elapsed().as_secs_f64();

        let file = Arc::new(CountingFile {
            inner: env.open_random(&name).map_err(err("open_random"))?,
            reads: AtomicU64::new(0),
        });
        let t0 = Instant::now();
        for _ in 0..opens {
            let file: Arc<dyn RandomAccessFile> = Arc::clone(&file) as _;
            black_box(Table::open(file).map_err(err("Table::open"))?);
        }
        let open = t0.elapsed().as_nanos() as f64 / 1e3 / opens as f64;
        let table = Arc::new(
            Table::open(Arc::clone(&file) as Arc<dyn RandomAccessFile>)
                .map_err(err("Table::open"))?,
        );

        let t0 = Instant::now();
        let mut it = table.iter();
        it.seek_to_first().map_err(err("seek_to_first"))?;
        let mut seen = 0u64;
        while it.valid() {
            black_box(it.record());
            seen += 1;
            it.next().map_err(err("TableIterator::next"))?;
        }
        let iter = t0.elapsed().as_nanos() as f64 / seen.max(1) as f64;
        if seen != n {
            return Err(format!("table iteration saw {seen} of {n} records"));
        }

        let t0 = Instant::now();
        for &i in &picks {
            if table.get(&key(i)).map_err(err("Table::get"))?.is_none() {
                return Err(format!("table lost key {i}"));
            }
        }
        let hit = t0.elapsed().as_nanos() as f64 / lookups as f64;

        let reads_before = file.reads.load(Ordering::Relaxed);
        let t0 = Instant::now();
        for &i in &picks {
            if table
                .get(&absent_key(i))
                .map_err(err("Table::get"))?
                .is_some()
            {
                return Err(format!("table invented absent key {i}"));
            }
        }
        let absent = t0.elapsed().as_nanos() as f64 / lookups as f64;
        let false_positives = file.reads.load(Ordering::Relaxed) - reads_before;
        Ok([
            build,
            iter,
            hit,
            absent,
            false_positives as f64 / lookups as f64,
            open,
        ])
    })?;
    probes.put("storage.sstable.build_mb_per_s", build);
    probes.put("storage.sstable.iter_ns_per_entry", iter);
    probes.put("storage.sstable.get_hit_ns", hit);
    probes.put("storage.sstable.get_absent_ns", absent);
    probes.put("storage.sstable.bloom_fp_share", fp_share);
    probes.put("storage.sstable.open_us", open);
    Ok(())
}

fn cache(probes: &mut Probes) -> Result<(), String> {
    const TABLES: u64 = 8;
    let gets = probes.n(1_000_000);
    let env = mem_env();
    let cfg = CompactionConfig::default();
    for number in 1..=TABLES {
        let file = env
            .new_writable(&table_file_name(number))
            .map_err(err("new_writable"))?;
        let mut builder = TableBuilder::new(file, cfg.block_bytes, cfg.bloom_bits_per_key);
        for record in records(100) {
            builder.add(&record).map_err(err("TableBuilder::add"))?;
        }
        builder.finish().map_err(err("TableBuilder::finish"))?;
    }
    let defaults = DiskOptions::default();
    let cache = ShardedTableCache::new(env, defaults.cache_capacity, defaults.cache_shards);
    for number in 1..=TABLES {
        cache.get(number).map_err(err("TableCache::get"))?;
    }
    let [hit] = median_each(BATCHES, || {
        [ns_per(gets, || {
            for i in 0..gets {
                black_box(cache.get(1 + i % TABLES).is_ok());
            }
        })]
    });
    probes.put("storage.cache.hit_ns", hit);
    Ok(())
}

fn disk(probes: &mut Probes) -> Result<(), String> {
    // One Memtable's worth, sorted, as the persist thread hands it over.
    let flush_records = probes.n(90_000);
    let memtable = records(flush_records);
    let bytes: u64 = memtable.iter().map(|r| r.encoded_len() as u64).sum();
    let [flush] = try_median_each(HEAVY_BATCHES, || {
        let disk = DiskComponent::new(mem_env(), DiskOptions::default());
        let input = memtable.clone();
        let t0 = Instant::now();
        disk.flush_records(input).map_err(err("flush_records"))?;
        Ok([bytes as f64 / 1e6 / t0.elapsed().as_secs_f64()])
    })?;
    probes.put("storage.disk.flush_mb_per_s", flush);

    // Six overlapping flushes of uniform keys, then `compact_all`. Level
    // budgets are a tenth of the defaults so that 20 MB already fills three
    // levels; everything else is the default.
    let key_space = probes.n(90_000).max(4 * SCAN_KEYS);
    let per_flush = probes.n(22_000);
    let lookups = probes.n(20_000);
    let scans = probes.n(500);
    let options = DiskOptions {
        compaction: CompactionConfig {
            base_level_bytes: 1 << 20,
            target_file_bytes: 512 << 10,
            ..CompactionConfig::default()
        },
        ..DiskOptions::default()
    };
    let [compact_mb, write_amp, hit, absent, scan] = try_median_each(HEAVY_BATCHES, || {
        let mut rng = probes.rng(3);
        let env = mem_env();
        let disk = DiskComponent::new(Arc::clone(&env), options);
        let mut present = vec![false; key_space as usize];
        let mut seq = 0;
        for _ in 0..6 {
            let batch: Vec<Record> = (0..per_flush)
                .map(|_| {
                    let i = rng.below(key_space);
                    present[i as usize] = true;
                    seq += 1;
                    Record::put(key(i), seq, value(i))
                })
                .collect();
            disk.flush_records(batch).map_err(err("flush_records"))?;
        }
        let input: u64 = disk.stats().bytes_per_level.iter().sum();
        let written_before = env.bytes_written();
        let t0 = Instant::now();
        disk.compact_all().map_err(err("compact_all"))?;
        let compact_mb = input as f64 / 1e6 / t0.elapsed().as_secs_f64();
        let write_amp = (env.bytes_written() - written_before) as f64 / input as f64;

        let written: Vec<u64> = (0..key_space).filter(|&i| present[i as usize]).collect();
        let t0 = Instant::now();
        for _ in 0..lookups {
            let i = written[rng.below(written.len() as u64) as usize];
            if disk
                .get(&key(i))
                .map_err(err("DiskComponent::get"))?
                .is_none()
            {
                return Err(format!("disk component lost key {i}"));
            }
        }
        let hit = t0.elapsed().as_nanos() as f64 / lookups as f64;
        let t0 = Instant::now();
        for _ in 0..lookups {
            let i = rng.below(key_space);
            if disk
                .get(&absent_key(i))
                .map_err(err("DiskComponent::get"))?
                .is_some()
            {
                return Err(format!("disk component invented absent key {i}"));
            }
        }
        let absent = t0.elapsed().as_nanos() as f64 / lookups as f64;
        let t0 = Instant::now();
        for _ in 0..scans {
            let lo = rng.below(key_space - SCAN_KEYS);
            let found = disk
                .scan(&key(lo), &key(lo + SCAN_KEYS - 1))
                .map_err(err("DiskComponent::scan"))?;
            black_box(found.len());
        }
        let scan = t0.elapsed().as_nanos() as f64 / 1e3 / scans as f64;
        Ok([compact_mb, write_amp, hit, absent, scan])
    })?;
    probes.put("storage.disk.compact_mb_per_s", compact_mb);
    probes.put("storage.disk.compact_write_amp", write_amp);
    probes.put("storage.disk.get_hit_ns", hit);
    probes.put("storage.disk.get_absent_ns", absent);
    probes.put("storage.disk.scan100_us", scan);
    Ok(())
}

pub fn run(probes: &mut Probes, scratch: &Path) -> Result<(), String> {
    debug_assert_eq!(value(0).len(), VALUE_BYTES);
    wal(probes, scratch)?;
    sstable(probes)?;
    cache(probes)?;
    disk(probes)
}
