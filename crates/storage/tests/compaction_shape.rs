//! Compaction shape: both sides of the input-selection trade-off, at
//! budgets scaled down 128× from the defaults.
//!
//! The workload is the benchmark's `ingest` in miniature, run through a
//! bare `DiskComponent` on one thread with one seed: an ascending load of
//! 8 192 keys of 264 bytes (≈ 2.2 MB, three times the L1 + L2 budgets of
//! 64 + 640 KiB), then three passes of uniform overwrites, flushed 700
//! distinct keys at a time (≈ 190 KB, the 24 MiB Memtable scaled) and
//! compacted to quiescence after every flush, as the persist thread does.
//! Over the overwrite phase it measures
//!
//! - the **rewrite ratio**, env bytes written ÷ table bytes flushed (the
//!   component is ephemeral, so every env byte is a table byte), and
//! - the **space ratio**, live table bytes ÷ unique-key bytes, averaged
//!   over the quiescent points after each flush.
//!
//! Recorded values (deterministic; any machine):
//!
//! | input selection | rewrite ratio | space ratio |
//! |---|---|---|
//! | smallest key first at every level, no trivial moves (before) | 14.76 | 1.052 |
//! | compact pointer above the bottom level, trivial moves (now) | 11.56 | 1.072 |
//! | compact pointer at every level, trivial moves (rejected) | 7.74 | 1.351 |
//!
//! The test asserts the trade-off against the *before* row: the rewrite
//! ratio at least 15 % lower, the space ratio at most 5 % higher. The
//! rejected row, which spreads the bottom level over the whole key range
//! and so turns the level above it into duplicates, fails the second.
//! ARCHITECTURE.md, "Choosing compaction inputs", has the same trade-off
//! measured on the benchmark.

use std::collections::BTreeMap;
use std::sync::Arc;

use flodb_storage::compaction::CompactionConfig;
use flodb_storage::{DiskComponent, DiskOptions, Env, MemEnv, Record};

const KEYS: u64 = 8192;
const VALUE_BYTES: usize = 256;
const ENTRY_BYTES: u64 = 8 + VALUE_BYTES as u64;
const FLUSH_KEYS: usize = 700;
const OVERWRITE_PASSES: u64 = 3;

/// The ratios of the row "smallest key first at every level".
const BEFORE_REWRITE: f64 = 14.76;
const BEFORE_SPACE: f64 = 1.052;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The overwrite phase's `(rewrite ratio, space ratio)`.
fn overwrite_shape() -> (f64, f64) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let disk = DiskComponent::new(
        Arc::clone(&env),
        DiskOptions {
            compaction: CompactionConfig {
                base_level_bytes: 64 << 10,
                target_file_bytes: 16 << 10,
                block_bytes: 1024,
                ..CompactionConfig::default()
            },
            ..DiskOptions::default()
        },
    );
    let mut seq = 0u64;
    let mut flush = |keys: &mut dyn Iterator<Item = u64>| -> u64 {
        let records: Vec<Record> = keys
            .map(|k| {
                seq += 1;
                Record::put(k.to_be_bytes().as_slice(), seq, vec![seq as u8; VALUE_BYTES])
            })
            .collect();
        let before = env.bytes_written();
        disk.flush_records(records).unwrap();
        let flushed = env.bytes_written() - before;
        disk.compact_all().unwrap();
        flushed
    };

    let mut next = 0..KEYS;
    while !next.is_empty() {
        flush(&mut next.by_ref().take(FLUSH_KEYS));
    }

    let start = env.bytes_written();
    let (mut flushed, mut live, mut samples) = (0u64, 0u64, 0u64);
    let mut rng = 0x5EED_u64;
    let mut written = 0;
    while written < OVERWRITE_PASSES * KEYS {
        // Distinct keys, as a Memtable holds them after in-place updates.
        let mut batch = BTreeMap::new();
        while batch.len() < FLUSH_KEYS {
            batch.insert(lcg(&mut rng) % KEYS, ());
        }
        written += FLUSH_KEYS as u64;
        flushed += flush(&mut batch.into_keys());
        live += disk.stats().bytes_per_level.iter().sum::<u64>();
        samples += 1;
    }
    let rewrite = (env.bytes_written() - start) as f64 / flushed as f64;
    let space = live as f64 / samples as f64 / (KEYS * ENTRY_BYTES) as f64;
    (rewrite, space)
}

#[test]
fn uniform_overwrite_rewrites_less_without_taking_more_space() {
    let (rewrite, space) = overwrite_shape();
    assert!(
        rewrite <= BEFORE_REWRITE * 0.85,
        "rewrite ratio {rewrite:.3}: not 15 % below {BEFORE_REWRITE} (space ratio {space:.3})"
    );
    assert!(
        space <= BEFORE_SPACE * 1.05,
        "space ratio {space:.3}: over 5 % above {BEFORE_SPACE} (rewrite ratio {rewrite:.3})"
    );
}
