//! Format golden: the bytes of every table a flush or a compaction writes.
//!
//! The merge, the builders and the bloom construction may be rewritten for
//! speed, but none of that may change a byte on disk: same compaction
//! decisions, same blocks, same filters, same footers. This test replays a
//! fixed-seed workload — overlapping flushes with same-key version runs,
//! tombstones and empty values, then compaction to quiescence — and
//! compares the CRC of every `.sst` file ever written with the values
//! recorded before the borrowed-record merge landed.
//!
//! Re-recorded once since, for a compaction *decision*, not a format: with
//! trivial moves, the second flush's L0→L1 output overflows L1 and two of
//! its files (`000009`, `000010`), which overlap nothing in L2, now move
//! there instead of being rewritten — the old list had them again, byte for
//! byte, as `000013` and `000014`. Every other table is the same bytes: the
//! first flush's three tables (`000001`–`000003`, written before any
//! compaction) and everything up to `000012` under the same numbers, and
//! the old `000015`–`000035` as `000013`–`000033`.

use std::collections::BTreeSet;
use std::sync::Arc;

use flodb_storage::compaction::CompactionConfig;
use flodb_storage::sstable::table_checksum;
use flodb_storage::{DiskComponent, DiskOptions, Env, MemEnv, Record};

/// `(file, crc32)` of every table, in the order the files were written.
const GOLDEN: &[(&str, u32)] = &[
    ("000001.sst", 0x6dfd2aa8),
    ("000002.sst", 0x7c6e7203),
    ("000003.sst", 0xb7259aef),
    ("000004.sst", 0xcc5d645e),
    ("000005.sst", 0xada1d859),
    ("000006.sst", 0xf41bb9f6),
    ("000007.sst", 0xd7f98640),
    ("000008.sst", 0xc152574b),
    ("000009.sst", 0x7cb73bea),
    ("000010.sst", 0xe5e40f28),
    ("000011.sst", 0x8769f582),
    ("000012.sst", 0x8d82e79a),
    ("000013.sst", 0xe86589d4),
    ("000014.sst", 0x7379a37c),
    ("000015.sst", 0xa4b0fcbd),
    ("000016.sst", 0x2129e636),
    ("000017.sst", 0xacec12ba),
    ("000018.sst", 0xc99249b0),
    ("000019.sst", 0x831a5d01),
    ("000020.sst", 0xf79cb76e),
    ("000021.sst", 0x3f0e421c),
    ("000022.sst", 0x7ed9d544),
    ("000023.sst", 0x68ff9c56),
    ("000024.sst", 0x878acb06),
    ("000025.sst", 0xdc8b7a30),
    ("000026.sst", 0xf7b487fc),
    ("000027.sst", 0x42de321a),
    ("000028.sst", 0x1dcc4142),
    ("000029.sst", 0xe5c003bf),
    ("000030.sst", 0x13026972),
    ("000031.sst", 0xc4443014),
    ("000032.sst", 0x1896812c),
    ("000033.sst", 0x58bfa24d),
];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Checksums the tables that appeared since the last call.
fn record_new_tables(env: &Arc<dyn Env>, seen: &mut BTreeSet<String>, out: &mut Vec<(String, u32)>) {
    let mut names = env.list().unwrap();
    names.sort();
    for name in names {
        if name.ends_with(".sst") && seen.insert(name.clone()) {
            let crc = table_checksum(&env.open_random(&name).unwrap()).unwrap();
            out.push((name, crc));
        }
    }
}

#[test]
fn every_flush_and_compaction_output_matches_the_recorded_bytes() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let disk = DiskComponent::new(
        Arc::clone(&env),
        DiskOptions {
            compaction: CompactionConfig {
                l0_trigger: 2,
                base_level_bytes: 64 * 1024,
                target_file_bytes: 32 * 1024,
                block_bytes: 1024,
                ..CompactionConfig::default()
            },
            ..DiskOptions::default()
        },
    );
    let mut rng = 0x000F_10DB_u64;
    let mut seq = 0u64;
    let mut seen = BTreeSet::new();
    let mut tables = Vec::new();
    for _ in 0..4 {
        // Unsorted, with repeated keys: the flush sorts and keeps every
        // version as a newest-first run.
        let batch: Vec<Record> = (0..1500)
            .map(|_| {
                seq += 1;
                let key = (lcg(&mut rng) % 4000).to_be_bytes();
                match lcg(&mut rng) % 10 {
                    0 => Record::tombstone(key.as_slice(), seq),
                    n => {
                        let len = (lcg(&mut rng) % 96) as usize * usize::from(n != 1);
                        Record::put(key.as_slice(), seq, vec![seq as u8; len])
                    }
                }
            })
            .collect();
        disk.flush_records(batch).unwrap();
        record_new_tables(&env, &mut seen, &mut tables);
        // One step at a time, so intermediate outputs a later step deletes
        // are checksummed too.
        while disk.maybe_compact().unwrap() {
            record_new_tables(&env, &mut seen, &mut tables);
        }
    }
    let stats = disk.stats();
    assert!(
        stats.files_per_level.iter().filter(|&&n| n > 0).count() >= 2 && stats.compactions >= 4,
        "the workload must exercise several levels: {stats:?}"
    );
    let golden: Vec<(String, u32)> = GOLDEN.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    if tables != golden {
        // Printed as source, so an intended format change can paste it.
        let listing: String = tables
            .iter()
            .map(|(name, crc)| format!("    ({name:?}, {crc:#010x}),\n"))
            .collect();
        panic!("table bytes changed; the files written now are:\n{listing}");
    }
}
