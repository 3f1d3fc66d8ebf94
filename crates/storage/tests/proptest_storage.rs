//! Property-based tests for the storage substrate: every on-disk format
//! must round-trip arbitrary data exactly, and the full disk component
//! must agree with a `BTreeMap` model under random flush/compact/query
//! sequences.

use std::collections::BTreeMap;
use std::sync::Arc;

use flodb_storage::block::{self, BlockBuilder, BlockCursor};
use flodb_storage::bloom::Bloom;
use flodb_storage::compaction::CompactionConfig;
use flodb_storage::env::{Env, MemEnv};
use flodb_storage::merge::{MergeCursor, ScanSource};
use flodb_storage::sstable::{verify_table, Table, TableBuilder};
use flodb_storage::wal::{
    group_frame, replay_segment, wal_file_name, WalWriter, SEGMENT_HEADER_BYTES,
};
use flodb_storage::{DiskComponent, DiskOptions, Record};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = Record> {
    (
        proptest::collection::vec(any::<u8>(), 0..40),
        any::<u64>(),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 0..200)),
    )
        .prop_map(|(key, seq, value)| Record {
            key: key.into_boxed_slice(),
            seq,
            value: value.map(Vec::into_boxed_slice),
        })
}

/// Sorted, key-deduplicated records, as table builders require.
fn arb_sorted_records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(arb_record(), 1..150).prop_map(|mut records| {
        records.sort_by(|a, b| a.key.cmp(&b.key).then(b.seq.cmp(&a.seq)));
        records.dedup_by(|next, first| next.key == first.key);
        records
    })
}

/// One flush of `disk_reopen_preserves_model`.
#[derive(Debug, Clone)]
enum Flush {
    /// Puts (`Some`) and deletes (`None`) of keys below 32.
    Overwrite(Vec<(u64, Option<u8>)>),
    /// Puts of this many fresh keys above every key so far: the flush's
    /// tables are disjoint from everything on disk, so they trivially move.
    Ascending(u64),
}

fn arb_flush() -> impl Strategy<Value = Flush> {
    prop_oneof![
        proptest::collection::vec(((0u64..32), proptest::option::of(any::<u8>())), 1..20)
            .prop_map(Flush::Overwrite),
        (100u64..600).prop_map(Flush::Ascending),
    ]
}

proptest! {
    #[test]
    fn record_encode_decode_roundtrip(record in arb_record()) {
        let mut buf = Vec::new();
        record.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), record.encoded_len());
        let mut pos = 0;
        let decoded = Record::decode_from(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(decoded, record);
    }

    #[test]
    fn block_roundtrip_and_lookup(records in arb_sorted_records()) {
        let mut builder = BlockBuilder::new();
        for r in &records {
            builder.add(r.into());
        }
        let encoded = builder.bytes().to_vec();
        let mut cursor = BlockCursor::new(encoded.clone()).unwrap();
        for r in &records {
            prop_assert!(cursor.valid());
            prop_assert_eq!(cursor.record(), r.into());
            cursor.advance().unwrap();
            // The lookup that never walks the whole block finds the same record.
            prop_assert_eq!(block::find(&encoded, &r.key).unwrap(), Some(r.into()));
        }
        prop_assert!(!cursor.valid());
    }

    #[test]
    fn bloom_has_no_false_negatives(
        keys in proptest::collection::hash_set(
            proptest::collection::vec(any::<u8>(), 1..24), 1..200),
    ) {
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let bloom = Bloom::build(refs.iter().copied(), refs.len(), 10);
        for key in &refs {
            prop_assert!(bloom.may_contain(key), "false negative for {key:?}");
        }
        // Round-trip through the encoded form too.
        let decoded = Bloom::decode(&bloom.encode());
        for key in &refs {
            prop_assert!(decoded.may_contain(key));
        }
    }

    #[test]
    fn sstable_roundtrip(records in arb_sorted_records()) {
        let env = MemEnv::new(None);
        let file = env.new_writable("t.sst").unwrap();
        let mut builder = TableBuilder::new(file, 512, 10);
        for r in &records {
            builder.add(r).unwrap();
        }
        let meta = builder.finish().unwrap();
        prop_assert_eq!(meta.entries, records.len() as u64);

        let table = Arc::new(Table::open(env.open_random("t.sst").unwrap()).unwrap());
        prop_assert_eq!(verify_table(&table).unwrap(), records.len() as u64);
        // Every record resolves by point lookup.
        for r in &records {
            let got = table.get(&r.key).unwrap();
            prop_assert_eq!(got.as_ref(), Some(r));
        }
        // Full iteration yields the records in order.
        let mut it = table.iter();
        it.seek_to_first().unwrap();
        let mut seen = Vec::new();
        while it.valid() {
            seen.push(it.record().to_record());
            it.next().unwrap();
        }
        prop_assert_eq!(seen, records);
    }

    #[test]
    fn sstable_seek_positions_at_lower_bound(
        records in arb_sorted_records(),
        probe in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let env = MemEnv::new(None);
        let file = env.new_writable("t.sst").unwrap();
        let mut builder = TableBuilder::new(file, 256, 10);
        for r in &records {
            builder.add(r).unwrap();
        }
        builder.finish().unwrap();
        let table = Arc::new(Table::open(env.open_random("t.sst").unwrap()).unwrap());
        let mut it = table.iter();
        it.seek(&probe).unwrap();
        let expected = records.iter().find(|r| r.key.as_ref() >= probe.as_slice());
        match expected {
            Some(r) => {
                prop_assert!(it.valid());
                prop_assert_eq!(it.record(), r.into());
            }
            None => prop_assert!(!it.valid()),
        }
    }

    #[test]
    fn merge_cursor_matches_a_max_seq_model(
        // Each table, and the in-memory run: (key, seq) pairs from a small
        // domain, so version runs inside one source and across sources are
        // common.
        tables in proptest::collection::vec(
            proptest::collection::vec((0u8..24, 0u64..40), 1..60), 0..6),
        run in proptest::collection::vec((0u8..24, 0u64..40), 0..40),
        probe in proptest::option::of(0u8..26),
        bound in proptest::option::of(0u64..42),
        stop in proptest::option::of(0usize..30),
    ) {
        // A record is a function of (key, seq): the same version met in
        // two sources is the same record, as after a replayed flush.
        let record = |&(key, seq): &(u8, u64)| Record {
            key: vec![key; 1 + usize::from(key % 3)].into_boxed_slice(),
            seq,
            value: (!(u64::from(key) + seq).is_multiple_of(3))
                .then(|| vec![key ^ seq as u8; seq as usize % 50].into()),
        };
        let sorted = |entries: &[(u8, u64)]| {
            let mut records: Vec<Record> = entries.iter().map(record).collect();
            records.sort_by(|a, b| a.key.cmp(&b.key).then(b.seq.cmp(&a.seq)));
            records.dedup_by(|next, first| next.key == first.key && next.seq == first.seq);
            records
        };
        let low: Box<[u8]> = probe.map_or_else(Box::default, |p| Box::from([p].as_slice()));
        let bound = bound.unwrap_or(u64::MAX);
        let mut model: BTreeMap<Box<[u8]>, Record> = BTreeMap::new();
        let mut fold = |records: &[Record]| {
            for r in records.iter().filter(|r| r.seq <= bound) {
                if model.get(&r.key).is_none_or(|m| r.seq > m.seq) {
                    model.insert(r.key.clone(), r.clone());
                }
            }
        };
        let env = MemEnv::new(None);
        let mut sources = Vec::new();
        for (i, entries) in tables.iter().enumerate() {
            let records = sorted(entries);
            fold(&records);
            let name = format!("{i}.sst");
            // Tiny blocks: a run of versions crosses what would be block
            // boundaries, and seeks land mid-table.
            let mut builder = TableBuilder::new(env.new_writable(&name).unwrap(), 128, 10);
            for r in &records {
                builder.add(r).unwrap();
            }
            builder.finish().unwrap();
            let table = Arc::new(Table::open(env.open_random(&name).unwrap()).unwrap());
            let mut it = table.iter();
            // Inputs the seek exhausts stand in for empty tables.
            match probe {
                Some(p) => it.seek(&[p]).unwrap(),
                None => it.seek_to_first().unwrap(),
            }
            sources.push(ScanSource::Table(it));
        }
        // The in-memory run sits among the tables, positioned as they are.
        let records = sorted(&run);
        fold(&records);
        let from_low: Vec<Record> = records.into_iter().filter(|r| r.key >= low).collect();
        sources.insert(sources.len() / 2, ScanSource::Memory(from_low.into_iter()));

        let mut cursor = MergeCursor::new(sources, bound).unwrap();
        let mut want: Vec<Record> = model.range(low..).map(|(_, r)| r.clone()).collect();
        let mut merged = Vec::new();
        while merged.len() < stop.unwrap_or(usize::MAX) {
            let Some(r) = cursor.next_merged().unwrap() else {
                break;
            };
            merged.push(r.to_record());
        }
        want.truncate(stop.unwrap_or(usize::MAX));
        prop_assert_eq!(merged, want);
        if stop.is_none() {
            prop_assert!(cursor.next_merged().unwrap().is_none(), "exhausted stays exhausted");
        }
    }

    #[test]
    fn wal_replay_returns_appended_batches(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 1..20), 1..10),
    ) {
        let env = MemEnv::new(None);
        let mut writer = WalWriter::create_segment(&env, 1, false).unwrap();
        for batch in &batches {
            writer.append_group_frame(&mut group_frame(batch)).unwrap();
        }
        writer.finish().unwrap();
        let replayed = replay_segment(&env, &wal_file_name(1), 1).unwrap();
        let expected: Vec<Record> = batches.iter().flatten().cloned().collect();
        prop_assert_eq!(replayed.records, expected);
        prop_assert!(replayed.clean);
    }

    #[test]
    fn wal_torn_tail_keeps_intact_prefix(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 1..10), 1..6),
        cut in any::<u16>(),
    ) {
        // Write all batches, then truncate the file at an arbitrary point:
        // replay must return a prefix of whole batches, never an error.
        let env = MemEnv::new(None);
        let name = wal_file_name(1);
        let mut frames = Vec::new(); // Cumulative end offset per batch.
        {
            let mut writer = WalWriter::create_segment(&env, 1, false).unwrap();
            for batch in &batches {
                writer.append_group_frame(&mut group_frame(batch)).unwrap();
                frames.push(writer.bytes_written());
            }
            writer.finish().unwrap();
        }
        let full = env.open_random(&name).unwrap();
        let total = full.len() as usize;
        let cut = cut as usize % (total + 1);
        let data = full.read_at(0, cut).unwrap();
        let mut truncated = env.new_writable("cut.log").unwrap();
        truncated.append(&data).unwrap();
        truncated.finish().unwrap();

        let replayed = replay_segment(&env, "cut.log", 1).unwrap();
        // The recovered records are exactly the batches whose frames fit
        // entirely under the cut (none when the cut is inside the segment
        // header).
        let whole: usize = frames.iter().take_while(|&&end| end as usize <= cut).count();
        let expected: Vec<Record> = batches[..whole].iter().flatten().cloned().collect();
        prop_assert_eq!(replayed.records, expected);
        let boundary = cut == SEGMENT_HEADER_BYTES || frames.contains(&(cut as u64));
        prop_assert_eq!(replayed.clean, boundary);
    }

    #[test]
    fn disk_component_matches_model(
        flushes in proptest::collection::vec(
            proptest::collection::vec(
                ((0u64..64), proptest::option::of(any::<u8>())), 1..30),
            1..8),
    ) {
        let opts = DiskOptions {
            compaction: CompactionConfig {
                l0_trigger: 2,
                base_level_bytes: 8 * 1024,
                target_file_bytes: 4 * 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        let disk = DiskComponent::new(Arc::new(MemEnv::new(None)), opts);
        let mut model: BTreeMap<u64, (u64, Option<u8>)> = BTreeMap::new();
        let mut seq = 0u64;
        for batch in &flushes {
            let records: Vec<Record> = batch
                .iter()
                .map(|(k, v)| {
                    seq += 1;
                    model.insert(*k, (seq, *v));
                    Record {
                        key: Box::from(k.to_be_bytes().as_slice()),
                        seq,
                        value: v.map(|b| Box::from([b].as_slice())),
                    }
                })
                .collect();
            disk.flush_records(records).unwrap();
            disk.compact_all().unwrap();
        }
        // Point lookups agree. Deleted keys may resolve to the tombstone
        // record or to nothing at all: bottom-level compaction is allowed
        // to drop tombstones once nothing older can resurface.
        for k in 0u64..64 {
            let got = disk.get(&k.to_be_bytes()).unwrap();
            match model.get(&k) {
                None => prop_assert!(got.is_none()),
                Some((seq, Some(value))) => {
                    let got = got.unwrap();
                    prop_assert_eq!(got.seq, *seq, "key {}", k);
                    let want = [*value];
                    prop_assert_eq!(got.value.as_deref(), Some(want.as_slice()));
                }
                Some((seq, None)) => {
                    if let Some(got) = got {
                        prop_assert!(got.is_tombstone(), "key {}", k);
                        prop_assert_eq!(got.seq, *seq, "key {}", k);
                    }
                }
            }
        }
        // A full scan yields the same freshest *live* records, in key
        // order (tombstones may or may not survive compaction).
        let scanned = disk.scan(&0u64.to_be_bytes(), &63u64.to_be_bytes()).unwrap();
        let want: Vec<(u64, u64)> = model
            .iter()
            .filter(|(_, (_, v))| v.is_some())
            .map(|(k, (s, _))| (*k, *s))
            .collect();
        let got: Vec<(u64, u64)> = scanned
            .iter()
            .filter(|r| !r.is_tombstone())
            .map(|r| (u64::from_be_bytes(r.key.as_ref().try_into().unwrap()), r.seq))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn disk_reopen_preserves_model(
        // Each flush is followed by a full compaction or not: flushes
        // that wait accumulate as overlapping L0 files for one merge.
        flushes in proptest::collection::vec((arb_flush(), any::<bool>()), 1..8),
    ) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
        let opts = DiskOptions {
            compaction: CompactionConfig {
                l0_trigger: 2,
                base_level_bytes: 8 * 1024,
                target_file_bytes: 4 * 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        // Track only live entries: tombstones may be dropped by the
        // bottom-level compaction.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let max_seq;
        let mut seq = 0u64;
        let mut fresh = 1000u64;
        {
            let disk = DiskComponent::open(Arc::clone(&env), opts).unwrap();
            for (flush, compact) in &flushes {
                let writes: Vec<(u64, Option<u8>)> = match flush {
                    Flush::Overwrite(batch) => batch.clone(),
                    Flush::Ascending(run) => {
                        fresh += run;
                        (fresh - run..fresh).map(|k| (k, Some(k as u8))).collect()
                    }
                };
                let records: Vec<Record> = writes
                    .iter()
                    .map(|(k, v)| {
                        seq += 1;
                        match v {
                            Some(_) => {
                                model.insert(*k, seq);
                            }
                            None => {
                                model.remove(k);
                            }
                        }
                        Record {
                            key: Box::from(k.to_be_bytes().as_slice()),
                            seq,
                            value: v.map(|b| Box::from([b].as_slice())),
                        }
                    })
                    .collect();
                disk.flush_records(records).unwrap();
                if *compact {
                    disk.compact_all().unwrap();
                }
            }
            disk.compact_all().unwrap();
            max_seq = disk.max_persisted_seq();
        }
        let disk = DiskComponent::open(Arc::clone(&env), opts).unwrap();
        for (k, want_seq) in &model {
            let got = disk.get(&k.to_be_bytes()).unwrap().unwrap();
            prop_assert_eq!(got.seq, *want_seq, "key {} after reopen", k);
        }
        // The persisted-seq watermark survives the reopen.
        prop_assert_eq!(disk.max_persisted_seq(), max_seq);
    }
}

/// Runs of keys at one sequence number, as the sharded router merges its
/// shards' scans.
fn runs(keys: &[&[&str]]) -> Vec<Run> {
    keys.iter()
        .map(|run| {
            let records = run
                .iter()
                .map(|k| Record::put(k.as_bytes(), 0, k.as_bytes()));
            records.collect::<Vec<_>>().into_iter()
        })
        .collect()
}

type Run = std::vec::IntoIter<Record>;

fn keys_of(cursor: &mut MergeCursor<Run>, most: usize) -> Vec<String> {
    let mut keys = Vec::new();
    while keys.len() < most {
        let Some(r) = cursor.next_merged().unwrap() else {
            break;
        };
        keys.push(String::from_utf8(r.key.to_vec()).unwrap());
    }
    keys
}

#[test]
fn merge_cursor_orders_disjoint_runs_globally() {
    let sources = runs(&[&["b", "e", "h"], &["a", "f"], &[], &["c", "d", "g"]]);
    let mut cursor = MergeCursor::new(sources, u64::MAX).unwrap();
    assert_eq!(
        keys_of(&mut cursor, usize::MAX),
        ["a", "b", "c", "d", "e", "f", "g", "h"]
    );
}

#[test]
fn merge_cursor_stopped_mid_merge_resumes_where_it_stopped() {
    let mut cursor = MergeCursor::new(runs(&[&["a", "c"], &["b", "d"]]), u64::MAX).unwrap();
    assert_eq!(keys_of(&mut cursor, 2), ["a", "b"]);
    assert_eq!(keys_of(&mut cursor, usize::MAX), ["c", "d"]);
}

#[test]
fn merge_cursor_over_no_or_empty_sources_yields_nothing() {
    for sources in [runs(&[]), runs(&[&[], &[]])] {
        let mut cursor = MergeCursor::new(sources, u64::MAX).unwrap();
        assert!(cursor.next_merged().unwrap().is_none());
    }
}
