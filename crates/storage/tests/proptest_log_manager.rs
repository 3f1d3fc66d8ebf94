//! Property-based tests for the WAL lifecycle manager: arbitrary batch
//! streams over rotating segments, torn at arbitrary byte offsets, must
//! recover exactly a whole-batch prefix — across generation boundaries,
//! and all-or-nothing for a batch whose frame straddles into a fresh
//! segment.

use std::sync::Arc;

use flodb_storage::env::{crash_image, Env, MemEnv};
use flodb_storage::log_manager::{recover_segments, LogConfig, LogManager};
use flodb_storage::wal::{group_frame, wal_file_name, SEGMENT_HEADER_BYTES};
use flodb_storage::Record;
use proptest::prelude::*;

/// One appended batch: `count` records starting at key/seq `first`.
fn batch_records(first: u64, count: u64, value_bytes: usize) -> Vec<Record> {
    (first..first + count)
        .map(|i| Record::put(i.to_be_bytes().as_slice(), i + 1, vec![i as u8; value_bytes]))
        .collect()
}

/// Appends `records` as one group frame (what a commit group emits).
fn append_group(lm: &mut LogManager, records: &[Record]) -> flodb_storage::log_manager::AppendOutcome {
    lm.append_group_frame(&mut group_frame(records)).unwrap()
}

/// Where each batch landed: its generation, and its frame's end offset
/// within that generation's file.
struct BatchPlacement {
    generation: u64,
    frame_end: u64,
}

/// Builds a multi-generation log from `batches` (sizes in records) and
/// returns the records per batch plus each batch's placement.
fn build_log(
    env: Arc<MemEnv>,
    segment_max: u64,
    batch_sizes: &[u64],
    value_bytes: usize,
) -> (LogManager, Vec<Vec<Record>>, Vec<BatchPlacement>) {
    let mut lm = LogManager::create(
        env as Arc<dyn Env>,
        LogConfig {
            segment_max_bytes: segment_max,
            sync_on_write: false,
        },
        1,
    )
    .unwrap();
    let mut batches = Vec::new();
    let mut placements = Vec::new();
    let mut next_key = 0u64;
    for &size in batch_sizes {
        let records = batch_records(next_key, size, value_bytes);
        next_key += size;
        let generation = lm.active_generation();
        let before = lm.active_bytes();
        let outcome = append_group(&mut lm, &records);
        let frame_end = if outcome.rotated {
            // The batch is the last frame of the now-sealed generation.
            lm.sealed().last().unwrap().bytes
        } else {
            outcome.active_bytes
        };
        assert!(frame_end > before, "appends must grow the file");
        batches.push(records);
        placements.push(BatchPlacement {
            generation,
            frame_end,
        });
    }
    (lm, batches, placements)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn torn_newest_segment_recovers_whole_batch_prefix(
        batch_sizes in proptest::collection::vec(1u64..8, 4..40),
        segment_max in 192u64..1024,
        cut_seed in any::<u32>(),
    ) {
        let env = Arc::new(MemEnv::new(None));
        let (lm, batches, placements) =
            build_log(Arc::clone(&env), segment_max, &batch_sizes, 24);
        let newest = lm.active_generation();
        prop_assert_eq!(
            lm.live_generations() as usize,
            env.list().unwrap().len(),
            "every live generation is one file"
        );

        // Tear the newest segment at an arbitrary offset (uniform over the
        // file, header included).
        let name = wal_file_name(newest);
        let len = env.open_random(&name).unwrap().len() as usize;
        let cut = cut_seed as usize % (len + 1);
        let torn = crash_image(env.as_ref(), &name, cut).unwrap();

        let recovered = recover_segments(&torn, 0).unwrap();

        // Expected: every batch in an older (sealed, clean) generation,
        // plus the newest generation's batches whose frames fit whole
        // under the cut — a prefix at batch granularity, across the
        // generation boundary, never a partial batch.
        let expected: Vec<Record> = batches
            .iter()
            .zip(&placements)
            .filter(|(_, p)| {
                p.generation < newest
                    || (cut >= SEGMENT_HEADER_BYTES && p.frame_end as usize <= cut)
            })
            .flat_map(|(b, _)| b.iter().cloned())
            .collect();
        prop_assert_eq!(recovered.records, expected);

        // Untouched, everything recovers.
        let full = recover_segments(env.as_ref(), 0).unwrap();
        let all: Vec<Record> = batches.iter().flatten().cloned().collect();
        prop_assert_eq!(full.records, all);
        prop_assert_eq!(full.max_generation, newest);
    }

    #[test]
    fn recovery_respects_oldest_live_mark(
        batch_sizes in proptest::collection::vec(1u64..6, 6..30),
        segment_max in 192u64..768,
    ) {
        let env = Arc::new(MemEnv::new(None));
        let (lm, batches, placements) =
            build_log(Arc::clone(&env), segment_max, &batch_sizes, 24);
        if lm.sealed().is_empty() {
            // No rotation under this parameter draw (shim has no assume):
            // nothing generation-spanning to check.
            return;
        }
        // Pretend everything up to the newest sealed generation was
        // checkpointed: recovery from the mark must see exactly the
        // active segment's batches.
        let mark = lm.active_generation();
        let recovered = recover_segments(env.as_ref(), mark).unwrap();
        let expected: Vec<Record> = batches
            .iter()
            .zip(&placements)
            .filter(|(_, p)| p.generation >= mark)
            .flat_map(|(b, _)| b.iter().cloned())
            .collect();
        prop_assert_eq!(recovered.records, expected);
    }
}

#[test]
fn batch_opening_a_fresh_segment_recovers_all_or_nothing() {
    // Deterministic rotation-straddling case: force a rotation, then make
    // the *first frame of the new segment* a multi-record batch and tear
    // it at every offset. Either the whole batch recovers or none of it —
    // and every batch from the previous generation always recovers.
    let env = Arc::new(MemEnv::new(None));
    let mut lm = LogManager::create(
        Arc::clone(&env) as Arc<dyn Env>,
        LogConfig {
            segment_max_bytes: 256,
            sync_on_write: false,
        },
        1,
    )
    .unwrap();

    // Fill generation 1 until it rotates.
    let mut appended = Vec::new();
    let mut next_key = 0u64;
    loop {
        let records = batch_records(next_key, 3, 32);
        next_key += 3;
        let rotated = append_group(&mut lm, &records).rotated;
        appended.extend(records);
        if rotated {
            break;
        }
    }
    let old_generation_records = appended.clone();

    // The straddling batch: first frame of the fresh generation.
    let straddler = batch_records(next_key, 5, 32);
    let outcome = append_group(&mut lm, &straddler);
    assert!(!outcome.rotated, "the straddler must stay in the new segment");
    let newest = lm.active_generation();
    assert_eq!(newest, 2);

    let name = wal_file_name(newest);
    let len = env.open_random(&name).unwrap().len() as usize;
    let frame_start = SEGMENT_HEADER_BYTES;
    for cut in 0..=len {
        let torn = crash_image(env.as_ref(), &name, cut).unwrap();
        let recovered = recover_segments(&torn, 0).unwrap();
        if cut < len {
            assert_eq!(
                recovered.records, old_generation_records,
                "cut at {cut}: a partially present straddler must vanish whole"
            );
            if cut > frame_start {
                assert!(
                    recovered.records.len() >= old_generation_records.len(),
                    "cut at {cut}: the sealed generation must survive intact"
                );
            }
        } else {
            assert_eq!(
                recovered.records.len(),
                old_generation_records.len() + straddler.len(),
                "the intact file recovers the straddler whole"
            );
        }
    }
}
