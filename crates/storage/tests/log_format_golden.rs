//! Log-format golden: the bytes of a WAL segment, a MANIFEST generation
//! and a `SHARDING` record.
//!
//! All three frame their records as `[len u32][crc u32][payload]`. The
//! codec that writes and reads that frame may move or be rewritten, but
//! none of that may change a byte on disk: a store written before the move
//! must reopen after it. A fixed script writes one file of each kind
//! through the public writers and compares the CRC of the file with the
//! value recorded before the three hand-written copies of the frame became
//! one `frame` module.

use std::sync::Arc;

use flodb_storage::manifest::{manifest_file_name, ManifestWriter};
use flodb_storage::record::{crc32, encode_record_parts};
use flodb_storage::sharding::SHARDING_FILE;
use flodb_storage::version::{FileMeta, VersionEdit};
use flodb_storage::wal::{wal_file_name, BatchAnnotation, WalWriter, FRAME_HEADER_BYTES};
use flodb_storage::{write_sharding, Env, MemEnv, ShardingSpec};

/// `(file length, crc32 of the file)`, recorded at the commit before the
/// codec move (6912d40).
const WAL_SEGMENT: (usize, u32) = (433, 0xd898_c8fe);
const MANIFEST: (usize, u32) = (408, 0x6dd5_2bb0);
const SHARDING: (usize, u32) = (28, 0x2a43_1fad);

fn file_len_and_crc(env: &dyn Env, name: &str) -> (usize, u32) {
    let file = env.open_random(name).unwrap();
    let bytes = file.read_at(0, file.len() as usize).unwrap();
    (bytes.len(), crc32(&bytes))
}

fn meta(number: u64, lo: u64, hi: u64) -> FileMeta {
    FileMeta {
        number,
        size: 4096 * number,
        smallest: Box::new(lo.to_be_bytes()),
        largest: Box::new(hi.to_be_bytes()),
        entries: hi - lo + 1,
        largest_seq: hi * 3,
    }
}

#[test]
fn wal_segment_bytes_match_the_recorded_ones() {
    let env = MemEnv::new(None);
    let mut w = WalWriter::create_segment(&env, 7, false).unwrap();

    // A single put: the one-record frame every point write commits.
    let mut frame = vec![0u8; FRAME_HEADER_BYTES];
    encode_record_parts(&mut frame, b"alpha", 1, Some(b"one"));
    w.append_group_frame(&mut frame).unwrap();

    // A sharded sub-batch: annotation first, then its records.
    frame.truncate(FRAME_HEADER_BYTES);
    BatchAnnotation {
        batch_id: 0x0123_4567_89AB_CDEF,
        shard: 2,
        shard_count: 3,
        ops: 3,
    }
    .encode_into(&mut frame);
    encode_record_parts(&mut frame, b"beta", 2, Some(&[0xB7; 300]));
    encode_record_parts(&mut frame, b"gamma", 3, Some(b""));
    encode_record_parts(&mut frame, &[0x00, 0xFF, 0x00], 4, Some(b"binary key"));
    w.append_group_frame(&mut frame).unwrap();

    // A delete.
    frame.truncate(FRAME_HEADER_BYTES);
    encode_record_parts(&mut frame, b"alpha", 5, None);
    w.append_group_frame(&mut frame).unwrap();
    w.finish().unwrap();

    assert_eq!(file_len_and_crc(&env, &wal_file_name(7)), WAL_SEGMENT);
}

#[test]
fn manifest_generation_bytes_match_the_recorded_ones() {
    let env = MemEnv::new(None);
    let mut w = ManifestWriter::create(&env, 4).unwrap();

    // Seed snapshot: the recovered layout re-stated as one edit.
    let mut seed = VersionEdit::default();
    seed.add(0, meta(9, 100, 250));
    seed.add(1, meta(5, 0, 99));
    seed.add(1, meta(6, 100, 199));
    w.append(&seed, 10).unwrap();

    // A flush, then a compaction recorded after a WAL retirement.
    let mut flush = VersionEdit::default();
    flush.add(0, meta(10, 40, 400));
    w.append(&flush, 11).unwrap();
    w.set_wal_oldest_live(12);
    let mut compaction = VersionEdit::default();
    compaction.delete(0, 9);
    compaction.delete(0, 10);
    compaction.delete(1, 6);
    compaction.add(1, meta(11, 40, 400));
    w.append(&compaction, 12).unwrap();

    assert_eq!(file_len_and_crc(&env, &manifest_file_name(4)), MANIFEST);
}

#[test]
fn sharding_record_bytes_match_the_recorded_ones() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let spec = ShardingSpec {
        shards: 6,
        hash_seed: 0xF10D_B5EE_D000_0001,
    };
    write_sharding(env.as_ref(), &spec).unwrap();
    assert_eq!(file_len_and_crc(env.as_ref(), SHARDING_FILE), SHARDING);
}
