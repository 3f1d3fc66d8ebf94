//! Write-ahead log: crash-durable record batches.
//!
//! LSMs append updates "to an on-disk commit-log before being applied to
//! the in-memory component" (§2.1) so recovery can reconstruct lost
//! operations. Each [`frame`] holds one commit group — a
//! batch of encoded [`Record`]s; recovery replays frames until the first
//! corrupt or truncated one (LevelDB semantics: a torn tail is data loss at
//! the point of the crash, not an error).

use crate::env::{Env, WritableFile};
use crate::error::{Result, StorageError};
use crate::frame::{self, Frames, Tail};
use crate::record::{crc32, encode_record_parts, Record};

/// Returns the canonical WAL file name for log `number`.
pub fn wal_file_name(number: u64) -> String {
    format!("{number:06}.log")
}

/// Parses a WAL segment file name back into its generation number.
pub fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_suffix(".log")?.parse().ok()
}

/// Bytes of the per-frame header. Group-commit callers reserve this much
/// at the start of their batch buffer so [`WalWriter::append_group_frame`]
/// can seal the frame in place.
pub use crate::frame::HEADER_BYTES as FRAME_HEADER_BYTES;

/// The value of a record's sequence field that marks it as an in-frame
/// annotation.
///
/// A log record's order is its position in the log, so the sequence field
/// of the record encoding carries no number here: the store writes `0` for
/// data records and this tag for annotations, which ride the record
/// encoding (no second format) but carry frame metadata, not data. Replay
/// decodes them into [`BatchAnnotation`]s instead of returning them among
/// the recovered records.
pub const ANNOTATION_SEQ: u64 = u64::MAX;

/// Metadata a sharded router stamps on each per-shard sub-batch frame.
///
/// When a cross-shard `WriteBatch` is split, every shard's sub-batch is
/// one group-commit frame opening with one of these. The shared
/// `batch_id` ties sibling frames together across shard WALs; `shard` /
/// `shard_count` say which slice this is of how many; `ops` is the
/// sub-batch's record count. Because a frame replays all-or-nothing, a
/// recovered annotation proves its whole sub-batch was recovered with it
/// — the per-shard half of the documented cross-shard atomicity rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAnnotation {
    /// Router-wide id shared by every sub-batch split from one `WriteBatch`.
    pub batch_id: u64,
    /// Which shard this sub-batch was routed to.
    pub shard: u32,
    /// How many shards received a non-empty sub-batch of the parent batch.
    pub shard_count: u32,
    /// Number of real records in this sub-batch (excluding the annotation).
    pub ops: u32,
}

impl BatchAnnotation {
    /// Encodes the annotation as a record (key = packed metadata,
    /// seq = [`ANNOTATION_SEQ`], tombstone) appended to `out`, suitable
    /// for placing at the head of a group-commit frame payload.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut key = [0u8; 20];
        key[..8].copy_from_slice(&self.batch_id.to_le_bytes());
        key[8..12].copy_from_slice(&self.shard.to_le_bytes());
        key[12..16].copy_from_slice(&self.shard_count.to_le_bytes());
        key[16..20].copy_from_slice(&self.ops.to_le_bytes());
        encode_record_parts(out, &key, ANNOTATION_SEQ, None);
    }

    fn decode(key: &[u8]) -> Result<Self> {
        if key.len() != 20 {
            return Err(StorageError::Corruption(format!(
                "wal annotation record key is {} bytes, expected 20",
                key.len()
            )));
        }
        Ok(Self {
            batch_id: u64::from_le_bytes(key[..8].try_into().expect("8 bytes")),
            shard: u32::from_le_bytes(key[8..12].try_into().expect("4 bytes")),
            shard_count: u32::from_le_bytes(key[12..16].try_into().expect("4 bytes")),
            ops: u32::from_le_bytes(key[16..20].try_into().expect("4 bytes")),
        })
    }
}

/// Magic bytes opening every generation-numbered WAL segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"FLODBSEG";

/// Bytes of the segment header: magic, generation (`u64`), and a CRC of
/// the generation so a damaged header is distinguishable from a torn one.
pub const SEGMENT_HEADER_BYTES: usize = 20;

/// Encodes the segment header for `generation`.
pub fn segment_header(generation: u64) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut h = [0u8; SEGMENT_HEADER_BYTES];
    h[..8].copy_from_slice(SEGMENT_MAGIC);
    h[8..16].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&h[8..16]);
    h[16..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Appends record batches to a log file.
pub struct WalWriter {
    file: Box<dyn WritableFile>,
    sync_on_write: bool,
    bytes: u64,
    /// Nanoseconds spent in per-append fsync since the last
    /// [`Self::take_sync_ns`]; 0 with `sync_on_write` off.
    sync_ns: u64,
}

impl WalWriter {
    /// Creates the segment file for `generation` — `sync_on_write` forces
    /// an fsync per appended frame (durability at the cost of latency) —
    /// and writes (and syncs) its header, then syncs the directory: fsyncing a new file's
    /// contents does not persist its directory entry, and a segment that
    /// vanishes with the directory after a crash would silently drop
    /// every fsync-acknowledged write it held. The returned writer's
    /// [`Self::bytes_written`] counts the header, so rotation thresholds
    /// compare against total file size.
    ///
    /// A crash before the header reaches disk leaves a short file, which
    /// [`replay_segment`] treats as an empty (torn) segment — never as
    /// recovered frames.
    pub fn create_segment(
        env: &dyn Env,
        generation: u64,
        sync_on_write: bool,
    ) -> Result<Self> {
        let file =
            env.new_writable_with_header(&wal_file_name(generation), &segment_header(generation))?;
        env.sync_dir()?;
        Ok(Self {
            file,
            sync_on_write,
            bytes: SEGMENT_HEADER_BYTES as u64,
            sync_ns: 0,
        })
    }

    /// Appends one commit group as a single frame, with one write.
    ///
    /// `frame` must start with [`FRAME_HEADER_BYTES`] of reserved space
    /// (see `GroupCommitConfig::frame_prefix`) followed by records
    /// serialized with [`encode_record_parts`] — exactly what
    /// [`replay_segment`] decodes. Writers encode into the shared group
    /// buffer and the group leader hands it here; the header is sealed
    /// into the reserved space, so the frame header is the only per-group
    /// overhead and the payload bytes are never re-copied on their way to
    /// the log.
    pub fn append_group_frame(&mut self, frame: &mut [u8]) -> Result<()> {
        frame::seal(frame);
        self.file.append(frame)?;
        if self.sync_on_write {
            self.sync_timed()?;
        }
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs the file, accumulating the elapsed time into the bucket
    /// drained by [`Self::take_sync_ns`].
    fn sync_timed(&mut self) -> Result<()> {
        let t0 = std::time::Instant::now();
        let result = self.file.sync();
        self.sync_ns += t0.elapsed().as_nanos() as u64;
        result
    }

    /// Drains the nanoseconds spent in per-append fsync since the last
    /// call (telemetry: attributed to the committed group by the log
    /// manager, which calls this right after each append and before any
    /// rotation swaps the writer).
    pub fn take_sync_ns(&mut self) -> u64 {
        std::mem::take(&mut self.sync_ns)
    }

    /// Total bytes appended so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flushes and closes the log.
    pub fn finish(mut self) -> Result<()> {
        self.file.sync()?;
        self.file.finish()
    }
}

/// The result of replaying one generation-numbered segment.
#[derive(Debug)]
pub struct SegmentReplay {
    /// Every record of every intact frame, in append order — the only
    /// order a log record has (the `seq` field is whatever the writer put
    /// there; the store writes 0 and recovery does not read it).
    pub records: Vec<Record>,
    /// Sub-batch annotations recovered from intact frames, in append
    /// order. Empty for unsharded stores; the sharded recovery sweep uses
    /// these to prove every recovered sub-batch is whole.
    pub annotations: Vec<BatchAnnotation>,
    /// Whether the segment ended cleanly at a frame boundary; a torn or
    /// corrupt tail (including a torn header) marks a crash point whose
    /// remainder was truncated. Diagnostic — sealed segments are
    /// expected clean, the newest one may not be.
    pub clean: bool,
}

/// Replays a generation-numbered segment created by
/// [`WalWriter::create_segment`], verifying its header.
///
/// A file opening with [`SEGMENT_MAGIC`] but shorter than the full
/// header is a segment torn at creation: empty, not clean. A complete
/// header with a CRC mismatch or a generation that does not match
/// `expected_generation` is corruption — an error, because no crash
/// interleaving produces it. So is a file whose first eight bytes are not
/// the magic: every segment is created with its header, and reading a
/// damaged magic as "no frames here" would silently drop the fsynced
/// frames behind it.
pub fn replay_segment(
    env: &dyn Env,
    name: &str,
    expected_generation: u64,
) -> Result<SegmentReplay> {
    let file = env.open_random(name)?;
    let data = file.read_at(0, file.len() as usize)?;
    if data.len() >= SEGMENT_MAGIC.len() && &data[..8] != SEGMENT_MAGIC.as_slice() {
        return Err(StorageError::Corruption(format!(
            "{name}: WAL segment does not open with the segment magic"
        )));
    }
    if data.len() < SEGMENT_HEADER_BYTES {
        // Torn at creation: nothing to recover.
        return Ok(SegmentReplay {
            records: Vec::new(),
            annotations: Vec::new(),
            clean: false,
        });
    }
    let generation = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(data[16..20].try_into().expect("4 bytes"));
    if crc32(&data[8..16]) != crc {
        return Err(StorageError::Corruption(format!(
            "{name}: WAL segment header checksum mismatch"
        )));
    }
    if generation != expected_generation {
        return Err(StorageError::Corruption(format!(
            "{name}: segment header claims generation {generation}, \
             file name says {expected_generation}"
        )));
    }
    replay_frames(&data[SEGMENT_HEADER_BYTES..])
}

/// Decodes every intact frame of `data`, stopping at the first torn or
/// corrupt one. Records tagged [`ANNOTATION_SEQ`] are decoded into
/// [`BatchAnnotation`]s instead of joining the recovered records.
fn replay_frames(data: &[u8]) -> Result<SegmentReplay> {
    let mut records = Vec::new();
    let mut annotations = Vec::new();
    let mut frames = Frames::new(data);
    for payload in frames.by_ref() {
        let mut p = 0;
        while p < payload.len() {
            let r = Record::decode_from(payload, &mut p).map_err(|e| {
                StorageError::Corruption(format!("wal frame decoded badly after crc pass: {e}"))
            })?;
            if r.seq == ANNOTATION_SEQ {
                annotations.push(BatchAnnotation::decode(&r.key)?);
                continue;
            }
            records.push(r);
        }
    }
    Ok(SegmentReplay {
        records,
        annotations,
        clean: frames.tail() == Tail::Clean,
    })
}

/// Test support, shared by this crate's unit tests and the integration
/// suites above it: `records` as an unsealed commit-group frame — the
/// reserved header space, then the encoded records — ready for
/// [`WalWriter::append_group_frame`].
#[doc(hidden)]
pub fn group_frame(records: &[Record]) -> Vec<u8> {
    let mut frame = vec![0u8; FRAME_HEADER_BYTES];
    for r in records {
        r.encode_into(&mut frame);
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;

    fn records(range: std::ops::Range<u64>) -> Vec<Record> {
        range
            .map(|i| Record::put(i.to_be_bytes().as_slice(), i, b"v".as_slice()))
            .collect()
    }

    /// Writes segment `generation` with one frame per batch; returns the
    /// file offset each frame ends at.
    fn write_segment(env: &MemEnv, generation: u64, batches: &[Vec<Record>]) -> Vec<usize> {
        let mut w = WalWriter::create_segment(env, generation, false).unwrap();
        let ends = batches
            .iter()
            .map(|batch| {
                w.append_group_frame(&mut group_frame(batch)).unwrap();
                w.bytes_written() as usize
            })
            .collect();
        w.finish().unwrap();
        ends
    }

    fn read_all(env: &MemEnv, name: &str) -> Vec<u8> {
        let file = env.open_random(name).unwrap();
        file.read_at(0, file.len() as usize).unwrap()
    }

    fn write_all(env: &MemEnv, name: &str, bytes: &[u8]) {
        env.new_writable(name).unwrap().append(bytes).unwrap();
    }

    #[test]
    fn segment_roundtrip_and_name_parsing() {
        assert_eq!(parse_wal_name("000007.log"), Some(7));
        assert_eq!(parse_wal_name("MANIFEST-000007"), None);
        assert_eq!(parse_wal_name("matrix.sst"), None);

        let env = MemEnv::new(None);
        let w = WalWriter::create_segment(&env, 3, false).unwrap();
        assert_eq!(w.bytes_written(), SEGMENT_HEADER_BYTES as u64);
        write_segment(&env, 3, &[records(0..10), records(10..20)]);

        let r = replay_segment(&env, &wal_file_name(3), 3).unwrap();
        assert_eq!(r.records.len(), 20);
        assert_eq!(r.records[5].key.as_ref(), 5u64.to_be_bytes());
        assert!(r.clean);

        // A header/name generation mismatch is corruption, not a tear.
        assert!(replay_segment(&env, &wal_file_name(3), 4).is_err());
    }

    #[test]
    fn header_only_segment_replays_empty() {
        let env = MemEnv::new(None);
        write_segment(&env, 1, &[]);
        let r = replay_segment(&env, &wal_file_name(1), 1).unwrap();
        assert!(r.records.is_empty());
        assert!(r.clean);
    }

    #[test]
    fn replay_stops_at_corrupt_crc() {
        let env = MemEnv::new(None);
        write_segment(&env, 1, &[records(0..5), records(5..9)]);
        let mut full = read_all(&env, &wal_file_name(1));
        // Flip a payload byte in the second frame.
        let flip_at = full.len() - 3;
        full[flip_at] ^= 0xFF;
        write_all(&env, &wal_file_name(1), &full);

        let r = replay_segment(&env, &wal_file_name(1), 1).unwrap();
        assert_eq!(r.records.len(), 5);
        assert!(!r.clean, "a corrupt tail must be reported");
    }

    #[test]
    fn group_frame_replays_identically_to_singles() {
        // A group of N records committed as one frame must recover the
        // exact same state as N single-record frames: recovery equivalence
        // is what lets group commit batch writers without touching replay.
        let env = MemEnv::new(None);
        let batch = {
            let mut records = records(0..25);
            records[7].value = None; // A tombstone inside the group.
            records
        };
        write_segment(&env, 1, std::slice::from_ref(&batch));
        let singles: Vec<Vec<Record>> = batch.iter().map(|r| vec![r.clone()]).collect();
        write_segment(&env, 2, &singles);

        let from_group = replay_segment(&env, &wal_file_name(1), 1).unwrap();
        let from_singles = replay_segment(&env, &wal_file_name(2), 2).unwrap();
        assert_eq!(from_group.records, from_singles.records);
        assert_eq!(from_group.records, batch);
    }

    #[test]
    fn torn_group_frame_truncates_cleanly() {
        // Crash mid-way through a group frame: every earlier frame
        // replays, the torn group is dropped whole (LevelDB semantics) —
        // no partial group, no error.
        let env = MemEnv::new(None);
        let ends = write_segment(&env, 1, &[records(0..10), records(10..30)]);
        let full = read_all(&env, &wal_file_name(1));
        assert_eq!(ends[1], full.len());
        // Tear the group frame at every prefix length: header-only, header
        // plus part of the payload, all the way to one byte short.
        for cut in ends[0]..ends[1] {
            write_all(&env, "torn.log", &full[..cut]);
            let r = replay_segment(&env, "torn.log", 1).unwrap();
            assert_eq!(r.records.len(), 10, "cut at {cut}");
            assert_eq!(r.clean, cut == ends[0], "cut at {cut}");
        }
        // The intact file still replays everything.
        let r = replay_segment(&env, &wal_file_name(1), 1).unwrap();
        assert_eq!(r.records.len(), 30);
    }

    #[test]
    fn file_without_the_segment_magic_is_corruption() {
        // Every segment is created with its header, so a complete file
        // that does not open with the magic is damage, not an older
        // format: intact, fsynced frames behind a flipped magic byte must
        // surface as an error, never as an empty or mis-parsed segment.
        let env = MemEnv::new(None);
        write_segment(&env, 117, &[records(0..10), records(10..20)]);
        let mut bytes = read_all(&env, &wal_file_name(117));
        bytes[3] ^= 0x01;
        write_all(&env, &wal_file_name(117), &bytes);
        let err = replay_segment(&env, &wal_file_name(117), 117).unwrap_err();
        assert!(matches!(err, StorageError::Corruption(_)), "got {err:?}");

        // Frames laid down from byte 0 with no header at all read the same.
        write_all(&env, &wal_file_name(118), &bytes[SEGMENT_HEADER_BYTES..]);
        let err = replay_segment(&env, &wal_file_name(118), 118).unwrap_err();
        assert!(matches!(err, StorageError::Corruption(_)), "got {err:?}");
    }

    #[test]
    fn torn_segment_header_is_an_empty_segment() {
        let env = MemEnv::new(None);
        let header = segment_header(9);
        for cut in 0..SEGMENT_HEADER_BYTES {
            write_all(&env, "torn.log", &header[..cut]);
            let r = replay_segment(&env, "torn.log", 9).unwrap();
            assert!(r.records.is_empty(), "cut at {cut}");
            assert!(!r.clean, "cut at {cut}");
        }
    }

    #[test]
    fn annotated_frames_replay_records_and_annotations_separately() {
        let env = MemEnv::new(None);
        let mut w = WalWriter::create_segment(&env, 1, false).unwrap();

        // Two annotated sub-batch frames (as a sharded router writes them)
        // plus one plain frame (as a point op writes it).
        let ann_a = BatchAnnotation {
            batch_id: 42,
            shard: 0,
            shard_count: 2,
            ops: 3,
        };
        let ann_b = BatchAnnotation {
            batch_id: 42,
            shard: 1,
            shard_count: 2,
            ops: 2,
        };
        let mut first_frame_end = 0;
        for (ann, batch) in [(ann_a, records(0..3)), (ann_b, records(3..5))] {
            let mut frame = vec![0u8; FRAME_HEADER_BYTES];
            ann.encode_into(&mut frame);
            frame.extend_from_slice(&group_frame(&batch)[FRAME_HEADER_BYTES..]);
            w.append_group_frame(&mut frame).unwrap();
            if first_frame_end == 0 {
                first_frame_end = w.bytes_written() as usize;
            }
        }
        w.append_group_frame(&mut group_frame(&records(5..6))).unwrap();
        w.finish().unwrap();

        let r = replay_segment(&env, &wal_file_name(1), 1).unwrap();
        assert_eq!(r.records.len(), 6, "annotations are not data records");
        assert_eq!(r.annotations, vec![ann_a, ann_b]);
        assert!(r.clean);
        assert!(r.records.iter().all(|rec| rec.seq != ANNOTATION_SEQ));

        // A torn second frame drops that sub-batch's annotation and records
        // together — whole-sub-batch semantics.
        let bytes = read_all(&env, &wal_file_name(1));
        write_all(&env, "torn.log", &bytes[..first_frame_end + 4]);
        let torn = replay_segment(&env, "torn.log", 1).unwrap();
        assert_eq!(torn.records.len(), 3);
        assert_eq!(torn.annotations, vec![ann_a]);
        assert!(!torn.clean);
    }

    #[test]
    fn tombstones_replay_from_a_synced_segment() {
        let env = MemEnv::new(None);
        let mut w = WalWriter::create_segment(&env, 1, true).unwrap();
        w.append_group_frame(&mut group_frame(&[Record::tombstone(b"k".as_slice(), 3)]))
            .unwrap();
        w.finish().unwrap();
        let r = replay_segment(&env, &wal_file_name(1), 1).unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(r.records[0].is_tombstone());
    }
}
