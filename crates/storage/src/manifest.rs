//! The MANIFEST: a durable log of version edits.
//!
//! LevelDB records every change to the file layout (flush added a table,
//! compaction replaced tables) as a version edit appended to a manifest
//! file, so reopening a database can reconstruct the current version
//! without scanning tables. This module reproduces that mechanism:
//!
//! - each generation is one append-only file `MANIFEST-<gen>`;
//! - every record is a framed, checksummed [`VersionEdit`] plus the file
//!   counter needed to resume allocation;
//! - recovery replays the highest intact generation and then starts a
//!   fresh generation seeded with a snapshot edit, after which older
//!   generations and orphaned tables can be deleted.
//!
//! Records are [`frame`]s, like the WAL's; a torn or corrupt
//! tail is treated as the crash point, not an error.

use crate::env::{Env, WritableFile};
use crate::error::{Result, StorageError};
use crate::frame::{self, Frames};
use crate::version::{FileMeta, VersionEdit};

/// Returns the canonical manifest file name for `generation`.
pub fn manifest_file_name(generation: u64) -> String {
    format!("MANIFEST-{generation:06}")
}

/// Parses a manifest file name back into its generation.
pub fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("MANIFEST-")?.parse().ok()
}

fn encode_file(meta: &FileMeta, out: &mut Vec<u8>) {
    out.extend_from_slice(&meta.number.to_le_bytes());
    out.extend_from_slice(&meta.size.to_le_bytes());
    out.extend_from_slice(&meta.entries.to_le_bytes());
    out.extend_from_slice(&meta.largest_seq.to_le_bytes());
    out.extend_from_slice(&(meta.smallest.len() as u32).to_le_bytes());
    out.extend_from_slice(&meta.smallest);
    out.extend_from_slice(&(meta.largest.len() as u32).to_le_bytes());
    out.extend_from_slice(&meta.largest);
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(StorageError::Corruption(
                "manifest record truncated".into(),
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn decode_file(&mut self) -> Result<FileMeta> {
        let number = self.u64()?;
        let size = self.u64()?;
        let entries = self.u64()?;
        let largest_seq = self.u64()?;
        let klen = self.u32()? as usize;
        let smallest = Box::from(self.take(klen)?);
        let klen = self.u32()? as usize;
        let largest = Box::from(self.take(klen)?);
        Ok(FileMeta {
            number,
            size,
            smallest,
            largest,
            entries,
            largest_seq,
        })
    }
}

/// Encodes one manifest record: the edit, the post-edit file counter, and
/// the oldest-live WAL generation (0 = unrecorded; see
/// [`ManifestWriter::set_wal_oldest_live`]).
fn encode_record(edit: &VersionEdit, next_file: u64, wal_oldest_live: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(&next_file.to_le_bytes());
    payload.extend_from_slice(&(edit.added.len() as u32).to_le_bytes());
    for (level, meta) in &edit.added {
        payload.push(*level as u8);
        encode_file(meta, &mut payload);
    }
    payload.extend_from_slice(&(edit.deleted.len() as u32).to_le_bytes());
    for (level, number) in &edit.deleted {
        payload.push(*level as u8);
        payload.extend_from_slice(&number.to_le_bytes());
    }
    payload.extend_from_slice(&wal_oldest_live.to_le_bytes());
    payload
}

/// Decodes one manifest record payload.
///
/// The trailing oldest-live WAL generation is optional so manifests
/// written before the WAL lifecycle subsystem still decode (they report
/// 0, i.e. "scan every log generation").
fn decode_record(payload: &[u8]) -> Result<(VersionEdit, u64, u64)> {
    let mut c = Cursor {
        data: payload,
        pos: 0,
    };
    let next_file = c.u64()?;
    let mut edit = VersionEdit::default();
    let added = c.u32()?;
    for _ in 0..added {
        let level = c.u8()? as usize;
        edit.added.push((level, c.decode_file()?));
    }
    let deleted = c.u32()?;
    for _ in 0..deleted {
        let level = c.u8()? as usize;
        edit.deleted.push((level, c.u64()?));
    }
    let wal_oldest_live = if c.pos + 8 <= c.data.len() {
        c.u64()?
    } else {
        0
    };
    Ok((edit, next_file, wal_oldest_live))
}

/// Appends version edits to one manifest generation.
pub struct ManifestWriter {
    file: Box<dyn WritableFile>,
    generation: u64,
    /// Oldest-live WAL generation, carried by every appended record so the
    /// latest intact record always holds the current mark (sticky).
    wal_oldest_live: u64,
}

impl ManifestWriter {
    /// Creates generation `generation` on `env`.
    pub fn create(env: &dyn Env, generation: u64) -> Result<Self> {
        let file = env.new_writable(&manifest_file_name(generation))?;
        Ok(Self {
            file,
            generation,
            wal_oldest_live: 0,
        })
    }

    /// Returns this writer's generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Sets the oldest-live WAL generation stamped into every record from
    /// now on. Recovery scans only log generations at or above the last
    /// intact record's mark, so this must be advanced *before* the
    /// superseded segments are deleted (append a record to persist it).
    pub fn set_wal_oldest_live(&mut self, generation: u64) {
        self.wal_oldest_live = generation;
    }

    /// Appends one framed, checksummed edit record and syncs it.
    pub fn append(&mut self, edit: &VersionEdit, next_file: u64) -> Result<()> {
        let mut framed = Vec::new();
        frame::push(&mut framed, &encode_record(edit, next_file, self.wal_oldest_live));
        self.file.append(&framed)?;
        self.file.sync()
    }
}

/// The result of replaying a manifest generation.
#[derive(Debug)]
pub struct RecoveredManifest {
    /// Generation that was replayed.
    pub generation: u64,
    /// Every intact edit, in append order.
    pub edits: Vec<VersionEdit>,
    /// File counter recorded by the last intact record.
    pub next_file: u64,
    /// Oldest-live WAL generation recorded by the last intact record
    /// (0 when never recorded: scan every log generation).
    pub wal_oldest_live: u64,
}

/// Finds and replays the newest **intact** manifest generation on `env`.
///
/// Returns `None` when no manifest exists (a fresh database). Replay stops
/// at the first torn or corrupt frame, LevelDB-style: the tail written
/// during a crash is forfeit, everything before it is recovered.
///
/// A newest generation with *zero* intact records is a stillborn
/// creation: the open that created it died (crash or I/O failure)
/// before its seed snapshot landed, so the generation before it still
/// describes the true file layout. Recovery falls back to the newest
/// generation holding at least one intact record — letting the empty
/// file shadow the intact one would silently drop every table. The
/// stillborn file itself needs no cleanup: the next successful open
/// recreates (truncates) exactly that generation number and prunes
/// everything older once it is seeded.
pub fn recover(env: &dyn Env) -> Result<Option<RecoveredManifest>> {
    let mut generations: Vec<u64> = env
        .list()?
        .iter()
        .filter_map(|n| parse_manifest_name(n))
        .collect();
    generations.sort_unstable();
    for (idx, &generation) in generations.iter().enumerate().rev() {
        let file = env.open_random(&manifest_file_name(generation))?;
        let data = file.read_at(0, file.len() as usize)?;
        let mut edits = Vec::new();
        let mut next_file = 1u64;
        let mut wal_oldest_live = 0u64;
        for payload in Frames::new(&data) {
            let (edit, nf, oldest) = decode_record(payload)?;
            edits.push(edit);
            next_file = nf;
            wal_oldest_live = oldest;
        }
        if edits.is_empty() && idx > 0 {
            continue; // Stillborn generation; try the one before it.
        }
        return Ok(Some(RecoveredManifest {
            generation,
            edits,
            next_file,
            wal_oldest_live,
        }));
    }
    Ok(None)
}

/// Deletes manifest generations older than `keep`.
pub fn prune_old_generations(env: &dyn Env, keep: u64) -> Result<()> {
    for name in env.list()? {
        if let Some(gen) = parse_manifest_name(&name) {
            if gen < keep {
                env.delete(&name)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;

    fn meta(number: u64, lo: u64, hi: u64) -> FileMeta {
        FileMeta {
            number,
            size: 4096,
            smallest: Box::new(lo.to_be_bytes()),
            largest: Box::new(hi.to_be_bytes()),
            entries: hi - lo + 1,
            largest_seq: hi,
        }
    }

    #[test]
    fn record_roundtrip() {
        let mut edit = VersionEdit::default();
        edit.add(0, meta(7, 10, 20));
        edit.add(3, meta(8, 0, 5));
        edit.delete(1, 2);
        let payload = encode_record(&edit, 42, 7);
        let (decoded, next_file, oldest) = decode_record(&payload).unwrap();
        assert_eq!(next_file, 42);
        assert_eq!(oldest, 7);
        assert_eq!(decoded.added.len(), 2);
        assert_eq!(decoded.added[0].0, 0);
        assert_eq!(decoded.added[0].1, meta(7, 10, 20));
        assert_eq!(decoded.added[1].0, 3);
        assert_eq!(decoded.deleted, vec![(1, 2)]);
    }

    #[test]
    fn empty_env_recovers_to_none() {
        let env = MemEnv::new(None);
        assert!(recover(&env).unwrap().is_none());
    }

    #[test]
    fn write_then_recover() {
        let env = MemEnv::new(None);
        let mut w = ManifestWriter::create(&env, 1).unwrap();
        let mut e1 = VersionEdit::default();
        e1.add(0, meta(1, 0, 9));
        w.append(&e1, 2).unwrap();
        let mut e2 = VersionEdit::default();
        e2.delete(0, 1);
        e2.add(1, meta(2, 0, 9));
        w.append(&e2, 3).unwrap();

        let r = recover(&env).unwrap().unwrap();
        assert_eq!(r.generation, 1);
        assert_eq!(r.edits.len(), 2);
        assert_eq!(r.next_file, 3);
        assert_eq!(r.edits[1].deleted, vec![(0, 1)]);
    }

    #[test]
    fn newest_generation_wins() {
        let env = MemEnv::new(None);
        let mut w1 = ManifestWriter::create(&env, 1).unwrap();
        let mut e = VersionEdit::default();
        e.add(0, meta(1, 0, 9));
        w1.append(&e, 2).unwrap();

        let mut w2 = ManifestWriter::create(&env, 2).unwrap();
        let mut e = VersionEdit::default();
        e.add(1, meta(5, 0, 9));
        w2.append(&e, 6).unwrap();

        let r = recover(&env).unwrap().unwrap();
        assert_eq!(r.generation, 2);
        assert_eq!(r.edits.len(), 1);
        assert_eq!(r.edits[0].added[0].0, 1);
        assert_eq!(r.next_file, 6);
    }

    #[test]
    fn torn_or_corrupt_tail_is_the_crash_point() {
        // What counts as torn or corrupt is `frame::Frames`' decision (and
        // tested there); the manifest's is what to do about it: keep the
        // intact prefix, report no error.
        let env = MemEnv::new(None);
        let mut e = VersionEdit::default();
        e.add(0, meta(1, 0, 9));
        let mut intact = Vec::new();
        frame::push(&mut intact, &encode_record(&e, 5, 0));
        let mut corrupt = Vec::new();
        frame::push(&mut corrupt, &encode_record(&e, 6, 0));
        *corrupt.last_mut().unwrap() ^= 0xFF;
        for (generation, tail) in [(1, [0xFF, 0x01, 0x02].as_slice()), (2, corrupt.as_slice())] {
            let mut f = env.new_writable(&manifest_file_name(generation)).unwrap();
            f.append(&[intact.as_slice(), tail].concat()).unwrap();
            f.finish().unwrap();
            let r = recover(&env).unwrap().unwrap();
            assert_eq!(r.generation, generation);
            assert_eq!(r.edits.len(), 1, "tail dropped, intact prefix kept");
            assert_eq!(r.next_file, 5);
        }
    }

    #[test]
    fn stillborn_newest_generation_falls_back_to_the_intact_one() {
        let env = MemEnv::new(None);
        let mut w = ManifestWriter::create(&env, 1).unwrap();
        let mut e = VersionEdit::default();
        e.add(0, meta(1, 0, 9));
        w.append(&e, 2).unwrap();

        // A crash (or injected failure) during the next open created
        // generation 2 but died before its seed snapshot landed: the
        // file exists with zero intact records.
        ManifestWriter::create(&env, 2).unwrap();
        let r = recover(&env).unwrap().unwrap();
        assert_eq!(r.generation, 1, "an empty newest generation must not win");
        assert_eq!(r.edits.len(), 1);
        assert_eq!(r.next_file, 2);

        // Same if the seed snapshot tore mid-frame (corrupt, not empty).
        let mut f = env.new_writable(&manifest_file_name(3)).unwrap();
        f.append(&[0x40, 0, 0, 0, 0xAA, 0xBB]).unwrap();
        f.finish().unwrap();
        let r = recover(&env).unwrap().unwrap();
        assert_eq!(r.generation, 1, "a torn newest generation must not win");

        // An intact record with an *empty* edit is not stillborn — a
        // fresh store's seed snapshot is exactly that.
        let mut w4 = ManifestWriter::create(&env, 4).unwrap();
        w4.append(&VersionEdit::default(), 9).unwrap();
        let r = recover(&env).unwrap().unwrap();
        assert_eq!(r.generation, 4);
        assert_eq!(r.next_file, 9);
    }

    #[test]
    fn sole_empty_generation_still_recovers() {
        let env = MemEnv::new(None);
        ManifestWriter::create(&env, 1).unwrap();
        let r = recover(&env).unwrap().unwrap();
        assert_eq!(r.generation, 1);
        assert!(r.edits.is_empty());
    }

    #[test]
    fn prune_removes_older_generations() {
        let env = MemEnv::new(None);
        for gen in 1..=3 {
            let mut w = ManifestWriter::create(&env, gen).unwrap();
            w.append(&VersionEdit::default(), 1).unwrap();
        }
        prune_old_generations(&env, 3).unwrap();
        let names = env.list().unwrap();
        assert!(names.contains(&manifest_file_name(3)));
        assert!(!names.contains(&manifest_file_name(1)));
        assert!(!names.contains(&manifest_file_name(2)));
    }

    #[test]
    fn wal_oldest_live_is_sticky_and_backward_compatible() {
        let env = MemEnv::new(None);
        let mut w = ManifestWriter::create(&env, 1).unwrap();
        w.append(&VersionEdit::default(), 2).unwrap();
        w.set_wal_oldest_live(5);
        w.append(&VersionEdit::default(), 3).unwrap();
        // A later record without a new mark still carries the sticky one.
        w.append(&VersionEdit::default(), 4).unwrap();
        let r = recover(&env).unwrap().unwrap();
        assert_eq!(r.wal_oldest_live, 5);
        assert_eq!(r.next_file, 4);

        // Records from before the WAL-lifecycle subsystem (no trailing
        // field) decode with mark 0.
        let mut legacy = encode_record(&VersionEdit::default(), 9, 5);
        legacy.truncate(legacy.len() - 8);
        let (_, next_file, oldest) = decode_record(&legacy).unwrap();
        assert_eq!(next_file, 9);
        assert_eq!(oldest, 0);
    }

    #[test]
    fn name_parsing() {
        assert_eq!(parse_manifest_name("MANIFEST-000007"), Some(7));
        assert_eq!(parse_manifest_name("000007.sst"), None);
        assert_eq!(parse_manifest_name("MANIFEST-x"), None);
        assert_eq!(manifest_file_name(7), "MANIFEST-000007");
    }
}
