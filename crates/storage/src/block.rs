//! Data blocks: the unit of I/O inside an SSTable.
//!
//! A block is a run of consecutive [`Record`](crate::record::Record)s in `(key asc, seq desc)`
//! order, targeted at a few kilobytes. A key may repeat with decreasing
//! sequence numbers — multi-versioned memtables flush *every* version,
//! like LevelDB's internal keys — and lookups return the freshest (first)
//! record of a run. Blocks are read whole; lookups scan forward (at 4 KiB
//! a linear scan is cache-resident and branch-predictable, so the restart
//! array LevelDB uses is omitted).

use crate::error::Result;
use crate::record::{decode_header, encode_record_parts, RecordRef};

/// Builds one block by appending records in key order.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    count: u32,
    /// First key of the block under construction; the buffer is reused
    /// from block to block.
    first_key: Vec<u8>,
    #[cfg(debug_assertions)]
    last_key: Vec<u8>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, copying its bytes straight into the block.
    ///
    /// # Panics
    ///
    /// Debug-asserts that keys arrive in non-decreasing order.
    pub fn add(&mut self, record: RecordRef<'_>) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.count == 0 || self.last_key.as_slice() <= record.key,
                "records must be added in non-decreasing key order"
            );
            self.last_key.clear();
            self.last_key.extend_from_slice(record.key);
        }
        if self.count == 0 {
            self.first_key.clear();
            self.first_key.extend_from_slice(record.key);
        }
        encode_record_parts(&mut self.buf, record.key, record.seq, record.value);
        self.count += 1;
    }

    /// Current serialized size in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    /// Number of records added.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Returns whether no records were added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// First key in the block, if any.
    pub fn first_key(&self) -> Option<&[u8]> {
        (self.count > 0).then_some(self.first_key.as_slice())
    }

    /// The serialized block so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Starts the next block in the same buffers, so a builder allocates
    /// for its first block only.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.count = 0;
    }
}

/// A cursor over one *serialized* block.
///
/// There is no decoded form: the cursor owns the bytes a table read
/// returned and parses one record header per step, handing out
/// [`RecordRef`]s that point into those bytes. A decoded block was two heap
/// boxes per record, built to be cloned again by whoever consumed it; the
/// merge and the builders now copy a record's bytes once, from this buffer
/// into the output block (or a scan's arena).
///
/// Parsing lazily moves where corruption reports: not at block load but at
/// the record it occurs at — every record before it is handed out whole,
/// then [`BlockCursor::advance`] (or `new`/`seek`) returns the error and
/// the cursor turns invalid. Never a partial record, never a panic.
#[derive(Debug)]
pub struct BlockCursor {
    data: Vec<u8>,
    /// The record under the cursor, as offsets into `data`: the key is
    /// `key_start..key_end`, the value `key_end..end` unless a tombstone,
    /// and the next record starts at `end`.
    key_start: usize,
    key_end: usize,
    end: usize,
    seq: u64,
    tombstone: bool,
    valid: bool,
}

impl BlockCursor {
    /// Takes a serialized block and positions on its first record.
    pub fn new(data: Vec<u8>) -> Result<Self> {
        let mut cursor = Self {
            data,
            key_start: 0,
            key_end: 0,
            end: 0,
            seq: 0,
            tombstone: false,
            valid: false,
        };
        cursor.advance()?;
        Ok(cursor)
    }

    /// Returns whether the cursor is on a record.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// The record under the cursor, borrowed from the block's bytes.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not valid.
    pub fn record(&self) -> RecordRef<'_> {
        assert!(self.valid, "record() on an invalid cursor");
        RecordRef {
            key: &self.data[self.key_start..self.key_end],
            seq: self.seq,
            value: (!self.tombstone).then(|| &self.data[self.key_end..self.end]),
        }
    }

    /// Steps to the next record; past the last one the cursor turns
    /// invalid. Parses exactly one header, with every bound check of
    /// [`RecordRef::decode_from`].
    pub fn advance(&mut self) -> Result<()> {
        self.valid = false;
        let mut pos = self.end;
        if pos >= self.data.len() {
            return Ok(());
        }
        let (klen, vlen, seq) = decode_header(&self.data, &mut pos)?;
        self.key_start = pos;
        self.key_end = pos + klen;
        self.end = self.key_end + vlen.unwrap_or(0);
        self.seq = seq;
        self.tombstone = vlen.is_none();
        self.valid = true;
        Ok(())
    }

    /// Moves forward to the first record with `key >= target` (within a
    /// key's run that is its freshest version); invalid if there is none.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        while self.valid && &self.data[self.key_start..self.key_end] < target {
            self.advance()?;
        }
        Ok(())
    }
}

/// Point lookup in a serialized block: the freshest record for `key`, if
/// present, borrowed from `data`. The scan stops at the first larger key,
/// so bytes past it are not parsed.
pub fn find<'a>(data: &'a [u8], key: &[u8]) -> Result<Option<RecordRef<'a>>> {
    let mut pos = 0;
    while pos < data.len() {
        let record = RecordRef::decode_from(data, &mut pos)?;
        match record.key.cmp(key) {
            std::cmp::Ordering::Less => {}
            // Within a key's run records are ordered newest-first.
            std::cmp::Ordering::Equal => return Ok(Some(record)),
            std::cmp::Ordering::Greater => break,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn record(k: u64, v: u64) -> Record {
        Record::put(k.to_be_bytes().as_slice(), v, v.to_be_bytes().as_slice())
    }

    fn block_of(records: &[Record]) -> Vec<u8> {
        let mut b = BlockBuilder::new();
        for r in records {
            b.add(r.into());
        }
        b.bytes().to_vec()
    }

    /// Walks a serialized block, returning the whole records handed out
    /// and how the walk ended.
    fn walk(data: &[u8]) -> (Vec<Record>, Result<()>) {
        let mut seen = Vec::new();
        let mut cursor = match BlockCursor::new(data.to_vec()) {
            Ok(c) => c,
            Err(e) => return (seen, Err(e)),
        };
        while cursor.valid() {
            seen.push(cursor.record().to_record());
            if let Err(e) = cursor.advance() {
                assert!(!cursor.valid(), "a failed step leaves no record behind");
                return (seen, Err(e));
            }
        }
        (seen, Ok(()))
    }

    #[test]
    fn build_and_walk() {
        let mut b = BlockBuilder::new();
        let records: Vec<Record> = (0..100u64).map(|i| record(i, i * 2)).collect();
        for r in &records {
            b.add(r.into());
        }
        assert_eq!(b.count(), 100);
        assert_eq!(b.first_key(), Some(0u64.to_be_bytes().as_slice()));
        let data = b.bytes().to_vec();
        b.reset();
        assert!(b.is_empty() && b.first_key().is_none() && b.size() == 0);

        let (seen, end) = walk(&data);
        end.unwrap();
        assert_eq!(seen, records);
        let got = find(&data, &50u64.to_be_bytes()).unwrap().unwrap();
        assert_eq!(got.seq, 100);
    }

    #[test]
    fn no_buffer_is_regrown_after_the_first_block() {
        let mut b = BlockBuilder::new();
        for i in 0..100u64 {
            b.add((&record(i, i)).into());
        }
        let (first, capacity) = (b.bytes().as_ptr(), b.buf.capacity());
        b.reset();
        // A second block of the same size fills the buffer the first grew.
        for i in 0..100u64 {
            b.add((&record(i, i)).into());
        }
        assert_eq!((b.bytes().as_ptr(), b.buf.capacity()), (first, capacity));
    }

    #[test]
    fn find_and_seek_agree_on_present_and_missing_keys() {
        let data = block_of(&[record(1, 1), record(3, 3)]);
        for k in 0..5u64 {
            let key = k.to_be_bytes();
            let found = find(&data, &key).unwrap();
            assert_eq!(found.is_some(), k == 1 || k == 3);
            let mut cursor = BlockCursor::new(data.clone()).unwrap();
            cursor.seek(&key).unwrap();
            // The lower bound: 0,1 -> 1; 2,3 -> 3; 4 -> past the end.
            let bound = cursor.valid().then(|| cursor.record());
            assert_eq!(bound.map(|r| r.seq), [Some(1), Some(1), Some(3), Some(3), None][k as usize]);
            if let Some(found) = found {
                assert_eq!(Some(found), bound);
            }
        }
    }

    #[test]
    fn version_runs_surface_newest_first() {
        let run = [record(7, 9), record(7, 4), record(8, 1)];
        let data = block_of(&run);
        assert_eq!(find(&data, &7u64.to_be_bytes()).unwrap().unwrap().seq, 9);
        let mut cursor = BlockCursor::new(data).unwrap();
        cursor.seek(&7u64.to_be_bytes()).unwrap();
        assert_eq!(cursor.record().seq, 9);
        cursor.advance().unwrap();
        assert_eq!(cursor.record().seq, 4, "older versions follow in the run");
    }

    #[test]
    fn tombstones_and_empty_values_roundtrip_through_blocks() {
        let records = [
            Record::tombstone(1u64.to_be_bytes().as_slice(), 9),
            Record::put(2u64.to_be_bytes().as_slice(), 3, &b""[..]),
        ];
        let data = block_of(&records);
        let r = find(&data, &1u64.to_be_bytes()).unwrap().unwrap();
        assert!(r.is_tombstone());
        assert_eq!(r.seq, 9);
        let (seen, end) = walk(&data);
        end.unwrap();
        assert_eq!(seen, records, "an empty value is not a tombstone");
    }

    #[test]
    fn empty_block_is_an_invalid_cursor() {
        let cursor = BlockCursor::new(Vec::new()).unwrap();
        assert!(!cursor.valid());
        assert!(find(&[], b"k").unwrap().is_none());
    }

    #[test]
    fn block_truncated_anywhere_yields_whole_records_then_an_error() {
        let records = [
            record(1, 1),
            Record::tombstone(2u64.to_be_bytes().as_slice(), 300),
            Record::put(3u64.to_be_bytes().as_slice(), 1 << 40, vec![0xAB; 200]),
            Record::put(4u64.to_be_bytes().as_slice(), 5, &b""[..]),
            record(5, 5),
        ];
        let data = block_of(&records);
        // Offsets at which a whole number of records ends.
        let mut boundaries = vec![0];
        for r in &records {
            boundaries.push(boundaries.last().unwrap() + r.encoded_len());
        }
        for cut in 0..=data.len() {
            let (seen, end) = walk(&data[..cut]);
            let whole = boundaries.iter().filter(|&&b| b != 0 && b <= cut).count();
            assert_eq!(seen, records[..whole], "cut at {cut}: only whole, correct records");
            // A cut on a record boundary is a shorter valid block; any
            // other cut must surface as an error after the whole records.
            assert_eq!(end.is_ok(), boundaries.contains(&cut), "cut at {cut}");
            // `find` for the last key walks the same bytes.
            let found = find(&data[..cut], &5u64.to_be_bytes());
            match found {
                Ok(hit) => assert_eq!(hit.is_some(), cut == data.len(), "cut at {cut}"),
                Err(_) => assert!(!boundaries.contains(&cut), "cut at {cut}"),
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing key order")]
    fn out_of_order_keys_trip_the_debug_assert() {
        let mut b = BlockBuilder::new();
        b.add((&record(2, 1)).into());
        b.add((&record(1, 2)).into());
    }
}
