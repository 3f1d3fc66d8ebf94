//! Data blocks: the unit of I/O inside an SSTable.
//!
//! A block is a run of consecutive [`Record`]s in `(key asc, seq desc)`
//! order, targeted at a few kilobytes. A key may repeat with decreasing
//! sequence numbers — multi-versioned memtables flush *every* version,
//! like LevelDB's internal keys — and lookups return the freshest (first)
//! record of a run. Blocks are read whole; lookups scan forward (at 4 KiB
//! a linear scan is cache-resident and branch-predictable, so the restart
//! array LevelDB uses is omitted).

use crate::error::Result;
use crate::record::Record;

/// Builds one block by appending records in key order.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    count: u32,
    first_key: Option<Box<[u8]>>,
    last_key: Option<Box<[u8]>>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Debug-asserts that keys arrive in non-decreasing order.
    pub fn add(&mut self, record: &Record) {
        debug_assert!(
            self.last_key.as_deref().is_none_or(|k| k <= &*record.key),
            "records must be added in non-decreasing key order"
        );
        if self.first_key.is_none() {
            self.first_key = Some(record.key.clone());
        }
        self.last_key = Some(record.key.clone());
        record.encode_into(&mut self.buf);
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
        self.first_key.as_deref()
    }

    /// Serializes the block and resets the builder.
    ///
    /// The next block's buffer starts with this one's capacity, so after
    /// its first block a builder fills each buffer without regrowing it:
    /// see [`Block::decode`] for why the hot paths avoid `realloc`.
    pub fn finish(&mut self) -> Vec<u8> {
        self.first_key = None;
        self.last_key = None;
        self.count = 0;
        let next = Vec::with_capacity(self.buf.capacity());
        std::mem::replace(&mut self.buf, next)
    }
}

/// A decoded block: records in key order.
#[derive(Debug)]
pub struct Block {
    records: Vec<Record>,
}

impl Block {
    /// Decodes a serialized block.
    ///
    /// Records are counted first (a pass over a few dozen varints) so the
    /// vector is allocated once at its final size. Growing it by doubling
    /// instead is what coupled readers to the compaction thread: glibc's
    /// `realloc` locks the arena the *chunk* came from, and a chunk freed
    /// by another thread reaches this one through its thread cache, so
    /// each regrowth took the other thread's arena lock — and carved the
    /// larger chunk from that arena, keeping the pattern alive. A scanner
    /// and a compaction sharing two cores then spent seconds at a time
    /// waking each other on those locks (scans twice as slow, compaction
    /// half as fast), then seconds not doing so.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let (mut count, mut pos) = (0, 0);
        while pos < data.len() {
            Record::skip_encoded(data, &mut pos)?;
            count += 1;
        }
        let mut records = Vec::with_capacity(count);
        let mut pos = 0;
        while pos < data.len() {
            records.push(Record::decode_from(data, &mut pos)?);
        }
        Ok(Self { records })
    }

    /// Point lookup in a *serialized* block: the freshest record for
    /// `key`, if present, and the only one materialized — a lookup that
    /// decodes the whole block allocates every neighbour's key and value
    /// to return one of them.
    pub fn find(data: &[u8], key: &[u8]) -> Result<Option<Record>> {
        let mut pos = 0;
        while pos < data.len() {
            let start = pos;
            match Record::skip_encoded(data, &mut pos)?.cmp(key) {
                std::cmp::Ordering::Less => {}
                // Within a key's run records are ordered newest-first.
                std::cmp::Ordering::Equal => {
                    pos = start;
                    return Record::decode_from(data, &mut pos).map(Some);
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        Ok(None)
    }

    /// Returns the freshest record for `key`, if present.
    ///
    /// Within a key's run records are ordered newest-first, so the first
    /// record at or past the lower bound is the freshest version.
    pub fn get(&self, key: &[u8]) -> Option<&Record> {
        let i = self.lower_bound(key);
        self.records
            .get(i)
            .filter(|r| r.key.as_ref() == key)
    }

    /// Returns the index of the first record with `key >= target`.
    pub fn lower_bound(&self, target: &[u8]) -> usize {
        self.records.partition_point(|r| r.key.as_ref() < target)
    }

    /// Returns all records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consumes the block, returning its records.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(k: u64, v: u64) -> Record {
        Record::put(k.to_be_bytes().as_slice(), v, v.to_be_bytes().as_slice())
    }

    #[test]
    fn build_and_decode() {
        let mut b = BlockBuilder::new();
        for i in 0..100u64 {
            b.add(&record(i, i * 2));
        }
        assert_eq!(b.count(), 100);
        assert_eq!(b.first_key(), Some(0u64.to_be_bytes().as_slice()));
        let data = b.finish();
        assert!(b.is_empty(), "finish must reset the builder");

        let block = Block::decode(&data).unwrap();
        assert_eq!(block.records().len(), 100);
        let got = block.get(&50u64.to_be_bytes()).unwrap();
        assert_eq!(got.seq, 100);
    }

    #[test]
    fn no_buffer_is_regrown_after_the_first_block() {
        let mut b = BlockBuilder::new();
        for i in 0..100u64 {
            b.add(&record(i, i));
        }
        let first = b.finish();
        let records = Block::decode(&first).unwrap().into_records();
        assert_eq!(records.capacity(), records.len(), "sized by the count pass");
        // A second block of the same size fits the capacity the first one
        // grew to.
        for i in 0..100u64 {
            b.add(&record(i, i));
        }
        assert_eq!(b.finish().capacity(), first.capacity());
    }

    #[test]
    fn get_missing_key() {
        let mut b = BlockBuilder::new();
        b.add(&record(1, 1));
        b.add(&record(3, 3));
        let data = b.finish();
        let block = Block::decode(&data).unwrap();
        for k in 0..5u64 {
            let key = k.to_be_bytes();
            assert_eq!(block.get(&key).is_some(), k == 1 || k == 3);
            assert_eq!(Block::find(&data, &key).unwrap().as_ref(), block.get(&key));
        }
    }

    #[test]
    fn lower_bound_positions() {
        let mut b = BlockBuilder::new();
        for i in [10u64, 20, 30] {
            b.add(&record(i, i));
        }
        let block = Block::decode(&b.finish()).unwrap();
        assert_eq!(block.lower_bound(&5u64.to_be_bytes()), 0);
        assert_eq!(block.lower_bound(&10u64.to_be_bytes()), 0);
        assert_eq!(block.lower_bound(&15u64.to_be_bytes()), 1);
        assert_eq!(block.lower_bound(&35u64.to_be_bytes()), 3);
    }

    #[test]
    fn tombstones_roundtrip_through_blocks() {
        let mut b = BlockBuilder::new();
        b.add(&Record::tombstone(1u64.to_be_bytes().as_slice(), 9));
        let block = Block::decode(&b.finish()).unwrap();
        let r = block.get(&1u64.to_be_bytes()).unwrap();
        assert!(r.is_tombstone());
        assert_eq!(r.seq, 9);
    }

    #[test]
    fn corrupt_block_fails_cleanly() {
        let mut b = BlockBuilder::new();
        b.add(&record(1, 1));
        let mut data = b.finish();
        data.truncate(data.len() - 1);
        assert!(Block::decode(&data).is_err());
    }
}
