//! Sorted-string tables: immutable on-disk files of key-ordered records.
//!
//! Layout:
//!
//! ```text
//! [data block 0][data block 1]...[bloom filter][index block][footer]
//! ```
//!
//! The index block stores `(first_key, offset, len)` per data block; the
//! fixed-size footer stores the bloom/index locations, the entry count and
//! a magic number. Point lookups consult the bloom filter, binary-search
//! the index's dense key prefixes ([`crate::prefix`]), then scan one block
//! in place, borrowed from the file ([`RandomAccessFile::read_with`]).

use flodb_sync::shim::Arc;

use crate::block::{self, BlockBuilder, BlockCursor};
use crate::bloom::{bloom_hash, Bloom};
use crate::env::{RandomAccessFile, WritableFile};
use crate::error::{Result, StorageError};
use crate::prefix::{key_prefix, Probe};
use crate::record::{crc32, get_varint, put_varint, Record, RecordRef};

const FOOTER_LEN: usize = 48;
const MAGIC: u64 = 0xF10D_B5_00_EE17_55AA;

/// Returns the canonical file name for table `number`.
pub fn table_file_name(number: u64) -> String {
    format!("{number:06}.sst")
}

/// Summary of a finished table, fed into the version set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Total file size in bytes.
    pub file_size: u64,
    /// Smallest user key in the table.
    pub smallest: Box<[u8]>,
    /// Largest user key in the table.
    pub largest: Box<[u8]>,
    /// Number of records.
    pub entries: u64,
    /// Largest sequence number among the records.
    pub largest_seq: u64,
}

/// Streams key-ordered records into an SSTable file.
///
/// Per record the builder copies the bytes into the open block and pushes
/// one `u64` key hash for the bloom filter; everything it remembers about
/// keys (`largest`, the block's first key) lives in reused buffers, so it
/// allocates per block and per file, never per record.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    block: BlockBuilder,
    block_bytes: usize,
    bloom_bits_per_key: usize,
    /// (first_key, offset, len) of finished blocks.
    index: Vec<(Box<[u8]>, u64, u64)>,
    /// [`bloom_hash`] of every record's key, in order (a version run
    /// repeats its key's hash, as it repeated the key).
    key_hashes: Vec<u64>,
    offset: u64,
    smallest: Option<Box<[u8]>>,
    /// Key of the last record added; meaningful once `entries > 0`.
    largest: Vec<u8>,
    entries: u64,
    largest_seq: u64,
}

impl TableBuilder {
    /// Creates a builder writing into `file`.
    pub fn new(file: Box<dyn WritableFile>, block_bytes: usize, bloom_bits_per_key: usize) -> Self {
        Self {
            file,
            block: BlockBuilder::new(),
            block_bytes: block_bytes.max(128),
            bloom_bits_per_key,
            index: Vec::new(),
            key_hashes: Vec::new(),
            offset: 0,
            smallest: None,
            largest: Vec::new(),
            entries: 0,
            largest_seq: 0,
        }
    }

    /// Appends an owned record: [`TableBuilder::add_ref`] of its borrow.
    pub fn add(&mut self, record: &Record) -> Result<()> {
        self.add_ref(record.into())
    }

    /// Appends a record; keys must arrive in `(key asc, seq desc)` order.
    /// A key may repeat (multi-versioned flushes keep every version).
    pub fn add_ref(&mut self, record: RecordRef<'_>) -> Result<()> {
        // Never split a same-key version run across blocks: the index maps
        // a key to exactly one block, and a run straddling a boundary
        // would hide its freshest versions from point lookups. (Only a
        // non-empty block meets the size test, so `largest` is a real key.)
        if self.block.size() >= self.block_bytes && self.largest != record.key {
            self.flush_block()?;
        }
        if self.smallest.is_none() {
            self.smallest = Some(record.key.into());
        }
        self.largest.clear();
        self.largest.extend_from_slice(record.key);
        self.largest_seq = self.largest_seq.max(record.seq);
        self.key_hashes.push(bloom_hash(record.key));
        self.block.add(record);
        self.entries += 1;
        Ok(())
    }

    /// Current output offset (approximate file size so far).
    pub fn file_size(&self) -> u64 {
        self.offset + self.block.size() as u64
    }

    /// Number of records added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    fn flush_block(&mut self) -> Result<()> {
        let Some(first_key) = self.block.first_key() else {
            return Ok(());
        };
        let data = self.block.bytes();
        self.index
            .push((first_key.into(), self.offset, data.len() as u64));
        self.file.append(data)?;
        self.offset += data.len() as u64;
        self.block.reset();
        Ok(())
    }

    /// Finalizes the table, returning its metadata.
    pub fn finish(mut self) -> Result<TableMeta> {
        self.flush_block()?;

        // Bloom filter.
        let bloom = Bloom::from_hashes(&self.key_hashes, self.bloom_bits_per_key);
        let bloom_data = bloom.encode();
        let bloom_off = self.offset;
        self.file.append(&bloom_data)?;
        self.offset += bloom_data.len() as u64;

        // Index block.
        let mut index_data = Vec::new();
        put_varint(&mut index_data, self.index.len() as u64);
        for (first_key, off, len) in &self.index {
            put_varint(&mut index_data, first_key.len() as u64);
            index_data.extend_from_slice(first_key);
            put_varint(&mut index_data, *off);
            put_varint(&mut index_data, *len);
        }
        let index_off = self.offset;
        self.file.append(&index_data)?;
        self.offset += index_data.len() as u64;

        // Footer: fixed-size trailer.
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&(index_data.len() as u64).to_le_bytes());
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&(bloom_data.len() as u64).to_le_bytes());
        footer.extend_from_slice(&self.entries.to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        debug_assert_eq!(footer.len(), FOOTER_LEN);
        self.file.append(&footer)?;
        self.offset += FOOTER_LEN as u64;
        self.file.sync()?;
        self.file.finish()?;

        let smallest = self
            .smallest
            .ok_or_else(|| StorageError::InvalidArgument("empty table".into()))?;
        Ok(TableMeta {
            file_size: self.offset,
            smallest,
            largest: self.largest.into(),
            entries: self.entries,
            largest_seq: self.largest_seq,
        })
    }
}

/// Where one data block's first key sits in the index block, and where
/// the block sits in the file.
struct IndexEntry {
    key_start: usize,
    key_end: usize,
    offset: u64,
    len: u64,
}

/// An open, immutable SSTable.
pub struct Table {
    file: Arc<dyn RandomAccessFile>,
    /// [`key_prefix`] of each block's first key: what `block_for` searches.
    prefixes: Vec<u64>,
    /// The index block as read; every block's first key lives in it.
    index_data: Vec<u8>,
    index: Vec<IndexEntry>,
    bloom: Bloom,
    entries: u64,
}

impl Table {
    /// Opens a table from a random-access file.
    pub fn open(file: Arc<dyn RandomAccessFile>) -> Result<Self> {
        let size = file.len();
        if size < FOOTER_LEN as u64 {
            return Err(StorageError::Corruption("table smaller than footer".into()));
        }
        let footer = file.read_at(size - FOOTER_LEN as u64, FOOTER_LEN)?;
        let u64_at = |i: usize| {
            u64::from_le_bytes(footer[i * 8..(i + 1) * 8].try_into().expect("8 bytes"))
        };
        if u64_at(5) != MAGIC {
            return Err(StorageError::Corruption("bad table magic".into()));
        }
        let (index_off, index_len) = (u64_at(0), u64_at(1));
        let (bloom_off, bloom_len) = (u64_at(2), u64_at(3));
        let entries = u64_at(4);

        let bloom_data = file.read_at(bloom_off, bloom_len as usize)?;
        let bloom = Bloom::decode(&bloom_data);

        let index_data = file.read_at(index_off, index_len as usize)?;
        let mut pos = 0;
        let n = get_varint(&index_data, &mut pos)? as usize;
        // A corrupt count must not reserve more than the block can hold.
        let mut index = Vec::with_capacity(n.min(index_data.len()));
        let mut prefixes = Vec::with_capacity(n.min(index_data.len()));
        for _ in 0..n {
            let klen = get_varint(&index_data, &mut pos)? as usize;
            if index_data.len() - pos < klen {
                return Err(StorageError::Corruption("truncated index key".into()));
            }
            let (key_start, key_end) = (pos, pos + klen);
            pos = key_end;
            let offset = get_varint(&index_data, &mut pos)?;
            let len = get_varint(&index_data, &mut pos)?;
            prefixes.push(key_prefix(&index_data[key_start..key_end]));
            index.push(IndexEntry {
                key_start,
                key_end,
                offset,
                len,
            });
        }

        Ok(Self {
            file,
            prefixes,
            index_data,
            index,
            bloom,
            entries,
        })
    }

    /// Number of records in the table.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Number of data blocks.
    pub fn num_blocks(&self) -> usize {
        self.index.len()
    }

    fn read_block(&self, i: usize) -> Result<BlockCursor> {
        let e = &self.index[i];
        BlockCursor::new(self.file.read_at(e.offset, e.len as usize)?)
    }

    /// First key of block `i`.
    fn first_key(&self, i: usize) -> &[u8] {
        let e = &self.index[i];
        &self.index_data[e.key_start..e.key_end]
    }

    /// Index of the block that may contain `key` (last block whose first
    /// key is `<= key`).
    fn block_for(&self, key: &[u8]) -> Option<usize> {
        Probe::new(key)
            .partition(&self.prefixes, true, |i| self.first_key(i))
            .checked_sub(1)
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Record>> {
        if !self.bloom.may_contain(key) {
            return Ok(None);
        }
        let Some(block_idx) = self.block_for(key) else {
            return Ok(None);
        };
        let e = &self.index[block_idx];
        // The block is searched where the file keeps it; the one record a
        // lookup returns is the only one copied out.
        let mut found = None;
        self.file.read_with(e.offset, e.len as usize, &mut |data| {
            found = block::find(data, key)?.map(|r| r.to_record());
            Ok(())
        })?;
        Ok(found)
    }

    /// Creates a cursor over the table.
    pub fn iter(self: &Arc<Self>) -> TableIterator {
        TableIterator {
            table: Arc::clone(self),
            block: None,
            block_idx: 0,
        }
    }
}

/// Cursor over one table, in key order.
///
/// It holds one serialized block at a time ([`BlockCursor`]) and hands out
/// records borrowed from it. A corrupt block reports at the record the
/// damage starts at: `seek`, `seek_to_first` or `next` return the error
/// there, after every whole record before it was handed out.
pub struct TableIterator {
    table: Arc<Table>,
    /// The block under the cursor; `None` when unpositioned or exhausted.
    block: Option<BlockCursor>,
    block_idx: usize,
}

impl TableIterator {
    /// Positions on the first record with `key >= target`.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.position(self.table.block_for(target).unwrap_or(0), Some(target))
    }

    /// Positions on the first record of the table.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.position(0, None)
    }

    /// Loads block `idx`, seeks inside it, and moves on to the following
    /// blocks if it holds nothing at or past `target`.
    fn position(&mut self, idx: usize, target: Option<&[u8]>) -> Result<()> {
        self.block = None;
        self.block_idx = idx;
        if idx >= self.table.index.len() {
            return Ok(());
        }
        let mut block = self.table.read_block(idx)?;
        if let Some(target) = target {
            block.seek(target)?;
        }
        if block.valid() {
            self.block = Some(block);
            Ok(())
        } else {
            self.advance_block()
        }
    }

    fn advance_block(&mut self) -> Result<()> {
        self.block = None;
        loop {
            self.block_idx += 1;
            if self.block_idx >= self.table.index.len() {
                return Ok(());
            }
            let block = self.table.read_block(self.block_idx)?;
            if block.valid() {
                self.block = Some(block);
                return Ok(());
            }
        }
    }

    /// Returns whether the cursor is on a record.
    pub fn valid(&self) -> bool {
        self.block.as_ref().is_some_and(BlockCursor::valid)
    }

    /// Current record, borrowed from the block under the cursor (valid
    /// until the cursor moves).
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not valid.
    pub fn record(&self) -> RecordRef<'_> {
        self.block.as_ref().expect("valid cursor").record()
    }

    /// Advances the cursor.
    ///
    /// Named after LevelDB's `Iterator::Next`; it is not `std::iter::
    /// Iterator::next` because advancing can fail with an I/O error.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<()> {
        if let Some(block) = &mut self.block {
            // A failed step leaves the block's cursor, and so this one,
            // invalid.
            block.advance()?;
            if !block.valid() {
                self.advance_block()?;
            }
        }
        Ok(())
    }
}

/// Validates the integrity of a serialized table prefix (used by tests and
/// recovery tooling): re-reads every block and checks record decode.
pub fn verify_table(table: &Arc<Table>) -> Result<u64> {
    let mut it = table.iter();
    it.seek_to_first()?;
    let mut n = 0;
    // The previous record's key (in a reused buffer) and seq.
    let (mut prev_key, mut prev_seq) = (Vec::new(), 0);
    while it.valid() {
        let r = it.record();
        if n > 0 {
            // Non-decreasing keys; within a key run, strictly newer first.
            if prev_key.as_slice() > r.key {
                return Err(StorageError::Corruption("keys out of order".into()));
            }
            if prev_key.as_slice() == r.key && prev_seq <= r.seq {
                return Err(StorageError::Corruption(
                    "version run not newest-first".into(),
                ));
            }
        }
        prev_key.clear();
        prev_key.extend_from_slice(r.key);
        prev_seq = r.seq;
        n += 1;
        it.next()?;
    }
    if n != table.entries() {
        return Err(StorageError::Corruption(format!(
            "entry count mismatch: footer {} walked {n}",
            table.entries()
        )));
    }
    Ok(n)
}

/// Convenience: CRC over a whole table file (diagnostics).
pub fn table_checksum(file: &Arc<dyn RandomAccessFile>) -> Result<u32> {
    let data = file.read_at(0, file.len() as usize)?;
    Ok(crc32(&data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Env, MemEnv};

    fn build_table(env: &MemEnv, name: &str, keys: impl Iterator<Item = u64>) -> TableMeta {
        let file = env.new_writable(name).unwrap();
        let mut b = TableBuilder::new(file, 512, 10);
        for k in keys {
            b.add(&Record::put(
                k.to_be_bytes().as_slice(),
                k + 1,
                vec![k as u8; 16],
            ))
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn build_open_get() {
        let env = MemEnv::new(None);
        let meta = build_table(&env, "t.sst", 0..1000);
        assert_eq!(meta.entries, 1000);
        assert_eq!(meta.smallest.as_ref(), 0u64.to_be_bytes());
        assert_eq!(meta.largest.as_ref(), 999u64.to_be_bytes());

        let table = Arc::new(Table::open(env.open_random("t.sst").unwrap()).unwrap());
        assert!(table.num_blocks() > 1, "must span multiple blocks");
        for k in (0..1000u64).step_by(37) {
            let r = table.get(&k.to_be_bytes()).unwrap().unwrap();
            assert_eq!(r.seq, k + 1);
            assert_eq!(r.value.as_deref(), Some(vec![k as u8; 16].as_slice()));
        }
        assert!(table.get(&5000u64.to_be_bytes()).unwrap().is_none());
    }

    #[test]
    fn iterator_full_scan_in_order() {
        let env = MemEnv::new(None);
        build_table(&env, "t.sst", (0..500).map(|i| i * 2));
        let table = Arc::new(Table::open(env.open_random("t.sst").unwrap()).unwrap());
        let mut it = table.iter();
        it.seek_to_first().unwrap();
        let mut n = 0u64;
        while it.valid() {
            assert_eq!(it.record().key, (n * 2).to_be_bytes());
            n += 1;
            it.next().unwrap();
        }
        assert_eq!(n, 500);
    }

    #[test]
    fn iterator_seek() {
        let env = MemEnv::new(None);
        build_table(&env, "t.sst", (0..500).map(|i| i * 2));
        let table = Arc::new(Table::open(env.open_random("t.sst").unwrap()).unwrap());
        let mut it = table.iter();
        // Seek to a key between entries.
        it.seek(&101u64.to_be_bytes()).unwrap();
        assert!(it.valid());
        assert_eq!(it.record().key, 102u64.to_be_bytes());
        // Seek before the start.
        it.seek(&0u64.to_be_bytes()).unwrap();
        assert_eq!(it.record().key, 0u64.to_be_bytes());
        // Seek past the end.
        it.seek(&10_000u64.to_be_bytes()).unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn verify_accepts_good_table() {
        let env = MemEnv::new(None);
        build_table(&env, "t.sst", 0..100);
        let table = Arc::new(Table::open(env.open_random("t.sst").unwrap()).unwrap());
        assert_eq!(verify_table(&table).unwrap(), 100);
    }

    /// Copies table `from` to `to` with ten 0xFF bytes — an overlong
    /// varint — where record `record` of block `block` starts.
    fn corrupt_copy(env: &MemEnv, from: &str, to: &str, block: usize, record: usize) {
        let table = Table::open(env.open_random(from).unwrap()).unwrap();
        let file = env.open_random(from).unwrap();
        let mut data = file.read_at(0, file.len() as usize).unwrap();
        let e = &table.index[block];
        let block_data = &data[e.offset as usize..(e.offset + e.len) as usize];
        let mut at = 0;
        for _ in 0..record {
            RecordRef::decode_from(block_data, &mut at).unwrap();
        }
        let at = e.offset as usize + at;
        data[at..at + 10].fill(0xFF);
        let mut out = env.new_writable(to).unwrap();
        out.append(&data).unwrap();
        out.finish().unwrap();
    }

    #[test]
    fn corrupt_block_reports_at_the_record_it_occurs_at() {
        let env = MemEnv::new(None);
        build_table(&env, "good.sst", 0..200);
        let good = Arc::new(Table::open(env.open_random("good.sst").unwrap()).unwrap());
        assert!(good.num_blocks() > 2);
        // Keys of block 1, from the intact table.
        let mut it = good.iter();
        it.seek(good.first_key(1)).unwrap();
        let first_of_block_1 = u64::from_be_bytes(it.record().key.try_into().unwrap());

        // Damage at record 3 of block 1: everything before it reads whole.
        corrupt_copy(&env, "good.sst", "bad.sst", 1, 3);
        let bad = Arc::new(Table::open(env.open_random("bad.sst").unwrap()).unwrap());
        let mut it = bad.iter();
        it.seek_to_first().unwrap();
        let mut walked = 0u64;
        let err = loop {
            let r = it.record();
            assert_eq!(r.key, walked.to_be_bytes());
            assert_eq!((r.seq, r.value), (walked + 1, Some(&[walked as u8; 16][..])));
            walked += 1;
            if let Err(e) = it.next() {
                break e;
            }
            assert!(it.valid(), "the damage comes before the table's end");
        };
        assert!(matches!(err, StorageError::Corruption(_)), "{err:?}");
        assert_eq!(walked, first_of_block_1 + 3, "every whole record before the damage");
        assert!(!it.valid(), "a failed step leaves no record under the cursor");

        // Seeks and lookups before the damage still work; at or past it
        // they report it.
        it.seek(&(first_of_block_1 + 1).to_be_bytes()).unwrap();
        assert_eq!(it.record().seq, first_of_block_1 + 2);
        assert!(bad.get(&(first_of_block_1 + 1).to_be_bytes()).unwrap().is_some());
        let past = (first_of_block_1 + 5).to_be_bytes();
        assert!(matches!(it.seek(&past), Err(StorageError::Corruption(_))));
        assert!(!it.valid());
        assert!(matches!(bad.get(&past), Err(StorageError::Corruption(_))));
        assert!(matches!(verify_table(&bad), Err(StorageError::Corruption(_))));

        // Damage in the very first record: positioning itself fails.
        corrupt_copy(&env, "good.sst", "bad0.sst", 0, 0);
        let bad0 = Arc::new(Table::open(env.open_random("bad0.sst").unwrap()).unwrap());
        let mut it = bad0.iter();
        assert!(matches!(it.seek_to_first(), Err(StorageError::Corruption(_))));
        assert!(!it.valid());
        assert!(matches!(it.seek(&0u64.to_be_bytes()), Err(StorageError::Corruption(_))));
    }

    #[test]
    fn open_rejects_truncated_file() {
        let env = MemEnv::new(None);
        let mut f = env.new_writable("bad.sst").unwrap();
        f.append(b"short").unwrap();
        assert!(Table::open(env.open_random("bad.sst").unwrap()).is_err());
    }

    #[test]
    fn open_rejects_bad_magic() {
        let env = MemEnv::new(None);
        let mut f = env.new_writable("bad.sst").unwrap();
        f.append(&[0u8; 64]).unwrap();
        let err = Table::open(env.open_random("bad.sst").unwrap());
        assert!(matches!(err, Err(StorageError::Corruption(_))));
    }

    #[test]
    fn table_file_names_sort_with_numbers() {
        assert_eq!(table_file_name(7), "000007.sst");
        assert!(table_file_name(9) < table_file_name(10));
    }

    use crate::prefix::test_keys::{probes_around, tricky_key, tricky_keys};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn block_for_matches_a_whole_key_partition_point(
            keys in tricky_keys(),
            extra in proptest::collection::vec(tricky_key(), 0..20),
        ) {
            let env = MemEnv::new(None);
            // 128-byte blocks: three or four records each.
            let mut b = TableBuilder::new(env.new_writable("t.sst").unwrap(), 128, 10);
            for (i, k) in keys.iter().enumerate() {
                b.add(&Record::put(k.as_slice(), i as u64 + 1, vec![0u8; 24])).unwrap();
            }
            b.finish().unwrap();
            let table = Table::open(env.open_random("t.sst").unwrap()).unwrap();
            let first_keys: Vec<&[u8]> =
                (0..table.num_blocks()).map(|i| table.first_key(i)).collect();
            for probe in probes_around(&keys, &extra) {
                let plain = first_keys.partition_point(|k| *k <= probe.as_slice()).checked_sub(1);
                prop_assert_eq!(table.block_for(&probe), plain, "probe {:?}", probe);
            }
            for (i, k) in keys.iter().enumerate() {
                prop_assert_eq!(table.get(k).unwrap().map(|r| r.seq), Some(i as u64 + 1));
            }
        }
    }

    #[test]
    fn empty_table_build_fails_cleanly() {
        let env = MemEnv::new(None);
        let file = env.new_writable("e.sst").unwrap();
        let b = TableBuilder::new(file, 512, 10);
        assert!(b.finish().is_err());
    }
}
