//! Record encoding: varints, CRC32, and the internal key-value record.
//!
//! Every entry crossing the memory/disk boundary is a [`Record`]: a key, a
//! sequence number, and a value or tombstone. Records serialize with
//! length-prefixed varints (the LevelDB wire idiom) and are grouped into
//! blocks (see [`crate::block`]) or WAL frames (see [`crate::wal`]).

use crate::error::{Result, StorageError};

/// Appends a varint-encoded `u64` to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes a varint `u64` from `buf` starting at `*pos`, advancing `*pos`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut shift = 0u32;
    let mut value = 0u64;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| StorageError::Corruption("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StorageError::Corruption("varint overflow".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// The eight slicing tables for [`crc32`]: `TABLES[0]` is the classic
/// byte-at-a-time table of the reflected polynomial 0xEDB88320, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) over `data`; used to validate WAL frames, segment
/// headers and manifest records.
///
/// Slicing-by-8: eight input bytes are folded per step through eight
/// independent table lookups, instead of one lookup whose address depends
/// on the previous byte's result. Same polynomial and same values as the
/// byte-at-a-time loop (kept in the tests as the reference) — the WAL
/// append computes this inside the commit leader's critical section, where
/// it was most of the cost of a small put.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Appends one record's serialization directly from its parts, without
/// materializing a [`Record`].
///
/// This is the hot-path encoder: the write path borrows the caller's key
/// and value slices and streams them straight into a shared batch buffer,
/// so a logged put allocates nothing. The layout is identical to
/// [`Record::encode_into`] (which delegates here) and round-trips through
/// [`Record::decode_from`].
pub fn encode_record_parts(out: &mut Vec<u8>, key: &[u8], seq: u64, value: Option<&[u8]>) {
    put_varint(out, key.len() as u64);
    put_varint(out, value.map_or(0, <[u8]>::len) as u64);
    put_varint(out, seq);
    out.push(u8::from(value.is_none()));
    out.extend_from_slice(key);
    if let Some(v) = value {
        out.extend_from_slice(v);
    }
}

/// A single key-value record with its sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The user key.
    pub key: Box<[u8]>,
    /// Global sequence number the record was written at.
    pub seq: u64,
    /// Payload; `None` is a delete tombstone.
    pub value: Option<Box<[u8]>>,
}

impl Record {
    /// Creates a put record.
    pub fn put(key: impl Into<Box<[u8]>>, seq: u64, value: impl Into<Box<[u8]>>) -> Self {
        Self {
            key: key.into(),
            seq,
            value: Some(value.into()),
        }
    }

    /// Creates a tombstone record.
    pub fn tombstone(key: impl Into<Box<[u8]>>, seq: u64) -> Self {
        Self {
            key: key.into(),
            seq,
            value: None,
        }
    }

    /// Returns whether this record is a tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// Serialized length in bytes (exact).
    pub fn encoded_len(&self) -> usize {
        let mut scratch = Vec::with_capacity(24);
        put_varint(&mut scratch, self.key.len() as u64);
        put_varint(
            &mut scratch,
            self.value.as_deref().map_or(0, <[u8]>::len) as u64,
        );
        put_varint(&mut scratch, self.seq);
        scratch.len() + 1 + self.key.len() + self.value.as_deref().map_or(0, <[u8]>::len)
    }

    /// Appends the serialized record to `out`.
    ///
    /// Layout: `klen vlen seq flags key value`, with varint lengths and
    /// sequence number and a one-byte flags field (bit 0 = tombstone).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_record_parts(out, &self.key, self.seq, self.value.as_deref());
    }

    /// Decodes one record from `buf` at `*pos`, advancing `*pos`.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Self> {
        RecordRef::decode_from(buf, pos).map(|r| r.to_record())
    }
}

/// A record whose key and value are borrowed from wherever they already
/// live: the block buffer a table read returned, a skiplist node under its
/// guard, or an owned [`Record`].
///
/// This is what the storage read side hands out (table cursors, the merge,
/// disk scans) and what the table builders take, so a record travels from
/// the block it is read from to the block it is written to — or to a
/// scan's arena — without being materialized in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// The user key.
    pub key: &'a [u8],
    /// Global sequence number the record was written at.
    pub seq: u64,
    /// Payload; `None` is a delete tombstone.
    pub value: Option<&'a [u8]>,
}

impl<'a> From<&'a Record> for RecordRef<'a> {
    fn from(record: &'a Record) -> Self {
        Self {
            key: &record.key,
            seq: record.seq,
            value: record.value.as_deref(),
        }
    }
}

impl<'a> RecordRef<'a> {
    /// Returns whether this record is a tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// Copies the record out of the buffer it borrows from.
    pub fn to_record(&self) -> Record {
        Record {
            key: Box::from(self.key),
            seq: self.seq,
            value: self.value.map(Box::from),
        }
    }

    /// Decodes one record at `*pos` without copying it, advancing `*pos`
    /// past it. On an error `*pos` is unspecified and nothing of the
    /// record is handed out.
    pub fn decode_from(buf: &'a [u8], pos: &mut usize) -> Result<Self> {
        let (klen, vlen, seq) = decode_header(buf, pos)?;
        let key = &buf[*pos..*pos + klen];
        *pos += klen;
        let value = vlen.map(|vlen| {
            let v = &buf[*pos..*pos + vlen];
            *pos += vlen;
            v
        });
        Ok(Self { key, seq, value })
    }
}

/// Reads one record's `klen vlen seq flags` header at `*pos`, leaving
/// `*pos` on the key; returns `(klen, vlen, seq)` with `vlen` `None` for a
/// tombstone, having checked that key and value lie inside `buf` (lengths
/// come from disk, so the sum is overflow-checked too).
pub(crate) fn decode_header(buf: &[u8], pos: &mut usize) -> Result<(usize, Option<usize>, u64)> {
    let klen = get_varint(buf, pos)?;
    let vlen = get_varint(buf, pos)?;
    let seq = get_varint(buf, pos)?;
    let flags = *buf
        .get(*pos)
        .ok_or_else(|| StorageError::Corruption("truncated record flags".into()))?;
    *pos += 1;
    let vlen = (flags & 1 == 0).then_some(vlen);
    let body = klen.checked_add(vlen.unwrap_or(0));
    if body.is_none_or(|body| body > (buf.len() - *pos) as u64) {
        return Err(StorageError::Corruption("truncated record body".into()));
    }
    Ok((klen as usize, vlen.map(|v| v as usize), seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncation_is_error() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1u64 << 40);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(get_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip() {
        let records = [
            Record::put(&b"key"[..], 42, &b"value"[..]),
            Record::tombstone(&b"gone"[..], 7),
            Record::put(&b""[..], 0, &b""[..]),
        ];
        let mut buf = Vec::new();
        for r in &records {
            let before = buf.len();
            r.encode_into(&mut buf);
            assert_eq!(buf.len() - before, r.encoded_len());
        }
        let (mut pos, mut borrowed) = (0, 0);
        for r in &records {
            let decoded = Record::decode_from(&buf, &mut pos).unwrap();
            assert_eq!(&decoded, r);
            let by_ref = RecordRef::decode_from(&buf, &mut borrowed).unwrap();
            assert_eq!((by_ref, borrowed), (r.into(), pos), "borrows what decoding copies");
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn parts_encoding_matches_record_encoding() {
        let cases: [(&[u8], u64, Option<&[u8]>); 4] = [
            (b"key", 42, Some(b"value")),
            (b"gone", 7, None),
            (b"", 0, Some(b"")),
            (b"k", u64::MAX, Some(&[0xAB; 300])),
        ];
        for (key, seq, value) in cases {
            let record = Record {
                key: Box::from(key),
                seq,
                value: value.map(Box::from),
            };
            let mut via_record = Vec::new();
            record.encode_into(&mut via_record);
            let mut via_parts = Vec::new();
            encode_record_parts(&mut via_parts, key, seq, value);
            assert_eq!(via_record, via_parts);
            let mut pos = 0;
            assert_eq!(Record::decode_from(&via_parts, &mut pos).unwrap(), record);
        }
    }

    #[test]
    fn record_truncation_is_error() {
        let mut buf = Vec::new();
        Record::put(&b"key"[..], 1, &b"value"[..]).encode_into(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            // Every strict prefix must fail to decode, never panic.
            assert!(Record::decode_from(&buf[..cut], &mut pos).is_err());
        }
    }

    #[test]
    fn lengths_past_the_buffer_are_corruption_not_overflow() {
        // klen + vlen wraps a u64; each alone is also far past the buffer.
        for (klen, vlen) in [(u64::MAX, 2), (u64::MAX / 2 + 1, u64::MAX / 2 + 1), (3, u64::MAX)] {
            let mut buf = Vec::new();
            put_varint(&mut buf, klen);
            put_varint(&mut buf, vlen);
            put_varint(&mut buf, 7);
            buf.extend_from_slice(&[0, b'k', b'e', b'y']);
            let err = RecordRef::decode_from(&buf, &mut 0);
            assert!(matches!(err, Err(StorageError::Corruption(_))), "{klen} {vlen}");
        }
    }

    /// The byte-at-a-time loop `crc32` replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference_on_every_length() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "length {len}");
        }
        // Unaligned starts take the same path through different bytes.
        for start in 1..16 {
            assert_eq!(crc32(&data[start..1000]), crc32_bytewise(&data[start..1000]));
        }
    }
}
