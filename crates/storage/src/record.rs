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

/// CRC-32 (IEEE) over `data`, computed with a small table; used to validate
/// WAL frames and table footers.
pub fn crc32(data: &[u8]) -> u32 {
    // Table generated lazily once; polynomial 0xEDB88320.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xff) as usize];
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
        let (klen, vlen, seq) = decode_header(buf, pos)?;
        let key: Box<[u8]> = Box::from(&buf[*pos..*pos + klen]);
        *pos += klen;
        let value = vlen.map(|vlen| {
            let v: Box<[u8]> = Box::from(&buf[*pos..*pos + vlen]);
            *pos += vlen;
            v
        });
        Ok(Self { key, seq, value })
    }

    /// Advances `*pos` past one serialized record without materializing
    /// it, returning its key; fails exactly where [`Record::decode_from`]
    /// would.
    pub fn skip_encoded<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
        let (klen, vlen, _) = decode_header(buf, pos)?;
        let key = &buf[*pos..*pos + klen];
        *pos += klen + vlen.unwrap_or(0);
        Ok(key)
    }
}

/// Reads one record's `klen vlen seq flags` header at `*pos`, leaving
/// `*pos` on the key; returns `(klen, vlen, seq)` with `vlen` `None` for a
/// tombstone, having checked that key and value lie inside `buf`.
fn decode_header(buf: &[u8], pos: &mut usize) -> Result<(usize, Option<usize>, u64)> {
    let klen = get_varint(buf, pos)? as usize;
    let vlen = get_varint(buf, pos)? as usize;
    let seq = get_varint(buf, pos)?;
    let flags = *buf
        .get(*pos)
        .ok_or_else(|| StorageError::Corruption("truncated record flags".into()))?;
    *pos += 1;
    let vlen = (flags & 1 == 0).then_some(vlen);
    if buf.len() < *pos + klen + vlen.unwrap_or(0) {
        return Err(StorageError::Corruption("truncated record body".into()));
    }
    Ok((klen, vlen, seq))
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
        let (mut pos, mut skip) = (0, 0);
        for r in &records {
            let decoded = Record::decode_from(&buf, &mut pos).unwrap();
            assert_eq!(&decoded, r);
            let key = Record::skip_encoded(&buf, &mut skip).unwrap();
            assert_eq!((key, skip), (r.key.as_ref(), pos), "skips what decoding reads");
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
            assert!(Record::skip_encoded(&buf[..cut], &mut 0).is_err());
        }
    }
}
