//! The `[len u32][crc u32][payload]` frame: the one codec under the WAL,
//! the MANIFEST and the `SHARDING` record.
//!
//! `len` and `crc` are little-endian; `crc` is [`crc32`] of the payload
//! alone. Writers either [`seal`] a frame assembled in place (the commit
//! group, whose payload must not be copied again) or [`push`] a small
//! payload behind its header. Readers walk a buffer with [`Frames`], which
//! yields every intact payload in order and then says how the run ended —
//! the single place that decides what a torn tail is:
//!
//! - **clean**: the buffer ends exactly at a frame boundary;
//! - **torn**: the bytes run out inside a header or inside the payload the
//!   header announces — what a crash in the middle of an append leaves. A
//!   damaged length that points past the buffer reads the same way, and
//!   nothing tells the two apart;
//! - **corrupt**: header and payload are all there and the checksum does
//!   not match.
//!
//! Whether a torn or corrupt tail is the crash point (WAL, MANIFEST) or an
//! error (`SHARDING`, written once and never appended to) is the caller's
//! policy; no payload past the first bad frame is ever yielded.

use crate::record::crc32;

/// Bytes of the frame header (`len u32` + `crc u32`).
pub const HEADER_BYTES: usize = 8;

/// Seals a frame assembled in place: `frame` starts with [`HEADER_BYTES`]
/// of reserved space followed by the payload; the payload's length and
/// checksum are written into the reserved space.
pub fn seal(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(HEADER_BYTES);
    let len = u32::try_from(payload.len()).expect("frame payload under 4 GiB");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Appends `payload` to `out` as one sealed frame.
pub fn push(out: &mut Vec<u8>, payload: &[u8]) {
    let start = out.len();
    out.reserve(HEADER_BYTES + payload.len());
    out.extend_from_slice(&[0; HEADER_BYTES]);
    out.extend_from_slice(payload);
    seal(&mut out[start..]);
}

/// How a run of frames ended (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The buffer ended at a frame boundary.
    Clean,
    /// The buffer ended inside a frame.
    Torn,
    /// A complete frame failed its checksum.
    Corrupt,
}

/// Iterates the intact frame payloads of a buffer, stopping for good at
/// the first torn or corrupt frame.
#[derive(Debug)]
pub struct Frames<'a> {
    rest: &'a [u8],
    tail: Tail,
}

impl<'a> Frames<'a> {
    /// Starts at the first byte of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            rest: data,
            tail: Tail::Clean,
        }
    }

    /// How the run ended. Meaningful once [`Iterator::next`] has returned
    /// `None`; [`Tail::Clean`] until then.
    pub fn tail(&self) -> Tail {
        self.tail
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() || self.tail != Tail::Clean {
            return None;
        }
        let Some((header, body)) = self.rest.split_at_checked(HEADER_BYTES) else {
            self.tail = Tail::Torn;
            return None;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let Some((payload, rest)) = body.split_at_checked(len) else {
            self.tail = Tail::Torn;
            return None;
        };
        if crc32(payload) != crc {
            self.tail = Tail::Corrupt;
            return None;
        }
        self.rest = rest;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            push(&mut out, p);
        }
        out
    }

    #[test]
    fn seal_in_place_and_push_write_the_same_bytes() {
        let mut in_place = vec![0xEE; HEADER_BYTES];
        in_place.extend_from_slice(b"payload");
        seal(&mut in_place);
        assert_eq!(in_place, framed(&[b"payload"]));
        assert_eq!(&in_place[..4], 7u32.to_le_bytes().as_slice());
        assert_eq!(&in_place[4..8], crc32(b"payload").to_le_bytes().as_slice());
    }

    #[test]
    fn frames_yield_the_intact_prefix_and_name_the_tail() {
        let two = framed(&[b"first", b""]);
        let with = |tail: &[u8]| [two.as_slice(), tail].concat();
        let third = framed(&[b"third frame"]);
        let mut bad_crc = third.clone();
        *bad_crc.last_mut().unwrap() ^= 0x01;
        let mut long_len = third.clone();
        long_len[..4].copy_from_slice(&(third.len() as u32).to_le_bytes());

        // (name, buffer, intact payloads, tail)
        let cases: [(&str, Vec<u8>, usize, Tail); 7] = [
            ("empty", Vec::new(), 0, Tail::Clean),
            ("clean end", two.clone(), 2, Tail::Clean),
            ("clean end, three", with(&third), 3, Tail::Clean),
            (
                "torn header",
                with(&third[..HEADER_BYTES - 1]),
                2,
                Tail::Torn,
            ),
            (
                "torn payload",
                with(&third[..third.len() - 1]),
                2,
                Tail::Torn,
            ),
            ("corrupt crc", with(&bad_crc), 2, Tail::Corrupt),
            ("length past the buffer", with(&long_len), 2, Tail::Torn),
        ];
        for (name, buffer, intact, tail) in cases {
            let mut frames = Frames::new(&buffer);
            let payloads: Vec<&[u8]> = frames.by_ref().collect();
            let want: [&[u8]; 3] = [b"first", b"", b"third frame"];
            assert_eq!(payloads, want[..intact], "{name}");
            assert_eq!(frames.tail(), tail, "{name}");
            assert_eq!(
                frames.next(),
                None,
                "{name}: a stopped reader stays stopped"
            );
        }
    }

    #[test]
    fn nothing_after_a_bad_frame_is_yielded() {
        // An intact frame behind a corrupt one must stay out of reach: the
        // corrupt frame's length field is not trustworthy either.
        let mut buffer = framed(&[b"good", b"bad"]);
        let flip = buffer.len() - 1;
        buffer[flip] ^= 0xFF;
        push(&mut buffer, b"unreachable");
        let mut frames = Frames::new(&buffer);
        assert_eq!(frames.by_ref().collect::<Vec<_>>(), [b"good".as_slice()]);
        assert_eq!(frames.tail(), Tail::Corrupt);
    }
}
