//! Dense key-prefix search over sorted runs of keys.
//!
//! A binary search over boxed keys dereferences a separate heap key at
//! every step. The table index and the version's levels keep each key's
//! first eight bytes as one `u64` in a dense array instead, so a search
//! step reads one integer from a line that neighbouring steps share, and
//! whole keys are compared only inside the run of keys whose prefix
//! equals the probe's — for the 8-byte keys the benchmarks use, the one
//! key the probe equals, if any.

use std::cmp::Ordering;

/// The first 8 bytes of `key` as a big-endian integer, zero-padded.
///
/// The map is monotone: `a <= b` implies `key_prefix(a) <= key_prefix(b)`,
/// so `key_prefix(a) < key_prefix(b)` implies `a < b`. Equal prefixes
/// decide nothing (`"a"` and `"a\0"` share one), so ties fall back to the
/// whole keys.
pub fn key_prefix(key: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    let n = key.len().min(8);
    bytes[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(bytes)
}

/// A search key with its prefix, computed once per lookup.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    key: &'a [u8],
    prefix: u64,
}

impl<'a> Probe<'a> {
    /// Prepares `key` for searching.
    pub fn new(key: &'a [u8]) -> Self {
        Self {
            key,
            prefix: key_prefix(key),
        }
    }

    /// `partition_point` over a sorted run of keys: the number of leading
    /// keys below the probe (`< key`), or at or below it when `or_equal`.
    ///
    /// `prefixes[i]` is [`key_prefix`] of key `i`, and `key_at(i)` returns
    /// key `i`; it is called only for keys whose prefix equals the
    /// probe's, about `log2` of that run's length times.
    pub fn partition<'k>(
        &self,
        prefixes: &[u64],
        or_equal: bool,
        key_at: impl Fn(usize) -> &'k [u8],
    ) -> usize {
        let p = self.prefix;
        let hi = prefixes.partition_point(|&x| x <= p);
        if hi == 0 || prefixes[hi - 1] != p {
            return hi;
        }
        // The run of equal prefixes ends at `hi`: whole keys decide there.
        let (mut lo, mut hi) = (prefixes[..hi].partition_point(|&x| x < p), hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let below = match key_at(mid).cmp(self.key) {
                Ordering::Less => true,
                Ordering::Equal => or_equal,
                Ordering::Greater => false,
            };
            if below {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether `bound <= key`, where `prefix` is [`key_prefix`]`(bound)`.
    pub fn at_or_above(&self, prefix: u64, bound: &[u8]) -> bool {
        prefix < self.prefix || (prefix == self.prefix && bound <= self.key)
    }

    /// Whether `key <= bound`, where `prefix` is [`key_prefix`]`(bound)`.
    pub fn at_or_below(&self, prefix: u64, bound: &[u8]) -> bool {
        prefix > self.prefix || (prefix == self.prefix && self.key <= bound)
    }
}

/// Key strategies shared by the property tests of the searches built on
/// [`Probe`] (the table index's and the levels').
#[cfg(test)]
pub(crate) mod test_keys {
    use proptest::prelude::*;

    /// Keys that stress the prefix search: shorter than 8 bytes, with
    /// trailing or embedded zero bytes, and sharing a 12-byte prefix (so
    /// runs of equal prefixes, and the whole-key tie path, are common).
    pub(crate) fn tricky_key() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(0u8..3, 0..10),
            proptest::collection::vec(any::<u8>(), 0..12),
            proptest::collection::vec(0u8..2, 0..5).prop_map(|tail| [&[7u8; 12][..], &tail].concat()),
        ]
    }

    /// Sorted, deduplicated key sets: one key in a quarter of the cases.
    pub(crate) fn tricky_keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
        prop_oneof![
            1 => proptest::collection::vec(tricky_key(), 1..2),
            3 => proptest::collection::vec(tricky_key(), 1..200),
        ]
        .prop_map(|mut keys| {
            keys.sort();
            keys.dedup();
            keys
        })
    }

    /// Each key, the key with a zero byte appended, and the key less its
    /// last byte: the probes right at and beside every boundary.
    pub(crate) fn probes_around(keys: &[Vec<u8>], extra: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut probes = extra.to_vec();
        for k in keys {
            probes.push(k.clone());
            probes.push([k.as_slice(), &[0]].concat());
            probes.push(k[..k.len().saturating_sub(1)].to_vec());
        }
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_are_monotone_and_pad_with_zeros() {
        let mut keys: Vec<&[u8]> = vec![
            b"", b"\0", b"\0\0", b"a", b"a\0", b"a\0\0\0\0\0\0\0\0", b"a\0b", b"ab",
            b"abcdefgh", b"abcdefgh\0", b"abcdefghi", b"abcdefgi", b"\xff\xff",
        ];
        keys.sort();
        for w in keys.windows(2) {
            assert!(key_prefix(w[0]) <= key_prefix(w[1]), "{w:?}");
        }
        assert_eq!(key_prefix(b"a"), key_prefix(b"a\0"));
        assert_eq!(key_prefix(&7u64.to_be_bytes()), 7);
    }

    #[test]
    fn partition_matches_whole_key_partition_point() {
        let keys: Vec<&[u8]> = vec![b"", b"a", b"a\0", b"abcdefgh1", b"abcdefgh2", b"b"];
        let prefixes: Vec<u64> = keys.iter().map(|k| key_prefix(k)).collect();
        for probe in [
            &b""[..], b"\0", b"a", b"a\0", b"a\0\0", b"abcdefgh", b"abcdefgh1", b"abcdefgh15",
            b"abcdefgh3", b"b", b"c",
        ] {
            for or_equal in [false, true] {
                let want = keys.partition_point(|k| if or_equal { *k <= probe } else { *k < probe });
                let got = Probe::new(probe).partition(&prefixes, or_equal, |i| keys[i]);
                assert_eq!(got, want, "{probe:?} or_equal {or_equal}");
            }
        }
    }
}
