//! Bloom filters for SSTables.
//!
//! LevelDB-style: a fixed number of bits per key, with `k` probe positions
//! derived by double hashing. Bloom filters let point reads skip tables
//! that cannot contain the key, which is what keeps FloDB's read path
//! competitive despite a mostly-disk-resident dataset (§5.2, Figure 10).

/// A serializable bloom filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
    k: u32,
}

/// The hash a key is filed under: everything the filter needs of a key, so
/// a table builder keeps 8 bytes per record instead of the key.
pub fn bloom_hash(key: &[u8]) -> u64 {
    // 64-bit FNV-1a; the upper and lower halves seed double hashing.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

impl Bloom {
    /// Builds a filter over `keys` with `bits_per_key` bits of budget each.
    pub fn build<'a>(keys: impl Iterator<Item = &'a [u8]>, n_keys: usize, bits_per_key: usize) -> Self {
        let mut bloom = Self::sized_for(n_keys, bits_per_key);
        for key in keys {
            bloom.insert_hash(bloom_hash(key));
        }
        bloom
    }

    /// [`Bloom::build`] from the keys' [`bloom_hash`]es: the same bits.
    pub fn from_hashes(hashes: &[u64], bits_per_key: usize) -> Self {
        let mut bloom = Self::sized_for(hashes.len(), bits_per_key);
        for &hash in hashes {
            bloom.insert_hash(hash);
        }
        bloom
    }

    /// An empty filter with room for `n_keys`.
    fn sized_for(n_keys: usize, bits_per_key: usize) -> Self {
        // k = bits_per_key * ln2 rounded, clamped to a sane range.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let nbits = (n_keys * bits_per_key).max(64);
        Self {
            bits: vec![0u8; nbits.div_ceil(8)],
            k,
        }
    }

    fn insert_hash(&mut self, h: u64) {
        let nbits = self.bits.len() as u64 * 8;
        let mut acc = h;
        let delta = h.rotate_left(17) | 1;
        for _ in 0..self.k {
            let bit = (acc % nbits) as usize;
            self.bits[bit / 8] |= 1 << (bit % 8);
            acc = acc.wrapping_add(delta);
        }
    }

    /// Returns `false` only if `key` was definitely not inserted.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if self.bits.is_empty() {
            return true;
        }
        let nbits = self.bits.len() * 8;
        let h = bloom_hash(key);
        let mut acc = h;
        let delta = h.rotate_left(17) | 1;
        for _ in 0..self.k {
            let bit = (acc % nbits as u64) as usize;
            if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                return false;
            }
            acc = acc.wrapping_add(delta);
        }
        true
    }

    /// Serializes the filter (`bits ++ k_byte`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.bits.clone();
        out.push(self.k as u8);
        out
    }

    /// Deserializes a filter produced by [`Bloom::encode`].
    pub fn decode(data: &[u8]) -> Self {
        if data.is_empty() {
            return Self { bits: Vec::new(), k: 1 };
        }
        let (bits, k) = data.split_at(data.len() - 1);
        Self {
            bits: bits.to_vec(),
            k: u32::from(k[0]).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| (i as u64).to_be_bytes().to_vec()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        for k in &ks {
            assert!(bloom.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let ks = keys(10_000);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        let mut fp = 0;
        let probes = 10_000;
        for i in 0..probes {
            let absent = (1_000_000u64 + i).to_be_bytes();
            if bloom.may_contain(&absent) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        // 10 bits/key gives ~1% theoretical; allow 3%.
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn filter_from_hashes_is_bit_identical_to_filter_from_keys() {
        for n in [0usize, 1, 7, 1000] {
            // Repeated keys too: a version run files its key once per version.
            let ks: Vec<Vec<u8>> = keys(n).into_iter().flat_map(|k| [k.clone(), k]).collect();
            let hashes: Vec<u64> = ks.iter().map(|k| bloom_hash(k)).collect();
            for bits_per_key in [1, 10, 16] {
                let from_keys = Bloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), bits_per_key);
                let from_hashes = Bloom::from_hashes(&hashes, bits_per_key);
                assert_eq!(from_keys, from_hashes);
                assert_eq!(from_keys.encode(), from_hashes.encode());
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(100);
        let bloom = Bloom::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
        let decoded = Bloom::decode(&bloom.encode());
        assert_eq!(bloom, decoded);
        for k in &ks {
            assert!(decoded.may_contain(k));
        }
    }

    #[test]
    fn empty_filter_admits_everything() {
        let bloom = Bloom::decode(&[]);
        assert!(bloom.may_contain(b"anything"));
    }

    #[test]
    fn zero_keys_filter_is_valid() {
        let bloom = Bloom::build(std::iter::empty(), 0, 10);
        // May return either way, but must not panic.
        let _ = bloom.may_contain(b"x");
        let decoded = Bloom::decode(&bloom.encode());
        let _ = decoded.may_contain(b"x");
    }
}
