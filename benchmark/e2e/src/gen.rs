//! Keys, checkable values and key distributions.
//!
//! Keys are the 8-byte big-endian **even** integers `2i`, `i < K`. Odd keys
//! are never written, so an absent key lies inside every table's key range
//! and has to be rejected by the bloom filter, not by the range check.
//! A value holds its key, a version and a fill derived from both, so any
//! value the store returns can be checked without remembering what was
//! written.

use benchkit::rng::{mix64, splitmix64, Rng};

pub const KEY_BYTES: usize = 8;
pub const VALUE_BYTES: usize = 256;
/// User bytes one put acknowledges.
pub const ENTRY_BYTES: u64 = (KEY_BYTES + VALUE_BYTES) as u64;
/// Client threads of every workload.
pub const CLIENTS: usize = 2;
/// Key index `i` is private to client `c` when `i % PRIVATE_MODULUS == c`:
/// only `c` writes it, so `c` knows the version a later read must return.
pub const PRIVATE_MODULUS: u64 = 64;
/// The version the bulk load writes.
pub const LOAD_VERSION: u64 = 1;

#[inline]
pub fn key(index: u64) -> [u8; KEY_BYTES] {
    (2 * index).to_be_bytes()
}

/// The never-written odd key just above `key(index)`.
#[inline]
pub fn absent_key(index: u64) -> [u8; KEY_BYTES] {
    (2 * index + 1).to_be_bytes()
}

/// The index of an even key; `None` for anything else.
pub fn key_index(key: &[u8]) -> Option<u64> {
    let raw = u64::from_be_bytes(key.try_into().ok()?);
    (raw % 2 == 0).then_some(raw / 2)
}

pub fn fill_value(buf: &mut [u8; VALUE_BYTES], index: u64, version: u64) {
    buf[..8].copy_from_slice(&key(index));
    buf[8..16].copy_from_slice(&version.to_le_bytes());
    let mut state = mix64(index) ^ version.rotate_left(32);
    for word in buf[16..].chunks_exact_mut(8) {
        word.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
}

/// The version `value` carries if it is, byte for byte, what
/// `fill_value(index, version)` wrote; `None` otherwise.
pub fn check_value(value: &[u8], index: u64) -> Option<u64> {
    if value.len() != VALUE_BYTES {
        return None;
    }
    let version = u64::from_le_bytes(value[8..16].try_into().ok()?);
    let mut expected = [0u8; VALUE_BYTES];
    fill_value(&mut expected, index, version);
    (value == expected).then_some(version)
}

/// Moves an index that is private to another client onto `client`'s own
/// private index of the same group of 64, so nobody writes a private key
/// but its owner.
#[inline]
pub fn own(index: u64, client: usize) -> u64 {
    let slot = index % PRIVATE_MODULUS;
    if slot < CLIENTS as u64 {
        index - slot + client as u64
    } else {
        index
    }
}

/// How operations pick key indexes in `0..k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    Uniform,
    /// The paper's §5.4 skew: 98 % of draws from a hot 2 % of the keys,
    /// strided across the key space; the rest uniform.
    Hot98,
}

pub const HOT_SHARE_PER_MILLE: u64 = 980;
/// One key in `HOT_STRIDE` is hot (2 %).
pub const HOT_STRIDE: u64 = 50;

impl Dist {
    #[inline]
    pub fn draw(self, rng: &mut Rng, k: u64) -> u64 {
        match self {
            Dist::Uniform => rng.below(k),
            Dist::Hot98 => {
                if rng.chance_per_mille(HOT_SHARE_PER_MILLE) {
                    rng.below(k / HOT_STRIDE) * HOT_STRIDE
                } else {
                    rng.below(k)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_check_and_any_flipped_byte_is_caught() {
        let mut v = [0u8; VALUE_BYTES];
        fill_value(&mut v, 12345, 77);
        assert_eq!(check_value(&v, 12345), Some(77));
        assert_eq!(check_value(&v, 12346), None, "another key's value");
        assert_eq!(check_value(&v[..255], 12345), None);
        for pos in [0, 7, 16, 100, 255] {
            let mut bad = v;
            bad[pos] ^= 1;
            assert_eq!(check_value(&bad, 12345), None, "flip at {pos}");
        }
        // A flipped version byte makes the fill disagree.
        let mut bad = v;
        bad[9] ^= 1;
        assert_eq!(check_value(&bad, 12345), None);
    }

    #[test]
    fn keys_are_even_ordered_and_invertible() {
        assert!(key(3) < key(4) && key(255) < key(256));
        assert_eq!(key_index(&key(999_999)), Some(999_999));
        assert_eq!(key_index(&absent_key(5)), None);
        assert!(key(5) < absent_key(5) && absent_key(5) < key(6));
        assert_eq!(key_index(b"short"), None);
    }

    #[test]
    fn own_never_yields_another_clients_private_index() {
        for i in 0..1000u64 {
            for c in 0..CLIENTS {
                let o = own(i, c);
                let slot = o % PRIVATE_MODULUS;
                assert!(slot >= CLIENTS as u64 || slot == c as u64);
                assert_eq!(o / PRIVATE_MODULUS, i / PRIVATE_MODULUS);
            }
        }
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_match_the_stated_shares() {
        let k = 1_000_000;
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (0..200_000)
                .map(|_| Dist::Hot98.draw(&mut rng, k))
                .collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        assert!(a.iter().all(|&i| i < k));
        // 98 % hot draws plus the 2 % of uniform draws that land on a hot key.
        let hot = a.iter().filter(|&&i| i % HOT_STRIDE == 0).count() as f64 / a.len() as f64;
        assert!((hot - 0.9804).abs() < 0.003, "hot share {hot}");
        let distinct_hot: std::collections::BTreeSet<_> =
            a.iter().filter(|&&i| i % HOT_STRIDE == 0).collect();
        assert!(distinct_hot.len() as u64 > k / HOT_STRIDE * 9 / 10);

        let mut rng = Rng::new(5, 0);
        let u: Vec<u64> = (0..200_000)
            .map(|_| Dist::Uniform.draw(&mut rng, k))
            .collect();
        let low_half = u.iter().filter(|&&i| i < k / 2).count() as f64 / u.len() as f64;
        assert!((low_half - 0.5).abs() < 0.01, "uniform low half {low_half}");
    }
}
