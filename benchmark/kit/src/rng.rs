//! The benchmark's own generator (xoshiro256** seeded through SplitMix64),
//! so that an edit to the repo's `rand` shim cannot change the inputs.

/// One SplitMix64 step: advances `state` and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

/// The SplitMix64 finalizer: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256**.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator for `stream` of `seed`: distinct streams of one seed
    /// (one per client thread, one per probe) are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut state = mix64(seed) ^ mix64(stream.wrapping_add(0x5bd1_e995));
        let s = std::array::from_fn(|_| splitmix64(&mut state));
        Self { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// ranges used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `per_mille` / 1000.
    #[inline]
    pub fn chance_per_mille(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..64).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::new(8, 0);
            (0..64).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1, 0);
        let mut seen = [0u32; 10];
        for _ in 0..10_000 {
            seen[r.below(10) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 800 && c < 1200), "{seen:?}");
    }
}
