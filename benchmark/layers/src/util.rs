//! What every probe shares: scaled counts, the metric collector, timing
//! and the median-of-batches rule.

use std::time::Instant;

use benchkit::quantile::median;
use benchkit::rng::{mix64, Rng};

/// Batches per probe; the reported value is their median.
pub const BATCHES: usize = 5;
/// Batches of the probes that move tens of megabytes or a hundred thousand
/// store operations each time: all probes together have to fit in the few
/// seconds a traced run can spare.
pub const HEAVY_BATCHES: usize = 3;
pub const VALUE_BYTES: usize = 256;

pub struct Probes {
    /// Full-scale counts are divided by this (20 under `--smoke`).
    divisor: u64,
    seed: u64,
    values: Vec<(String, f64)>,
}

impl Probes {
    pub fn new(divisor: u64, seed: u64) -> Self {
        Self {
            divisor,
            seed,
            values: Vec::new(),
        }
    }

    /// `full` operations at full scale, fewer under `--smoke`.
    pub fn n(&self, full: u64) -> u64 {
        (full / self.divisor).max(1)
    }

    /// The generator of one probe; the same stream gives the same inputs.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed, stream)
    }

    pub fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    pub fn values(&self) -> &[(String, f64)] {
        &self.values
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Runs `batch` `reps` times; returns the per-component medians, or the
/// first batch's error.
pub fn try_median_each<const N: usize>(
    reps: usize,
    batch: impl FnMut() -> Result<[f64; N], String>,
) -> Result<[f64; N], String> {
    let runs = std::iter::repeat_with(batch)
        .take(reps)
        .collect::<Result<Vec<[f64; N]>, String>>()?;
    Ok(std::array::from_fn(|i| {
        median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>())
    }))
}

/// [`try_median_each`] for batches that cannot fail.
pub fn median_each<const N: usize>(reps: usize, mut batch: impl FnMut() -> [f64; N]) -> [f64; N] {
    try_median_each(reps, || Ok(batch())).expect("an infallible batch")
}

/// Nanoseconds per operation of `f`, which performs `n` of them.
pub fn ns_per(n: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// The end-to-end workloads' keys: even 8-byte big-endian integers.
pub fn key(index: u64) -> [u8; 8] {
    (2 * index).to_be_bytes()
}

/// The never-written odd key above `key(index)`.
pub fn absent_key(index: u64) -> [u8; 8] {
    (2 * index + 1).to_be_bytes()
}

/// A key spread over the whole 64-bit space, so that every Membuffer
/// partition (chosen by the top key bits) takes its share.
pub fn spread_key(index: u64) -> [u8; 8] {
    mix64(index).to_be_bytes()
}

pub fn value(index: u64) -> [u8; VALUE_BYTES] {
    let mut v = [0u8; VALUE_BYTES];
    for (i, word) in v.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&mix64(index ^ (i as u64) << 48).to_le_bytes());
    }
    v
}
