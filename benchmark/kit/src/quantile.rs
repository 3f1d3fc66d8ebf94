//! Exact latency quantiles over recorded samples, and the median/spread
//! rule every reported metric goes through.

/// Quantiles of one set of latency samples (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    pub count: usize,
    pub p50_ns: u32,
    pub p99_ns: u32,
    pub p999_ns: u32,
    pub max_ns: u32,
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `num/den` of all samples at or below it.
pub fn quantile_sorted(sorted: &[u32], num: usize, den: usize) -> u32 {
    assert!(!sorted.is_empty() && (1..=den).contains(&num));
    let rank = (sorted.len() * num).div_ceil(den);
    sorted[rank - 1]
}

/// Sorts `samples` in place and summarizes them; an empty set gives zeros.
pub fn summarize(samples: &mut [u32]) -> LatencySummary {
    if samples.is_empty() {
        return LatencySummary::default();
    }
    samples.sort_unstable();
    LatencySummary {
        count: samples.len(),
        p50_ns: quantile_sorted(samples, 1, 2),
        p99_ns: quantile_sorted(samples, 99, 100),
        p999_ns: quantile_sorted(samples, 999, 1000),
        max_ns: samples[samples.len() - 1],
    }
}

/// A metric over several windows: its median, and the extremes beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverWindows {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl OverWindows {
    /// (max − min) as a percentage of the median; 0 for a zero median.
    pub fn spread_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            100.0 * (self.max - self.min) / self.median.abs()
        }
    }
}

/// Median (mean of the middle pair for an even count), minimum and maximum.
pub fn over_windows(values: &[f64]) -> OverWindows {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    OverWindows {
        median,
        min: v[0],
        max: v[v.len() - 1],
    }
}

pub fn median(values: &[f64]) -> f64 {
    over_windows(values).median
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The oracle: by definition, at least `num/den` of the samples are at
    /// or below the quantile, and fewer than that are strictly below it.
    fn check_against_oracle(samples: &[u32], num: usize, den: usize) {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let q = quantile_sorted(&sorted, num, den);
        let at_or_below = samples.iter().filter(|&&s| s <= q).count();
        let below = samples.iter().filter(|&&s| s < q).count();
        assert!(at_or_below * den >= samples.len() * num, "{num}/{den}");
        assert!(below * den < samples.len() * num, "{num}/{den}");
        assert!(samples.contains(&q));
    }

    #[test]
    fn quantiles_match_sorted_vector_oracle() {
        let mut rng = Rng::new(42, 0);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            // Heavy-tailed with many ties, like real latencies.
            let samples: Vec<u32> = (0..n)
                .map(|_| {
                    let base = 1000 + rng.below(64) as u32;
                    if rng.chance_per_mille(15) {
                        base * 1000
                    } else {
                        base
                    }
                })
                .collect();
            for (num, den) in [(1, 2), (99, 100), (999, 1000), (1, 1), (1, 1_000_000)] {
                check_against_oracle(&samples, num, den);
            }
            let mut copy = samples.clone();
            let s = summarize(&mut copy);
            assert_eq!(s.count, n);
            assert_eq!(s.max_ns, *samples.iter().max().unwrap());
            assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns && s.p999_ns <= s.max_ns);
        }
    }

    #[test]
    fn known_small_cases() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 1, 2), 50);
        assert_eq!(quantile_sorted(&v, 99, 100), 99);
        assert_eq!(quantile_sorted(&v, 999, 1000), 100);
        assert_eq!(summarize(&mut []), LatencySummary::default());
    }

    #[test]
    fn over_windows_median_and_spread() {
        let w = over_windows(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((w.median, w.min, w.max), (3.0, 1.0, 5.0));
        assert!((w.spread_pct() - 133.333).abs() < 0.01);
        assert_eq!(over_windows(&[4.0, 2.0]).median, 3.0);
        assert_eq!(over_windows(&[0.0]).spread_pct(), 0.0);
    }
}
