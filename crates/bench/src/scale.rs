//! Experiment scaling: paper-testbed parameters → container-feasible runs.

use std::time::Duration;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Scale knobs shared by every figure bench.
///
/// Defaults target a ~2-core CI container; override via environment:
///
/// | Variable | Meaning | Default |
/// |---|---|---|
/// | `FLODB_BENCH_DATASET` | dataset size in keys | 200_000 |
/// | `FLODB_BENCH_MS` | measured milliseconds per cell | 800 |
/// | `FLODB_BENCH_MAX_THREADS` | cap on thread sweeps | 8 |
/// | `FLODB_BENCH_MEM_MB` | base memory-component size (MB) | 32 |
/// | `FLODB_BENCH_VALUE` | value size in bytes | 256 |
/// | `FLODB_BENCH_DISK_MBPS` | SimDisk write bandwidth (MB/s) | 64 |
///
/// The memory default matters: the Membuffer is 1/4 of the memory
/// component, and it only absorbs writes if its capacity comfortably
/// exceeds `drain latency x write rate`. Below ~8 MB the hash table is so
/// small that most writes fall through to the Memtable and the two-tier
/// design degenerates (the paper's smallest configuration is 128 MB).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Dataset size in keys (paper: ~1.1 B keys = 300 GB).
    pub dataset: u64,
    /// Measured duration per cell.
    pub cell_time: Duration,
    /// Maximum threads in sweeps (paper sweeps to 16 or 128).
    pub max_threads: usize,
    /// Base memory-component bytes (paper default: 128 MB).
    pub memory_bytes: usize,
    /// Value size (paper: 256 B).
    pub value_bytes: usize,
    /// SimDisk sustained write bandwidth in bytes/s.
    pub disk_bytes_per_sec: u64,
}

impl Scale {
    /// Reads the scale from the environment (see type docs).
    pub fn from_env() -> Self {
        Self {
            dataset: env_u64("FLODB_BENCH_DATASET", 200_000),
            cell_time: Duration::from_millis(env_u64("FLODB_BENCH_MS", 800)),
            max_threads: env_u64("FLODB_BENCH_MAX_THREADS", 8) as usize,
            memory_bytes: env_u64("FLODB_BENCH_MEM_MB", 32) as usize * 1024 * 1024,
            value_bytes: env_u64("FLODB_BENCH_VALUE", 256) as usize,
            disk_bytes_per_sec: env_u64("FLODB_BENCH_DISK_MBPS", 64) * 1024 * 1024,
        }
    }

    /// The paper's thread sweep `[1, 2, 4, 8, 16]`, capped by
    /// `max_threads`.
    pub fn thread_sweep(&self) -> Vec<usize> {
        [1usize, 2, 4, 8, 16, 32, 64, 128]
            .into_iter()
            .filter(|t| *t <= self.max_threads)
            .collect()
    }

    /// A geometric sweep of `steps` doublings starting at
    /// `memory_bytes / div`, for figures whose x-axis must dip *below* the
    /// default size (the paper's memory sweeps start at 128 MB while its
    /// other experiments run at 128 MB — scaled down, the sweep must
    /// bracket the default from below to show the degradation/crossover).
    pub fn memory_sweep_from(&self, div: usize, steps: usize) -> Vec<usize> {
        let base = (self.memory_bytes / div.max(1)).max(1024 * 1024);
        (0..steps).map(|i| base << i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = Scale::from_env();
        assert!(s.dataset > 0);
        assert!(!s.thread_sweep().is_empty());
        assert_eq!(s.memory_sweep_from(2, 3).len(), 3);
    }

    #[test]
    fn thread_sweep_is_capped() {
        let s = Scale {
            dataset: 1,
            cell_time: Duration::from_millis(1),
            max_threads: 4,
            memory_bytes: 1,
            value_bytes: 1,
            disk_bytes_per_sec: 1,
        };
        assert_eq!(s.thread_sweep(), vec![1, 2, 4]);
    }
}
