//! Configuration for a FloDB instance.

use flodb_storage::{DiskOptions, Env, MemEnv, ThrottleConfig};
use flodb_sync::shim::Arc;

use crate::error::OptionsError;
use crate::telemetry::TelemetryLevel;

/// Write-ahead-log durability mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMode {
    /// No commit log; a crash loses the memory component (the default for
    /// benchmarks, matching the paper's setup).
    Disabled,
    /// Append every update to the log before acknowledging.
    Enabled {
        /// Fsync each batch (durability over latency).
        sync: bool,
    },
}

/// Options controlling the FloDB memory component, background threads and
/// disk substrate.
#[derive(Clone)]
pub struct FloDbOptions {
    /// Total memory-component byte budget (Membuffer + Memtable). The
    /// paper's default is 128 MB (§5.1).
    pub memory_bytes: usize,
    /// Fraction of `memory_bytes` given to the Membuffer; the paper uses
    /// 1/4 (§5.1).
    pub membuffer_fraction: f64,
    /// Number of most-significant key bits selecting a Membuffer partition
    /// (`l`, §4.3).
    pub partition_bits: u32,
    /// Expected average entry footprint, used to size Membuffer buckets
    /// (paper workloads: 8 B keys + 256 B values).
    pub avg_entry_bytes: usize,
    /// Number of background draining threads (§4.2; at least 1 unless the
    /// Membuffer is disabled).
    pub drain_threads: usize,
    /// Use skiplist multi-insert for draining; `false` falls back to
    /// simple inserts (the Figure 17 ablation).
    pub use_multi_insert: bool,
    /// Enable the Membuffer level; `false` degenerates to the classic
    /// single-level design ("No HT" in Figure 17).
    pub membuffer_enabled: bool,
    /// Force every scan to establish a fresh sequence number (linearizable
    /// scans at the cost of a full drain per scan, §4.4 "Correctness").
    pub linearizable_scans: bool,
    /// Persist immutable Memtables to disk; `false` drops them instead,
    /// isolating memory-component throughput (the Figure 17 mode).
    pub persist_enabled: bool,
    /// Commit-log mode.
    pub wal: WalMode,
    /// Log bytes written since the last Memtable switch that make a
    /// switch due even though the Memtable is below its trigger. Every
    /// switch rolls the log to a fresh segment and, once its flush is
    /// durable, deletes the segments it sealed, so this bounds the active
    /// segment — the log a workload of in-place updates fills faster than
    /// the Memtable — and the on-disk log stays within about one segment
    /// plus one Memtable's worth under indefinite write traffic; recovery
    /// replays only the live generations.
    pub wal_segment_max_bytes: usize,
    /// Disk component tuning.
    pub disk: DiskOptions,
    /// Storage environment (simulated or real disk).
    pub env: Arc<dyn Env>,
    /// How much the engine measures itself (see
    /// [`crate::telemetry::TelemetryLevel`]): `Off` reduces every
    /// telemetry site to a branch on a cached enum, `Counters` adds the
    /// flight recorder plus stall/fsync duration counters, `Full` adds
    /// per-op and per-stage latency histograms.
    pub telemetry: TelemetryLevel,
}

impl std::fmt::Debug for FloDbOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FloDbOptions")
            .field("memory_bytes", &self.memory_bytes)
            .field("membuffer_fraction", &self.membuffer_fraction)
            .field("partition_bits", &self.partition_bits)
            .field("drain_threads", &self.drain_threads)
            .field("use_multi_insert", &self.use_multi_insert)
            .field("membuffer_enabled", &self.membuffer_enabled)
            .field("persist_enabled", &self.persist_enabled)
            .finish_non_exhaustive()
    }
}

impl FloDbOptions {
    /// Paper-shaped defaults on an unthrottled in-memory disk: 128 MB
    /// memory component split 1/4 Membuffer, 3/4 Memtable.
    pub fn default_in_memory() -> Self {
        Self {
            memory_bytes: 128 * 1024 * 1024,
            membuffer_fraction: 0.25,
            partition_bits: 4,
            avg_entry_bytes: 280,
            drain_threads: 1,
            use_multi_insert: true,
            membuffer_enabled: true,
            linearizable_scans: false,
            persist_enabled: true,
            wal: WalMode::Disabled,
            wal_segment_max_bytes: 64 * 1024 * 1024,
            disk: DiskOptions::default(),
            env: Arc::new(MemEnv::new(None)),
            telemetry: TelemetryLevel::Counters,
        }
    }

    /// Same shape throttled like the paper's SSD (Figure 9's persistence
    /// bottleneck).
    pub fn paper_ssd() -> Self {
        Self {
            env: Arc::new(MemEnv::new(Some(ThrottleConfig::paper_ssd()))),
            ..Self::default_in_memory()
        }
    }

    /// A tiny configuration for unit and integration tests: small memory
    /// component, aggressive flushing, fast compaction.
    pub fn small_for_tests() -> Self {
        let mut disk = DiskOptions::default();
        disk.compaction.l0_trigger = 2;
        disk.compaction.base_level_bytes = 64 * 1024;
        disk.compaction.target_file_bytes = 32 * 1024;
        Self {
            memory_bytes: 256 * 1024,
            avg_entry_bytes: 64,
            // Big enough that the Memtable trigger, not the log bound,
            // switches short tests; rotation tests shrink it explicitly.
            wal_segment_max_bytes: 256 * 1024,
            disk,
            ..Self::default_in_memory()
        }
    }

    /// Byte budget of the Membuffer level.
    pub fn membuffer_bytes(&self) -> usize {
        (self.memory_bytes as f64 * self.membuffer_fraction) as usize
    }

    /// Byte budget of the Memtable level; a Memtable this large is
    /// switched out and persisted.
    pub fn memtable_bytes(&self) -> usize {
        self.memory_bytes - self.membuffer_bytes()
    }

    /// Validates option consistency, reporting the first violation as a
    /// structured, matchable [`OptionsError`].
    pub fn validate(&self) -> Result<(), OptionsError> {
        if !(0.0..1.0).contains(&self.membuffer_fraction) {
            return Err(OptionsError::MembufferFraction {
                got: self.membuffer_fraction,
            });
        }
        if self.partition_bits > 16 {
            return Err(OptionsError::PartitionBits {
                got: self.partition_bits,
            });
        }
        if self.membuffer_enabled && self.drain_threads == 0 {
            return Err(OptionsError::NoDrainThreads);
        }
        if self.memory_bytes < 64 * 1024 {
            return Err(OptionsError::MemoryBytes {
                got: self.memory_bytes,
            });
        }
        if self.wal_segment_max_bytes == 0 {
            return Err(OptionsError::ZeroWalSegmentBytes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_split_is_quarter() {
        let o = FloDbOptions::default_in_memory();
        assert_eq!(o.membuffer_bytes(), 32 * 1024 * 1024);
        assert_eq!(o.memtable_bytes(), 96 * 1024 * 1024);
        o.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut o = FloDbOptions::small_for_tests();
        o.membuffer_fraction = 1.5;
        assert!(matches!(
            o.validate(),
            Err(OptionsError::MembufferFraction { got }) if got == 1.5
        ));

        let mut o = FloDbOptions::small_for_tests();
        o.drain_threads = 0;
        assert_eq!(o.validate(), Err(OptionsError::NoDrainThreads));

        let mut o = FloDbOptions::small_for_tests();
        o.membuffer_enabled = false;
        o.drain_threads = 0;
        assert!(o.validate().is_ok(), "no drainers needed without Membuffer");

        let mut o = FloDbOptions::small_for_tests();
        o.memory_bytes = 1;
        assert_eq!(o.validate(), Err(OptionsError::MemoryBytes { got: 1 }));

        let mut o = FloDbOptions::small_for_tests();
        o.partition_bits = 17;
        assert_eq!(o.validate(), Err(OptionsError::PartitionBits { got: 17 }));

        let mut o = FloDbOptions::small_for_tests();
        o.wal_segment_max_bytes = 0;
        assert_eq!(o.validate(), Err(OptionsError::ZeroWalSegmentBytes));
    }
}
