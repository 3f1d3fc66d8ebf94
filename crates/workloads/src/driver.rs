//! The multi-threaded measurement driver.
//!
//! "Each experiment consists of a number of threads concurrently
//! performing operations on the data store — searching, inserting or
//! deleting keys — continually. Each operation is chosen at random,
//! according to the given workload probability distribution, and performed
//! on a key drawn uniformly at random" (§5.2). Scans count toward key
//! throughput with their full range length, as in Golan-Gueta et al.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flodb_core::telemetry::Histogram;
use flodb_core::KvStore;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::keys::KeyDistribution;
use crate::mix::{OpKind, OperationMix};

/// Configuration of one measured run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Wall-clock duration of the run (ignored if `ops_per_thread` set).
    pub duration: Duration,
    /// Fixed operation count per thread instead of a timed run.
    pub ops_per_thread: Option<u64>,
    /// Operation mix.
    pub mix: OperationMix,
    /// Key distribution.
    pub keys: KeyDistribution,
    /// Value payload size (the paper uses 256 B).
    pub value_bytes: usize,
    /// Keys per scan (the paper's default scan range is 100 keys).
    pub scan_len: u64,
    /// Base RNG seed; thread `t` uses `seed + t`.
    pub seed: u64,
    /// Record per-operation latency histograms.
    pub measure_latency: bool,
    /// Thread 0 writes, all others read (the Figure 12 workload),
    /// overriding `mix` per-thread.
    pub single_writer: bool,
    /// Shard count the store under test is built with; 1 = unsharded.
    /// Consumed by store construction ([`crate::init::build_flodb_store`])
    /// — the driver loop itself is store-agnostic and just records the
    /// knob so reports can label sharded runs.
    pub shards: u32,
}

impl WorkloadConfig {
    /// A short default run, to be customized per experiment.
    pub fn new(threads: usize, mix: OperationMix, keys: KeyDistribution) -> Self {
        Self {
            threads,
            duration: Duration::from_secs(2),
            ops_per_thread: None,
            mix,
            keys,
            value_bytes: 256,
            scan_len: 100,
            seed: 0xF10D_B,
            measure_latency: false,
            single_writer: false,
            shards: 1,
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock time measured.
    pub elapsed: Duration,
    /// Total operations completed.
    pub total_ops: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes (inserts + deletes) completed.
    pub writes: u64,
    /// Scans completed.
    pub scans: u64,
    /// Keys touched (reads + writes + keys returned by scans).
    pub keys_accessed: u64,
    /// Writes the store rejected (`WriteError`). A worker that sees one
    /// stops — a store latched by poison or degradation rejects every
    /// later write, so spinning on it would only inflate the error count
    /// — and the run completes with whatever the healthy workers did. A
    /// benchmark must end with this at 0; the fault suites are the place
    /// where it is allowed to be nonzero.
    pub write_failures: u64,
    /// Read latency histogram (if measured).
    pub read_latency: Histogram,
    /// Write latency histogram (if measured).
    pub write_latency: Histogram,
    /// Scan latency histogram (if measured).
    pub scan_latency: Histogram,
}

impl RunReport {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Keys accessed per second (the metric of Figures 13-14).
    pub fn keys_per_sec(&self) -> f64 {
        self.keys_accessed as f64 / self.elapsed.as_secs_f64()
    }
}

struct ThreadResult {
    ops: u64,
    reads: u64,
    writes: u64,
    scans: u64,
    keys_accessed: u64,
    write_failures: u64,
    read_latency: Histogram,
    write_latency: Histogram,
    scan_latency: Histogram,
}

/// Runs `cfg` against `store` and reports throughput.
pub fn run_workload(store: &Arc<dyn KvStore>, cfg: &WorkloadConfig) -> RunReport {
    cfg.mix.validate().expect("invalid operation mix");
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..cfg.threads {
        let store = Arc::clone(store);
        let stop = Arc::clone(&stop);
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            worker(t, &*store, &cfg, &stop)
        }));
    }
    if cfg.ops_per_thread.is_none() {
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Release);
    }
    let mut report = RunReport {
        elapsed: Duration::ZERO,
        total_ops: 0,
        reads: 0,
        writes: 0,
        scans: 0,
        keys_accessed: 0,
        write_failures: 0,
        read_latency: Histogram::new(),
        write_latency: Histogram::new(),
        scan_latency: Histogram::new(),
    };
    for h in handles {
        let r = h.join().expect("worker panicked");
        report.total_ops += r.ops;
        report.reads += r.reads;
        report.writes += r.writes;
        report.scans += r.scans;
        report.keys_accessed += r.keys_accessed;
        report.write_failures += r.write_failures;
        report.read_latency.merge(&r.read_latency);
        report.write_latency.merge(&r.write_latency);
        report.scan_latency.merge(&r.scan_latency);
    }
    report.elapsed = start.elapsed();
    report
}

fn worker(
    thread_id: usize,
    store: &dyn KvStore,
    cfg: &WorkloadConfig,
    stop: &AtomicBool,
) -> ThreadResult {
    let mut rng = SmallRng::seed_from_u64(cfg.seed + thread_id as u64);
    let value = vec![0x5Au8; cfg.value_bytes];
    let n = cfg.keys.n();
    let mut result = ThreadResult {
        ops: 0,
        reads: 0,
        writes: 0,
        scans: 0,
        keys_accessed: 0,
        write_failures: 0,
        read_latency: Histogram::new(),
        write_latency: Histogram::new(),
        scan_latency: Histogram::new(),
    };
    let budget = cfg.ops_per_thread.unwrap_or(u64::MAX);
    while result.ops < budget {
        if cfg.ops_per_thread.is_none() && stop.load(Ordering::Acquire) {
            break;
        }
        let kind = if cfg.single_writer {
            if thread_id == 0 {
                OpKind::Insert
            } else {
                OpKind::Read
            }
        } else {
            cfg.mix.sample(&mut rng)
        };
        let key_idx = cfg.keys.sample(&mut rng);
        let key = KeyDistribution::encode(key_idx);
        let t0 = cfg.measure_latency.then(Instant::now);
        match kind {
            OpKind::Read => {
                let _ = store.get(&key);
                result.reads += 1;
                result.keys_accessed += 1;
                if let Some(t0) = t0 {
                    result.read_latency.record(t0.elapsed().as_nanos() as u64);
                }
            }
            OpKind::Insert => {
                // A rejected write means the store latched itself closed
                // (poison/degraded); stop this worker rather than panic
                // across the thread boundary — the report carries the
                // count (`RunReport::write_failures`).
                if store.put(&key, &value).is_err() {
                    result.write_failures += 1;
                    break;
                }
                result.writes += 1;
                result.keys_accessed += 1;
                if let Some(t0) = t0 {
                    result.write_latency.record(t0.elapsed().as_nanos() as u64);
                }
            }
            OpKind::Delete => {
                if store.delete(&key).is_err() {
                    result.write_failures += 1;
                    break;
                }
                result.writes += 1;
                result.keys_accessed += 1;
                if let Some(t0) = t0 {
                    result.write_latency.record(t0.elapsed().as_nanos() as u64);
                }
            }
            OpKind::Scan => {
                let low = key_idx.min(n.saturating_sub(cfg.scan_len));
                let high = (low + cfg.scan_len).min(n) - 1;
                // Stream the range: the driver only counts keys, so the
                // visitor form avoids materializing every hit.
                let mut returned = 0u64;
                store.scan_with(
                    &KeyDistribution::encode(low),
                    &KeyDistribution::encode(high),
                    &mut |_, _| {
                        returned += 1;
                        ControlFlow::Continue(())
                    },
                );
                result.scans += 1;
                result.keys_accessed += returned;
                if let Some(t0) = t0 {
                    result.scan_latency.record(t0.elapsed().as_nanos() as u64);
                }
            }
        }
        result.ops += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Mutex;

    use flodb_core::WriteError;

    use super::*;

    /// An in-memory reference store for driver tests.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
    }

    impl KvStore for MapStore {
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), WriteError> {
            self.map
                .lock()
                .unwrap()
                .insert(key.to_vec(), value.to_vec());
            Ok(())
        }
        fn delete(&self, key: &[u8]) -> Result<(), WriteError> {
            self.map.lock().unwrap().remove(key);
            Ok(())
        }
        fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.map.lock().unwrap().get(key).cloned()
        }
        fn scan_with(
            &self,
            low: &[u8],
            high: &[u8],
            visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
        ) {
            let map = self.map.lock().unwrap();
            let mut out: Vec<(Vec<u8>, Vec<u8>)> = map
                .iter()
                .filter(|(k, _)| k.as_slice() >= low && k.as_slice() <= high)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            out.sort();
            for (key, value) in &out {
                if visitor(key, value).is_break() {
                    break;
                }
            }
        }
        fn name(&self) -> &'static str {
            "map"
        }
    }

    #[test]
    fn fixed_ops_run_completes_exactly() {
        let store: Arc<dyn KvStore> = Arc::new(MapStore::default());
        let mut cfg = WorkloadConfig::new(
            2,
            OperationMix::mixed_balanced(),
            KeyDistribution::Uniform { n: 1000 },
        );
        cfg.ops_per_thread = Some(500);
        let report = run_workload(&store, &cfg);
        assert_eq!(report.total_ops, 1000);
        assert_eq!(report.reads + report.writes + report.scans, 1000);
        assert!(report.ops_per_sec() > 0.0);
    }

    #[test]
    fn timed_run_stops() {
        let store: Arc<dyn KvStore> = Arc::new(MapStore::default());
        let mut cfg = WorkloadConfig::new(
            2,
            OperationMix::write_only(),
            KeyDistribution::Uniform { n: 100 },
        );
        cfg.duration = Duration::from_millis(100);
        let report = run_workload(&store, &cfg);
        assert!(report.total_ops > 0);
        assert!(report.elapsed < Duration::from_secs(5));
        assert_eq!(report.reads, 0);
    }

    /// A store whose write path latched closed: every put/delete is
    /// rejected, the shape of a poisoned or degraded FloDB.
    struct RejectingStore(MapStore);

    impl KvStore for RejectingStore {
        fn put(&self, _key: &[u8], _value: &[u8]) -> Result<(), WriteError> {
            Err(WriteError::Poisoned(Arc::new(
                flodb_storage::StorageError::Corruption("latched".into()),
            )))
        }
        fn delete(&self, _key: &[u8]) -> Result<(), WriteError> {
            Err(WriteError::Poisoned(Arc::new(
                flodb_storage::StorageError::Corruption("latched".into()),
            )))
        }
        fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.0.get(key)
        }
        fn scan_with(
            &self,
            low: &[u8],
            high: &[u8],
            visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
        ) {
            self.0.scan_with(low, high, visitor)
        }
        fn name(&self) -> &'static str {
            "rejecting"
        }
    }

    #[test]
    fn rejected_writes_end_the_run_cleanly() {
        let store: Arc<dyn KvStore> = Arc::new(RejectingStore(MapStore::default()));
        let mut cfg = WorkloadConfig::new(
            2,
            OperationMix::write_only(),
            KeyDistribution::Uniform { n: 100 },
        );
        cfg.ops_per_thread = Some(1_000_000);
        // Must return (no panic propagated, no spin on the dead store),
        // with every worker's stop accounted for.
        let report = run_workload(&store, &cfg);
        assert_eq!(report.write_failures, 2);
        assert_eq!(report.writes, 0);
    }

    #[test]
    fn single_writer_mode_partitions_roles() {
        let store: Arc<dyn KvStore> = Arc::new(MapStore::default());
        let mut cfg = WorkloadConfig::new(
            4,
            OperationMix::read_only(),
            KeyDistribution::Uniform { n: 100 },
        );
        cfg.ops_per_thread = Some(100);
        cfg.single_writer = true;
        let report = run_workload(&store, &cfg);
        assert_eq!(report.writes, 100, "exactly one writer thread");
        assert_eq!(report.reads, 300);
    }

    #[test]
    fn scans_count_keys_accessed() {
        let store: Arc<dyn KvStore> = Arc::new(MapStore::default());
        // Preload every key so scans return full ranges.
        for i in 0..200u64 {
            store.put(&i.to_be_bytes(), b"v").unwrap();
        }
        let mut cfg = WorkloadConfig::new(
            1,
            OperationMix::scan_write(1.0),
            KeyDistribution::Uniform { n: 200 },
        );
        cfg.ops_per_thread = Some(10);
        cfg.scan_len = 50;
        let report = run_workload(&store, &cfg);
        assert_eq!(report.scans, 10);
        assert!(
            report.keys_accessed >= 10 * 40,
            "scans must contribute their range: {}",
            report.keys_accessed
        );
    }

    #[test]
    fn latency_measurement_populates_histograms() {
        let store: Arc<dyn KvStore> = Arc::new(MapStore::default());
        let mut cfg = WorkloadConfig::new(
            1,
            OperationMix::mixed_balanced(),
            KeyDistribution::Uniform { n: 100 },
        );
        cfg.ops_per_thread = Some(1000);
        cfg.measure_latency = true;
        let report = run_workload(&store, &cfg);
        assert!(report.read_latency.count() > 0);
        assert!(report.write_latency.count() > 0);
        assert!(report.read_latency.median_ns() > 0);
    }
}
