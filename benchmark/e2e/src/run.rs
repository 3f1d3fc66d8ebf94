//! One run of one workload: set-up, measured windows, tail phases,
//! verification, and the metrics computed from them.
//!
//! Engine surface used here, and nowhere else in this package: `FloDb::open`,
//! the `KvStore` trait, `FloDbOptions::default_in_memory()` with
//! `memory_bytes`/`env`/`wal`/`telemetry` overridden, `quiesce()`,
//! `flush_all()`, `flodb_stats()`, `disk_stats()`, `telemetry()`, and
//! `flodb_storage::{Env, MemEnv}` (plus the two file traits `TracingEnv`
//! implements).

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use benchkit::json::Json;
use benchkit::quantile::{over_windows, summarize, LatencySummary, OverWindows};
use benchkit::{machine, spec};
use flodb_core::telemetry::StageClass;
use flodb_core::{
    FloDb, FloDbOptions, FloDbStats, KvStore, TelemetryLevel, TelemetrySnapshot, WalMode,
    WriteBatch,
};
use flodb_storage::{DiskStats, Env, MemEnv};

use crate::client::{Client, Mix, Recorder, CLASS_NAMES, GET, PUT, SCAN};
use crate::gen::{self, Dist, CLIENTS, ENTRY_BYTES};
use crate::tracing_env::{mark_client_thread, EnvCounts, EnvOp, FileClass, TracingEnv};

/// Memory component of every workload: 8 MiB Membuffer + 24 MiB Memtable.
const MEMORY_BYTES: usize = 32 << 20;
const LOAD_BATCH: u64 = 64;
/// Latency samples per second, class and client that are allocated up
/// front: three times what the fastest workload (`read_disk`, 150 k gets/s
/// per client) records. A faster engine only makes the vectors grow.
const SAMPLES_PER_SECOND: f64 = 500_000.0;
/// How often the space the store takes is sampled during the windows.
const SPACE_SAMPLE_EVERY: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    ReadDisk,
    HotMixed,
    ScanWrite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::ReadDisk,
        Workload::HotMixed,
        Workload::ScanWrite,
    ];

    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What each client issues during the windows.
    fn mixes(self) -> [Mix; CLIENTS] {
        let mix = |put_pm, get_pm, dist, absent_get_pm| Mix {
            put_pm,
            get_pm,
            dist,
            absent_get_pm,
        };
        match self {
            Workload::Ingest => [mix(1000, 0, Dist::Uniform, 0); CLIENTS],
            Workload::ReadDisk => [mix(0, 1000, Dist::Uniform, 50); CLIENTS],
            Workload::HotMixed => [mix(500, 500, Dist::Hot98, 0); CLIENTS],
            Workload::ScanWrite => [mix(1000, 0, Dist::Uniform, 0), mix(0, 0, Dist::Uniform, 0)],
        }
    }

    /// `read_disk` empties the memory component before measuring.
    fn flushed_first(self) -> bool {
        self == Workload::ReadDisk
    }
}

/// Sizes that `--smoke` shrinks.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Keys loaded; ≈ 264 MB of user data at full scale, 8× the memory
    /// component, three populated disk levels.
    pub keys: u64,
    pub warm_up: Duration,
    /// Per client, in the tail phases after the windows. The sampled
    /// private keys are read, then each is written once, then read again.
    pub verify_keys: u64,
    pub tail_gets: u64,
    pub tail_scans: u64,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            keys: 1_000_000,
            warm_up: Duration::from_secs(1),
            verify_keys: 10_000,
            tail_gets: 15_000,
            tail_scans: 250,
        }
    }

    pub fn smoke() -> Self {
        Self {
            keys: 50_000,
            warm_up: Duration::from_millis(200),
            verify_keys: 500,
            tail_gets: 750,
            tail_scans: 25,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    /// Where the traced run writes its spans.
    pub spans_path: Option<PathBuf>,
}

pub struct Outcome {
    /// Every end-to-end metric (untraced) or every traced per-layer metric.
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// What the first few failed operations saw.
    pub failures: Vec<String>,
    /// Everything else worth keeping: per-window values, extremes, counts.
    pub detail: Json,
}

fn open_store(env: Arc<dyn Env>, telemetry: TelemetryLevel) -> Result<FloDb, String> {
    let mut options = FloDbOptions::default_in_memory();
    options.memory_bytes = MEMORY_BYTES;
    options.env = env;
    options.wal = WalMode::Enabled { sync: false };
    options.telemetry = telemetry;
    FloDb::open(options).map_err(|e| format!("FloDb::open failed: {e}"))
}

/// Bulk-loads keys `0..keys` in ascending order, 64 to a batch.
fn load(store: &FloDb, keys: u64) -> Result<(), String> {
    let mut batch = WriteBatch::new();
    let mut value = [0u8; gen::VALUE_BYTES];
    let mut next = 0;
    while next < keys {
        batch.clear();
        for index in next..(next + LOAD_BATCH).min(keys) {
            gen::fill_value(&mut value, index, gen::LOAD_VERSION);
            batch.put(&gen::key(index), &value);
        }
        store
            .write(&batch)
            .map_err(|e| format!("bulk load failed at key {next}: {e}"))?;
        next += LOAD_BATCH;
    }
    Ok(())
}

/// Bytes in the env's files. A file the engine deletes between the listing
/// and the look is simply no longer live.
fn live_bytes(env: &dyn Env) -> Result<u64, String> {
    let names = env.list().map_err(|e| format!("env.list failed: {e}"))?;
    Ok(names
        .iter()
        .filter_map(|name| env.open_random(name).ok())
        .map(|file| file.len())
        .sum())
}

macro_rules! flo_counts {
    ($($field:ident),* $(,)?) => {
        /// The `FloDbStats` counters the traced metrics are built from.
        #[derive(Debug, Clone, Copy, Default)]
        struct FloCounts { $($field: u64),* }

        impl FloCounts {
            fn read(stats: &FloDbStats) -> Self {
                Self { $($field: stats.$field.load(Ordering::Relaxed)),* }
            }

            fn since(&self, earlier: &Self) -> Self {
                Self { $($field: self.$field - earlier.$field),* }
            }
        }
    };
}

flo_counts!(
    puts,
    gets,
    scans,
    membuffer_writes,
    memtable_writes,
    drained_entries,
    drain_batches,
    scan_restarts,
    fallback_scans,
    piggyback_scans,
    master_scans,
    writer_drain_helps,
    write_stalls,
    write_stall_ns,
    wal_groups,
    wal_group_records,
    wal_follower_writes,
    wal_rotations,
    wal_retired_bytes,
);

/// Everything the traced run reads from outside at a window edge.
struct TraceSample {
    flo: FloCounts,
    disk: DiskStats,
    env: EnvCounts,
    telemetry: TelemetrySnapshot,
    cpu_us: u64,
}

impl TraceSample {
    fn take(store: &FloDb, env: &TracingEnv) -> Self {
        Self {
            flo: FloCounts::read(store.flodb_stats()),
            disk: store.disk_stats(),
            env: env.counts(),
            telemetry: store.telemetry(),
            cpu_us: machine::process_cpu_us(),
        }
    }
}

/// A store-level call the benchmark made (open, load, quiesce, …), for the
/// report's `lifecycle` list.
struct Lifecycle {
    name: &'static str,
    start: Duration,
    duration: Duration,
}

/// What one set-up + windows (+ tails) pass leaves behind.
struct Phase {
    setup_s: f64,
    window_s: f64,
    windows: usize,
    clients: Vec<Client>,
    mixes: [Mix; CLIENTS],
    /// `env.bytes_written()` at each window edge, edge 0 first.
    env_bytes_at_edge: Vec<u64>,
    /// Env bytes written and user bytes acknowledged by the tail puts.
    tail_env_bytes: u64,
    tail_user_bytes: u64,
    /// Bytes in the env's files, sampled every 100 ms during the windows.
    live_bytes_samples: Vec<u64>,
    reopen_ms: f64,
    trace: Option<(TraceSample, TraceSample)>,
    lifecycle: Vec<Lifecycle>,
}

impl Phase {
    fn issues(&self, class: usize) -> bool {
        self.mixes.iter().any(|m| m.issues(class))
    }

    /// Both clients' samples of `class` in one part of the run, summarized.
    fn summary<'a>(
        &'a self,
        class: usize,
        part: impl Fn(&'a Recorder) -> &'a [u32],
    ) -> LatencySummary {
        let mut all: Vec<u32> = self
            .clients
            .iter()
            .flat_map(|c| part(&c.rec[class]).iter().copied())
            .collect();
        summarize(&mut all)
    }

    /// Operations of every class completed in window `w`.
    fn window_ops(&self, w: usize) -> u64 {
        self.clients
            .iter()
            .flat_map(|c| c.rec.iter())
            .map(|r| r.window(w).len() as u64)
            .sum()
    }

    fn ops_per_s(&self) -> Vec<f64> {
        (1..=self.windows)
            .map(|w| self.window_ops(w) as f64 / self.window_s)
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    fn failures(&self) -> impl Iterator<Item = &String> {
        self.clients.iter().flat_map(|c| c.failures.iter())
    }
}

struct Timeline {
    origin: Instant,
    spans: Vec<Lifecycle>,
}

impl Timeline {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.spans.push(Lifecycle {
            name,
            start: t0 - self.origin,
            duration: t0.elapsed(),
        });
        out
    }
}

fn sleep_until(deadline: Instant) {
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}

/// Sets a store up, runs the workload's windows on it, then the tail
/// phases and the verification.
fn measure(
    cfg: &Config,
    origin: Instant,
    traced: bool,
    windows: usize,
    window: Duration,
) -> Result<Phase, String> {
    let scale = cfg.scale;
    let mixes = cfg.workload.mixes();
    let mem_env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let tracing_env = traced.then(|| Arc::new(TracingEnv::new(Arc::clone(&mem_env))));
    let env: Arc<dyn Env> = match &tracing_env {
        Some(t) => Arc::clone(t) as Arc<dyn Env>,
        None => Arc::clone(&mem_env),
    };
    let telemetry = if traced {
        TelemetryLevel::Full
    } else {
        TelemetryLevel::Counters
    };
    let mut timeline = Timeline {
        origin,
        spans: Vec::new(),
    };

    // Sample buffers first: they are the benchmark's, not the store's, and
    // stay out of `setup_s`.
    let seconds = scale.warm_up.as_secs_f64() + window.as_secs_f64() * windows as f64;
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| {
            let room = |class: usize, per_second: f64, tail: u64| {
                let in_windows = if mixes[id].issues(class) {
                    (per_second * seconds) as usize
                } else {
                    0
                };
                in_windows + tail as usize
            };
            let capacity = [
                room(PUT, SAMPLES_PER_SECOND, scale.verify_keys),
                room(GET, SAMPLES_PER_SECOND, scale.verify_keys + scale.tail_gets),
                room(SCAN, SAMPLES_PER_SECOND / 50.0, scale.tail_scans),
            ];
            Client::new(id, scale.keys, cfg.seed, origin, capacity, traced)
        })
        .collect();

    let setup_start = Instant::now();
    let store = timeline.timed("open", || open_store(Arc::clone(&env), telemetry))?;
    timeline.timed("load", || load(&store, scale.keys))?;
    timeline.timed("quiesce", || store.quiesce());
    let setup_s = setup_start.elapsed().as_secs_f64();

    if cfg.workload.flushed_first() {
        timeline.timed("flush_all", || store.flush_all());
        timeline.timed("quiesce", || store.quiesce());
    }

    let start = Instant::now();
    let mut env_bytes_at_edge = Vec::with_capacity(windows + 1);
    let mut live_bytes_samples = Vec::new();
    let mut trace_first = None;
    let mut trace_last = None;
    std::thread::scope(|scope| {
        for (client, mix) in clients.iter_mut().zip(mixes) {
            let store = &store;
            scope.spawn(move || {
                if traced {
                    mark_client_thread();
                }
                client.run_windows(store, mix, start, scale.warm_up, window, windows);
            });
        }
        for edge in 0..=windows {
            let deadline = start + scale.warm_up + window * edge as u32;
            // Inside the windows, keep sampling the space the store takes.
            while edge > 0 && Instant::now() + SPACE_SAMPLE_EVERY < deadline {
                std::thread::sleep(SPACE_SAMPLE_EVERY);
                live_bytes_samples.push(live_bytes(mem_env.as_ref()));
            }
            sleep_until(deadline);
            env_bytes_at_edge.push(env.bytes_written());
            if let Some(t) = &tracing_env {
                if edge == 0 {
                    trace_first = Some(TraceSample::take(&store, t));
                } else if edge == windows {
                    trace_last = Some(TraceSample::take(&store, t));
                }
            }
        }
    });
    let live_bytes_samples = live_bytes_samples
        .into_iter()
        .collect::<Result<Vec<u64>, String>>()?;

    let mut phase = Phase {
        setup_s,
        window_s: window.as_secs_f64(),
        windows,
        clients,
        mixes,
        env_bytes_at_edge,
        tail_env_bytes: 0,
        tail_user_bytes: 0,
        live_bytes_samples,
        reopen_ms: 0.0,
        trace: trace_first.zip(trace_last),
        lifecycle: Vec::new(),
    };

    // The tails run on a settled store, from a known state: they are
    // the numbers of the classes this workload's windows do not issue.
    timeline.timed("flush_all", || store.flush_all());
    timeline.timed("quiesce", || store.quiesce());

    // Every sampled private key must read back at exactly its last
    // acknowledged version; with the memory component empty, all of
    // these reads and scans are served from disk. One client after the
    // other: a phase this short is steadier uncontended.
    let samples: Vec<Vec<u64>> = phase
        .clients
        .iter_mut()
        .map(|c| c.verification_sample(scale.verify_keys))
        .collect();
    for (client, sample) in phase.clients.iter_mut().zip(&samples) {
        client.phase = "the tail reads after flush_all";
        client.verify(&store, sample, true);
        client.tail_gets(&store, scale.tail_gets);
        client.tail_scans(&store, scale.tail_scans);
    }

    // Puts into the empty memory component: the Membuffer path and the
    // log, no stall. They also leave unflushed records for the reopen.
    let env_before = env.bytes_written();
    for (client, sample) in phase.clients.iter_mut().zip(&samples) {
        client.phase = "the tail puts";
        client.tail_puts(&store, sample);
    }
    timeline.timed("quiesce", || store.quiesce());
    phase.tail_env_bytes = env.bytes_written() - env_before;
    phase.tail_user_bytes = samples.iter().map(|s| s.len() as u64).sum::<u64>() * ENTRY_BYTES;
    for (client, sample) in phase.clients.iter_mut().zip(&samples) {
        client.phase = "the re-read after the tail puts";
        client.verify(&store, sample, false);
    }

    // Process-kill durability: drop the store unflushed, reopen on the
    // same env (the log is intact), check the sample again.
    drop(store);
    let reopen_start = Instant::now();
    let reopened = timeline.timed("reopen", || open_store(Arc::clone(&env), telemetry))?;
    phase.reopen_ms = reopen_start.elapsed().as_secs_f64() * 1e3;
    for (client, sample) in phase.clients.iter_mut().zip(&samples) {
        client.phase = "the re-read after the reopen";
        client.verify(&reopened, sample, false);
    }
    phase.lifecycle = timeline.spans;
    Ok(phase)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

/// p50/p99/p99.9 of `class`: the median over the windows when the workload
/// issues that class there, otherwise the tail phase's numbers.
fn class_latency(phase: &Phase, class: usize) -> ([OverWindows; 3], Json) {
    let name = CLASS_NAMES[class];
    if phase.issues(class) {
        let per_window: Vec<LatencySummary> = (1..=phase.windows)
            .map(|w| phase.summary(class, |rec| rec.window(w)))
            .collect();
        let series = |f: fn(&LatencySummary) -> u32| -> Vec<f64> {
            per_window.iter().map(|s| us(f(s))).collect()
        };
        let (p50, p99, p999) = (
            series(|s| s.p50_ns),
            series(|s| s.p99_ns),
            series(|s| s.p999_ns),
        );
        let detail = Json::obj([
            ("source", Json::str("windows")),
            (
                "samples",
                Json::Arr(
                    per_window
                        .iter()
                        .map(|s| Json::Int(s.count as u64))
                        .collect(),
                ),
            ),
            (format!("{name}_p50_us").as_str(), Json::nums(&p50)),
            (format!("{name}_p99_us").as_str(), Json::nums(&p99)),
            (format!("{name}_p999_us").as_str(), Json::nums(&p999)),
            ("max_us", Json::nums(&series(|s| s.max_ns))),
        ]);
        (
            [over_windows(&p50), over_windows(&p99), over_windows(&p999)],
            detail,
        )
    } else {
        let s = phase.summary(class, Recorder::tail);
        let one = |ns: u32| over_windows(&[us(ns)]);
        let detail = Json::obj([
            ("source", Json::str("tail")),
            ("samples", Json::Int(s.count as u64)),
            ("max_us", Json::Num(us(s.max_ns))),
        ]);
        ([one(s.p50_ns), one(s.p99_ns), one(s.p999_ns)], detail)
    }
}

/// Everything a client of the store sees in one phase: throughput, the
/// latency quantiles of each class, write and space amplification. The
/// spec decides which of these are end-to-end metrics and which are only
/// reported, ungated, as `client.<name>` by the traced run.
fn client_view(cfg: &Config, phase: &Phase) -> (Vec<(String, OverWindows)>, Json) {
    let one = |v: f64| over_windows(&[v]);
    let ops_per_s = phase.ops_per_s();
    let mut out = vec![
        ("setup_s".to_string(), one(phase.setup_s)),
        ("ops_per_s".to_string(), over_windows(&ops_per_s)),
    ];
    let mut detail = vec![("ops_per_s".to_string(), Json::nums(&ops_per_s))];
    for (class, quantiles) in [
        (PUT, &["p50", "p99", "p999"][..]),
        (GET, &["p50", "p99", "p999"][..]),
        (SCAN, &["p50", "p99"][..]),
    ] {
        let (values, class_detail) = class_latency(phase, class);
        for (q, v) in quantiles.iter().zip(values) {
            out.push((format!("{}_{q}_us", CLASS_NAMES[class]), v));
        }
        detail.push((CLASS_NAMES[class].to_string(), class_detail));
    }

    // Env bytes written per user byte acknowledged: over all windows when
    // they hold puts (compaction comes in bursts longer than a window),
    // over the tail puts otherwise.
    let write_amp = if phase.issues(PUT) {
        let puts: u64 = phase
            .clients
            .iter()
            .map(|c| c.rec[PUT].in_windows().len() as u64)
            .sum();
        let env_bytes = phase.env_bytes_at_edge[phase.windows] - phase.env_bytes_at_edge[0];
        ratio(env_bytes as f64, (puts * ENTRY_BYTES) as f64)
    } else {
        ratio(phase.tail_env_bytes as f64, phase.tail_user_bytes as f64)
    };
    out.push(("write_amp".to_string(), one(write_amp)));
    // Bytes on "disk" per byte of user data, averaged over the windows:
    // between compactions and log retirements the footprint saws.
    let live_bytes = phase.live_bytes_samples.iter().sum::<u64>() as f64
        / phase.live_bytes_samples.len().max(1) as f64;
    let space_amp = live_bytes / (cfg.scale.keys * ENTRY_BYTES) as f64;
    out.push(("space_amp".to_string(), one(space_amp)));
    let edges: Vec<f64> = phase.env_bytes_at_edge.iter().map(|&b| b as f64).collect();
    detail.push(("env_bytes_at_edge".to_string(), Json::nums(&edges)));
    let live: Vec<f64> = phase.live_bytes_samples.iter().map(|&b| b as f64).collect();
    detail.push(("live_bytes_samples".to_string(), Json::nums(&live)));
    detail.push(("reopen_ms".to_string(), Json::Num(phase.reopen_ms)));
    (out, Json::Obj(detail))
}

/// Mean cost of the `Instant` pair every latency sample pays, in ns.
fn timer_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut total = Duration::ZERO;
    for _ in 0..PAIRS {
        let t0 = Instant::now();
        let t1 = Instant::now();
        total += t1 - t0;
    }
    total.as_nanos() as f64 / f64::from(PAIRS)
}

/// The traced per-layer metrics, from the deltas between the first and the
/// last window edge of the traced phase.
fn traced_metrics(reference: &Phase, traced: &Phase) -> Result<Vec<(String, f64)>, String> {
    let (first, last) = traced
        .trace
        .as_ref()
        .ok_or("the traced phase took no samples")?;
    let flo = last.flo.since(&first.flo);
    let env = last.env.since(&first.env);
    let tel = last.telemetry.delta_since(&first.telemetry);
    let wall_s = traced.window_s * traced.windows as f64;
    let wall_ns = wall_s * 1e9;
    let client_ops: u64 = (1..=traced.windows).map(|w| traced.window_ops(w)).sum();
    let f = |v: u64| v as f64;

    let user_bytes = f(flo.puts * ENTRY_BYTES);
    let sst_reads = env.get(FileClass::Sst, EnvOp::ReadAt, true);
    let log_appends = env.get(FileClass::Log, EnvOp::Append, false);
    let cache_lookups = f(last.disk.cache_hits - first.disk.cache_hits)
        + f(last.disk.cache_misses - first.disk.cache_misses);
    let writes = f(flo.membuffer_writes + flo.memtable_writes);
    let reference_ops = over_windows(&reference.ops_per_s());
    let traced_ops = over_windows(&traced.ops_per_s());

    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));
    put(
        "storage.wal.records_per_group",
        ratio(f(flo.wal_group_records), f(flo.wal_groups)),
    );
    put(
        "storage.wal.follower_share",
        ratio(f(flo.wal_follower_writes), f(flo.puts)),
    );
    put("storage.wal.rotations", f(flo.wal_rotations));
    put("storage.wal.retired_mb", f(flo.wal_retired_bytes) / 1e6);
    put(
        "storage.cache.hit_share",
        ratio(
            f(last.disk.cache_hits - first.disk.cache_hits),
            cache_lookups,
        ),
    );
    put(
        "storage.disk.flushes",
        f(last.disk.flushes - first.disk.flushes),
    );
    put(
        "storage.disk.compactions",
        f(last.disk.compactions - first.disk.compactions),
    );
    put(
        "storage.disk.l0_files_end",
        last.disk.files_per_level.first().map_or(0.0, |&n| n as f64),
    );
    put(
        "storage.disk.levels_used",
        last.disk.files_per_level.iter().filter(|&&n| n > 0).count() as f64,
    );
    put(
        "storage.env.sst_reads_per_get",
        ratio(f(sst_reads.calls), f(flo.gets)),
    );
    put(
        "storage.env.sst_read_bytes_per_get",
        ratio(f(sst_reads.bytes), f(flo.gets)),
    );
    put(
        "storage.env.table_opens_per_kget",
        ratio(
            1e3 * f(env.get(FileClass::Sst, EnvOp::OpenRandom, true).calls),
            f(flo.gets),
        ),
    );
    put(
        "storage.env.read_busy_share",
        f(sst_reads.ns) / (wall_ns * CLIENTS as f64),
    );
    put(
        "storage.env.log_appends_per_put",
        ratio(f(log_appends.calls), f(flo.puts)),
    );
    put(
        "storage.env.log_bytes_per_user_byte",
        ratio(f(log_appends.bytes), user_bytes),
    );
    put(
        "storage.env.sst_bytes_per_user_byte",
        ratio(
            f(env.get(FileClass::Sst, EnvOp::Append, false).bytes),
            user_bytes,
        ),
    );
    put(
        "storage.env.syncs_per_kop",
        ratio(1e3 * f(env.op_total(EnvOp::Sync).calls), f(client_ops)),
    );
    put(
        "storage.env.files_created",
        f(env.op_total(EnvOp::NewWritable).calls),
    );
    put(
        "storage.env.files_deleted",
        f(env.op_total(EnvOp::Delete).calls),
    );
    put(
        "storage.env.append_busy_share",
        f(env.op_total(EnvOp::Append).ns) / wall_ns,
    );
    put("core.reopen_ms", traced.reopen_ms);
    put(
        "core.fast_write_share",
        ratio(f(flo.membuffer_writes), writes),
    );
    put(
        "core.drain_entries_per_batch",
        ratio(f(flo.drained_entries), f(flo.drain_batches)),
    );
    put(
        "core.writer_drain_helps_per_kop",
        ratio(1e3 * f(flo.writer_drain_helps), f(client_ops)),
    );
    put(
        "core.write_stalls_per_kop",
        ratio(1e3 * f(flo.write_stalls), f(client_ops)),
    );
    put(
        "core.write_stall_share",
        f(flo.write_stall_ns) / (wall_ns * CLIENTS as f64),
    );
    put(
        "core.scan_restarts_per_scan",
        ratio(f(flo.scan_restarts), f(flo.scans)),
    );
    put(
        "core.fallback_scan_share",
        ratio(f(flo.fallback_scans), f(flo.scans)),
    );
    put(
        "core.master_scan_share",
        ratio(f(flo.master_scans), f(flo.scans)),
    );
    put(
        "core.piggyback_scan_share",
        ratio(f(flo.piggyback_scans), f(flo.scans)),
    );
    put(
        "trace.overhead_pct",
        100.0 * (reference_ops.median - traced_ops.median) / reference_ops.median,
    );
    put("client.timer_ns", timer_ns());
    put(
        "client.samples",
        traced
            .clients
            .iter()
            .flat_map(|c| c.rec.iter())
            .map(|r| r.ns.len() as f64)
            .sum(),
    );
    put("client.window_spread_pct", reference_ops.spread_pct());
    // `client.calib_drift_pct` is the caller's: it spans the whole run.
    put(
        "proc.cpu_us_per_op",
        ratio(f(last.cpu_us - first.cpu_us), f(client_ops)),
    );
    put("proc.peak_rss_mb", machine::peak_rss_mb());
    for stage in StageClass::ALL {
        let s = tel.stage_summary(stage);
        put(
            &format!("core.stage.{}.busy_share", stage.name()),
            f(s.count) * s.mean_ns / wall_ns,
        );
        put(
            &format!("core.stage.{}.p99_us", stage.name()),
            f(s.p99_ns) / 1e3,
        );
    }
    Ok(m)
}

/// Writes the traced phase's spans: a header line, then one 16-byte
/// little-endian record per client call (`start_ns: u64`, `dur_ns: u32`,
/// `class: u8` as in `CLASS_NAMES`, `client: u8`, two zero bytes). The
/// store-level calls (open, load, quiesce, …) are in the report instead.
fn write_spans(path: &PathBuf, phase: &Phase) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    out.write_all(b"flodb-bench spans v1: u64 start_ns, u32 dur_ns, u8 class, u8 client, u16 0\n")
        .map_err(io)?;
    for client in &phase.clients {
        for (class, rec) in client.rec.iter().enumerate() {
            let starts = rec.start_ns.as_deref().unwrap_or(&[]);
            for (start, dur) in starts.iter().zip(&rec.ns) {
                let mut record = [0u8; 16];
                record[..8].copy_from_slice(&start.to_le_bytes());
                record[8..12].copy_from_slice(&dur.to_le_bytes());
                record[12] = class as u8;
                record[13] = client.id as u8;
                out.write_all(&record).map_err(io)?;
            }
        }
    }
    out.flush().map_err(io)
}

fn lifecycle_json(phase: &Phase) -> Json {
    Json::Arr(
        phase
            .lifecycle
            .iter()
            .map(|l| {
                Json::obj([
                    ("call", Json::str(l.name)),
                    ("start_ms", Json::Num(l.start.as_secs_f64() * 1e3)),
                    ("dur_ms", Json::Num(l.duration.as_secs_f64() * 1e3)),
                ])
            })
            .collect(),
    )
}

/// Runs one workload once and computes its metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let origin = Instant::now();
    let calib_before = machine::calibration_ms();
    let mut detail = vec![
        ("workload".to_string(), Json::str(cfg.workload.name())),
        ("seed".to_string(), Json::Int(cfg.seed)),
        ("traced".to_string(), Json::Bool(cfg.traced)),
        ("keys".to_string(), Json::Int(cfg.scale.keys)),
        ("clients".to_string(), Json::Int(CLIENTS as u64)),
        ("machine".to_string(), machine::record()),
    ];
    let (metrics, attempted, failed, window_s);
    let failures: Vec<String>;
    if cfg.traced {
        // An untraced reference and the traced pass, two windows each, so
        // the overhead compares two stores of one process.
        let window = Duration::from_secs_f64(cfg.seconds / 4.0);
        let reference = measure(cfg, origin, false, 2, window)?;
        let traced = measure(cfg, origin, true, 2, window)?;
        let mut m = traced_metrics(&reference, &traced)?;
        let (seen, _) = client_view(cfg, &reference);
        for name in spec::per_layer_names(spec::Source::Traced) {
            let demoted = name.strip_prefix("client.");
            if let Some((_, v)) = seen.iter().find(|(n, _)| Some(n.as_str()) == demoted) {
                m.push((name, v.median));
            }
        }
        if let Some(path) = &cfg.spans_path {
            write_spans(path, &traced)?;
            detail.push((
                "spans_file".to_string(),
                Json::str(path.display().to_string()),
            ));
        }
        let calib_after = machine::calibration_ms();
        m.push((
            "client.calib_drift_pct".to_string(),
            machine::drift_pct(calib_before, calib_after),
        ));
        attempted = reference.attempted() + traced.attempted();
        failed = reference.failed() + traced.failed();
        failures = reference
            .failures()
            .chain(traced.failures())
            .cloned()
            .collect();
        window_s = traced.window_s;
        detail.push(("lifecycle".to_string(), lifecycle_json(&traced)));
        metrics = m;
    } else {
        let window = Duration::from_secs_f64(cfg.seconds / spec::WINDOWS as f64);
        let phase = measure(cfg, origin, false, spec::WINDOWS, window)?;
        let (seen, phase_detail) = client_view(cfg, &phase);
        let values: Vec<(String, OverWindows)> = spec::END_TO_END
            .iter()
            .filter_map(|m| seen.iter().find(|(n, _)| n == m.name).cloned())
            .collect();
        let calib_after = machine::calibration_ms();
        attempted = phase.attempted();
        failed = phase.failed();
        failures = phase.failures().cloned().collect();
        window_s = phase.window_s;
        detail.push((
            "window_range".to_string(),
            Json::Obj(
                values
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::nums(&[v.min, v.max])))
                    .collect(),
            ),
        ));
        detail.push(("windows".to_string(), phase_detail));
        detail.push(("lifecycle".to_string(), lifecycle_json(&phase)));
        detail.push((
            "calib_drift_pct".to_string(),
            Json::Num(machine::drift_pct(calib_before, calib_after)),
        ));
        metrics = values.into_iter().map(|(n, v)| (n, v.median)).collect();
    }
    detail.push(("window_s".to_string(), Json::Num(window_s)));
    detail.push(("attempted".to_string(), Json::Int(attempted)));
    detail.push(("failed".to_string(), Json::Int(failed)));
    detail.push((
        "first_failures".to_string(),
        Json::Arr(failures.iter().map(Json::str).collect()),
    ));
    detail.push((
        "wall_s".to_string(),
        Json::Num(origin.elapsed().as_secs_f64()),
    ));
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        failures,
        detail: Json::Obj(detail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchkit::spec::{per_layer_names, Source, END_TO_END};

    fn smoke(workload: Workload, traced: bool) -> Outcome {
        let cfg = Config {
            workload,
            seed: 7,
            seconds: 2.0,
            traced,
            scale: Scale::smoke(),
            spans_path: None,
        };
        run(&cfg).unwrap()
    }

    /// Every workload emits every end-to-end metric `BENCHMARK.json` lists,
    /// in its order, none of them zero, and fails no check.
    #[test]
    fn smoke_runs_emit_exactly_the_listed_end_to_end_metrics() {
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        for workload in Workload::ALL {
            let out = smoke(workload, false);
            let emitted: Vec<&str> = out.metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(emitted, listed, "{}", workload.name());
            for (name, value) in &out.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} {name} = {value}",
                    workload.name()
                );
            }
            assert!(out.attempted > 1000);
            assert_eq!(out.failed, 0, "{}", workload.name());
        }
    }

    /// The traced run emits exactly the traced per-layer metrics, and the
    /// workloads separate the layers the way they were built to.
    #[test]
    fn smoke_traced_runs_emit_exactly_the_listed_traced_metrics() {
        let mut listed = per_layer_names(Source::Traced);
        listed.sort();
        for workload in Workload::ALL {
            let out = smoke(workload, true);
            let mut emitted: Vec<String> = out.metrics.iter().map(|(n, _)| n.clone()).collect();
            emitted.sort();
            assert_eq!(emitted, listed, "{}", workload.name());
            assert!(out.metrics.iter().all(|(_, v)| v.is_finite()));
            assert_eq!(out.failed, 0, "{}", workload.name());
            let metric = |name: &str| out.metrics.iter().find(|(n, _)| n == name).unwrap().1;
            let scans = metric("core.master_scan_share") + metric("core.piggyback_scan_share");
            match workload {
                Workload::ReadDisk => {
                    assert!(metric("storage.env.sst_reads_per_get") > 0.0);
                    assert_eq!(metric("storage.disk.flushes"), 0.0);
                    assert_eq!(metric("storage.env.log_appends_per_put"), 0.0);
                    assert_eq!(scans, 0.0);
                }
                Workload::ScanWrite => assert!(scans > 0.0),
                Workload::Ingest | Workload::HotMixed => {
                    assert!(metric("storage.env.log_appends_per_put") > 0.0);
                    assert_eq!(scans, 0.0);
                }
            }
        }
    }

    #[test]
    fn workload_names_round_trip_through_the_spec() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::ALL.len(), spec::WORKLOADS.len());
    }
}
