//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is generated from these tables (`cargo run -p flodb-benchkit --bin
//! benchmark-json`) and a test keeps the two identical; the `e2e` and
//! `layers` tests check that a run emits exactly the names listed here.

use crate::json::Json;

/// Seconds one run measures; five windows of a fifth of it each.
pub const RUN_SECONDS: u64 = 20;
pub const WINDOWS: usize = 5;
pub const COMMAND: [&str; 2] = ["python3", "benchmark/run.py"];
pub const PATHS: [&str; 1] = ["benchmark"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest",
        why: "100% uniform puts over a dataset 8x the memory component: flush, compaction, WAL rotation and write stalls do the work",
    },
    Workload {
        name: "read_disk",
        why: "100% uniform gets (5% absent keys) on a fully flushed store: table cache, bloom, index and block reads do the work, no background thread runs",
    },
    Workload {
        name: "hot_mixed",
        why: "50/50 get/put with 98% of operations on a 2% hot set: in-place Membuffer updates, memory hits and the drain thread do the work, disk does little",
    },
    Workload {
        name: "scan_write",
        why: "one client puts while the other scans 100-key ranges: every scan freezes and drains the Membuffer, so scan speed and writer latency trade off",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The bounds are what the A/A runs on this sandbox support (see the
/// README): times and rates move by 5–15 % between two runs of one binary,
/// the two byte ratios by 1–4 %.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("put_p50_us", "us", Better::Lower, 0.25),
    e2e("get_p50_us", "us", Better::Lower, 0.25),
    e2e("scan_p50_us", "us", Better::Lower, 0.25),
    e2e("write_amp", "ratio", Better::Lower, 0.10),
    e2e("space_amp", "ratio", Better::Lower, 0.10),
];

/// Which program measures a per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The `layers` package: single-thread probes of one crate's functions.
    Probe,
    /// The `e2e` package's traced run: engine counters, stage histograms and
    /// `TracingEnv`, read from outside over the traced windows.
    Traced,
}

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

/// The engine's nine `StageClass` names.
pub const STAGES: [&str; 9] = [
    "commit_wait",
    "wal_write",
    "wal_fsync",
    "write_stall",
    "freeze_drain",
    "memtable_flush",
    "compaction",
    "wal_rotation",
    "wal_retirement",
];

const PROBES: &[(&str, &str, Better)] = &[
    ("membuffer.add_ns", "ns", Better::Lower),
    ("membuffer.update_ns", "ns", Better::Lower),
    ("membuffer.get_hit_ns", "ns", Better::Lower),
    ("membuffer.get_miss_ns", "ns", Better::Lower),
    ("membuffer.full_share", "share", Better::Lower),
    ("membuffer.drain_ns_per_entry", "ns", Better::Lower),
    ("memtable.insert_ns", "ns", Better::Lower),
    ("memtable.multi_insert_ns_per_entry", "ns", Better::Lower),
    ("memtable.get_hit_ns", "ns", Better::Lower),
    ("memtable.get_miss_ns", "ns", Better::Lower),
    ("memtable.iter_ns_per_entry", "ns", Better::Lower),
    ("sync.commit_submit_ns", "ns", Better::Lower),
    ("sync.commit_submit_2t_ns", "ns", Better::Lower),
    ("sync.inflight_enter_ns", "ns", Better::Lower),
    ("sync.rcu_read_ns", "ns", Better::Lower),
    ("sync.rcu_synchronize_us", "us", Better::Lower),
    ("storage.wal.append_ns", "ns", Better::Lower),
    ("storage.wal.append_mb_per_s", "MB/s", Better::Higher),
    ("storage.wal.rotation_us", "us", Better::Lower),
    ("storage.wal.replay_mb_per_s", "MB/s", Better::Higher),
    ("storage.wal.fsync_us", "us", Better::Lower),
    ("storage.sstable.build_mb_per_s", "MB/s", Better::Higher),
    ("storage.sstable.iter_ns_per_entry", "ns", Better::Lower),
    ("storage.sstable.get_hit_ns", "ns", Better::Lower),
    ("storage.sstable.get_absent_ns", "ns", Better::Lower),
    ("storage.sstable.bloom_fp_share", "share", Better::Lower),
    ("storage.sstable.open_us", "us", Better::Lower),
    ("storage.cache.hit_ns", "ns", Better::Lower),
    ("storage.disk.flush_mb_per_s", "MB/s", Better::Higher),
    ("storage.disk.compact_mb_per_s", "MB/s", Better::Higher),
    ("storage.disk.compact_write_amp", "ratio", Better::Lower),
    ("storage.disk.get_hit_ns", "ns", Better::Lower),
    ("storage.disk.get_absent_ns", "ns", Better::Lower),
    ("storage.disk.scan100_us", "us", Better::Lower),
    ("core.put_mem_only_ns", "ns", Better::Lower),
    ("core.put_wal_ns", "ns", Better::Lower),
    ("core.batch64_ns_per_op", "ns", Better::Lower),
    ("core.get_mem_hit_ns", "ns", Better::Lower),
    ("core.open_empty_ms", "ms", Better::Lower),
    ("core.recover_ms", "ms", Better::Lower),
    ("core.scan_open_break100_ms", "ms", Better::Lower),
    ("core.sharded4_put_ns", "ns", Better::Lower),
];

const TRACED: &[(&str, &str, Better)] = &[
    ("storage.wal.records_per_group", "count", Better::Higher),
    ("storage.wal.follower_share", "share", Better::Higher),
    ("storage.wal.rotations", "count", Better::Lower),
    ("storage.wal.retired_mb", "MB", Better::Higher),
    ("storage.cache.hit_share", "share", Better::Higher),
    ("storage.disk.flushes", "count", Better::Lower),
    ("storage.disk.compactions", "count", Better::Lower),
    ("storage.disk.l0_files_end", "count", Better::Lower),
    ("storage.disk.levels_used", "count", Better::Lower),
    ("storage.env.sst_reads_per_get", "count", Better::Lower),
    ("storage.env.sst_read_bytes_per_get", "bytes", Better::Lower),
    ("storage.env.table_opens_per_kget", "count", Better::Lower),
    ("storage.env.read_busy_share", "share", Better::Lower),
    ("storage.env.log_appends_per_put", "count", Better::Lower),
    (
        "storage.env.log_bytes_per_user_byte",
        "ratio",
        Better::Lower,
    ),
    (
        "storage.env.sst_bytes_per_user_byte",
        "ratio",
        Better::Lower,
    ),
    ("storage.env.syncs_per_kop", "count", Better::Lower),
    ("storage.env.files_created", "count", Better::Lower),
    ("storage.env.files_deleted", "count", Better::Lower),
    ("storage.env.append_busy_share", "share", Better::Lower),
    ("core.reopen_ms", "ms", Better::Lower),
    ("core.fast_write_share", "share", Better::Higher),
    ("core.drain_entries_per_batch", "count", Better::Higher),
    ("core.writer_drain_helps_per_kop", "count", Better::Lower),
    ("core.write_stalls_per_kop", "count", Better::Lower),
    ("core.write_stall_share", "share", Better::Lower),
    ("core.scan_restarts_per_scan", "count", Better::Lower),
    ("core.fallback_scan_share", "share", Better::Lower),
    ("core.master_scan_share", "share", Better::Lower),
    ("core.piggyback_scan_share", "share", Better::Higher),
    ("trace.overhead_pct", "%", Better::Lower),
    // The tail quantiles: on at least one workload each sits on a knee of
    // the latency distribution, or comes from a tail phase too short for
    // it, and does not repeat within any allowed bound. Reported, not gated.
    ("client.put_p99_us", "us", Better::Lower),
    ("client.put_p999_us", "us", Better::Lower),
    ("client.get_p99_us", "us", Better::Lower),
    ("client.get_p999_us", "us", Better::Lower),
    ("client.scan_p99_us", "us", Better::Lower),
    ("client.timer_ns", "ns", Better::Lower),
    ("client.samples", "count", Better::Higher),
    ("client.window_spread_pct", "%", Better::Lower),
    ("client.calib_drift_pct", "%", Better::Lower),
    ("proc.cpu_us_per_op", "us", Better::Lower),
    ("proc.peak_rss_mb", "MB", Better::Lower),
];

pub fn per_layer() -> Vec<PerLayer> {
    let row = |&(name, unit, better): &(&str, &'static str, Better), source| PerLayer {
        name: name.to_string(),
        unit,
        better,
        source,
    };
    let mut out: Vec<PerLayer> = PROBES.iter().map(|r| row(r, Source::Probe)).collect();
    out.extend(TRACED.iter().map(|r| row(r, Source::Traced)));
    for stage in STAGES {
        for (suffix, unit) in [("busy_share", "share"), ("p99_us", "us")] {
            out.push(PerLayer {
                name: format!("core.stage.{stage}.{suffix}"),
                unit,
                better: Better::Lower,
                source: Source::Traced,
            });
        }
    }
    out
}

/// Names of the per-layer metrics one program emits.
pub fn per_layer_names(source: Source) -> Vec<String> {
    per_layer()
        .into_iter()
        .filter(|m| m.source == source)
        .map(|m| m.name)
        .collect()
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| per_layer().iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Prints each metric by name with its unit, and returns the contract's
/// `metrics` object: `{name: {"value": …, "unit": …}}`.
pub fn print_metrics(metrics: &[(String, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).unwrap_or("?");
                println!("{name:<40} {value:>16.4} {unit}");
                let entry = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_spec_stays_inside_the_contracts_limits() {
        let layers = per_layer();
        let mut names = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(layers.iter().map(|m| m.name.as_str()))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(names.insert(name.to_string()), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit))
        {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer",
            layers.len()
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
        assert_eq!(unit_of("core.stage.compaction.p99_us"), Some("us"));
        assert_eq!(unit_of("ops_per_s"), Some("1/s"));
        assert_eq!(unit_of("nope"), None);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_text() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run -p flodb-benchkit --bin benchmark-json > ../BENCHMARK.json"
        );
    }
}
