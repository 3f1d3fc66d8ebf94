//! Point-in-time telemetry export: counters + histogram quantiles,
//! delta-able between snapshots, with dependency-free Prometheus-style
//! text and JSON encoders.

use crate::api::StoreStats;

use super::histogram::Histogram;
use super::recorder::{OpClass, StageClass};
use super::TelemetryLevel;

/// Quantile summary of one histogram (what dashboards consume; the full
/// bucket vector stays inside [`TelemetrySnapshot`] so snapshots remain
/// delta-able and mergeable without losing resolution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Maximum, nanoseconds.
    pub max_ns: u64,
    /// Mean, nanoseconds.
    pub mean_ns: f64,
}

impl HistogramSummary {
    /// Summarizes `h`.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            p50_ns: h.percentile_ns(50.0),
            p95_ns: h.percentile_ns(95.0),
            p99_ns: h.percentile_ns(99.0),
            p999_ns: h.percentile_ns(99.9),
            max_ns: h.max_ns(),
            mean_ns: h.mean_ns(),
        }
    }
}

/// A point-in-time snapshot of everything the engine's telemetry layer
/// recorded: the [`StoreStats`] counters plus (at
/// [`TelemetryLevel::Full`]) the per-op and per-stage latency
/// histograms.
///
/// Snapshots are cumulative since open. [`delta_since`] subtracts an
/// earlier snapshot of the same store to isolate an interval;
/// [`merge_from`] sums snapshots across shards
/// ([`ShardedFloDb::telemetry`](crate::ShardedFloDb::telemetry)).
///
/// [`delta_since`]: TelemetrySnapshot::delta_since
/// [`merge_from`]: TelemetrySnapshot::merge_from
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The level the store was recording at.
    pub level: TelemetryLevel,
    /// Operation and lifecycle counters.
    pub counters: StoreStats,
    /// Per-op latency histograms, indexed by [`OpClass::index`]. Empty
    /// below [`TelemetryLevel::Full`].
    pub ops: [Histogram; 3],
    /// Per-stage duration histograms, indexed by [`StageClass::index`].
    /// Empty below [`TelemetryLevel::Full`].
    pub stages: [Histogram; 9],
}

impl TelemetrySnapshot {
    /// An empty snapshot at `level` (all counters zero, all histograms
    /// empty) — the identity for [`merge_from`](Self::merge_from).
    pub fn empty(level: TelemetryLevel) -> Self {
        Self {
            level,
            counters: StoreStats::default(),
            ops: std::array::from_fn(|_| Histogram::new()),
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// The latency histogram of one op class.
    pub fn op(&self, op: OpClass) -> &Histogram {
        &self.ops[op.index()]
    }

    /// The duration histogram of one engine stage.
    pub fn stage(&self, stage: StageClass) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Quantile summary of one op class.
    pub fn op_summary(&self, op: OpClass) -> HistogramSummary {
        HistogramSummary::of(self.op(op))
    }

    /// Quantile summary of one engine stage.
    pub fn stage_summary(&self, stage: StageClass) -> HistogramSummary {
        HistogramSummary::of(self.stage(stage))
    }

    /// Returns this snapshot minus `earlier` (taken from the same store,
    /// earlier): counters subtract saturating, histograms subtract per
    /// bucket. The two gauges (`wal_generations`, `wal_active_bytes`)
    /// keep this snapshot's value — a gauge has no meaningful delta —
    /// and histogram maxima are upper bounds (see [`Histogram::diff`]).
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            level: self.level,
            counters: self.counters.delta_since(&earlier.counters),
            ops: std::array::from_fn(|i| self.ops[i].diff(&earlier.ops[i])),
            stages: std::array::from_fn(|i| self.stages[i].diff(&earlier.stages[i])),
        }
    }

    /// Adds `other` into `self` (counters sum, gauges sum to fleet-wide
    /// totals, histograms merge) — the sharded rollup. The merged level
    /// is the minimum of the two: a quantile over shards is only as
    /// complete as the least-recording shard.
    pub fn merge_from(&mut self, other: &TelemetrySnapshot) {
        self.level = self.level.min(other.level);
        self.counters.add(&other.counters);
        for (mine, theirs) in self.ops.iter_mut().zip(other.ops.iter()) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.merge(theirs);
        }
    }

    /// Renders the snapshot as Prometheus-style text exposition
    /// (dependency-free; counters as `flodb_<name>`, quantiles as
    /// labeled `flodb_op_latency_ns` / `flodb_stage_duration_ns`).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# flodb telemetry (level={})\n",
            self.level.name()
        ));
        for (name, value) in self.counters.pairs() {
            out.push_str(&format!("flodb_{name} {value}\n"));
        }
        if self.level != TelemetryLevel::Full {
            return out;
        }
        let ops = OpClass::ALL
            .map(|op| ("flodb_op_latency", "op", op.name(), self.op_summary(op)));
        let stages = StageClass::ALL
            .map(|st| ("flodb_stage_duration", "stage", st.name(), self.stage_summary(st)));
        for (metric, key, label, s) in ops.into_iter().chain(stages) {
            out.push_str(&format!("{metric}_count{{{key}=\"{label}\"}} {}\n", s.count));
            for (q, v) in quantile_pairs(&s) {
                out.push_str(&format!(
                    "{metric}_ns{{{key}=\"{label}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
        }
        out
    }

    /// Renders the snapshot as a JSON document (dependency-free,
    /// schema `flodb-telemetry/v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"flodb-telemetry/v1\",\n");
        out.push_str(&format!("  \"level\": \"{}\",\n", self.level.name()));
        let counters: Vec<String> = self
            .counters
            .pairs()
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        out.push_str(&format!("  \"counters\": {{{}}},\n", counters.join(", ")));
        out.push_str("  \"ops\": [\n");
        for (i, op) in OpClass::ALL.iter().enumerate() {
            json_summary_line(
                &mut out,
                "op",
                op.name(),
                &self.op_summary(*op),
                i + 1 == OpClass::ALL.len(),
            );
        }
        out.push_str("  ],\n  \"stages\": [\n");
        for (i, stage) in StageClass::ALL.iter().enumerate() {
            json_summary_line(
                &mut out,
                "stage",
                stage.name(),
                &self.stage_summary(*stage),
                i + 1 == StageClass::ALL.len(),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_summary_line(
    out: &mut String,
    key: &str,
    label: &str,
    s: &HistogramSummary,
    last: bool,
) {
    out.push_str(&format!(
        "    {{\"{key}\": \"{label}\", \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
         \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1}}}{}\n",
        s.count,
        s.p50_ns,
        s.p95_ns,
        s.p99_ns,
        s.p999_ns,
        s.max_ns,
        s.mean_ns,
        if last { "" } else { "," }
    ));
}

fn quantile_pairs(s: &HistogramSummary) -> [(&'static str, u64); 5] {
    [
        ("p50", s.p50_ns),
        ("p95", s.p95_ns),
        ("p99", s.p99_ns),
        ("p999", s.p999_ns),
        ("max", s.max_ns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::empty(TelemetryLevel::Full);
        snap.counters.puts = 10;
        snap.counters.wal_sync_ns = 5_000;
        snap.ops[OpClass::Put.index()].record(1_000);
        snap.ops[OpClass::Put.index()].record(2_000);
        snap.stages[StageClass::WalFsync.index()].record(9_000);
        snap
    }

    #[test]
    fn delta_isolates_the_interval() {
        let early = sample();
        let mut late = early.clone();
        late.counters.puts = 17;
        late.ops[OpClass::Put.index()].record(50_000);
        let delta = late.delta_since(&early);
        assert_eq!(delta.counters.puts, 7);
        assert_eq!(delta.op(OpClass::Put).count(), 1);
        assert!(delta.op_summary(OpClass::Put).p50_ns > 10_000);
        // Stage histogram unchanged across the interval → empty delta.
        assert_eq!(delta.stage(StageClass::WalFsync).count(), 0);
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut total = TelemetrySnapshot::empty(TelemetryLevel::Full);
        total.merge_from(&sample());
        total.merge_from(&sample());
        assert_eq!(total.counters.puts, 20);
        assert_eq!(total.op(OpClass::Put).count(), 4);
        assert_eq!(total.stage(StageClass::WalFsync).count(), 2);
        // Merging an Off shard degrades the rollup's level.
        total.merge_from(&TelemetrySnapshot::empty(TelemetryLevel::Off));
        assert_eq!(total.level, TelemetryLevel::Off);
    }

    /// The exported counter names, in export order. Dashboards and the
    /// benchmark's trace parser key on these strings, so the table in
    /// `api.rs` may grow but must not rename or reorder them silently.
    const EXPORTED: [&str; 29] = [
        "puts", "deletes", "gets", "scans", "scanned_keys", "fast_level_writes",
        "memtable_writes", "drained_entries", "drain_batches", "persists", "scan_restarts",
        "fallback_scans", "piggyback_scans", "master_scans", "writer_drain_helps",
        "membuffer_recycles", "write_stalls", "wal_groups", "wal_group_records",
        "wal_follower_writes", "wal_rotations", "wal_retired_bytes", "wal_generations",
        "wal_active_bytes", "io_retries", "io_degraded", "wal_retire_errors", "write_stall_ns",
        "wal_sync_ns",
    ];

    /// What `sample()` holds for an exported counter.
    fn sample_value(name: &str) -> u64 {
        match name {
            "puts" => 10,
            "wal_sync_ns" => 5_000,
            _ => 0,
        }
    }

    #[test]
    fn delta_keeps_the_later_gauges() {
        let mut early = sample();
        early.counters.wal_generations = 3;
        early.counters.wal_active_bytes = 900;
        early.counters.wal_rotations = 2;
        let mut late = early.clone();
        late.counters.wal_generations = 2;
        late.counters.wal_active_bytes = 100;
        late.counters.wal_rotations = 5;
        let delta = late.delta_since(&early);
        assert_eq!(delta.counters.wal_generations, 2);
        assert_eq!(delta.counters.wal_active_bytes, 100);
        assert_eq!(delta.counters.wal_rotations, 3);
        // A counter that went backwards (snapshots swapped) saturates.
        assert_eq!(early.delta_since(&late).counters.wal_rotations, 0);
    }

    #[test]
    fn prometheus_text_carries_counters_and_quantiles() {
        let text = sample().to_prometheus_text();
        let counters: String = EXPORTED
            .iter()
            .map(|name| format!("flodb_{name} {}\n", sample_value(name)))
            .collect();
        assert!(
            text.starts_with(&format!("# flodb telemetry (level=full)\n{counters}flodb_op_")),
            "counter block changed:\n{text}"
        );
        assert!(text.contains("flodb_puts 10\n"));
        assert!(text.contains("flodb_wal_sync_ns 5000\n"));
        assert!(text.contains("flodb_op_latency_count{op=\"put\"} 2\n"));
        assert!(text.contains("flodb_stage_duration_ns{stage=\"wal_fsync\",quantile=\"p99\"}"));
        // Counters-level exposition omits the (empty) histograms.
        let mut counters_only = sample();
        counters_only.level = TelemetryLevel::Counters;
        let text = counters_only.to_prometheus_text();
        assert!(text.contains("flodb_puts 10\n"));
        assert!(!text.contains("flodb_op_latency_ns"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let doc = sample().to_json();
        let counters: Vec<String> = EXPORTED
            .iter()
            .map(|name| format!("\"{name}\": {}", sample_value(name)))
            .collect();
        assert!(
            doc.contains(&format!("  \"counters\": {{{}}},\n", counters.join(", "))),
            "counter object changed:\n{doc}"
        );
        assert!(doc.contains("\"schema\": \"flodb-telemetry/v1\""));
        assert!(doc.contains("\"level\": \"full\""));
        assert!(doc.contains("\"puts\": 10"));
        assert!(doc.contains("\"op\": \"put\""));
        assert!(doc.contains("\"stage\": \"wal_fsync\""));
        // Crude balance check (the bench crate owns the real parser).
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn summary_quantiles_are_ordered() {
        let s = sample().op_summary(OpClass::Put);
        assert!(s.p50_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.p999_ns);
        assert!(s.p999_ns <= s.max_ns);
        assert_eq!(s.count, 2);
    }
}
