//! Integration tests of the engine telemetry subsystem (PR 10): the
//! shared histogram against a sorted-vector oracle, the flight
//! recorder's bounded-memory contract, and end-to-end p99 attribution —
//! a sync-WAL run whose write tail is explained by fsync time, a
//! stall-inducing run whose tail is explained by `write_stall_ns` plus
//! the begin/end event pair in the trace, and a persist thread whose
//! stage samples add up to no more than the time it had.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flodb::core::telemetry::{Histogram, OpClass, StageClass, TraceEventKind, TraceRing};
use flodb::storage::{MemEnv, ThrottleConfig};
use flodb::{FloDb, FloDbOptions, KvStore, ShardedFloDb, ShardedOptions, TelemetryLevel, WalMode};

/// Deterministic xorshift64* — the tests need varied samples, not
/// cryptographic ones, and the container has no rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The oracle: exact percentile over the sorted samples, matching the
/// histogram's ceil-rank convention.
fn oracle_percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

#[test]
fn histogram_quantiles_track_a_sorted_vec_oracle() {
    // Samples spanning six decades, the shape of real latencies.
    let mut rng = Rng(0xF10D_B10);
    let mut h = Histogram::new();
    let mut samples = Vec::new();
    for _ in 0..20_000 {
        let decade = 10u64.pow((rng.next() % 6) as u32); // 1ns..100us scale
        let v = decade + rng.next() % (9 * decade).max(1);
        h.record(v);
        samples.push(v);
    }
    samples.sort_unstable();
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(h.max_ns(), *samples.last().unwrap());
    for p in [10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
        let exact = oracle_percentile(&samples, p) as f64;
        let approx = h.percentile_ns(p) as f64;
        // The log-linear layout guarantees ≈3% relative bucket error;
        // allow 5% for the midpoint convention at decade edges.
        assert!(
            (approx - exact).abs() <= exact * 0.05 + 1.0,
            "p{p}: histogram {approx} vs oracle {exact}"
        );
    }
}

#[test]
fn histogram_merge_is_associative_and_matches_pooled_recording() {
    let mut rng = Rng(0xCAFE);
    let parts: Vec<Vec<u64>> = (0..3)
        .map(|_| (0..2_000).map(|_| 1 + rng.next() % 1_000_000).collect())
        .collect();
    let hist = |vals: &[u64]| {
        let mut h = Histogram::new();
        for &v in vals {
            h.record(v);
        }
        h
    };
    let [a, b, c] = [hist(&parts[0]), hist(&parts[1]), hist(&parts[2])];
    // (a ∪ b) ∪ c == a ∪ (b ∪ c) == one histogram fed everything.
    let mut ab_c = a.clone();
    ab_c.merge(&b);
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    let pooled = hist(&parts.concat());
    for h in [&ab_c, &a_bc] {
        assert_eq!(h.count(), pooled.count());
        assert_eq!(h.max_ns(), pooled.max_ns());
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(h.percentile_ns(p), pooled.percentile_ns(p));
        }
    }
}

#[test]
fn trace_ring_wraps_without_growing() {
    let ring = TraceRing::with_capacity(64);
    let cap = ring.capacity();
    // Push twelve laps' worth of events from several threads: memory is
    // fixed at construction, so the dump can never exceed capacity. Which
    // laps survive is not promised — a writer that laps a predecessor
    // still mid-write drops its own event (counted), so a slot can keep an
    // older ticket than the final lap's.
    let ring = Arc::new(ring);
    let handles: Vec<_> = (0..4u32)
        .map(|t| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..(3 * 64) {
                    ring.push(TraceEventKind::Drain, t, i as u64, 0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let events = ring.dump();
    assert!(events.len() <= cap, "{} events > {cap} slots", events.len());
    assert_eq!(ring.recorded(), 4 * 3 * 64, "every push takes a ticket, dropped or not");
    // The dump is sorted and holds each ticket once, all of them issued.
    assert!(events.windows(2).all(|w| w[0].ticket < w[1].ticket));
    assert!(events.iter().all(|e| e.ticket < ring.recorded()));
    // One survivor per slot, each the event of a push that was not dropped.
    let slots: std::collections::BTreeSet<u64> =
        events.iter().map(|e| e.ticket % cap as u64).collect();
    assert_eq!(slots.len(), events.len(), "two survivors share a slot");
    let published = ring.recorded() - ring.dropped();
    assert!(
        events.len() as u64 <= published,
        "{} survivors of {published} published events",
        events.len()
    );
}

#[test]
fn sync_wal_run_attributes_the_write_tail_to_fsync() {
    let mut opts = FloDbOptions::small_for_tests();
    opts.wal = WalMode::Enabled { sync: true };
    opts.telemetry = TelemetryLevel::Full;
    let db = FloDb::open(opts).unwrap();
    for i in 0..500u64 {
        db.put(&i.to_be_bytes(), &[0x5A; 128]).unwrap();
    }
    let stats = db.stats();
    assert!(stats.wal_sync_ns > 0, "sync-on-write run must accrue fsync time");
    let snap = db.telemetry();
    assert_eq!(snap.level, TelemetryLevel::Full);
    assert_eq!(snap.op(OpClass::Put).count(), 500);
    let fsync = snap.stage_summary(StageClass::WalFsync);
    assert!(fsync.count > 0, "every synced append records a WalFsync stage");
    // Attribution: the time the engine says it spent in fsync is the
    // time the WAL layer measured (same counter, two export paths).
    assert_eq!(snap.counters.wal_sync_ns, stats.wal_sync_ns);
    // And the write path is at least as slow as the fsync inside it.
    let put = snap.op_summary(OpClass::Put);
    assert!(
        put.p99_ns >= fsync.p50_ns,
        "write p99 {} cannot undercut the median fsync {}",
        put.p99_ns,
        fsync.p50_ns
    );
}

#[test]
fn stalled_run_attributes_the_tail_to_backpressure() {
    // Smallest legal memory component over a slow simulated disk: the
    // writer outruns persistence and must stall for Memtable room.
    let mut opts = FloDbOptions::small_for_tests();
    opts.memory_bytes = 64 * 1024;
    opts.env = Arc::new(MemEnv::new(Some(ThrottleConfig {
        write_bytes_per_sec: 1024 * 1024,
        burst_bytes: 16 * 1024,
    })));
    opts.telemetry = TelemetryLevel::Full;
    let db = FloDb::open(opts).unwrap();
    let value = vec![0xA5u8; 1024];
    for i in 0..1_000u64 {
        db.put(&i.to_be_bytes(), &value).unwrap();
        if i % 64 == 0 && db.stats().write_stall_ns > 0 {
            break;
        }
    }
    let stats = db.stats();
    assert!(
        stats.write_stall_ns > 0,
        "a writer outrunning a 1 MB/s disk on a 64 KB budget must stall"
    );
    let snap = db.telemetry();
    assert!(snap.stage(StageClass::WriteStall).count() > 0);
    // The flight recorder explains the same tail: a begin/end pair per
    // stall, the end event carrying the measured duration.
    let trace = db.trace_dump();
    assert!(trace.iter().any(|e| e.kind == TraceEventKind::StallBegin));
    let ends: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == TraceEventKind::StallEnd)
        .collect();
    assert!(!ends.is_empty());
    assert!(ends.iter().all(|e| e.a > 0), "StallEnd carries the duration");
}

#[test]
fn persist_thread_stage_samples_are_disjoint_and_only_it_compacts() {
    // A small log bound and a small memory component: the run's switches
    // roll and retire the log and the persist thread compacts, while a
    // second thread keeps calling `flush_all`.
    let mut opts = FloDbOptions::small_for_tests();
    opts.wal = WalMode::Enabled { sync: false };
    opts.wal_segment_max_bytes = 16 * 1024;
    opts.telemetry = TelemetryLevel::Full;
    let start = Instant::now();
    let db = FloDb::open(opts).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                db.flush_all();
            }
        });
        for i in 0..20_000u64 {
            db.put(&(i % 3_000).to_be_bytes(), &[0x3C; 128]).unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });
    db.flush_all();
    db.quiesce();
    let snap = db.telemetry();
    let wall_ns = start.elapsed().as_nanos() as f64;

    let stats = db.stats();
    let disk = db.disk_stats();
    assert!(stats.wal_rotations > 0 && stats.wal_retired_bytes > 0, "{stats:?}");
    assert!(disk.flushes > 0 && disk.compactions > 0, "{disk:?}");
    // Flush, compaction and retirement samples all come from the persist
    // thread and none contains another, so together they fit in the run.
    let busy_ns = |stage| {
        let samples = snap.stage(stage);
        assert!(samples.count() > 0, "{stage:?} never sampled");
        samples.count() as f64 * samples.mean_ns()
    };
    let (flush, compaction, retirement) = (
        busy_ns(StageClass::MemtableFlush),
        busy_ns(StageClass::Compaction),
        busy_ns(StageClass::WalRetirement),
    );
    assert!(
        flush + compaction + retirement <= wall_ns,
        "flush {flush} + compaction {compaction} + retirement {retirement} > wall {wall_ns}"
    );
    // `flush_all` waits for the persist thread's compaction instead of
    // running its own: every compaction carries the flushes' thread id.
    let trace = db.trace_dump();
    let tids = |kind| -> std::collections::BTreeSet<u32> {
        trace.iter().filter(|e| e.kind == kind).map(|e| e.tid).collect()
    };
    let compactors = tids(TraceEventKind::Compaction);
    assert_eq!(compactors.len(), 1, "compactions ran on threads {compactors:?}");
    assert_eq!(compactors, tids(TraceEventKind::Flush));
}

#[test]
fn off_level_records_nothing() {
    let mut opts = FloDbOptions::small_for_tests();
    opts.telemetry = TelemetryLevel::Off;
    let db = FloDb::open(opts).unwrap();
    for i in 0..200u64 {
        db.put(&i.to_be_bytes(), b"v").unwrap();
        db.get(&i.to_be_bytes());
    }
    db.flush_all();
    assert!(db.trace_dump().is_empty(), "Off runs no flight recorder");
    let snap = db.telemetry();
    assert_eq!(snap.level, TelemetryLevel::Off);
    assert_eq!(snap.op(OpClass::Put).count(), 0);
    assert_eq!(snap.stage(StageClass::MemtableFlush).count(), 0);
    // The pre-existing counters still work — Off only silences the new
    // machinery, not StoreStats.
    assert_eq!(snap.counters.puts, 200);
}

#[test]
fn counters_level_gets_events_and_durations_but_no_histograms() {
    let mut opts = FloDbOptions::small_for_tests();
    opts.telemetry = TelemetryLevel::Counters; // the default, pinned explicitly
    opts.wal = WalMode::Enabled { sync: true };
    let db = FloDb::open(opts).unwrap();
    for i in 0..300u64 {
        db.put(&i.to_be_bytes(), &[1u8; 64]).unwrap();
    }
    db.flush_all();
    assert!(db.stats().wal_sync_ns > 0, "duration counters run at Counters");
    assert!(
        db.trace_dump().iter().any(|e| e.kind == TraceEventKind::Flush),
        "the flight recorder runs at Counters"
    );
    let snap = db.telemetry();
    assert_eq!(snap.op(OpClass::Put).count(), 0, "histograms need Full");
}

#[test]
fn snapshot_delta_isolates_an_interval_of_live_traffic() {
    let mut opts = FloDbOptions::small_for_tests();
    opts.telemetry = TelemetryLevel::Full;
    let db = FloDb::open(opts).unwrap();
    for i in 0..100u64 {
        db.put(&i.to_be_bytes(), b"warmup").unwrap();
    }
    let before = db.telemetry();
    for i in 0..40u64 {
        db.put(&i.to_be_bytes(), b"interval").unwrap();
        db.get(&i.to_be_bytes());
    }
    let delta = db.telemetry().delta_since(&before);
    assert_eq!(delta.counters.puts, 40);
    assert_eq!(delta.counters.gets, 40);
    assert_eq!(delta.op(OpClass::Put).count(), 40);
    assert_eq!(delta.op(OpClass::Get).count(), 40);
    assert_eq!(delta.op(OpClass::Scan).count(), 0);
}

#[test]
fn exports_render_from_a_live_store() {
    let mut opts = FloDbOptions::small_for_tests();
    opts.telemetry = TelemetryLevel::Full;
    let db = FloDb::open(opts).unwrap();
    for i in 0..50u64 {
        db.put(&i.to_be_bytes(), b"v").unwrap();
    }
    let snap = db.telemetry();
    let text = snap.to_prometheus_text();
    assert!(text.contains("flodb_puts 50"));
    assert!(text.contains("flodb_op_latency_ns{op=\"put\",quantile=\"p99\"}"));
    let json = snap.to_json();
    assert!(json.contains("\"schema\": \"flodb-telemetry/v1\""));
    assert!(json.contains("\"op\": \"put\""));
}

#[test]
fn sharded_rollup_merges_every_shard() {
    let mut base = FloDbOptions::small_for_tests();
    base.telemetry = TelemetryLevel::Full;
    let db = ShardedFloDb::open(ShardedOptions::new(4, base)).unwrap();
    for i in 0..400u64 {
        db.put(format!("key-{i:05}").as_bytes(), b"v").unwrap();
    }
    let total = db.telemetry();
    assert_eq!(total.level, TelemetryLevel::Full);
    assert_eq!(total.counters.puts, 400);
    assert_eq!(total.op(OpClass::Put).count(), 400);
    let per_shard = db.per_shard_telemetry();
    assert_eq!(per_shard.len(), 4);
    let summed: u64 = per_shard.iter().map(|s| s.op(OpClass::Put).count()).sum();
    assert_eq!(summed, 400);
    // Routing spread the keys: no shard saw everything.
    assert!(per_shard.iter().all(|s| s.op(OpClass::Put).count() < 400));
}
