//! Range analytics: serializable scans running concurrently with a write
//! stream — the workload of the paper's Figures 13-14.
//!
//! Ingest threads append time-ordered samples (`metric/<series>/<tick>`)
//! while analytics threads continuously aggregate sliding windows with
//! range scans. FloDB lets both proceed in parallel: writes land in the
//! Membuffer, scans run over the Memtable and disk, and each reads every
//! key as of its stamp — an in-place update keeps the version a live
//! scan reads — so a window is never inconsistent and no scan restarts.
//! Concurrent scans piggyback on one master's drain, spreading its cost
//! (§4.4).
//!
//! Run with: `cargo run --release --example range_analytics`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flodb::{FloDb, FloDbOptions, KvStore};

const SERIES: u64 = 8;
const INGEST_THREADS: u64 = 4;
const ANALYTICS_THREADS: u64 = 4;
const WINDOW: u64 = 256; // Ticks per aggregation window.
const RUN: Duration = Duration::from_secs(3);

fn sample_key(series: u64, tick: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(24);
    k.extend_from_slice(b"metric/");
    k.extend_from_slice(&series.to_be_bytes());
    k.push(b'/');
    k.extend_from_slice(&tick.to_be_bytes());
    k
}

fn main() {
    let db: Arc<FloDb> =
        Arc::new(FloDb::open(FloDbOptions::default_in_memory()).expect("open FloDB"));
    let stop = Arc::new(AtomicBool::new(false));
    let ticks: Arc<Vec<AtomicU64>> =
        Arc::new((0..SERIES).map(|_| AtomicU64::new(0)).collect());
    let windows_aggregated = Arc::new(AtomicU64::new(0));
    let points_read = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();

    // --- Ingest: each thread feeds its share of the series ----------------
    for w in 0..INGEST_THREADS {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let ticks = Arc::clone(&ticks);
        handles.push(std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let series = (w + n * INGEST_THREADS) % SERIES;
                let tick = ticks[series as usize].fetch_add(1, Ordering::Relaxed);
                // The value is the sample payload: f64 reading + tick echo.
                let reading = ((tick % 1000) as f64).to_bits();
                let mut v = [0u8; 16];
                v[..8].copy_from_slice(&reading.to_be_bytes());
                v[8..].copy_from_slice(&tick.to_be_bytes());
                db.put(&sample_key(series, tick), &v).expect("write acknowledged");
                n += 1;
            }
        }));
    }

    // --- Analytics: sliding-window aggregation via scans ------------------
    for a in 0..ANALYTICS_THREADS {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let ticks = Arc::clone(&ticks);
        let windows_aggregated = Arc::clone(&windows_aggregated);
        let points_read = Arc::clone(&points_read);
        handles.push(std::thread::spawn(move || {
            let mut round = a;
            while !stop.load(Ordering::Relaxed) {
                let series = round % SERIES;
                round += 1;
                let head = ticks[series as usize].load(Ordering::Relaxed);
                if head < WINDOW {
                    std::thread::yield_now();
                    continue;
                }
                let lo_tick = head - WINDOW;
                let window = db.scan(
                    &sample_key(series, lo_tick),
                    &sample_key(series, head - 1),
                );
                // Scans are serializable, not linearizable: a piggybacking
                // scan may serve a snapshot from slightly before this
                // window's ticks landed (§4.4), in which case the window is
                // simply not visible yet — skip and retry. Whatever IS
                // visible must be a consistent prefix: gap-free ticks.
                if window.is_empty() {
                    std::thread::yield_now();
                    continue;
                }
                let mut sum = 0.0f64;
                let mut prev_tick: Option<u64> = None;
                for (_, v) in &window {
                    sum += f64::from_bits(u64::from_be_bytes(v[..8].try_into().unwrap()));
                    let tick = u64::from_be_bytes(v[8..].try_into().unwrap());
                    if let Some(p) = prev_tick {
                        assert_eq!(tick, p + 1, "window must be gap-free");
                    }
                    prev_tick = Some(tick);
                }
                std::hint::black_box(sum / window.len() as f64);
                windows_aggregated.fetch_add(1, Ordering::Relaxed);
                points_read.fetch_add(window.len() as u64, Ordering::Relaxed);
            }
        }));
    }

    let start = Instant::now();
    std::thread::sleep(RUN);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let secs = start.elapsed().as_secs_f64();

    let ingested: u64 = ticks.iter().map(|t| t.load(Ordering::Relaxed)).sum();
    let windows = windows_aggregated.load(Ordering::Relaxed);
    let points = points_read.load(Ordering::Relaxed);
    println!("{SERIES} series, {INGEST_THREADS} ingest + {ANALYTICS_THREADS} analytics threads, {RUN:?}");
    println!("ingested   {ingested:>10} samples  ({:9.0}/s)", ingested as f64 / secs);
    println!("aggregated {windows:>10} windows  ({:9.0}/s)", windows as f64 / secs);
    println!(
        "key throughput (points read via scans): {:.2} Mkeys/s",
        points as f64 / secs / 1e6
    );

    let stats = db.stats();
    let flodb = db.flodb_stats();
    println!("\nmaster scans     {}", flodb.master_scans.load(Ordering::Relaxed));
    println!("piggyback scans  {}", flodb.piggyback_scans.load(Ordering::Relaxed));
    println!("master scans     {}", stats.master_scans);
    println!("piggyback scans  {} (each reuses a master's drain)", stats.piggyback_scans);
}
