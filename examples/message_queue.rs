//! Message queue: the high-update-rate workload from the paper's
//! introduction ("message queues that undergo a high number of updates").
//!
//! Producers append messages under ordered keys `(topic, seqno)`;
//! consumers poll their topic with a range scan, process a batch, and
//! delete what they consumed. This exercises exactly the concurrency FloDB
//! was built for: writes complete in the Membuffer while serializable
//! scans proceed over the sorted Memtable and disk (§3.2), never blocking
//! one another.
//!
//! Run with: `cargo run --release --example message_queue`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flodb::{FloDb, FloDbOptions, KvStore};

const TOPICS: u64 = 4;
const PRODUCERS_PER_TOPIC: u64 = 2;
const RUN: Duration = Duration::from_secs(3);
/// Messages a consumer takes per poll.
const BATCH: usize = 100;

/// Queue keys sort by (topic, sequence-number): `q/<topic>/<seqno>`.
fn message_key(topic: u64, seqno: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(18);
    k.extend_from_slice(b"q/");
    k.extend_from_slice(&topic.to_be_bytes());
    k.push(b'/');
    k.extend_from_slice(&seqno.to_be_bytes());
    k
}

fn topic_range(topic: u64) -> (Vec<u8>, Vec<u8>) {
    (message_key(topic, 0), message_key(topic, u64::MAX))
}

fn main() {
    let mut opts = FloDbOptions::default_in_memory();
    // Exactly-once consumption needs every scan to see all completed
    // deletes. Default FloDB scans are serializable but may piggyback on a
    // slightly stale snapshot (§4.4) — fine for analytics, wrong for a
    // queue, where a stale view re-delivers a just-consumed message. The
    // paper's prescription: "if a more strict scan consistency is required
    // at the application-level... scan piggybacking can be disabled".
    opts.linearizable_scans = true;
    let db: Arc<FloDb> = Arc::new(FloDb::open(opts).expect("open FloDB"));
    let stop = Arc::new(AtomicBool::new(false));
    let produced = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));

    // Per-topic monotonic sequence numbers shared by its producers.
    let cursors: Arc<Vec<AtomicU64>> =
        Arc::new((0..TOPICS).map(|_| AtomicU64::new(0)).collect());

    let mut handles = Vec::new();

    // --- Producers: high-rate appends, absorbed by the Membuffer ----------
    for topic in 0..TOPICS {
        for p in 0..PRODUCERS_PER_TOPIC {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let produced = Arc::clone(&produced);
            let cursors = Arc::clone(&cursors);
            handles.push(std::thread::spawn(move || {
                let mut body = [0u8; 128];
                while !stop.load(Ordering::Relaxed) {
                    let seqno = cursors[topic as usize].fetch_add(1, Ordering::Relaxed);
                    body[..8].copy_from_slice(&seqno.to_be_bytes());
                    body[8..16].copy_from_slice(&p.to_be_bytes());
                    db.put(&message_key(topic, seqno), &body).expect("write acknowledged");
                    produced.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
    }

    // --- Consumers: serializable range scans + batch deletes --------------
    for topic in 0..TOPICS {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let consumed = Arc::clone(&consumed);
        handles.push(std::thread::spawn(move || {
            let (low, high) = topic_range(topic);
            let mut last_seen: Option<Vec<u8>> = None;
            while !stop.load(Ordering::Relaxed) {
                // The scan sees a consistent point-in-time snapshot: the
                // master scan drains pending Membuffer writes first, and
                // reads each key as of its stamp even while a concurrent
                // in-place overwrite lands (Algorithm 3), so a batch is
                // never half-old.
                let batch = db.scan(&low, &high);
                if batch.is_empty() {
                    std::thread::yield_now();
                    continue;
                }
                for (key, body) in batch.iter().take(BATCH) {
                    // "Process" the message: verify producer framing.
                    assert_eq!(&body[..8], &key[11..19], "seqno framing corrupt");
                    // FIFO check: keys must arrive in ascending order.
                    if let Some(prev) = &last_seen {
                        assert!(key > prev, "queue order violated");
                    }
                    last_seen = Some(key.clone());
                    db.delete(key).expect("write acknowledged");
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
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

    let p = produced.load(Ordering::Relaxed);
    let c = consumed.load(Ordering::Relaxed);
    println!("topics {TOPICS}, producers {}, consumers {TOPICS}", TOPICS * PRODUCERS_PER_TOPIC);
    println!("produced {p} msgs ({:9.0}/s)", p as f64 / secs);
    println!("consumed {c} msgs ({:9.0}/s)", c as f64 / secs);

    let stats = db.stats();
    println!("\nscans {} | master {} | piggyback {}", stats.scans, stats.master_scans, stats.piggyback_scans);
    println!(
        "membuffer fast-path writes: {:.1}%",
        100.0 * stats.fast_level_writes as f64 / (stats.puts + stats.deletes) as f64
    );

    // Drain the backlog and verify every topic ends empty or with exactly
    // the unconsumed tail.
    db.quiesce();
    let mut backlog = 0;
    for topic in 0..TOPICS {
        let (low, high) = topic_range(topic);
        backlog += db.scan(&low, &high).len() as u64;
    }
    assert_eq!(p - c, backlog, "produced - consumed must equal backlog");
    println!("backlog verified: {backlog} messages awaiting consumers");
}
