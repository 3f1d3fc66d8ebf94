//! Quickstart: open a FloDB store, write, read, scan, and inspect what the
//! two-tier memory component did behind the scenes.
//!
//! Run with: `cargo run --release --example quickstart`

use flodb::{FloDb, FloDbOptions, KvStore};

fn main() {
    // The paper's default shape — 128 MB memory component split 1/4
    // Membuffer (fast hash table) + 3/4 Memtable (sorted skiplist) — over
    // an in-memory simulated disk. Swap `opts.env` for `FsEnv` to store
    // real files.
    let opts = FloDbOptions::default_in_memory();
    let db = FloDb::open(opts).expect("open FloDB");

    // --- Point operations -------------------------------------------------
    db.put(b"city:paris", b"2161000").expect("write acknowledged");
    db.put(b"city:belgrade", b"1197000") // EuroSys '17 host city.
        .expect("write acknowledged");
    db.put(b"city:lausanne", b"140000").expect("write acknowledged");
    println!(
        "get city:belgrade -> {}",
        String::from_utf8_lossy(&db.get(b"city:belgrade").unwrap())
    );

    // Updates are IN PLACE (§3.2): rewriting a key does not consume new
    // memory-component space, which is what lets FloDB capture skewed
    // workloads entirely in memory (Figure 16).
    for population in [140001u64, 140002, 140003] {
        db.put(b"city:lausanne", population.to_string().as_bytes()).expect("write acknowledged");
    }
    println!(
        "get city:lausanne -> {} (after 3 in-place updates)",
        String::from_utf8_lossy(&db.get(b"city:lausanne").unwrap())
    );

    // Deletes insert a tombstone that shadows every older level.
    db.delete(b"city:paris").expect("write acknowledged");
    assert_eq!(db.get(b"city:paris"), None);
    println!("city:paris deleted");

    // --- Scans -------------------------------------------------------------
    // Scans are serializable (point-in-time): the master scan drains the
    // Membuffer into the sorted Memtable first, so even entries that only
    // ever lived in the hash table appear, in key order.
    for i in 0..10u32 {
        db.put(format!("sensor:{i:04}").as_bytes(), b"ok").expect("write acknowledged");
    }
    let readings = db.scan(b"sensor:", b"sensor:~");
    println!("scan sensor:* -> {} entries, sorted:", readings.len());
    for (key, value) in readings.iter().take(3) {
        println!(
            "  {} = {}",
            String::from_utf8_lossy(key),
            String::from_utf8_lossy(value)
        );
    }

    // --- A burst of writes, then a look inside -----------------------------
    // 50k scattered keys: most complete in the Membuffer at hash-table
    // latency; background drain threads move them into the skiplist with
    // multi-inserts; the persist thread flushes full Memtables to disk.
    for i in 0..50_000u64 {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes();
        db.put(&key, &i.to_le_bytes()).expect("write acknowledged");
    }
    db.quiesce(); // Wait for drains / flushes / compactions to settle.

    let stats = db.stats();
    println!("\n--- flodb stats ---");
    println!("puts                 {}", stats.puts);
    println!(
        "membuffer fast-path  {} ({:.1}% of writes)",
        stats.fast_level_writes,
        100.0 * stats.fast_level_writes as f64 / (stats.puts + stats.deletes) as f64
    );
    println!("memtable persists    {}", stats.persists);
    println!("master scans         {}", stats.master_scans);
    println!("piggybacking scans   {}", stats.piggyback_scans);

    let disk = db.disk_stats();
    println!("\n--- disk component ---");
    println!("flushes              {}", disk.flushes);
    println!("compactions          {}", disk.compactions);
    println!("trivial moves        {}", disk.trivial_moves);
    println!("compaction bytes     {:?}", disk.compaction_bytes_written);
    println!(
        "live sstables        {}",
        disk.files_per_level.iter().sum::<usize>()
    );
    println!("files per level      {:?}", disk.files_per_level);
}
