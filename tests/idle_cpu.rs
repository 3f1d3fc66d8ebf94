//! An idle store burns no CPU: once `quiesce` returns, the drain and
//! persist threads park until there is work, so over 2 s of idling they use
//! less than 0.5 % of one CPU together. Measured from
//! `/proc/self/task/*/schedstat` (its first field is the nanoseconds a
//! thread has run), the engine threads found by their names. This file
//! holds one test, so no other test's store threads share the process.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use flodb::{FloDb, FloDbOptions, KvStore};

/// Run time in nanoseconds of each engine thread of this process, by tid.
fn engine_threads_ns() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let comm = comm.trim();
        if !(comm.starts_with("flodb-drain-") || comm == "flodb-persist") {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        let ns = stat.split_whitespace().next().and_then(|f| f.parse().ok());
        let tid = dir.file_name().unwrap().to_string_lossy().into_owned();
        out.push((
            format!("{comm}/{tid}"),
            ns.expect("schedstat's first field"),
        ));
    }
    out
}

#[test]
fn an_idle_store_parks_its_engine_threads() {
    let db = FloDb::open(FloDbOptions::small_for_tests()).unwrap();
    // Enough to switch the Memtable, flush and compact several times.
    for i in 0..20_000u64 {
        db.put(
            &(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_be_bytes(),
            &[7; 32],
        )
        .unwrap();
    }
    db.quiesce();
    let before = engine_threads_ns();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs(2));
    let after = engine_threads_ns();
    let wall_ns = t0.elapsed().as_nanos() as f64;
    assert!(after.len() >= 2, "the drain and persist threads: {after:?}");
    let used: u64 = after
        .iter()
        .map(|(thread, ns)| {
            let start = before
                .iter()
                .find(|(t, _)| t == thread)
                .map_or(0, |(_, ns)| *ns);
            ns - start
        })
        .sum();
    let share = used as f64 / wall_ns;
    assert!(
        share < 0.005,
        "idle engine threads used {:.3} % of a CPU ({used} ns in {:.2} s): {after:?}",
        share * 100.0,
        wall_ns / 1e9
    );
    assert_eq!(db.get(&0u64.to_be_bytes()), Some(vec![7; 32]));
}
