//! What the numbers were measured on, and whether the machine held still
//! while they were: the record every report carries, the calibration loop
//! behind `client.calib_drift_pct`, and process CPU time and peak memory.

use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::rng::mix64;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Git revision (`unknown` outside a repository, as in the driver's
/// checkout), compiler, CPU count and model.
pub fn record() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Int(nproc as u64)),
        ("cpu_model", Json::str(cpu_model())),
    ])
}

/// A fixed, allocation-free, pure-CPU loop (a dependent chain of 64-bit
/// mixes); returns the fastest of five repetitions in milliseconds — the
/// fastest, because interference only ever adds time. Run before the first
/// and after the last measurement: the code is constant, so a change in
/// its time is the machine's, not the engine's.
pub fn calibration_ms() -> f64 {
    const STEPS: u64 = 10_000_000;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x1234_5678_9abc_def0u64;
            for i in 0..STEPS {
                x = mix64(x ^ i);
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Change from `before` to `after`, as a percentage of `before`.
pub fn drift_pct(before: f64, after: f64) -> f64 {
    100.0 * (after - before) / before
}

/// User + system CPU time of this process (all threads) in microseconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn process_cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so utime (14) and stime (15) are 11 and 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * 10_000
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_something() {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 60 {
            std::hint::black_box(mix64(3));
        }
        assert!(process_cpu_us() >= 30_000);
        assert!(peak_rss_mb() > 0.5);
        assert!(drift_pct(100.0, 103.0) > 2.99 && drift_pct(100.0, 103.0) < 3.01);
    }
}
