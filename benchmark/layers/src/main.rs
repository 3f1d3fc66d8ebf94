//! `flodb-bench-layers`: times the public functions of each engine crate
//! directly — single thread, fixed seed, fixed operation counts, the median
//! of a few batches — so that counts repeat exactly and a regression in an
//! end-to-end number can be pinned to one layer without a profiler.
//!
//! ```text
//! flodb-bench-layers [--smoke]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"metrics": {name: {"value", "unit"}}}`. Exits 2 when a
//! probe could not run.

mod core_probes;
mod membuffer_probes;
mod memtable_probes;
mod storage_probes;
mod sync_probes;
mod util;

use std::process::ExitCode;

use benchkit::json::Json;
use benchkit::spec;

use util::Probes;

/// The probes' fixed seed: their inputs never vary, so their counts repeat.
const SEED: u64 = 0xF10D;

fn run(smoke: bool) -> Result<Probes, String> {
    let scratch = std::env::current_exe()
        .map_err(|e| format!("cannot locate the executable: {e}"))?
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("bench-out");
    let mut probes = Probes::new(if smoke { 20 } else { 1 }, SEED);
    membuffer_probes::run(&mut probes);
    memtable_probes::run(&mut probes);
    sync_probes::run(&mut probes);
    storage_probes::run(&mut probes, &scratch)?;
    core_probes::run(&mut probes)?;
    Ok(probes)
}

fn main() -> ExitCode {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("flodb-bench-layers: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let probes = match run(smoke) {
        Ok(probes) => probes,
        Err(e) => {
            eprintln!("flodb-bench-layers: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = spec::print_metrics(probes.values());
    println!("{}", Json::obj([("metrics", metrics)]).compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use benchkit::spec::{per_layer_names, Source};

    /// A smoke run emits every probe metric `BENCHMARK.json` lists, nothing
    /// else, and its counts repeat exactly.
    #[test]
    fn smoke_run_emits_exactly_the_listed_probe_metrics() {
        let first = super::run(true).unwrap();
        let mut emitted: Vec<String> = first.values().iter().map(|(n, _)| n.clone()).collect();
        let mut listed = per_layer_names(Source::Probe);
        emitted.sort();
        listed.sort();
        assert_eq!(emitted, listed);
        assert!(first
            .values()
            .iter()
            .all(|(_, v)| v.is_finite() && *v >= 0.0));

        let second = super::run(true).unwrap();
        for count in [
            "membuffer.full_share",
            "storage.sstable.bloom_fp_share",
            "storage.disk.compact_write_amp",
        ] {
            assert_eq!(first.get(count), second.get(count), "{count} must repeat");
            assert!(first.get(count).is_some());
        }
    }
}
