//! `flodb-bench-e2e`: one workload, one run, against the public store API.
//!
//! ```text
//! flodb-bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--smoke] [--report <file>] [--spans <file>]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! any operation failed its check, 2 on a usage or set-up error.

mod client;
#[cfg(test)]
mod findings;
mod gen;
mod run;
mod tracing_env;

use std::path::PathBuf;
use std::process::ExitCode;

use benchkit::json::Json;
use benchkit::spec;

use run::{Config, Scale, Workload};

fn parse_args(args: &[String]) -> Result<(Config, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut report = None;
    let mut spans_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--report" => report = Some(PathBuf::from(value)),
            "--spans" => spans_path = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let config = Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: trace.ok_or("--trace is required")?,
        scale: if smoke { Scale::smoke() } else { Scale::full() },
        spans_path,
    };
    Ok((config, report))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, report) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("flodb-bench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("flodb-bench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = spec::print_metrics(&outcome.metrics);
    if let Some(path) = report {
        if let Err(e) = std::fs::write(&path, outcome.detail.pretty()) {
            eprintln!("flodb-bench-e2e: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.compact());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "flodb-bench-e2e: {} of {} operations failed their check",
            outcome.failed, outcome.attempted
        );
        for failure in &outcome.failures {
            eprintln!("  {failure}");
        }
        ExitCode::from(1)
    }
}
