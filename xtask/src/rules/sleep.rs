//! Rule `timed-wait`: no `sleep(` or timed wait in engine-crate production
//! code unless the line carries a `// SLEEP-OK:` reason (on the line or in
//! the comment block directly above). An engine wait blocks until its
//! event, and whoever causes the event wakes the waiter (`flodb_sync::Park`);
//! a timer is a guessed poll period, burns CPU on an idle store, answers
//! late, and hides a lost wakeup from the model checker, which fires a
//! timed wait only when nothing else can run. Test code (from the first
//! `#[cfg(test)]` line on) is exempt.

use std::path::Path;

use crate::common::{code_portion, line_has_marker};
use crate::rules::{Finding, Rule};

/// Spellings of a sleep or a timed wait: `thread::sleep`, the condvar's
/// `wait_for`/`wait_until`/`wait_timeout`, and every `*_timeout(` wait
/// (`recv_timeout`, `park_timeout`, ...).
const TIMED: &[&str] = &[
    "sleep(",
    ".wait_for(",
    ".wait_until(",
    "wait_timeout",
    "_timeout(",
];

/// Checks one file for unwaived sleeps and timed waits in production code.
pub fn check_timed_waits(file: &Path, content: &str) -> Vec<Finding> {
    let lines: Vec<&str> = content.lines().collect();
    let mut findings = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let code = code_portion(raw);
        if !TIMED.iter().any(|pat| code.contains(pat)) {
            continue;
        }
        if !line_has_marker(&lines, idx, "SLEEP-OK:") {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: Rule::TimedWait,
                message: "sleep or timed wait in engine production code; park until the \
                          event (`flodb_sync::Park`) and wake from where it happens, or \
                          waive with `// SLEEP-OK: <why>`"
                    .to_string(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_wait_waivers() {
        let bad = "std::thread::sleep(Duration::from_micros(100));\n";
        assert_eq!(check_timed_waits(Path::new("x.rs"), bad).len(), 1);
        let timed = "cv.wait_for(&mut g, Duration::from_micros(500));\n";
        assert_eq!(check_timed_waits(Path::new("x.rs"), timed).len(), 1);
        let ok = "// SLEEP-OK: retry backoff\nstd::thread::sleep(d);\n";
        assert!(check_timed_waits(Path::new("x.rs"), ok).is_empty());
        let untimed = "park.park_until(|| ready());\ncv.wait(&mut g);\n";
        assert!(check_timed_waits(Path::new("x.rs"), untimed).is_empty());
    }
}
