//! Rule `env-read`: no `std::env::var*` read in engine-crate production
//! code. The engine is configured through `FloDbOptions` alone; a
//! process-environment knob is an option no test or benchmark can see.
//! Test code (from the first `#[cfg(test)]` line on) is exempt.

use std::path::Path;

use crate::common::code_portion;
use crate::rules::{Finding, Rule};

/// Checks one file for process-environment reads. `env::var` matches every
/// spelling of the family (`var`, `var_os`, `vars`, `vars_os`), with or
/// without the `std::` prefix; the `env!` macro (compile time) does not
/// match.
pub fn check_env_reads(file: &Path, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        if code_portion(raw).contains("env::var") {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: Rule::EnvRead,
                message: "process-environment read in an engine crate; take the value \
                          through `FloDbOptions` (or make it a `const`) instead"
                    .to_string(),
            });
        }
    }
    findings
}
