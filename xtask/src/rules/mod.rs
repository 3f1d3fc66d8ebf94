//! The per-rule lint passes behind `cargo xtask lint`.
//!
//! Each module owns one rule; the crate root's [`crate::run_lint`] wires
//! them over their respective scopes. See the crate docs for the rule
//! catalogue.

pub mod env_read;
pub mod env_unwrap;
pub mod ordering;
pub mod orphan_shim;
pub mod panic;
pub mod safety;
pub mod shim;
pub mod sleep;

use std::fmt;
use std::path::PathBuf;

/// Which lint rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// An `unsafe` site without a `// SAFETY:` / `# Safety` annotation.
    SafetyComment,
    /// A raw `std::sync`/`parking_lot`/`std::thread` use in a crate that
    /// must route through `flodb_sync::shim`.
    RawSync,
    /// An unwaived `.unwrap()`/`.expect(` in `crates/core` production code.
    WritePathPanic,
    /// An unwaived `.unwrap()`/`.expect(` on an `Env`-surface result in
    /// storage or core production code.
    EnvUnwrap,
    /// An `Ordering::SeqCst` in modeled-crate production code without an
    /// `ORDERING:` justification comment.
    SeqCstOrdering,
    /// A `std::env::var*` read in engine-crate production code.
    EnvRead,
    /// A `third_party/*` workspace member no member depends on.
    OrphanShim,
    /// An unwaived `sleep(` or timed wait in engine-crate production code.
    TimedWait,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::SafetyComment => write!(f, "safety-comment"),
            Rule::RawSync => write!(f, "raw-sync"),
            Rule::WritePathPanic => write!(f, "write-path-panic"),
            Rule::EnvUnwrap => write!(f, "env-unwrap"),
            Rule::SeqCstOrdering => write!(f, "seqcst-ordering"),
            Rule::EnvRead => write!(f, "env-read"),
            Rule::OrphanShim => write!(f, "orphan-shim"),
            Rule::TimedWait => write!(f, "timed-wait"),
        }
    }
}

/// One lint violation: file, 1-based line, rule, and a human message.
#[derive(Debug)]
pub struct Finding {
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}
