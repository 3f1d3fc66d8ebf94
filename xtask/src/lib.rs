//! Static analysis passes for the FloDB workspace.
//!
//! Two commands share this library:
//!
//! * `cargo xtask lint` — eight line-based rules ([`run_lint`]), one per
//!   module under [`rules`]:
//!   1. **`safety-comment`** — every `unsafe` site needs a `// SAFETY:`
//!      comment or `# Safety` doc section.
//!   2. **`raw-sync`** — no raw `std::sync`/`parking_lot`/`std::thread`
//!      primitives in facade-scoped crates; everything routes through
//!      `flodb_sync::shim` so `--cfg flodb_model` coverage cannot rot.
//!   3. **`write-path-panic`** — no unwaived `.unwrap()`/`.expect(` in
//!      `crates/core` production code (`// PANIC-OK:` waivable).
//!   4. **`env-unwrap`** — no panicking on `Env`-surface results in
//!      storage/core production code; every such call is a
//!      fault-injection point.
//!   5. **`seqcst-ordering`** — `Ordering::SeqCst` in modeled-crate
//!      production code needs an `// ORDERING:` justification or a
//!      downgrade to the weakest sufficient ordering.
//!   6. **`env-read`** — no `std::env::var*` in engine-crate production
//!      code; configuration arrives through `FloDbOptions` only.
//!   7. **`orphan-shim`** — every `third_party/*` workspace member is a
//!      dependency or dev-dependency of some member.
//!   8. **`timed-wait`** — no `sleep(` or timed wait in engine-crate
//!      production code without a `// SLEEP-OK:` reason; engine waits
//!      park until their event (`flodb_sync::Park`).
//! * `cargo xtask locks` — the whole-workspace lock-order analysis
//!   ([`locks::run_locks`]): lock-site extraction, the declared hierarchy
//!   in `LOCK_ORDER.toml`, rank/cycle/blocking checks, and the
//!   static-vs-runtime staleness cross-check.
//!
//! The scanners are deliberately line-based and syntactic — comments and
//! string literals are stripped with a small state machine ([`common`]),
//! never a full parser. Test code (everything from the first
//! `#[cfg(test)]` line onward, per the repo convention of keeping test
//! modules last) is exempt from every rule except `safety-comment`.

pub mod common;
pub mod locks;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::env_read::check_env_reads;
pub use rules::env_unwrap::check_env_unwraps;
pub use rules::ordering::check_seqcst_ordering;
pub use rules::orphan_shim::check_orphan_shims;
pub use rules::panic::check_write_path_panics;
pub use rules::safety::check_safety_comments;
pub use rules::shim::check_raw_sync;
pub use rules::sleep::check_timed_waits;
pub use rules::{Finding, Rule};

use common::scan;

/// Runs all eight lint rules over the workspace rooted at `root` and
/// returns every finding, sorted by file and line.
pub fn run_lint(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Rule 1 scope: all first-party code plus the two third_party shims
    // that contain unsafe (crossbeam-epoch, flodb-check). The remaining
    // third_party shims mirror upstream APIs and are audited on import.
    let mut safety_files = Vec::new();
    for rel in [
        "crates",
        "src",
        "tests",
        "examples",
        "third_party/crossbeam-epoch/src",
        "third_party/flodb-check/src",
    ] {
        scan(root, rel, &mut safety_files);
    }
    for_each_file(&safety_files, &mut findings, check_safety_comments);

    // Rule 2 scope: the facade-routed crates. shim.rs is the facade.
    let mut sync_files = Vec::new();
    for rel in ["crates/sync/src", "crates/membuffer/src", "crates/memtable/src"] {
        scan(root, rel, &mut sync_files);
    }
    sync_files.retain(|f| f.file_name().is_none_or(|n| n != "shim.rs"));
    for_each_file(&sync_files, &mut findings, check_raw_sync);

    // Rule 3 scope: flodb-core production code.
    let mut core_files = Vec::new();
    scan(root, "crates/core/src", &mut core_files);
    for_each_file(&core_files, &mut findings, check_write_path_panics);

    // Rule 4 scope: every crate that calls the Env surface directly.
    // (Core is also covered by rule 3; here the rule adds the storage
    // crate, where blanket rule 3 would flood non-Env unwraps.)
    let mut env_files = Vec::new();
    for rel in ["crates/storage/src", "crates/core/src"] {
        scan(root, rel, &mut env_files);
    }
    for_each_file(&env_files, &mut findings, check_env_unwraps);

    // Rule 5 scope: the same modeled crates the locks pass covers — the
    // crates whose memory-ordering story the model checker and the lock
    // hierarchy are supposed to document.
    let mut modeled_files = Vec::new();
    for rel in locks::MODELED_CRATES {
        scan(root, rel, &mut modeled_files);
    }
    for_each_file(&modeled_files, &mut findings, check_seqcst_ordering);

    // Rule 6 scope: the same five crates — together they are the engine a
    // store links in. The bench and workload harnesses scale themselves
    // from the environment by design and stay out of scope.
    for_each_file(&modeled_files, &mut findings, check_env_reads);

    // Rule 8 scope: the same five crates, whose threads and waits are the
    // engine's.
    for_each_file(&modeled_files, &mut findings, check_timed_waits);

    // Rule 7 scope: the workspace manifests.
    findings.extend(check_orphan_shims(root));

    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    findings
}

fn for_each_file(
    files: &[PathBuf],
    findings: &mut Vec<Finding>,
    rule: fn(&Path, &str) -> Vec<Finding>,
) {
    for file in files {
        if let Ok(content) = std::fs::read_to_string(file) {
            findings.extend(rule(file, &content));
        }
    }
}
