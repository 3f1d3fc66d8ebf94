//! Each lint rule must fire on its fixture file — and only where the
//! fixture intends it to. This pins the rules against silent rot: a
//! refactor that stops a rule from matching turns these tests red, not
//! the workspace green.

use std::path::Path;

use xtask::{
    check_env_reads, check_orphan_shims, check_raw_sync, check_safety_comments,
    check_timed_waits, check_write_path_panics, Rule,
};

fn fixture(name: &str) -> (std::path::PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path).expect("fixture readable");
    (path, content)
}

#[test]
fn missing_safety_comment_fails() {
    let (path, content) = fixture("missing_safety.rs");
    let findings = check_safety_comments(&path, &content);
    assert_eq!(
        findings.len(),
        1,
        "exactly the unannotated block must fire: {findings:?}"
    );
    assert_eq!(findings[0].rule, Rule::SafetyComment);
    assert_eq!(findings[0].line, 3, "the bare `unsafe {{ *p }}` line");
}

#[test]
fn raw_std_mutex_in_sync_fails() {
    let (path, content) = fixture("raw_mutex_in_sync.rs");
    let findings = check_raw_sync(&path, &content);
    assert_eq!(
        findings.len(),
        1,
        "the import must fire, the #[cfg(test)] use must not: {findings:?}"
    );
    assert_eq!(findings[0].rule, Rule::RawSync);
    assert_eq!(findings[0].line, 3, "the `use std::sync::Mutex;` line");
}

#[test]
fn write_path_unwrap_fails() {
    let (path, content) = fixture("write_path_unwrap.rs");
    let findings = check_write_path_panics(&path, &content);
    assert_eq!(
        findings.len(),
        1,
        "the bare unwrap must fire, the PANIC-OK one must not: {findings:?}"
    );
    assert_eq!(findings[0].rule, Rule::WritePathPanic);
    assert_eq!(findings[0].line, 4, "the `self.wal.append(batch).unwrap()` line");
}

#[test]
fn env_read_in_engine_fails() {
    let (path, content) = fixture("env_read_in_engine.rs");
    let findings = check_env_reads(&path, &content);
    assert_eq!(
        findings.len(),
        1,
        "the production read must fire, the #[cfg(test)] one must not: {findings:?}"
    );
    assert_eq!(findings[0].rule, Rule::EnvRead);
    assert_eq!(findings[0].line, 4, "the `std::env::var(..)` line");
}

#[test]
fn sleep_in_engine_fails() {
    let (path, content) = fixture("sleep_in_engine.rs");
    let findings = check_timed_waits(&path, &content);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        [5, 7],
        "the sleep and the timed wait must fire, the waived and the test ones must not: \
         {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == Rule::TimedWait));
}

#[test]
fn orphan_third_party_member_fails() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/orphan_shim");
    let findings = check_orphan_shims(&root);
    assert_eq!(
        findings.len(),
        1,
        "the dependency and the dev-dependency must not fire, the orphan must: {findings:?}"
    );
    assert_eq!(findings[0].rule, Rule::OrphanShim);
    assert_eq!(findings[0].line, 9, "the `\"third_party/orphan\",` member line");
    assert!(findings[0].message.contains("third_party/orphan"), "{}", findings[0]);
}

#[test]
fn workspace_is_clean() {
    // The binary exits non-zero on findings; CI runs it directly. This
    // duplicate keeps `cargo test` sufficient to catch regressions too.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let findings = xtask::run_lint(root);
    assert!(
        findings.is_empty(),
        "workspace lint must be clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------------
// `cargo xtask locks` fixture corpus: each error class the lock-order pass
// reports must fire on its fixture — and stay silent on the clean and
// waived ones.

fn locks_case(name: &str) -> Vec<xtask::locks::graph::LockFinding> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/locks")
        .join(name);
    xtask::locks::run_locks_files(
        &dir.join("LOCK_ORDER.toml"),
        &dir.join("lock_order.rs"),
        &[dir.join("src.rs")],
    )
    .expect("fixture hierarchy parses")
}

fn render(findings: &[xtask::locks::graph::LockFinding]) -> String {
    findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn locks_clean_fixture_passes() {
    let findings = locks_case("clean");
    assert!(findings.is_empty(), "declared edge, ascending nesting:\n{}", render(&findings));
}

#[test]
fn locks_undeclared_edge_fails() {
    let findings = locks_case("undeclared_edge");
    assert_eq!(findings.len(), 1, "exactly the missing edge:\n{}", render(&findings));
    assert!(findings[0].message.contains("undeclared lock edge"), "{}", findings[0]);
    assert_eq!(findings[0].line, 11, "the inner acquisition line");
}

#[test]
fn locks_declared_cycle_fails() {
    let findings = locks_case("cycle");
    assert!(
        findings.iter().any(|f| f.message.contains("cycle")),
        "the two declared edges close a loop:\n{}",
        render(&findings)
    );
}

#[test]
fn locks_blocking_under_guard_fails() {
    let findings = locks_case("blocking");
    assert_eq!(findings.len(), 1, "exactly the fsync under the guard:\n{}", render(&findings));
    assert!(findings[0].message.contains("blocking call"), "{}", findings[0]);
    assert_eq!(findings[0].line, 11, "the `f.sync()` line");
}

#[test]
fn locks_waived_edge_passes() {
    let findings = locks_case("waived_edge");
    assert!(findings.is_empty(), "LOCK-OK must silence the edge:\n{}", render(&findings));
}

#[test]
fn locks_observed_inversion_fails() {
    // The same descending shape the runtime tracker rejects with a panic
    // (see crates/sync/src/lock_order.rs tests): rank 10 acquired under
    // rank 20.
    let findings = locks_case("inversion");
    assert_eq!(findings.len(), 1, "exactly the descending edge:\n{}", render(&findings));
    assert!(findings[0].message.contains("ranks must ascend"), "{}", findings[0]);
}

#[test]
fn workspace_lock_hierarchy_is_consistent() {
    // Mirror of `workspace_is_clean` for the locks pass: CI runs the
    // binary, this keeps plain `cargo test` sufficient.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let findings = xtask::locks::run_locks(root).expect("workspace hierarchy parses");
    assert!(
        findings.is_empty(),
        "cargo xtask locks must be clean:\n{}",
        render(&findings)
    );
}
