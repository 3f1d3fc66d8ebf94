//! Deterministic model checks of the concurrency invariants
//! ARCHITECTURE.md states in prose. Compiled only under
//! `RUSTFLAGS="--cfg flodb_model"`, which swaps `flodb_sync::shim` to the
//! `flodb-check` instrumented primitives:
//!
//! ```sh
//! RUSTFLAGS="--cfg flodb_model" cargo test --test model
//! ```
//!
//! Each test explores schedules of one scenario body (see
//! `model_support/`) with both a bounded-preemption DFS and a seeded
//! random walk. The `store_*` tests run a real store; the rest check one
//! primitive each. Budgets are sized to finish in seconds; raise
//! `FLODB_CHECK_ITERS` locally for a deeper soak.

#![cfg(all(flodb_model, not(flodb_model_mutation)))]

mod model_support;

use std::sync::Arc;

use flodb_check::Builder;
use model_support::{self as scenarios, Coverage};

/// DFS with 2 preemptions, capped; catches every race flodb-check can
/// express within the bound while keeping CI under a few minutes.
fn dfs() -> Builder {
    Builder::dfs(2).iterations(3000)
}

/// A seeded random walk as a second, differently-biased probe.
fn random() -> Builder {
    Builder::new().iterations(300).seed(0xF10D_B6)
}

/// Checks a real-store scenario; returns what its schedules covered,
/// `(persists, stalls)` summed over them.
fn store(builder: Builder, body: fn(&Coverage)) -> (u64, u64) {
    let cov = Arc::new(Coverage::default());
    let seen = Arc::clone(&cov);
    builder.model(move || body(&seen));
    cov.totals()
}

#[test]
fn store_switch_loses_nothing() {
    let (persists, _) = store(dfs(), scenarios::store_switch_body);
    assert!(persists > 0);
}

#[test]
fn store_switch_loses_nothing_random() {
    let (persists, _) = store(random(), scenarios::store_switch_body);
    assert!(persists > 0);
}

#[test]
fn store_scan_sees_every_acknowledged_write() {
    store(dfs(), scenarios::store_scan_body);
}

#[test]
fn store_scan_sees_every_acknowledged_write_random() {
    store(random(), scenarios::store_scan_body);
}

#[test]
fn store_room_stall_completes() {
    let (_, stalls) = store(dfs(), scenarios::store_room_body);
    assert!(stalls > 0, "no schedule had a writer wait for Memtable room");
}

#[test]
fn store_room_stall_completes_random() {
    let (_, stalls) = store(random(), scenarios::store_room_body);
    assert!(stalls > 0, "no schedule had a writer wait for Memtable room");
}

#[test]
fn recycle_gate_holds() {
    dfs().model(scenarios::recycle_gate_body);
}

#[test]
fn recycle_gate_holds_random() {
    random().model(scenarios::recycle_gate_body);
}

#[test]
fn group_commit_broadcasts_outcomes() {
    dfs().model(scenarios::group_commit_broadcast_body);
}

#[test]
fn group_commit_broadcasts_errors() {
    dfs().model(scenarios::group_commit_error_body);
}

#[test]
fn group_commit_broadcasts_injected_faults() {
    dfs().model(scenarios::group_commit_injected_fault_body);
}

#[test]
fn group_commit_broadcasts_injected_faults_random() {
    random().model(scenarios::group_commit_injected_fault_body);
}

#[test]
fn router_split_commits_whole_sub_batches() {
    dfs().model(scenarios::router_split_body);
}

#[test]
fn router_split_commits_whole_sub_batches_random() {
    random().model(scenarios::router_split_body);
}

#[test]
fn inflight_grace_covers_logged_to_applied() {
    dfs().model(scenarios::inflight_grace_body);
}

#[test]
fn rcu_update_waits_for_old_view_readers() {
    dfs().model(scenarios::rcu_view_switch_body);
}

#[test]
fn trace_ring_publishes_untorn_events() {
    dfs().model(scenarios::trace_ring_body);
}

#[test]
fn trace_ring_publishes_untorn_events_random() {
    random().model(scenarios::trace_ring_body);
}

#[test]
fn arena_roll_hands_out_disjoint_blocks() {
    dfs().model(scenarios::arena_roll_body);
}

#[test]
fn arena_roll_hands_out_disjoint_blocks_random() {
    random().model(scenarios::arena_roll_body);
}

#[test]
fn park_wakes_a_late_producer() {
    dfs().model(scenarios::park_wake_body);
}

#[test]
fn park_wakes_a_late_producer_random() {
    random().model(scenarios::park_wake_body);
}
