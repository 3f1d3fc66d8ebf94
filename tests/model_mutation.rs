//! Mutation regression tests for the model checker itself: re-introduce
//! each of the two fixed freeze races, drop the Membuffer recycle gate's
//! ownership check and the switch's room exemption (via the
//! `flodb_model_mutation` hooks in `crates/core/src/view.rs`,
//! `crates/core/src/store/drain.rs` and `crates/sync/src/inflight.rs`)
//! and assert flodb-check *finds* them. A checker that stops finding
//! known-lost-write races has bit-rotted; this suite turns that into a
//! red test.
//!
//! ```sh
//! RUSTFLAGS="--cfg flodb_model --cfg flodb_model_mutation" \
//!     cargo test --test model_mutation
//! ```

#![cfg(all(flodb_model, flodb_model_mutation))]

mod model_support;

use flodb_check::{Builder, FailureKind};
use model_support as scenarios;

fn assert_lost_write(failure: &flodb_check::Failure, needle: &str) {
    match &failure.kind {
        FailureKind::Panic(msg) => assert!(
            msg.contains(needle),
            "expected the lost-write assertion ({needle:?}), got: {msg}"
        ),
        other => panic!("expected a lost-write panic, got {other:?}"),
    }
}

#[test]
fn checker_finds_the_drain_gate_race() {
    // PR 5 race #1: helpers claiming buckets before the freeze's grace
    // period has elapsed (drain_ready mutated to always-open). Uses the
    // distilled gate scenario — see `gate_claim_body`'s docs for why the
    // full freeze body's window sits beyond a CI-sized search budget.
    let failure = Builder::dfs(2)
        .iterations(3000)
        .check(scenarios::gate_claim_body)
        .expect_err("the gate mutation must lose an acknowledged write");
    assert_lost_write(&failure, "dropped frozen Membuffer");

    // The printed schedule is replayable: the exact failing interleaving
    // reproduces on demand.
    let replayed = Builder::replay(failure.schedule.clone())
        .check(scenarios::gate_claim_body)
        .expect_err("replaying the failing schedule must fail again");
    assert_lost_write(&replayed, "dropped frozen Membuffer");
}

#[test]
fn checker_finds_the_stale_memtable_race() {
    // PR 5 race #2: resolving the drain's target Memtable once, outside
    // the read-side critical section, races the persist switch.
    let failure = Builder::dfs(2)
        .iterations(3000)
        .check(scenarios::persist_switch_body)
        .expect_err("the stale-resolve mutation must lose an acknowledged write");
    assert_lost_write(&failure, "missed both the flush");

    let replayed = Builder::replay(failure.schedule.clone())
        .check(scenarios::persist_switch_body)
        .expect_err("replaying the failing schedule must fail again");
    assert_lost_write(&replayed, "missed both the flush");
}

#[test]
fn checker_finds_the_unowned_recycle() {
    // The recycle gate with its sole-owner check dropped: the freezer
    // takes the drained Membuffer back for re-installation while a view
    // snapshot still references it.
    let failure = Builder::dfs(2)
        .iterations(3000)
        .check(scenarios::recycle_gate_body)
        .expect_err("the recycle mutation must hand out a buffer a snapshot holds");
    assert_lost_write(&failure, "recycled while a snapshot still holds it");

    let replayed = Builder::replay(failure.schedule.clone())
        .check(scenarios::recycle_gate_body)
        .expect_err("replaying the failing schedule must fail again");
    assert_lost_write(&replayed, "recycled while a snapshot still holds it");
}

#[test]
fn checker_finds_the_broken_router_split() {
    // PR 7 mutation: a sub-batch submitted outside the owning shard's
    // committer critical section lands one record at a time, so a
    // concurrent writer's records can interleave mid-sub-batch and tear
    // the frame the recovery contract stands on.
    let failure = Builder::dfs(2)
        .iterations(3000)
        .check(scenarios::router_split_broken_body)
        .expect_err("the split mutation must tear a sub-batch");
    assert_lost_write(&failure, "torn across the shard's log");

    let replayed = Builder::replay(failure.schedule.clone())
        .check(scenarios::router_split_broken_body)
        .expect_err("replaying the failing schedule must fail again");
    assert_lost_write(&replayed, "torn across the shard's log");
}

#[test]
fn checker_finds_the_room_stall_hang() {
    // Without the room exemption, a writer whose window the switch's
    // grace awaits keeps waiting for the room only that switch makes.
    let failure = Builder::dfs(2)
        .iterations(3000)
        .check(scenarios::switch_grace_room_stall_body)
        .expect_err("the exemption mutation must hang the switch");
    assert!(
        matches!(failure.kind, FailureKind::StepBudget(_) | FailureKind::Deadlock),
        "expected a hang, got {:?}",
        failure.kind
    );
}

#[test]
fn finding_is_deterministic() {
    // Two independent searches over the mutated code must fail on the
    // same iteration with the same schedule — no wall-clock, no ASLR, no
    // OS-scheduler nondeterminism leaks into the search.
    let a = Builder::dfs(2)
        .iterations(3000)
        .check(scenarios::persist_switch_body)
        .expect_err("mutation must be found");
    let b = Builder::dfs(2)
        .iterations(3000)
        .check(scenarios::persist_switch_body)
        .expect_err("mutation must be found");
    assert_eq!(a.iteration, b.iteration);
    assert_eq!(a.schedule, b.schedule);
}
