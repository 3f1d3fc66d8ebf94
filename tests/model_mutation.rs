//! Mutation regression tests for the model checker itself: each test
//! selects one `flodb_model_mutation` hook (`flodb_sync::shim::mutation`)
//! — the recycle gate's ownership check dropped, the switch's room
//! exemption dropped, the park's re-check under its lock skipped, the
//! drain lap's chunk drained outside its read section, a Memtable update
//! unlinking the version a live scan reads —
//! and asserts flodb-check *finds* the defect, most of them in a real
//! store, and that the failing schedule replays. A checker that
//! stops finding known-lost-write races has bit-rotted; this suite turns
//! that into a red test.
//!
//! ```sh
//! RUSTFLAGS="--cfg flodb_model --cfg flodb_model_mutation" \
//!     cargo test --test model_mutation
//! ```

#![cfg(all(flodb_model, flodb_model_mutation))]

mod model_support;

use std::sync::{Mutex, PoisonError};

use flodb::sync::shim::mutation::{self, Hook};
use flodb_check::{Builder, Failure, FailureKind};
use model_support::{self as scenarios, Coverage};

/// Runs `f` with `hook` the one mutation that fires (`None`: none does).
/// The selection is process-wide, so the tests take turns.
fn with_hook<R>(hook: Option<Hook>, f: impl FnOnce() -> R) -> R {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    mutation::select(hook);
    f()
}

/// A real-store scenario as a checker body.
fn store(body: fn(&Coverage)) -> impl Fn() + Send + Sync + 'static {
    move || body(&Coverage::default())
}

/// DFS with 2 preemptions, the model suite's budget.
fn dfs() -> Builder {
    Builder::dfs(2).iterations(3000)
}

fn assert_lost_write(failure: &Failure, needle: &str) {
    match &failure.kind {
        FailureKind::Panic(msg) => assert!(
            msg.contains(needle),
            "expected the lost-write assertion ({needle:?}), got: {msg}"
        ),
        other => panic!("expected a lost-write panic, got {other:?}"),
    }
}

fn assert_hang(failure: &Failure) {
    assert!(
        matches!(failure.kind, FailureKind::StepBudget(_) | FailureKind::Deadlock),
        "expected a hang, got {:?}",
        failure.kind
    );
}

/// Replays `failure`'s schedule of `body`: it must fail the same way.
fn replays(failure: &Failure, body: impl Fn() + Send + Sync + 'static) {
    let replayed = Builder::replay(failure.schedule.clone())
        .check(body)
        .expect_err("replaying the failing schedule must fail again");
    assert_eq!(
        std::mem::discriminant(&replayed.kind),
        std::mem::discriminant(&failure.kind),
        "the replay failed differently: {:?} vs {:?}",
        replayed.kind,
        failure.kind
    );
    if let (FailureKind::Panic(a), FailureKind::Panic(b)) = (&replayed.kind, &failure.kind) {
        assert_eq!(a, b);
    }
}

#[test]
fn checker_finds_the_stale_memtable_race() {
    // A drain that inserts outside the read section a freeze or a switch
    // waits for: the background lap drains the chunk it found after
    // leaving its section. A freeze's frozen drain skips the entries the
    // lap claimed, so a scan stamped after it misses them, and a switch
    // may flush the Memtable the lap still inserts into. (The frozen
    // drain's own stale-Memtable mutation cannot fire in a real store:
    // see ARCHITECTURE.md "The model suites".)
    with_hook(Some(Hook::LapSection), || {
        let failure = dfs()
            .check(store(scenarios::store_switch_body))
            .expect_err("the lap mutation must lose an acknowledged write");
        assert_lost_write(&failure, "acknowledged write");
        replays(&failure, store(scenarios::store_switch_body));
    });
}

#[test]
fn checker_finds_the_unlinked_version() {
    // An in-place Memtable update that retires the version it replaces
    // while a live scan's stamp still reads it: the scan, streaming after
    // the update, finds only the rewrite above its stamp and so misses
    // the key. A second search finds the same schedule.
    with_hook(Some(Hook::ChainLink), || {
        let failure = dfs()
            .check(store(scenarios::store_scan_body))
            .expect_err("the chain mutation must tear a scan");
        assert_lost_write(&failure, "a scan missed a write acknowledged before it began");
        replays(&failure, store(scenarios::store_scan_body));
        let refound = dfs()
            .check(store(scenarios::store_scan_body))
            .expect_err("a second search must find it again");
        assert_eq!((refound.iteration, refound.schedule), (failure.iteration, failure.schedule));
    });
}

#[test]
fn checker_finds_the_unowned_recycle() {
    // The recycle gate with its sole-owner check dropped: the freezer
    // takes the drained Membuffer back for re-installation while a view
    // snapshot still references it.
    with_hook(Some(Hook::Recycle), || {
        let failure = dfs()
            .check(scenarios::recycle_gate_body)
            .expect_err("the recycle mutation must hand out a buffer a snapshot holds");
        assert_lost_write(&failure, "recycled while a snapshot still holds it");
        replays(&failure, scenarios::recycle_gate_body);
    });
}

#[test]
fn checker_finds_the_broken_router_split() {
    // A sub-batch submitted outside the owning shard's committer critical
    // section lands one record at a time, so a concurrent writer's
    // records can interleave mid-sub-batch and tear the frame the
    // recovery contract stands on. The body itself is the mutation.
    with_hook(None, || {
        let failure = dfs()
            .check(scenarios::router_split_broken_body)
            .expect_err("the split mutation must tear a sub-batch");
        assert_lost_write(&failure, "torn across the shard's log");
        replays(&failure, scenarios::router_split_broken_body);
    });
}

#[test]
fn checker_finds_the_room_stall_hang() {
    // Without the room exemption, a writer whose window the switch's
    // grace awaits keeps waiting for the room only that switch makes.
    with_hook(Some(Hook::RoomStall), || {
        let failure = dfs()
            .check(store(scenarios::store_room_body))
            .expect_err("the exemption mutation must hang the switch");
        assert_hang(&failure);
        replays(&failure, store(scenarios::store_room_body));
    });
}

#[test]
fn checker_finds_the_lost_wakeup() {
    // The park with its re-check under the lock skipped: a wake that lands
    // between a waiter's last check and its park is lost, and the waiter
    // waits for good — in a real store, and in the primitive's own
    // scenario under an independent, differently-biased search.
    with_hook(Some(Hook::LostWakeup), || {
        let failure = dfs()
            .check(store(scenarios::store_switch_body))
            .expect_err("the skipped re-check must lose a wakeup");
        assert_hang(&failure);
        replays(&failure, store(scenarios::store_switch_body));
        let refound = Builder::new()
            .iterations(300)
            .seed(0xF10D_B6)
            .check(scenarios::park_wake_body)
            .expect_err("the random walk must find the lost wakeup as well");
        assert!(matches!(refound.kind, FailureKind::Deadlock), "{:?}", refound.kind);
    });
}

#[test]
fn finding_is_deterministic() {
    // Two independent searches over a mutated real store must fail on
    // the same iteration with the same schedule — no wall-clock, no hash
    // seed, no OS-scheduler nondeterminism leaks into the search.
    with_hook(Some(Hook::LostWakeup), || {
        let search = || {
            dfs()
                .check(store(scenarios::store_switch_body))
                .expect_err("mutation must be found")
        };
        let (a, b) = (search(), search());
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.schedule, b.schedule);
    });
}
