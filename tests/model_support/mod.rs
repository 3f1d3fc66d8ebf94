//! Model-test scenario bodies shared by `tests/model.rs` (they must hold
//! under the checker in normal builds) and `tests/model_mutation.rs`
//! (re-enabling PR 5's freeze races via `--cfg flodb_model_mutation` must
//! make the checker find them).
//!
//! Every body builds its entire world from scratch — the checker runs it
//! once per explored schedule — and uses only `flodb_sync::shim`
//! primitives, so each synchronization step is a scheduling decision
//! point.

// The invariant suite (tests/model.rs) and the mutation suite
// (tests/model_mutation.rs) compile under mutually exclusive cfgs and
// each uses a subset of these bodies.
#![allow(dead_code)]

use flodb::core::drain::{help_drain_imm_via, DrainStyle, Drainer};
use flodb::core::view::{ImmMembuffer, MemView, ViewCell};
use flodb::membuffer::{MemBuffer, MemBufferConfig};
use flodb::memtable::SkipList;
use flodb::sync::shim::atomic::{AtomicUsize, Ordering};
use flodb::sync::shim::{thread, Arc, Mutex};
use flodb::sync::shim::atomic::AtomicBool;
use flodb::sync::{
    GroupCommitConfig, GroupCommitter, Park, PauseFlag, PhasedInflight, SequenceGenerator,
};

/// One partition, one bucket (4 slots): the smallest Membuffer, so every
/// write and every drain claim contend on the same bucket.
fn tiny_membuffer() -> MemBuffer {
    MemBuffer::new(MemBufferConfig {
        partition_bits: 0,
        buckets_per_partition: 1,
    })
}

/// The PR 5 `open_for_drain` gate scenario (Algorithm 2 lines 12-16 vs.
/// the freeze in Algorithm 3 lines 6-11).
///
/// A straggler writer is mid-`add` against the Membuffer that a master
/// scan is freezing; a helping writer polls for a frozen buffer and helps
/// drain it as soon as [`ImmMembuffer::drain_ready`] allows. The gate
/// opens only after the freeze's grace period, so every straggler entry
/// has landed before any bucket is claimed — with the gate mutated away
/// (`--cfg flodb_model_mutation` pretends it is always open), the helper
/// can claim the straggler's bucket *before* its entry lands, and the
/// acknowledged write is dropped with the frozen buffer.
pub fn freeze_gate_body() {
    let mbf = Arc::new(tiny_membuffer());
    let mtb = Arc::new(SkipList::new());
    let view = Arc::new(ViewCell::new(MemView {
        mbf: Some(Arc::clone(&mbf)),
        imm_mbf: None,
        mtb: Arc::clone(&mtb),
        imm_mtb: None,
    }));
    let seq = Arc::new(SequenceGenerator::new());

    // Straggler: an acknowledged put racing the freeze.
    let writer = {
        let view = Arc::clone(&view);
        thread::spawn(move || {
            view.read(|v| {
                if let Some(m) = &v.mbf {
                    m.add(b"straggler", Some(b"w"));
                }
            });
        })
    };

    // Helping writer (the store's write path): helps with the draining of
    // the immutable Membuffer once the gate allows.
    let helper = {
        let view = Arc::clone(&view);
        let seq = Arc::clone(&seq);
        thread::spawn(move || {
            for _ in 0..2 {
                let imm = view.read(|v| v.imm_mbf.clone());
                if let Some(imm) = imm {
                    if imm.drain_ready() && !imm.tracker.is_complete() {
                        help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert);
                        return;
                    }
                }
                thread::yield_now();
            }
        })
    };

    // The freezer (master-scan path, `freeze_and_drain_membuffer`):
    // install a fresh Membuffer, freeze the old one — the switch waits the
    // grace period — then open the drain and complete it.
    let imm = view
        .freeze_membuffer(Arc::new(tiny_membuffer()))
        .expect("buffer was frozen");
    imm.open_for_drain();
    help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert);
    while !imm.tracker.is_complete() {
        thread::yield_now();
    }
    writer.join().unwrap();
    helper.join().unwrap();
    assert_eq!(
        imm.buffer.len(),
        0,
        "acknowledged write left in the dropped frozen Membuffer"
    );
}

/// The `open_for_drain` gate, distilled: a straggler `add` racing a
/// helper's bucket claim on a frozen Membuffer.
///
/// Same components and same gate as [`freeze_gate_body`], but the freeze's
/// grace period is expressed directly — the freezer joins the straggler
/// before opening the drain — instead of via an RCU view switch. That keeps
/// the schedule short enough for the bounded search to cover: in
/// [`freeze_gate_body`] the failing window hides behind ~30 consecutive
/// scheduler choices (publish + synchronize + the helper's full view
/// read), past what a preemption-bounded DFS or a random walk reaches in
/// CI-sized budgets. Here the claim/add race *is* the whole trace, so the
/// mutation suite can assert the checker finds it.
pub fn gate_claim_body() {
    let mbf = Arc::new(tiny_membuffer());
    let mtb = Arc::new(SkipList::new());
    let view = Arc::new(ViewCell::new(MemView {
        mbf: None,
        imm_mbf: None,
        mtb: Arc::clone(&mtb),
        imm_mtb: None,
    }));
    let imm = Arc::new(ImmMembuffer::new(Arc::clone(&mbf)));
    let seq = Arc::new(SequenceGenerator::new());

    // Straggler: an acknowledged put still in flight against the frozen
    // buffer.
    let straggler = {
        let mbf = Arc::clone(&mbf);
        thread::spawn(move || {
            mbf.add(b"straggler", Some(b"w"));
        })
    };

    // Helping writer: claims buckets as soon as the gate allows.
    let helper = {
        let imm = Arc::clone(&imm);
        let view = Arc::clone(&view);
        let seq = Arc::clone(&seq);
        thread::spawn(move || {
            if imm.drain_ready() && !imm.tracker.is_complete() {
                help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert);
            }
        })
    };

    // Freezer: the grace period — every in-flight write has landed — then
    // open the gate and complete the drain.
    straggler.join().unwrap();
    imm.open_for_drain();
    help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert);
    helper.join().unwrap();
    assert!(imm.tracker.is_complete());
    assert_eq!(
        imm.buffer.len(),
        0,
        "acknowledged write left in the dropped frozen Membuffer"
    );
}

/// The PR 5 stale-Memtable scenario: a cooperative drain racing a persist
/// switch.
///
/// [`help_drain_imm_via`] resolves the target Memtable *inside each
/// chunk's read-side critical section*, so a persist switch either waits
/// for the in-flight chunk (grace period) or routes later chunks to the
/// fresh table. Mutated (`--cfg flodb_model_mutation` resolves the table
/// once up front), the switch can land between lookup and insert: the
/// batch goes into the immutable table *after* its flush collected
/// entries, and is dropped with it.
pub fn persist_switch_body() {
    let mbf = Arc::new(tiny_membuffer());
    mbf.add(b"acked", Some(b"w"));
    let imm = Arc::new(ImmMembuffer::new(Arc::clone(&mbf)));
    imm.open_for_drain(); // Legitimately open: the freeze finished long ago.
    let old_mtb = Arc::new(SkipList::new());
    let view = Arc::new(ViewCell::new(MemView {
        mbf: None,
        imm_mbf: Some(Arc::clone(&imm)),
        mtb: Arc::clone(&old_mtb),
        imm_mtb: None,
    }));
    let seq = Arc::new(SequenceGenerator::new());

    let helper = {
        let imm = Arc::clone(&imm);
        let view = Arc::clone(&view);
        let seq = Arc::clone(&seq);
        thread::spawn(move || help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert))
    };

    // Persist switch: swap in a fresh Memtable, "flush" the old one,
    // release it — `persist_once`'s own transitions, minus the disk.
    let new_mtb = Arc::new(SkipList::new());
    let imm_mtb = view.switch_memtable(Arc::clone(&new_mtb));
    let flushed = imm_mtb.get(b"acked").is_some();
    view.release_immutable_memtable();

    helper.join().unwrap();
    assert!(
        flushed || new_mtb.get(b"acked").is_some(),
        "acknowledged write missed both the flush and the live Memtable"
    );
}

/// The background drainer against a freeze: one lap over the live buffer
/// racing Algorithm 3's pause, freeze and frozen drain.
///
/// A writer adds a key to the live Membuffer while a drainer runs one
/// [`Drainer::lap`]; once the write is acknowledged, the freezer pauses
/// drains, freezes the buffer (the switch waits a grace period), opens it
/// for draining and runs the frozen drain. A key added before the freeze
/// began must be in the Memtable once the frozen drain completes — a
/// master scan stamps right after it. The lap claims each chunk inside the
/// read-side section it inserts in, so the freeze's grace period waits for
/// any claim the lap made. A lap that claimed outside the section could
/// mark the key, let the freeze and the frozen drain (which skips marked
/// entries) run past it, and insert the key only after the scan's stamp.
pub fn live_drain_freeze_body() {
    let mbf = Arc::new(tiny_membuffer());
    let mtb = Arc::new(SkipList::new());
    let view = Arc::new(ViewCell::new(MemView {
        mbf: Some(Arc::clone(&mbf)),
        imm_mbf: None,
        mtb: Arc::clone(&mtb),
        imm_mtb: None,
    }));
    let seq = Arc::new(SequenceGenerator::new());
    let paused = Arc::new(PauseFlag::new());

    let writer = {
        let view = Arc::clone(&view);
        thread::spawn(move || {
            view.read(|v| {
                if let Some(m) = &v.mbf {
                    m.add(b"acked", Some(b"w"));
                }
            });
        })
    };

    let drainer = {
        let view = Arc::clone(&view);
        let paused = Arc::clone(&paused);
        let seq = Arc::clone(&seq);
        let chunks = mbf.chunks();
        thread::spawn(move || {
            Drainer::new(chunks, 0, 1).lap(&view, &paused, &seq, DrainStyle::MultiInsert);
        })
    };

    // The freezer (`freeze_window` + `freeze_and_drain_membuffer`), after
    // the write was acknowledged.
    writer.join().unwrap();
    paused.pause();
    let imm = view
        .freeze_membuffer(Arc::new(tiny_membuffer()))
        .expect("buffer was frozen");
    imm.open_for_drain();
    help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert);
    assert!(imm.tracker.is_complete());
    assert!(
        mtb.get(b"acked").is_some(),
        "a write added before the freeze missed the Memtable after the frozen drain"
    );
    paused.resume();
    drainer.join().unwrap();
}

/// The recycle gate (`ImmMembuffer::reclaim`): a snapshot holder racing
/// the freezer.
///
/// The freezer runs `freeze_and_drain_membuffer`'s sequence — freeze,
/// drain, retire the frozen view, then ask for the drained buffer back to
/// install it again at the next freeze. A concurrent `ViewCell::snapshot`
/// (what a range scan holds across its whole collection) may have caught
/// the buffer live, before the freeze, or frozen, between the two
/// switches; either way it still owns a reference when the freezer asks,
/// and a buffer someone else can still reach must never go back into
/// service. Mutated (`--cfg flodb_model_mutation` drops the sole-owner
/// check), the freezer gets the buffer back regardless.
pub fn recycle_gate_body() {
    let view = Arc::new(ViewCell::new(MemView {
        mbf: Some(Arc::new(tiny_membuffer())),
        imm_mbf: None,
        mtb: Arc::new(SkipList::new()),
        imm_mtb: None,
    }));
    let seq = SequenceGenerator::new();
    // The buffer under test, by address: this thread keeps no reference.
    let buffer = view.read(|v| {
        let mbf = v.mbf.as_ref().expect("installed above");
        mbf.add(b"acked", Some(b"w"));
        Arc::as_ptr(mbf)
    });

    // The snapshot holder; the snapshot stays alive inside the join
    // handle until the freezer collects it below.
    let holder = {
        let view = Arc::clone(&view);
        thread::spawn(move || view.snapshot())
    };

    let imm = view
        .freeze_membuffer(Arc::new(tiny_membuffer()))
        .expect("buffer was frozen");
    imm.open_for_drain();
    help_drain_imm_via(&imm, &view, &seq, DrainStyle::MultiInsert);
    view.release_frozen_membuffer();
    let spare = ImmMembuffer::reclaim(imm);

    let snapshot = holder.join().unwrap();
    let held = snapshot.mbf.iter().any(|m| Arc::as_ptr(m) == buffer)
        || snapshot
            .imm_mbf
            .iter()
            .any(|imm| Arc::as_ptr(&imm.buffer) == buffer);
    assert!(
        !(held && spare.is_some()),
        "Membuffer recycled while a snapshot still holds it"
    );
}

/// Group outcome broadcast: no submitter returns before its record is
/// durable-ordered in the log, whether it led or followed.
pub fn group_commit_broadcast_body() {
    let log = Arc::new(Mutex::new(Vec::<u8>::new()));
    let gc: Arc<GroupCommitter<String>> = Arc::new(GroupCommitter::new(GroupCommitConfig {
        max_group_bytes: 1024,
        frame_prefix: 0,
    }));
    let handles: Vec<_> = [b'a', b'b']
        .into_iter()
        .map(|rec| {
            let gc = Arc::clone(&gc);
            let log = Arc::clone(&log);
            thread::spawn(move || {
                gc.submit(
                    |buf| buf.push(rec),
                    |payload| {
                        log.lock().extend_from_slice(payload);
                        Ok(())
                    },
                )
                .expect("commit cannot fail here");
                assert!(
                    log.lock().contains(&rec),
                    "submit returned before its record was committed"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(log.lock().len(), 2, "every record committed exactly once");
}

/// Error broadcast: when a group's commit fails, **every** member of that
/// group observes the shared error — no record of a failed group is acked.
pub fn group_commit_error_body() {
    let gc: Arc<GroupCommitter<String>> = Arc::new(GroupCommitter::new(GroupCommitConfig {
        max_group_bytes: 1024,
        frame_prefix: 0,
    }));
    let handles: Vec<_> = (0..2u8)
        .map(|rec| {
            let gc = Arc::clone(&gc);
            thread::spawn(move || {
                gc.submit(|buf| buf.push(rec), |_| Err("disk on fire".to_string()))
            })
        })
        .collect();
    for h in handles {
        let res = h.join().unwrap();
        let err = res.expect_err("a failed group must fail every member");
        assert_eq!(*err, "disk on fire");
    }
}

/// Injected-failure broadcast: the overlap between the model layer and
/// the deterministic fault Env. The group's commit path appends through
/// a real [`WalWriter`] over a [`FaultEnv`] with the `segment-append`
/// trip point armed — the same error shape the persist thread sees when
/// the log device dies mid-group — and the contract is the same as
/// [`group_commit_error_body`] plus two fault-layer facts: every member
/// observes the *injected* error (not a wrapper that lost the marker),
/// and no frame of a failed group ever lands in the segment.
pub fn group_commit_injected_fault_body() {
    use flodb::storage::fault::is_injected;
    use flodb::storage::wal::{WalWriter, FRAME_HEADER_BYTES, SEGMENT_HEADER_BYTES};
    use flodb::storage::{FaultEnv, FaultKind, FaultPlan, MemEnv, StorageError};

    let env = std::sync::Arc::new(FaultEnv::new(std::sync::Arc::new(MemEnv::new(None))));
    // Create the segment before arming: the fault under test is the
    // append of a formed group, not segment creation.
    let writer = Arc::new(Mutex::new(
        WalWriter::create_segment(&*env, 1, false).expect("segment create is unarmed"),
    ));
    env.arm(FaultPlan::persistent("segment-append", FaultKind::Io));

    let gc: Arc<GroupCommitter<StorageError>> = Arc::new(GroupCommitter::new(GroupCommitConfig {
        max_group_bytes: 1024,
        // Framed in place, as the store's commit stage does it.
        frame_prefix: FRAME_HEADER_BYTES,
    }));
    let handles: Vec<_> = (0..2u8)
        .map(|rec| {
            let gc = Arc::clone(&gc);
            let writer = Arc::clone(&writer);
            thread::spawn(move || {
                gc.submit(
                    |buf| buf.push(rec),
                    |frame| writer.lock().append_group_frame(frame),
                )
            })
        })
        .collect();
    for h in handles {
        let res = h.join().unwrap();
        let err = res.expect_err("a failed group must fail every member");
        assert!(
            is_injected(&err),
            "member saw a non-injected error: {err}"
        );
    }
    assert!(
        env.injected("segment-append") >= 1,
        "the armed trip point never fired"
    );
    assert_eq!(
        writer.lock().bytes_written(),
        SEGMENT_HEADER_BYTES as u64,
        "a frame of a failed group was counted as written"
    );
}

/// The sharded router's write split vs. per-shard group commit (PR 7).
///
/// Two writers each split one batch into per-shard sub-batches and commit
/// every sub-batch through the owning shard's committer. The router's
/// contract: each sub-batch lands in its shard's log **whole and
/// contiguous** (one frame), exactly once, and the router's applied-ops
/// accounting matches what the logs hold — no lost sub-batch, no
/// double-count, under any interleaving of the two writers across the two
/// committers.
pub fn router_split_body() {
    router_split(false);
}

/// The broken router split for the mutation suite: sub-batch records are
/// appended to the shard's log *outside* the committer's critical
/// section, one record at a time. A concurrent writer can interleave its
/// own records mid-sub-batch, tearing the frame — the checker must find
/// the schedule that does.
pub fn router_split_broken_body() {
    router_split(true);
}

fn router_split(broken: bool) {
    const WRITERS: usize = 2;
    const SHARDS: usize = 2;
    /// One distinct byte per (writer, shard, op) record.
    fn tag(w: usize, s: usize, i: usize) -> u8 {
        (w * 4 + s * 2 + i) as u8
    }
    type ShardLane = (Arc<GroupCommitter<String>>, Arc<Mutex<Vec<u8>>>);
    let shards: Vec<ShardLane> = (0..SHARDS)
        .map(|_| {
            (
                Arc::new(GroupCommitter::new(GroupCommitConfig {
                    max_group_bytes: 1024,
                    frame_prefix: 0,
                })),
                Arc::new(Mutex::new(Vec::<u8>::new())),
            )
        })
        .collect();
    let applied = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let shards = shards.clone();
            let applied = Arc::clone(&applied);
            thread::spawn(move || {
                // The split: this writer's batch holds two ops for every
                // shard; each shard's pair is one sub-batch.
                for (s, (gc, log)) in shards.iter().enumerate() {
                    let ops = [tag(w, s, 0), tag(w, s, 1)];
                    if broken {
                        // Mutation: the sub-batch bypasses the committer
                        // and lands one record at a time.
                        log.lock().push(ops[0]);
                        thread::yield_now();
                        log.lock().push(ops[1]);
                    } else {
                        gc.submit(
                            |buf| buf.extend_from_slice(&ops),
                            |payload| {
                                log.lock().extend_from_slice(payload);
                                Ok(())
                            },
                        )
                        .expect("commit cannot fail here");
                    }
                    // Router stats: one bump per committed sub-batch.
                    applied.fetch_add(ops.len(), Ordering::SeqCst);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut total = 0;
    for (s, (_, log)) in shards.iter().enumerate() {
        let log = log.lock();
        total += log.len();
        for w in 0..WRITERS {
            let (a, b) = (tag(w, s, 0), tag(w, s, 1));
            assert_eq!(
                log.iter().filter(|&&x| x == a).count(),
                1,
                "sub-batch record committed more than once (double-count)"
            );
            let ia = log.iter().position(|&x| x == a).expect("lost sub-batch");
            let ib = log.iter().position(|&x| x == b).expect("lost sub-batch");
            assert_eq!(ib, ia + 1, "sub-batch torn across the shard's log");
        }
    }
    assert_eq!(total, WRITERS * SHARDS * 2, "lost sub-batch records");
    assert_eq!(
        applied.load(Ordering::SeqCst),
        WRITERS * SHARDS * 2,
        "router accounting diverged from the logs"
    );
}

/// `PhasedInflight` grace coverage: after a flip's grace returns, every
/// write logged before the flip has also been applied — the property WAL
/// segment retirement stands on.
pub fn inflight_grace_body() {
    let inflight = Arc::new(PhasedInflight::new());
    let logged = Arc::new(AtomicUsize::new(0));
    let applied = Arc::new(AtomicUsize::new(0));
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let inflight = Arc::clone(&inflight);
            let logged = Arc::clone(&logged);
            let applied = Arc::clone(&applied);
            thread::spawn(move || {
                let g = inflight.enter(); // window opens
                logged.fetch_add(1, Ordering::SeqCst); // record hits the WAL
                thread::yield_now(); // group-commit parking, room stalls...
                applied.fetch_add(1, Ordering::SeqCst); // lands in memory
                drop(g); // window closes
            })
        })
        .collect();
    let logged_before = logged.load(Ordering::SeqCst);
    inflight.flip().wait();
    assert!(
        applied.load(Ordering::SeqCst) >= logged_before,
        "grace period missed a logged-but-unapplied window"
    );
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(inflight.open_windows(), 0);
}

/// The Memtable switch against a writer stalled on Memtable room — the
/// deadlock the switch's grace must not fall into.
///
/// A writer opens its logged→applied window, logs, and finds the Memtable
/// over its trigger; only a switch makes room. The persist thread then
/// runs the switch's steps (`persist.rs`): roll (seal under the log lock,
/// flipping the in-flight phase in the same critical section), grace,
/// freeze-drain, switch and flush. The grace waits for the writer's
/// window, and the writer waits for room, so the writer must notice that
/// a grace awaits it ([`flodb::sync::InflightGuard::is_awaited`]) — the
/// roll wakes the room — and overshoot the trigger instead, as `write.rs`
/// does: the switch then completes, and the write — logged into the
/// sealed segment — is in the flushed table. Mutated (`--cfg flodb_model_mutation` never reports a
/// window awaited), the two wait on each other forever.
pub fn switch_grace_room_stall_body() {
    let mtb = Arc::new(SkipList::new());
    mtb.insert(b"filler", Some(b"f"), 1);
    // Any byte more than the filler is over the trigger.
    let trigger = mtb.approximate_bytes() - 1;
    let view = Arc::new(ViewCell::new(MemView {
        mbf: Some(Arc::new(tiny_membuffer())),
        imm_mbf: None,
        mtb,
        imm_mtb: None,
    }));
    let seq = Arc::new(SequenceGenerator::starting_at(2));
    let inflight = Arc::new(PhasedInflight::new());
    // The log: the lock a roll seals under, and the records it holds.
    let log = Arc::new(Mutex::new(Vec::<u8>::new()));

    // Writers park here for room; the roll and the swap wake it.
    let room = Arc::new(Park::new());

    let writer = {
        let (view, seq, inflight, log, room) = (
            Arc::clone(&view),
            Arc::clone(&seq),
            Arc::clone(&inflight),
            Arc::clone(&log),
            Arc::clone(&room),
        );
        thread::spawn(move || {
            let window = inflight.enter();
            log.lock().push(1);
            // Wait for Memtable room, unless a grace waits for this window.
            room.park_until(|| {
                view.read(|v| v.mtb.approximate_bytes()) <= trigger || window.is_awaited()
            });
            view.read(|v| v.mtb.insert(b"acked", Some(b"w"), seq.next()));
        })
    };

    // The switch, once the write is logged.
    while log.lock().is_empty() {
        thread::yield_now();
    }
    let grace = {
        let _sealing = log.lock();
        inflight.flip()
    };
    room.wake();
    grace.wait();
    let frozen = view
        .freeze_membuffer(Arc::new(tiny_membuffer()))
        .expect("buffer was frozen");
    frozen.open_for_drain();
    help_drain_imm_via(&frozen, &view, &seq, DrainStyle::MultiInsert);
    view.release_frozen_membuffer();
    let flushed = view.switch_memtable(Arc::new(SkipList::new()));
    room.wake();
    assert!(
        flushed.get(b"acked").is_some(),
        "a write logged before the roll missed the flushed table"
    );
    view.release_immutable_memtable();
    writer.join().unwrap();
}

/// RCU grace periods on the view cell: a switch never returns while a
/// reader of the *old* view is still inside its critical section — the
/// reader's insert must be visible in the frozen table by the time the
/// switch completes (readers never observe, or mutate, a collected view).
pub fn rcu_view_switch_body() {
    let old_mtb = Arc::new(SkipList::new());
    let view = Arc::new(ViewCell::new(MemView {
        mbf: None,
        imm_mbf: None,
        mtb: Arc::clone(&old_mtb),
        imm_mtb: None,
    }));
    let reader = {
        let view = Arc::clone(&view);
        let old_mtb = Arc::clone(&old_mtb);
        thread::spawn(move || {
            view.read(|v| {
                let saw_old = Arc::ptr_eq(&v.mtb, &old_mtb);
                thread::yield_now(); // stretch the critical section
                v.mtb.insert(b"r", Some(b"1"), 7);
                saw_old
            })
        })
    };
    let new_mtb = Arc::new(SkipList::new());
    view.switch_memtable(Arc::clone(&new_mtb));
    // Snapshot *at the moment the switch returned*: the grace guarantee.
    let old_len_at_return = old_mtb.len();
    let saw_old = reader.join().unwrap();
    if saw_old {
        assert_eq!(
            old_len_at_return, 1,
            "switch returned while a reader of the old view was mid-insert"
        );
    } else {
        assert_eq!(new_mtb.len(), 1, "the reader of the new view inserted there");
    }
}

/// The flight recorder's publish path (PR 10): the seqlock claim/publish
/// protocol of `TraceRing` under concurrent writers and a racing dump.
///
/// Two writers push events into a two-slot ring while a dumper reads it
/// mid-flight; every event carries the invariant `b == a ^ MAGIC`, so a
/// torn read (payload from two different events, or a half-written
/// slot) breaks the pair. The ring's atomics come from
/// `flodb_sync::shim`, so the checker explores interleavings of the
/// actual claim CAS, payload stores, and publishing Release store. After
/// both writers join, every slot must have settled published: the final
/// dump holds exactly `capacity` events and accounts, with `dropped`,
/// for every push.
pub fn trace_ring_body() {
    use flodb::core::telemetry::{TraceEventKind, TraceRing};
    const MAGIC: u64 = 0xD00D_F10D;

    let ring = Arc::new(TraceRing::with_capacity(2));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                for i in 0..2u64 {
                    let a = t * 100 + i;
                    ring.push(TraceEventKind::IoRetry, t as u32, a, a ^ MAGIC);
                }
            })
        })
        .collect();
    // A dump racing the writers may see fewer events, but never a torn
    // payload and never out-of-order tickets.
    let dumper = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || {
            let events = ring.dump();
            assert!(events.iter().all(|e| e.b == e.a ^ MAGIC), "torn payload");
            assert!(events.windows(2).all(|w| w[0].ticket < w[1].ticket));
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    dumper.join().unwrap();
    // Quiescent: claims either published or dropped, nothing mid-write.
    let events = ring.dump();
    assert_eq!(ring.recorded(), 4, "every push took a ticket");
    assert_eq!(
        events.len(),
        2,
        "both slots end published (dropped laps keep the previous event)"
    );
    assert!(events.iter().all(|e| e.b == e.a ^ MAGIC));
    assert!(ring.dropped() <= 2, "at most one lapped push per slot");
}

/// The Memtable arena's chunk roll: two inserts race to claim node blocks
/// that do not fit the current chunk.
///
/// A node is a block bumped out of its list's current chunk with one
/// `fetch_add`; a claim that runs past the chunk's end allocates the next
/// chunk with the block at its front and installs it with a CAS, and the
/// loser of that CAS frees its chunk and claims again in the winner's. A
/// 3000-byte key fills the first chunk (4 KiB) so far that neither racer's
/// 1000-byte key fits, whatever the tower heights, so both claims fail and
/// both racers try to roll. Under every interleaving the two blocks must
/// be disjoint: each key is written into its block before its node is
/// published, and all three read back byte-exact, in order.
pub fn arena_roll_body() {
    let list = Arc::new(SkipList::new());
    let filler = vec![0xF0u8; 3000];
    list.insert(&filler, Some(b"f"), 1);
    let key = |t: u8| vec![t; 1000];
    let racers: Vec<_> = [1u8, 2]
        .into_iter()
        .map(|t| {
            let list = Arc::clone(&list);
            thread::spawn(move || assert!(list.insert(&key(t), Some(&[t]), u64::from(t) + 1)))
        })
        .collect();
    for racer in racers {
        racer.join().unwrap();
    }
    for t in [1u8, 2] {
        let value = list.get(&key(t)).and_then(|v| v.value);
        assert_eq!(value.as_deref(), Some(&[t][..]), "a racer's node was overwritten");
    }
    let mut it = list.iter();
    it.seek_to_first();
    for want in [key(1), key(2), filler] {
        assert!(it.valid() && it.key() == want.as_slice(), "a key was overwritten");
        it.next();
    }
    assert!(!it.valid());
}

/// The park/wake primitive every engine wait uses (`flodb_sync::Park`): a
/// producer makes the consumer's condition true and wakes it, at any point
/// of the consumer's check-announce-recheck-wait sequence — among them
/// between the consumer's last check and its park. Under every
/// interleaving the consumer must wake. Mutated (`--cfg
/// flodb_model_mutation` waits once on the check made before the
/// announcement), the wake that lands in that gap is lost and the
/// consumer parks for good.
pub fn park_wake_body() {
    let park = Arc::new(Park::new());
    let ready = Arc::new(AtomicBool::new(false));
    let consumer = {
        let (park, ready) = (Arc::clone(&park), Arc::clone(&ready));
        thread::spawn(move || park.park_until(|| ready.load(Ordering::SeqCst)))
    };
    ready.store(true, Ordering::SeqCst);
    park.wake();
    consumer.join().unwrap();
}

