//! Model-test scenario bodies shared by `tests/model.rs` (they must hold
//! under the checker in normal builds) and `tests/model_mutation.rs`
//! (with one `--cfg flodb_model_mutation` hook selected, the checker must
//! find the defect it re-introduces).
//!
//! Every body builds its entire world from scratch — the checker runs it
//! once per explored schedule — and synchronizes only through
//! `flodb_sync::shim`, so each synchronization step is a scheduling
//! decision point. The `store_*` bodies run a real [`FloDb`]: its writers,
//! its drain and persist threads, its settles, a drop and a reopen. The
//! other bodies check one primitive each, where a real store could not
//! reach or could not observe the property.

// The invariant suite (tests/model.rs) and the mutation suite
// (tests/model_mutation.rs) compile under mutually exclusive cfgs and
// each uses a subset of these bodies.
#![allow(dead_code)]

use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

use flodb::core::drain::{help_drain_imm_via, DrainStyle};
use flodb::core::view::{ImmMembuffer, MemView, ViewCell};
use flodb::membuffer::{MemBuffer, MemBufferConfig};
use flodb::memtable::SkipList;
use flodb::storage::{Env, MemEnv};
use flodb::sync::shim::atomic::{AtomicBool, AtomicUsize, Ordering};
use flodb::sync::shim::{thread, Arc, Mutex};
use flodb::sync::{GroupCommitConfig, GroupCommitter, Park, PhasedInflight, SequenceGenerator};
use flodb::{FloDb, FloDbOptions, KvStore, StoreStats, WalMode};

/// What the schedules of one check drove the store through, summed over
/// them: a scenario asserts its path ran in *some* schedule, as no one
/// schedule need take it. Plain atomics: only the run's last step reads
/// the store's counters and adds them here.
#[derive(Debug, Default)]
pub struct Coverage {
    /// Memtable switches (`persists`).
    pub persists: AtomicU64,
    /// Writers that helped a frozen drain (`writer_drain_helps`).
    pub helps: AtomicU64,
    /// Writers that waited for Memtable room (`write_stalls`).
    pub stalls: AtomicU64,
}

impl Coverage {
    fn add(&self, stats: &StoreStats) {
        use std::sync::atomic::Ordering::Relaxed;
        self.persists.fetch_add(stats.persists, Relaxed);
        self.helps.fetch_add(stats.writer_drain_helps, Relaxed);
        self.stalls.fetch_add(stats.write_stalls, Relaxed);
    }

    /// `(persists, helps, stalls)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        let load = |n: &AtomicU64| n.load(Relaxed);
        (load(&self.persists), load(&self.helps), load(&self.stalls))
    }
}

/// A store small enough to check whole: one partition, a 48 KiB Memtable
/// trigger, one drainer, the log on, unsynced. Its 16 KiB Membuffer gets
/// 128 buckets, two 64-bucket chunks, so a frozen drain has a chunk left
/// for a helping writer to claim while the freezer drains the first.
fn tiny_options() -> FloDbOptions {
    let mut opts = FloDbOptions::small_for_tests();
    opts.memory_bytes = 64 * 1024;
    opts.partition_bits = 0;
    opts.avg_entry_bytes = 32;
    opts.drain_threads = 1;
    opts.wal = WalMode::Enabled { sync: false };
    opts
}

/// Opens (or reopens) a tiny store on `env`.
fn tiny_store(env: &Arc<dyn Env>) -> FloDb {
    let opts = FloDbOptions { env: Arc::clone(env), ..tiny_options() };
    FloDb::open(opts).expect("a tiny store opens")
}

/// Key `i` of the keys that share a tiny store's Membuffer bucket 0, in
/// key order: four fill the bucket, so the fifth takes the slow path and
/// kicks the drainer.
fn key(i: usize) -> Vec<u8> {
    static KEYS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| {
        let o = tiny_options();
        let probe = MemBuffer::new(MemBufferConfig::for_capacity_bytes(
            o.membuffer_bytes(),
            o.partition_bits,
            o.avg_entry_bytes,
        ));
        (0..)
            .map(|n: u32| format!("k{n:05}").into_bytes())
            .filter(|k| probe.bucket_of(k) == 0)
            .take(16)
            .collect()
    });
    keys[i].clone()
}

/// Every acknowledged write in `acked` reads back from `db`, then from a
/// reopen of `db`'s env once `db` is dropped (its threads joined, its last
/// switch done); `db`'s counters go to `cov` first.
fn reads_back(db: FloDb, env: &Arc<dyn Env>, acked: &[(Vec<u8>, Vec<u8>)], cov: &Coverage) {
    cov.add(&db.stats());
    for (k, v) in acked {
        assert_eq!(db.get(k).as_ref(), Some(v), "an acknowledged write is missing live");
    }
    drop(db);
    let db = tiny_store(env);
    for (k, v) in acked {
        assert_eq!(db.get(k).as_ref(), Some(v), "an acknowledged write is missing after reopen");
    }
}

/// Puts `keys` with `value`, in order, and returns them acknowledged.
fn put_all(
    db: &FloDb,
    keys: impl IntoIterator<Item = usize>,
    value: &[u8],
) -> Vec<(Vec<u8>, Vec<u8>)> {
    keys.into_iter()
        .map(|i| {
            db.put(&key(i), value).expect("the log is in memory and cannot fail");
            (key(i), value.to_vec())
        })
        .collect()
}

/// The Memtable switch (`flush_all`'s forced switch: roll, grace,
/// freeze-drain, swap, flush, retire) against a writer and the drainer.
/// Four keys fill the bucket all keys share and the settle kicks the
/// drainer, so its lap races the switch's freeze; the writer's puts find
/// the bucket full or not, and on the slow path meet the freeze, wait for
/// it and insert into whichever Memtable the swap left. Every
/// acknowledged write reads back, live and after a reopen, and the settle
/// and the drop return: no park of the settle, the persist thread, the
/// drainer or a writer lost its wake.
pub fn store_switch_body(cov: &Coverage) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let db = Arc::new(tiny_store(&env));
    let mut acked = put_all(&db, 0..4, b"v");
    let writer = {
        let db = Arc::clone(&db);
        thread::spawn(move || put_all(&db, 4..8, b"w"))
    };
    db.flush_all();
    acked.extend(writer.join().unwrap());
    let db = Arc::into_inner(db).expect("the writer has let go");
    assert!(db.stats().persists >= 1, "flush_all returned without a switch");
    reads_back(db, &env, &acked, cov);
}

/// A scan (Algorithm 3: freeze, frozen drain, stamp, stream as of the
/// stamp) against a writer that rewrites, in order, keys acknowledged
/// before the scan began, and the background drainer. Five keys settle
/// into the Memtable, and four more fill the bucket all keys share. The
/// writer's first rewrite finds it full, kicks the drainer and takes the
/// slow path, where it may meet the scan's freeze and help its frozen
/// drain; its slow-path rewrites update Memtable entries in place,
/// possibly while the scan streams them. The scan returns every key, with
/// a prefix of the rewrites (those at or below its stamp), in one pass:
/// an update keeps the version the stamp reads (`Hook::ChainLink` retires
/// it). The freeze drains every write acknowledged before it: a lap that
/// claimed a chunk its grace period did not wait for would let the frozen
/// drain skip the claimed entries and the scan stamp before they reach
/// the Memtable.
pub fn store_scan_body(cov: &Coverage) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let db = Arc::new(tiny_store(&env));
    put_all(&db, 0..5, b"v");
    db.quiesce();
    let mut acked = put_all(&db, 5..9, b"v");
    let writer = {
        let db = Arc::clone(&db);
        thread::spawn(move || put_all(&db, 0..5, b"w"))
    };
    let scanned = db.scan(b"k", b"l");
    assert_eq!(scanned.len(), 9, "a scan missed a write acknowledged before it began");
    let rewritten = scanned.iter().take_while(|(_, v)| v == b"w").count();
    assert!(
        scanned[rewritten..].iter().all(|(_, v)| v == b"v"),
        "a scan's cut is not a prefix of the rewrites: {scanned:?}"
    );
    assert_eq!(db.stats().scan_restarts, 0);
    acked.extend(writer.join().unwrap());
    let db = Arc::into_inner(db).expect("the writer has let go");
    reads_back(db, &env, &acked, cov);
}

/// A writer stalled on Memtable room against the switch that makes it.
/// 25 KiB values: four fill the Membuffer's bucket, two take the Memtable
/// past its 48 KiB trigger, and the seventh put finds no room, wakes the
/// persist thread and parks (`write_stalls`). The switch's roll flips the
/// in-flight phase and its grace waits for that writer's window, so the
/// writer must notice it is awaited and overshoot the trigger instead of
/// waiting for the swap that the grace holds back (`write.rs`); then the
/// switch completes and `quiesce` returns. Mutated (`Hook::RoomStall`: a
/// window never reports awaited), the two wait on each other for good.
pub fn store_room_body(cov: &Coverage) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new(None));
    let db = tiny_store(&env);
    let value = vec![b'r'; 25 * 1024];
    let acked = put_all(&db, 0..7, &value);
    db.quiesce();
    assert!(db.stats().persists >= 1, "a Memtable over its trigger was never switched");
    reads_back(db, &env, &acked, cov);
}

/// One partition, one bucket (4 slots): the smallest Membuffer, so every
/// write and every drain claim contend on the same bucket.
fn tiny_membuffer() -> MemBuffer {
    MemBuffer::new(MemBufferConfig {
        partition_bits: 0,
        buckets_per_partition: 1,
    })
}

/// The `open_for_drain` gate, distilled: a straggler `add` racing a
/// helper's bucket claim on a frozen Membuffer.
///
/// The freeze's grace period is expressed directly — the freezer joins the
/// straggler before opening the drain — instead of via an RCU view switch.
/// In a real store ([`store_switch_body`]) the failing window hides behind
/// ~30 consecutive scheduler choices (publish + synchronize + the helper's
/// full view read), past what a preemption-bounded DFS or a random walk
/// reaches in CI-sized budgets. Here the claim/add race *is* the whole
/// trace, so the mutation suite can assert the checker finds it.
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

/// The recycle gate (`ImmMembuffer::reclaim`): a snapshot holder racing
/// the freezer.
///
/// The freezer runs `freeze_and_drain_membuffer`'s sequence — freeze,
/// drain, retire the frozen view, then ask for the drained buffer back to
/// install it again at the next freeze. A concurrent clone of the view
/// (what a late helper or any holder of a `MemView` keeps) may have caught
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
        thread::spawn(move || view.read(MemView::clone))
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

