//! Group-commit (leader/follower) batching for a shared append-only log.
//!
//! The FloDB paper's write fast path is lock-free, but a naive commit log
//! serializes every writer on one mutex *per record* — the exact
//! single-writer bottleneck §2.2 identifies in LevelDB. This module keeps
//! the log while un-serializing the writers: producers encode their record
//! into a shared open batch under a short critical section (one memcpy),
//! and exactly one of them — the *leader* — claims the whole batch,
//! commits it with a single log append (and at most one fsync), then wakes
//! the batched *followers* with the shared outcome. Batching is natural:
//! while a leader commits group *g*, every arriving writer accumulates
//! into group *g+1*, so group size adapts to contention.
//!
//! The committer is allocation-free on the steady-state path: records are
//! encoded directly into a reusable byte buffer, and the open and the
//! in-flight buffer swap roles between groups. It is the one
//! leader/follower batcher: the baselines' write leaders encode their
//! operations into it and apply the decoded group to memory in their
//! `commit` closure.

use std::collections::HashMap;
use std::mem;

use crate::shim::atomic::{AtomicU64, Ordering};
use crate::lock_order::GROUP_COMMIT_STATE;
use crate::shim::{ranked_condvar, ranked_mutex, Arc, Condvar, Mutex, MutexGuard};

/// Tuning knobs for a [`GroupCommitter`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Soft cap on the encoded bytes of one group. Writers that would grow
    /// the open group past this while a leader is busy wait for the next
    /// group instead (backpressure); a single oversized record still
    /// commits alone.
    pub max_group_bytes: usize,
    /// Bytes reserved (zeroed) at the start of every group buffer before
    /// the first record is encoded. Lets the commit closure frame the
    /// batch *in place* — e.g. patch a length/checksum header into the
    /// reserved space — and hand the whole buffer to one write, instead
    /// of re-copying the payload behind a separately-built header.
    pub frame_prefix: usize,
    /// How many `yield_now` iterations a follower spends waiting for its
    /// group's commit before parking on a futex. Group commits of
    /// in-memory or OS-buffered appends finish within a few scheduling
    /// windows, and a park/unpark round-trip per record would dominate the
    /// batching win; slow commits (real fsync) blow through the budget and
    /// park, so nothing spins against a millisecond-scale flush.
    ///
    /// **Retuning guidance.** The default of 64 was chosen on a 1-CPU
    /// container, where the spin's yields are what hand the core back to
    /// the leader and batching only forms around *blocking* commits. On
    /// real multi-core hardware followers spin on their own cores while
    /// the leader runs, so the right budget tracks the leader's commit
    /// latency instead of the scheduler: raise it (hundreds of yields)
    /// for buffered appends on fast devices where commits finish in a few
    /// microseconds and parking would dominate, and lower it toward zero
    /// when commits fsync a slow device, where every spin cycle is wasted
    /// against a millisecond-scale wait. `0` parks immediately and is
    /// always correct. FloDB's WAL runs on the [`Default`] value.
    pub follower_spin: u32,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        Self {
            max_group_bytes: 1024 * 1024,
            frame_prefix: 0,
            follower_spin: 64,
        }
    }
}

/// How a [`GroupCommitter::submit`] call was completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitRole {
    /// The caller claimed the batch and ran the commit itself.
    Leader {
        /// Submissions (records) in the committed group, caller included.
        records: u64,
        /// Encoded payload bytes of the committed group.
        bytes: u64,
    },
    /// Another thread's commit covered the caller's record.
    Follower,
}

/// Outcome of a committed group, held until every member has observed it.
struct GroupOutcome<E> {
    err: Option<Arc<E>>,
    /// Followers that have not yet collected the outcome.
    remaining: u64,
}

struct State<E> {
    /// Encoded payload of the open (not yet claimed) group.
    buf: Vec<u8>,
    /// Submissions in the open group.
    members: u64,
    /// Id of the open group; the first group is 1.
    open_group: u64,
    /// Whether a leader currently owns a claimed group.
    leader_active: bool,
    /// Spare buffer swapped in when a group is claimed; retains its
    /// capacity across groups so steady state allocates nothing.
    spare: Vec<u8>,
    /// Threads currently parked on `done_cv`; lets an uncontended publish
    /// skip the broadcast entirely.
    parked: u64,
    /// Outcomes of committed multi-member groups, keyed by group id.
    outcomes: HashMap<u64, GroupOutcome<E>>,
}

/// A leader/follower group committer over an append-only byte log.
///
/// Producers call [`submit`](Self::submit) with an `encode` closure that
/// appends their record to the open batch and a `commit` closure that
/// durably appends a whole batch; exactly one producer per group runs
/// `commit`, the rest block until the group's outcome is published. Commit
/// errors are broadcast: every member of a failed group gets the same
/// shared error, so callers can propagate or poison deterministically.
///
/// # Examples
///
/// ```
/// use flodb_sync::{CommitRole, GroupCommitConfig, GroupCommitter};
///
/// let gc: GroupCommitter<std::io::Error> =
///     GroupCommitter::new(GroupCommitConfig::default());
/// let role = gc
///     .submit(|buf| buf.extend_from_slice(b"record"), |payload| {
///         assert_eq!(payload, b"record");
///         Ok(())
///     })
///     .unwrap();
/// assert_eq!(role, CommitRole::Leader { records: 1, bytes: 6 });
/// ```
pub struct GroupCommitter<E> {
    cfg: GroupCommitConfig,
    state: Mutex<State<E>>,
    /// Highest committed group id, readable without the lock so followers
    /// can spin briefly before parking.
    committed: AtomicU64,
    /// Followers (and would-be leaders) park here.
    done_cv: Condvar,
    /// Writers blocked on an over-full open group park here.
    room_cv: Condvar,
}

impl<E: Send + Sync> GroupCommitter<E> {
    /// Creates a committer with the given tuning.
    pub fn new(cfg: GroupCommitConfig) -> Self {
        Self {
            cfg,
            state: ranked_mutex(GROUP_COMMIT_STATE, State {
                buf: Vec::new(),
                members: 0,
                open_group: 1,
                leader_active: false,
                spare: Vec::new(),
                parked: 0,
                outcomes: HashMap::new(),
            }),
            committed: AtomicU64::new(0),
            done_cv: ranked_condvar(GROUP_COMMIT_STATE),
            room_cv: ranked_condvar(GROUP_COMMIT_STATE),
        }
    }

    /// Submits one record and blocks until its group has committed.
    ///
    /// `encode` appends the record's bytes to the open group's buffer; it
    /// runs under the committer lock, so it must be short (encode and
    /// copy — no I/O, no allocation beyond growing the buffer). `commit`
    /// persists an entire group payload; it runs outside the lock, on the
    /// one caller per group that became leader. The sequence-number source
    /// can be sampled inside `encode` to make log order match sequence
    /// order exactly.
    ///
    /// Returns the caller's [`CommitRole`] on success. If the group's
    /// commit failed, **every** member receives the same shared error —
    /// none of the group's records are acknowledged.
    pub fn submit<Enc, Commit>(&self, encode: Enc, commit: Commit) -> Result<CommitRole, Arc<E>>
    where
        Enc: FnOnce(&mut Vec<u8>),
        Commit: FnOnce(&mut Vec<u8>) -> Result<(), E>,
    {
        let mut state = self.state.lock();
        // Backpressure: join the *next* group once this one is oversized
        // (only meaningful while a leader is busy — otherwise we would
        // claim the batch ourselves right below).
        while state.leader_active && state.buf.len() >= self.cfg.max_group_bytes {
            self.room_cv.wait(&mut state);
        }
        let group = state.open_group;
        if state.buf.len() < self.cfg.frame_prefix {
            // First record of a fresh group: reserve the header space.
            state.buf.resize(self.cfg.frame_prefix, 0);
        }
        encode(&mut state.buf);
        state.members += 1;

        // Leader check must precede any waiting: if no leader is active,
        // nobody else will commit this group for us.
        if !state.leader_active {
            return self.lead(state, commit);
        }

        // Spin on the lock-free committed counter before parking: group
        // commits of buffered appends are short, and a futex round-trip
        // per record would dominate the saved work under high contention.
        // The spin yields, so on an oversubscribed machine it is also what
        // hands the CPU back to the leader.
        drop(state);
        let mut spins = 0u32;
        while self.committed.load(Ordering::Acquire) < group {
            if spins < 8 {
                crate::shim::hint::spin_loop();
            } else if spins < 8 + self.cfg.follower_spin {
                crate::shim::thread::yield_now();
            } else {
                break;
            }
            spins += 1;
        }

        let mut state = self.state.lock();
        loop {
            if self.committed.load(Ordering::Acquire) >= group {
                return Self::collect_outcome(&mut state, group);
            }
            if !state.leader_active {
                // The previous leader finished without covering our group:
                // claim it ourselves (our record is in the open batch).
                return self.lead(state, commit);
            }
            state.parked += 1;
            self.done_cv.wait(&mut state);
            state.parked -= 1;
        }
    }

    /// Claims the open group and commits it. Called with the lock held and
    /// `leader_active == false`; the caller's record is already encoded.
    fn lead<'a, Commit>(
        &'a self,
        mut state: MutexGuard<'a, State<E>>,
        commit: Commit,
    ) -> Result<CommitRole, Arc<E>>
    where
        Commit: FnOnce(&mut Vec<u8>) -> Result<(), E>,
    {
        state.leader_active = true;

        // Claim: swap the open buffer out, open the next group.
        let spare = mem::take(&mut state.spare);
        let mut payload = mem::replace(&mut state.buf, spare);
        let members = state.members;
        state.members = 0;
        let claimed = state.open_group;
        state.open_group += 1;
        self.room_cv.notify_all();
        drop(state);

        let err = commit(&mut payload).err().map(Arc::new);
        let bytes = payload.len() as u64;

        let mut state = self.state.lock();
        // Return the buffer for reuse (capacity retained).
        payload.clear();
        state.spare = payload;
        if members > 1 {
            state.outcomes.insert(
                claimed,
                GroupOutcome {
                    err: err.clone(),
                    remaining: members - 1,
                },
            );
        }
        // Publish inside the lock: followers re-check `committed` under
        // the same lock before parking, so the wakeup cannot be missed —
        // and `parked` is exact, so an uncontended publish skips the
        // broadcast.
        self.committed.store(claimed, Ordering::Release);
        state.leader_active = false;
        let any_parked = state.parked > 0;
        drop(state);
        if any_parked {
            self.done_cv.notify_all();
        }

        match err {
            Some(e) => Err(e),
            None => Ok(CommitRole::Leader {
                records: members,
                bytes,
            }),
        }
    }

    /// Collects a follower's share of a committed group's outcome.
    fn collect_outcome(
        state: &mut State<E>,
        group: u64,
    ) -> Result<CommitRole, Arc<E>> {
        if let Some(outcome) = state.outcomes.get_mut(&group) {
            let err = outcome.err.clone();
            outcome.remaining -= 1;
            if outcome.remaining == 0 {
                state.outcomes.remove(&group);
            }
            match err {
                Some(e) => Err(e),
                None => Ok(CommitRole::Follower),
            }
        } else {
            // Single-member groups publish no outcome entry; a successful
            // group with one member is always completed by its leader, so
            // reaching here means the group succeeded.
            Ok(CommitRole::Follower)
        }
    }

    /// Encoded bytes currently waiting in the open group.
    pub fn pending_bytes(&self) -> usize {
        self.state.lock().buf.len()
    }

    /// Highest committed group id so far.
    pub fn groups_committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::thread;

    use super::*;

    type Committer = GroupCommitter<String>;

    fn committer() -> Committer {
        GroupCommitter::new(GroupCommitConfig::default())
    }

    #[test]
    fn single_submit_leads_its_own_group() {
        let gc = committer();
        let role = gc
            .submit(
                |buf| buf.extend_from_slice(b"abc"),
                |payload| {
                    assert_eq!(payload, b"abc");
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(role, CommitRole::Leader { records: 1, bytes: 3 });
        assert_eq!(gc.pending_bytes(), 0);
        assert_eq!(gc.groups_committed(), 1);
    }

    #[test]
    fn every_byte_reaches_the_log_exactly_once() {
        const THREADS: usize = 8;
        const OPS: u64 = 300;
        let gc = Arc::new(committer());
        let log = Arc::new(Mutex::new(Vec::<u8>::new()));
        let mut handles = Vec::new();
        for t in 0..THREADS as u64 {
            let gc = Arc::clone(&gc);
            let log = Arc::clone(&log);
            handles.push(thread::spawn(move || {
                for i in 0..OPS {
                    let rec = [t as u8, (i >> 8) as u8, i as u8];
                    gc.submit(
                        |buf| buf.extend_from_slice(&rec),
                        |payload| {
                            log.lock().extend_from_slice(payload);
                            Ok(())
                        },
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let log = log.lock();
        assert_eq!(log.len(), THREADS * OPS as usize * 3);
        // Every record present exactly once, and each thread's records
        // appear in its submission order (acks are sequential per thread).
        for t in 0..THREADS as u8 {
            let mine: Vec<u64> = log
                .chunks(3)
                .filter(|c| c[0] == t)
                .map(|c| u64::from(c[1]) << 8 | u64::from(c[2]))
                .collect();
            let expected: Vec<u64> = (0..OPS).collect();
            assert_eq!(mine, expected, "thread {t} records lost or reordered");
        }
    }

    #[test]
    fn commits_are_mutually_exclusive_and_batched() {
        let gc = Arc::new(committer());
        let in_commit = Arc::new(AtomicBool::new(false));
        let groups = Arc::new(AtomicU64::new(0));
        let records = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let gc = Arc::clone(&gc);
            let in_commit = Arc::clone(&in_commit);
            let groups = Arc::clone(&groups);
            let records = Arc::clone(&records);
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    let role = gc
                        .submit(
                            |buf| buf.push(1),
                            |payload| {
                                assert!(
                                    !in_commit.swap(true, Ordering::SeqCst),
                                    "two leaders committed concurrently"
                                );
                                groups.fetch_add(1, Ordering::Relaxed);
                                records.fetch_add(payload.len() as u64, Ordering::Relaxed);
                                in_commit.store(false, Ordering::SeqCst);
                                Ok(())
                            },
                        )
                        .unwrap();
                    if let CommitRole::Leader { records, .. } = role {
                        assert!(records >= 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(records.load(Ordering::Relaxed), 4 * 200);
        assert_eq!(groups.load(Ordering::Relaxed), gc.groups_committed());
        assert!(groups.load(Ordering::Relaxed) <= 4 * 200);
    }

    #[test]
    fn commit_error_reaches_every_group_member() {
        const THREADS: usize = 6;
        let gc = Arc::new(committer());
        let failures = Arc::new(AtomicU64::new(0));
        // A barrier maximizes the chance of multi-member groups, but the
        // property holds for any grouping: every submit must see Err.
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let gc = Arc::clone(&gc);
            let failures = Arc::clone(&failures);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                barrier.wait();
                for _ in 0..50 {
                    let out = gc.submit(
                        |buf| buf.push(7),
                        |_| Err("disk on fire".to_string()),
                    );
                    match out {
                        Err(e) => {
                            assert!(e.contains("disk on fire"));
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(role) => panic!("commit must fail, got {role:?}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(failures.load(Ordering::Relaxed), (THREADS * 50) as u64);
        // Outcome map fully drained: no leaked entries.
        assert!(gc.state.lock().outcomes.is_empty());
    }

    #[test]
    fn oversized_open_group_applies_backpressure() {
        let gc: Committer = GroupCommitter::new(GroupCommitConfig {
            max_group_bytes: 8,
            ..GroupCommitConfig::default()
        });
        // A single record larger than the cap still commits (soft cap).
        let role = gc
            .submit(|buf| buf.extend_from_slice(&[0u8; 64]), |_| Ok(()))
            .unwrap();
        assert_eq!(role, CommitRole::Leader { records: 1, bytes: 64 });
    }

    #[test]
    fn zero_follower_spin_parks_immediately_and_loses_nothing() {
        // The park path must be correct on its own: with the spin budget
        // at zero every follower goes straight to the condvar, and the
        // outcome protocol still delivers each record exactly once.
        let gc: Arc<Committer> = Arc::new(GroupCommitter::new(GroupCommitConfig {
            follower_spin: 0,
            ..GroupCommitConfig::default()
        }));
        let total = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let gc = Arc::clone(&gc);
            let total = Arc::clone(&total);
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    gc.submit(
                        |buf| buf.push(1),
                        |payload| {
                            total.fetch_add(payload.len() as u64, Ordering::Relaxed);
                            Ok(())
                        },
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 200);
    }

    #[test]
    fn buffers_are_reused_across_groups() {
        let gc = committer();
        for _ in 0..3 {
            gc.submit(|buf| buf.extend_from_slice(&[0u8; 512]), |_| Ok(()))
                .unwrap();
        }
        let state = gc.state.lock();
        assert!(state.spare.capacity() >= 512, "spare buffer must be retained");
        assert!(state.buf.is_empty());
    }
}
