//! The scan stage (Algorithm 3): admission, the restart protocol, and the
//! writer-blocking fallback.
//!
//! "A master scan is a scan that starts when no other scan is concurrently
//! running. A piggybacking scan is a scan that starts while some other scan
//! is concurrently running. At any given time, only one master scan may be
//! running" (§4.4). The master freezes and drains the Membuffer
//! ([`Inner::freeze_window`]) and publishes a scan sequence number;
//! piggybacking scans reuse it, spreading the drain cost over many scans.
//! Chains of piggybacking scans are bounded so the reused sequence number
//! does not grow stale without bound. Every scan then iterates
//! MTB/IMM_MTB/disk; an entry fresher than its sequence number forces a
//! restart, and a bounded number of restarts ends in the fallback.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

use flodb_sync::lock_order::SCAN_COORDINATOR;
use flodb_sync::shim::{ranked_condvar, ranked_mutex, Condvar, Mutex};

use super::Inner;
use crate::stats::FloDbStats;
use crate::telemetry::OpClass;

/// Scan outcome signalling that a concurrent update invalidated the scan.
struct Restart;

/// Scan restarts tolerated before the writer-blocking fallback
/// (RESTART_THRESHOLD in Algorithm 3).
const SCAN_RESTART_THRESHOLD: u32 = 8;

/// Maximum piggybacking-chain length before a scan must establish a fresh
/// sequence number (§4.4).
const PIGGYBACK_CHAIN_LIMIT: u32 = 8;

/// A validated scan snapshot: key → (seq, value), tombstones included so
/// the merge can shadow older versions; the emission loop filters them.
type MergedRange = BTreeMap<Box<[u8]>, (u64, Option<Box<[u8]>>)>;

/// The role a scan was admitted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanRole {
    /// Must drain the Membuffer and establish a sequence number.
    Master,
    /// Reuses the published sequence number of the running chain.
    Piggyback(u64),
}

#[derive(Debug, Default)]
struct ScanState {
    master_active: bool,
    /// Sequence number of the live chain, if one is published.
    published_seq: Option<u64>,
    /// Scans admitted into the current chain.
    chain_len: u32,
    /// Scans currently executing (any role).
    active: u32,
}

/// Admission control for scans.
#[derive(Debug)]
pub(super) struct ScanCoordinator {
    state: Mutex<ScanState>,
    cv: Condvar,
}

impl ScanCoordinator {
    /// Creates an idle coordinator.
    pub(super) fn new() -> Self {
        Self {
            state: ranked_mutex(SCAN_COORDINATOR, ScanState::default()),
            cv: ranked_condvar(SCAN_COORDINATOR),
        }
    }

    /// Admits a scan.
    ///
    /// With `linearizable == true` every scan becomes a fresh master
    /// (waiting for the running one to finish), which makes all scans
    /// linearizable with respect to updates at the cost of a drain per
    /// scan (§4.4).
    fn enter(&self, chain_limit: u32, linearizable: bool) -> ScanRole {
        let mut st = self.state.lock();
        loop {
            if !linearizable {
                if let Some(seq) = st.published_seq {
                    if st.active > 0 && st.chain_len < chain_limit {
                        st.chain_len += 1;
                        st.active += 1;
                        return ScanRole::Piggyback(seq);
                    }
                }
            }
            if !st.master_active {
                st.master_active = true;
                st.chain_len = 0;
                st.active += 1;
                st.published_seq = None;
                return ScanRole::Master;
            }
            self.cv.wait(&mut st);
        }
    }

    /// Publishes the master's established sequence number, releasing
    /// waiting piggybackers.
    fn publish(&self, seq: u64) {
        let mut st = self.state.lock();
        debug_assert!(st.master_active);
        st.published_seq = Some(seq);
        self.cv.notify_all();
    }

    /// Records a scan finishing under `role`.
    fn exit(&self, role: ScanRole) {
        let mut st = self.state.lock();
        st.active -= 1;
        if role == ScanRole::Master {
            st.master_active = false;
        }
        if st.active == 0 {
            // The chain dies with its last member: a later scan must
            // re-establish freshness.
            st.published_seq = None;
            st.chain_len = 0;
        }
        self.cv.notify_all();
    }

    /// Number of currently executing scans (diagnostics).
    #[cfg(test)]
    fn active_scans(&self) -> u32 {
        self.state.lock().active
    }
}

impl Inner {
    /// The body of `KvStore::scan_with`: one validated scan, then the
    /// emission. The [`OpClass::Scan`] sample covers the restart protocol
    /// and snapshot construction, not the caller's visitor.
    pub(super) fn scan_with(
        &self,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) {
        let t0 = self.full_timer();
        let merged = self.scan_impl(low, high);
        self.record_op(OpClass::Scan, t0);
        FloDbStats::bump(&self.stats.scans);
        let mut emitted = 0u64;
        for (key, (_, value)) in &merged {
            let Some(value) = value else { continue };
            emitted += 1;
            if visitor(key, value).is_break() {
                break;
            }
        }
        FloDbStats::add(&self.stats.scanned_keys, emitted);
    }

    /// Runs the restart protocol to a validated snapshot of the range.
    ///
    /// The merged map is only handed out once an attempt validates (no
    /// entry fresher than the scan stamp was seen), so callers can stream
    /// it to a visitor without ever re-emitting across restarts.
    fn scan_impl(&self, low: &[u8], high: &[u8]) -> MergedRange {
        let mut restarts = 0u32;
        loop {
            let role = self
                .coord
                .enter(PIGGYBACK_CHAIN_LIMIT, self.opts.linearizable_scans);
            let scan_seq = match role {
                ScanRole::Master => {
                    FloDbStats::bump(&self.stats.master_scans);
                    // Algorithm 3, lines 4-14: freeze, swap, drain, stamp
                    // (line 12: the scan's linearization point), unfreeze.
                    let seq = self.freeze_window(|spare| {
                        self.freeze_and_drain_membuffer(spare);
                        self.seq.next()
                    });
                    self.coord.publish(seq);
                    seq
                }
                ScanRole::Piggyback(seq) => {
                    FloDbStats::bump(&self.stats.piggyback_scans);
                    seq
                }
            };
            let result = self.collect_range(low, high, scan_seq);
            self.coord.exit(role);
            match result {
                Ok(entries) => return entries,
                Err(Restart) => {
                    FloDbStats::bump(&self.stats.scan_restarts);
                    restarts += 1;
                    if restarts >= SCAN_RESTART_THRESHOLD {
                        return self.fallback_scan(low, high);
                    }
                }
            }
        }
    }

    /// Algorithm 3, lines 15-30: iterate MTB, IMM_MTB and disk, restarting
    /// on any entry fresher than the scan stamp.
    fn collect_range(
        &self,
        low: &[u8],
        high: &[u8],
        scan_seq: u64,
    ) -> Result<MergedRange, Restart> {
        let view = self.view.snapshot();
        // key -> (seq, value); freshest wins among seqs <= scan_seq.
        let mut merged = MergedRange::new();

        let mut absorb = |key: &[u8], seq: u64, value: Option<Box<[u8]>>| {
            match merged.entry(Box::from(key)) {
                Entry::Vacant(e) => {
                    e.insert((seq, value));
                }
                Entry::Occupied(mut e) => {
                    if seq > e.get().0 {
                        e.insert((seq, value));
                    }
                }
            }
        };

        let memtables = [Some(&view.mtb), view.imm_mtb.as_ref()];
        for list in memtables.into_iter().flatten() {
            let mut it = list.iter();
            it.seek(low);
            while it.valid() && it.key() <= high {
                let vv = it.value();
                if vv.seq > scan_seq {
                    return Err(Restart);
                }
                absorb(it.key(), vv.seq, vv.value);
                it.next();
            }
        }

        let mut fresher = false;
        let scanned = self.disk.scan_each(low, high, &mut |record| {
            if record.seq > scan_seq {
                fresher = true;
                return ControlFlow::Break(());
            }
            absorb(&record.key, record.seq, record.value);
            ControlFlow::Continue(())
        });
        // PANIC-OK: same contract as `get` — the scan path is infallible
        // until fallible reads land (see ROADMAP), so a disk error aborts.
        scanned.expect("disk scan failed");
        if fresher {
            return Err(Restart);
        }

        Ok(merged)
    }

    /// The writer-blocking fallback guaranteeing scan liveness (§4.4).
    ///
    /// Unlike a master scan, the freeze window stays open through the
    /// collection: with Memtable writers and drains paused, nothing can
    /// stamp a newer sequence number mid-iteration, and with the freeze
    /// lock held no other scan can freeze-and-stamp either, so the scan
    /// cannot be invalidated. The Membuffer must still be frozen and
    /// drained first — fast-path writes are never blocked, and a fallback
    /// reading only the Memtable and disk would miss every update still
    /// resident in the Membuffer.
    fn fallback_scan(&self, low: &[u8], high: &[u8]) -> MergedRange {
        FloDbStats::bump(&self.stats.fallback_scans);
        self.freeze_window(|spare| loop {
            self.freeze_and_drain_membuffer(spare);
            let seq = self.seq.next();
            // A restart here means a writer slipped in between our pause
            // and its own pause check; the population of such racers is
            // bounded by the thread count, so retrying terminates.
            if let Ok(entries) = self.collect_range(low, high, seq) {
                break entries;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    use super::*;

    #[test]
    fn first_scan_is_master() {
        let c = ScanCoordinator::new();
        let role = c.enter(8, false);
        assert_eq!(role, ScanRole::Master);
        c.publish(5);
        c.exit(role);
        assert_eq!(c.active_scans(), 0);
    }

    #[test]
    fn second_scan_piggybacks_on_published_seq() {
        let c = ScanCoordinator::new();
        let master = c.enter(8, false);
        c.publish(42);
        let second = c.enter(8, false);
        assert_eq!(second, ScanRole::Piggyback(42));
        c.exit(second);
        c.exit(master);
    }

    #[test]
    fn chain_ends_when_all_scans_exit() {
        let c = ScanCoordinator::new();
        let master = c.enter(8, false);
        c.publish(42);
        c.exit(master);
        // No active scan remains: the next scan must be a master.
        let next = c.enter(8, false);
        assert_eq!(next, ScanRole::Master);
        c.exit(next);
    }

    #[test]
    fn chain_limit_forces_new_master() {
        let c = ScanCoordinator::new();
        let master = c.enter(1, false);
        c.publish(7);
        let pig = c.enter(1, false);
        assert_eq!(pig, ScanRole::Piggyback(7));
        // Chain limit reached: the next admission must wait for the master
        // slot; release the master so it can proceed as master.
        let c2 = Arc::new(c);
        let waiter = {
            let c2 = Arc::clone(&c2);
            thread::spawn(move || {
                let role = c2.enter(1, false);
                assert_eq!(role, ScanRole::Master);
                c2.exit(role);
            })
        };
        thread::sleep(Duration::from_millis(30));
        c2.exit(master);
        waiter.join().unwrap();
        c2.exit(pig);
    }

    #[test]
    fn linearizable_mode_never_piggybacks() {
        let c = ScanCoordinator::new();
        let master = c.enter(8, true);
        c.publish(3);
        // A linearizable scan must wait rather than piggyback.
        let c = Arc::new(c);
        let got_master = Arc::new(AtomicU32::new(0));
        let waiter = {
            let c = Arc::clone(&c);
            let got_master = Arc::clone(&got_master);
            thread::spawn(move || {
                let role = c.enter(8, true);
                assert_eq!(role, ScanRole::Master);
                got_master.store(1, Ordering::SeqCst);
                c.exit(role);
            })
        };
        thread::sleep(Duration::from_millis(30));
        assert_eq!(got_master.load(Ordering::SeqCst), 0);
        c.exit(master);
        waiter.join().unwrap();
    }

    #[test]
    fn piggybackers_wait_for_publication() {
        let c = Arc::new(ScanCoordinator::new());
        let master = c.enter(8, false);
        let seqs = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let c = Arc::clone(&c);
            let seqs = Arc::clone(&seqs);
            handles.push(thread::spawn(move || {
                let role = c.enter(8, false);
                if let ScanRole::Piggyback(seq) = role {
                    seqs.lock().push(seq);
                }
                c.exit(role);
            }));
        }
        thread::sleep(Duration::from_millis(20));
        c.publish(99);
        c.exit(master);
        for h in handles {
            h.join().unwrap();
        }
        // All concurrent scans piggybacked on seq 99 (or became masters
        // after the chain died; with the master held until publish, at
        // least one must have reused 99).
        assert!(seqs.lock().iter().all(|&s| s == 99));
    }

    // --- the protocol, through the store ---

    use std::ops::ControlFlow;
    use std::sync::atomic::AtomicBool;

    use crate::store::tests::{db, k};
    use crate::{FloDb, FloDbOptions, KvStore};

    #[test]
    fn scan_returns_sorted_range() {
        let db = db();
        for i in [5u64, 1, 9, 3, 7] {
            db.put(&k(i), &i.to_le_bytes()).unwrap();
        }
        let out = db.scan(&k(2), &k(8));
        let keys: Vec<u64> = out
            .iter()
            .map(|(key, _)| u64::from_be_bytes(key.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![3, 5, 7]);
    }

    #[test]
    fn scan_sees_membuffer_writes_via_drain() {
        // Entries that only ever lived in the Membuffer must still appear:
        // the master scan drains them first.
        let db = db();
        db.put(&k(1), b"one").unwrap();
        db.put(&k(2), b"two").unwrap();
        let out = db.scan(&k(0), &k(10));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, b"one".to_vec());
    }

    #[test]
    fn scan_merges_memory_and_disk() {
        let db = db();
        for i in 0..20u64 {
            db.put(&k(i), b"disk").unwrap();
        }
        db.flush_all();
        db.put(&k(5), b"fresh").unwrap();
        db.delete(&k(6)).unwrap();
        let out = db.scan(&k(0), &k(19));
        assert_eq!(out.len(), 19, "deleted key must vanish");
        let five = out
            .iter()
            .find(|(key, _)| key.as_slice() == k(5))
            .unwrap();
        assert_eq!(five.1, b"fresh".to_vec());
    }

    #[test]
    fn empty_scan() {
        let db = db();
        assert!(db.scan(&k(0), &k(100)).is_empty());
    }

    #[test]
    fn scan_with_early_break_stops_emission() {
        let db = db();
        for i in 0..20u64 {
            db.put(&k(i), b"v").unwrap();
        }
        let mut seen = Vec::new();
        db.scan_with(&k(0), &k(19), &mut |key, _| {
            seen.push(key.to_vec());
            if seen.len() == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4], k(4).to_vec());
        // The counter reflects emitted keys, not the full range.
        assert_eq!(db.stats().scanned_keys, 5);
    }

    #[test]
    fn concurrent_scans_and_writes_are_consistent() {
        let db = Arc::new(db());
        for i in 0..100u64 {
            db.put(&k(i), &0u64.to_le_bytes()).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..100u64 {
                        db.put(&k(i), &round.to_le_bytes()).unwrap();
                    }
                    round += 1;
                }
            })
        };
        for _ in 0..20 {
            let out = db.scan(&k(0), &k(99));
            // Serializable snapshot: all 100 keys present; values form a
            // consistent cut (each key's round within 1 generation of the
            // minimum is NOT guaranteed, but presence and order are).
            assert_eq!(out.len(), 100);
            for w in out.windows(2) {
                assert!(w[0].0 < w[1].0, "scan must be sorted");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn linearizable_scan_mode() {
        let mut opts = FloDbOptions::small_for_tests();
        opts.linearizable_scans = true;
        let db = FloDb::open(opts).unwrap();
        db.put(b"x", b"1").unwrap();
        let out = db.scan(b"a", b"z");
        assert_eq!(out.len(), 1);
        // A linearizable scan must reflect every prior put.
        db.put(b"y", b"2").unwrap();
        let out = db.scan(b"a", b"z");
        assert_eq!(out.len(), 2);
    }
}
