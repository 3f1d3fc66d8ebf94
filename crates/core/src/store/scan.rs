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
//! does not grow stale without bound. Every scan then merges MTB, IMM_MTB
//! and the disk through one [`MergeCursor`] into a [`ScanArena`] that
//! holds the live winner of each key; a winner fresher than the scan's
//! sequence number forces a restart, and a bounded number of restarts ends
//! in the fallback. Only a validated range is emitted.

use std::ops::ControlFlow;

use flodb_memtable::SkipListIter;
use flodb_storage::merge::{MergeCursor, MergeSource, ScanSource};
use flodb_storage::{DiskComponent, RecordRef};
use flodb_sync::lock_order::SCAN_COORDINATOR;
use flodb_sync::shim::{ranked_condvar, ranked_mutex, Condvar, Mutex};

use super::Inner;
use crate::stats::FloDbStats;
use crate::telemetry::OpClass;
use crate::view::MemView;

/// Scan outcome signalling that a concurrent update invalidated the scan.
struct Restart;

/// Scan restarts tolerated before the writer-blocking fallback
/// (RESTART_THRESHOLD in Algorithm 3).
const SCAN_RESTART_THRESHOLD: u32 = 8;

/// Maximum piggybacking-chain length before a scan must establish a fresh
/// sequence number (§4.4).
const PIGGYBACK_CHAIN_LIMIT: u32 = 8;

/// A scan's validated range: the live winner of each key, in key order,
/// copied once — from the skiplist node or the block buffer it was read
/// from — into one byte arena that the emission hands out slices of. It is
/// held whole because a scan validates all of it before the visitor sees
/// its first entry: a restart could not take back a partial emission.
#[derive(Debug)]
struct ScanArena {
    bytes: Vec<u8>,
    /// Per entry, where its key and its value end in `bytes`; each entry
    /// starts where the one before it ends.
    ends: Vec<(usize, usize)>,
}

impl ScanArena {
    /// Room for a range of a hundred-odd small entries before either
    /// vector has to grow.
    fn new() -> Self {
        Self {
            bytes: Vec::with_capacity(16 << 10),
            ends: Vec::with_capacity(256),
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Copies one entry in, after every entry of a smaller key.
    fn absorb(&mut self, key: &[u8], value: &[u8]) {
        self.bytes.extend_from_slice(key);
        let key_end = self.bytes.len();
        self.bytes.extend_from_slice(value);
        self.ends.push((key_end, self.bytes.len()));
    }

    /// Streams the entries to `visitor`, in key order, until it breaks;
    /// returns how many it was handed.
    fn emit(&self, visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>) -> u64 {
        let (mut start, mut emitted) = (0, 0);
        for &(key_end, end) in &self.ends {
            emitted += 1;
            if visitor(&self.bytes[start..key_end], &self.bytes[key_end..end]).is_break() {
                break;
            }
            start = end;
        }
        emitted
    }
}

/// A Memtable as a merge source: the skiplist cursor, each entry read as
/// its current version, borrowed under the iterator's epoch guard. A flush
/// streams its Memtable through it too.
pub(super) struct MemtableSource<'a>(pub(super) SkipListIter<'a>);

impl MergeSource for MemtableSource<'_> {
    fn valid(&self) -> bool {
        self.0.valid()
    }

    fn record(&self) -> RecordRef<'_> {
        let version = self.0.value_ref();
        RecordRef {
            key: self.0.key(),
            seq: version.seq,
            value: version.value.as_deref(),
        }
    }

    fn next(&mut self) -> flodb_storage::Result<()> {
        self.0.next();
        Ok(())
    }
}

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

    /// Admits a scan into a chain of at most `chain_limit` piggybackers.
    ///
    /// With a limit of 0 every scan becomes a fresh master (waiting for
    /// the running one to finish), which makes all scans linearizable with
    /// respect to updates at the cost of a drain per scan (§4.4).
    fn enter(&self, chain_limit: u32) -> ScanRole {
        let mut st = self.state.lock();
        loop {
            if let Some(seq) = st.published_seq {
                if st.active > 0 && st.chain_len < chain_limit {
                    st.chain_len += 1;
                    st.active += 1;
                    return ScanRole::Piggyback(seq);
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
        let range = self.scan_impl(low, high);
        self.record_op(OpClass::Scan, t0);
        FloDbStats::bump(&self.stats.scans);
        FloDbStats::add(&self.stats.scanned_keys, range.emit(visitor));
    }

    /// Runs the restart protocol to a validated snapshot of the range.
    ///
    /// The range is only handed out once an attempt validates (no entry
    /// fresher than the scan stamp was seen), so callers can stream it to
    /// a visitor without ever re-emitting across restarts; a restarted
    /// attempt refills the same arena.
    fn scan_impl(&self, low: &[u8], high: &[u8]) -> ScanArena {
        let mut range = ScanArena::new();
        let mut restarts = 0u32;
        // A linearizable scan joins no chain: every one is a master.
        let chain_limit = if self.opts.linearizable_scans {
            0
        } else {
            PIGGYBACK_CHAIN_LIMIT
        };
        loop {
            let role = self.coord.enter(chain_limit);
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
            let result = self.collect_range(low, high, scan_seq, &mut range);
            self.coord.exit(role);
            match result {
                Ok(()) => return range,
                Err(Restart) => {
                    FloDbStats::bump(&self.stats.scan_restarts);
                    restarts += 1;
                    if restarts >= SCAN_RESTART_THRESHOLD {
                        self.fallback_scan(low, high, &mut range);
                        return range;
                    }
                }
            }
        }
    }

    fn collect_range(
        &self,
        low: &[u8],
        high: &[u8],
        scan_seq: u64,
        range: &mut ScanArena,
    ) -> Result<(), Restart> {
        let view = self.view.snapshot();
        // PANIC-OK: same contract as `get` — the scan path is infallible
        // until fallible reads land (ROADMAP item 3), so a disk error aborts.
        collect_range(&view, &self.disk, low, high, scan_seq, range).expect("disk scan failed")
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
    fn fallback_scan(&self, low: &[u8], high: &[u8], range: &mut ScanArena) {
        FloDbStats::bump(&self.stats.fallback_scans);
        self.freeze_window(|spare| loop {
            self.freeze_and_drain_membuffer(spare);
            let seq = self.seq.next();
            // A restart here means a writer slipped in between our pause
            // and its own pause check; the population of such racers is
            // bounded by the thread count, so retrying terminates.
            if self.collect_range(low, high, seq, range).is_ok() {
                break;
            }
        })
    }
}

/// Algorithm 3, lines 15-30: merge MTB, IMM_MTB and the disk into `range`
/// (cleared first), restarting on any entry fresher than the scan stamp.
/// Every source lends its records; the arena's copy of a live winner is the
/// only one made. `view` must be older than the disk version read here: a
/// table flushed in between is then read twice (same records), never missed.
fn collect_range(
    view: &MemView,
    disk: &DiskComponent,
    low: &[u8],
    high: &[u8],
    scan_seq: u64,
    range: &mut ScanArena,
) -> flodb_storage::Result<Result<(), Restart>> {
    range.clear();
    let mut sources = Vec::with_capacity(2);
    for list in [Some(&view.mtb), view.imm_mtb.as_ref()].into_iter().flatten() {
        let mut it = list.iter();
        it.seek(low);
        sources.push(ScanSource::Memory(MemtableSource(it)));
    }
    let _pinned = disk.range_sources(low, high, &mut sources)?;
    let mut merged = MergeCursor::new(sources, u64::MAX)?;
    while let Some(record) = merged.next_merged()?.filter(|r| r.key <= high) {
        // A key with any version above the stamp has its winner above it.
        if record.seq > scan_seq {
            return Ok(Err(Restart));
        }
        if let Some(value) = record.value {
            range.absorb(record.key, value);
        }
    }
    Ok(Ok(()))
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
        let role = c.enter(8);
        assert_eq!(role, ScanRole::Master);
        c.publish(5);
        c.exit(role);
        assert_eq!(c.active_scans(), 0);
    }

    #[test]
    fn second_scan_piggybacks_on_published_seq() {
        let c = ScanCoordinator::new();
        let master = c.enter(8);
        c.publish(42);
        let second = c.enter(8);
        assert_eq!(second, ScanRole::Piggyback(42));
        c.exit(second);
        c.exit(master);
    }

    #[test]
    fn chain_ends_when_all_scans_exit() {
        let c = ScanCoordinator::new();
        let master = c.enter(8);
        c.publish(42);
        c.exit(master);
        // No active scan remains: the next scan must be a master.
        let next = c.enter(8);
        assert_eq!(next, ScanRole::Master);
        c.exit(next);
    }

    /// A full chain sends the next scan to the master slot, where it waits
    /// for the running master: after one piggybacker with a limit of 1,
    /// and at once with a limit of 0 (linearizable mode never piggybacks).
    #[test]
    fn chain_limit_forces_new_master() {
        for limit in [1, 0] {
            let c = Arc::new(ScanCoordinator::new());
            let master = c.enter(limit);
            c.publish(7);
            let chain: Vec<_> = (0..limit).map(|_| c.enter(limit)).collect();
            assert!(chain.iter().all(|&role| role == ScanRole::Piggyback(7)));
            let got_master = Arc::new(AtomicU32::new(0));
            let waiter = {
                let c = Arc::clone(&c);
                let got_master = Arc::clone(&got_master);
                thread::spawn(move || {
                    let role = c.enter(limit);
                    assert_eq!(role, ScanRole::Master);
                    got_master.store(1, Ordering::SeqCst);
                    c.exit(role);
                })
            };
            thread::sleep(Duration::from_millis(30));
            assert_eq!(got_master.load(Ordering::SeqCst), 0, "limit {limit}");
            c.exit(master);
            waiter.join().unwrap();
            chain.into_iter().for_each(|role| c.exit(role));
        }
    }

    #[test]
    fn piggybackers_wait_for_publication() {
        let c = Arc::new(ScanCoordinator::new());
        let master = c.enter(8);
        let seqs = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let c = Arc::clone(&c);
            let seqs = Arc::clone(&seqs);
            handles.push(thread::spawn(move || {
                let role = c.enter(8);
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

    // --- the arena, against the owned merge it replaced ---

    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    use flodb_memtable::SkipList;
    use flodb_storage::compaction::CompactionConfig;
    use flodb_storage::{DiskOptions, MemEnv, Record};

    use crate::store::tests::k;

    type Owned = Vec<(Vec<u8>, Vec<u8>)>;

    /// The collection as it was before the arena: every version cloned
    /// into a `BTreeMap`, freshest wins, tombstones filtered at the end.
    fn reference(
        view: &MemView,
        disk: &DiskComponent,
        low: &[u8],
        high: &[u8],
        scan_seq: u64,
    ) -> Result<Owned, Restart> {
        let mut merged: BTreeMap<Box<[u8]>, (u64, Option<Box<[u8]>>)> = BTreeMap::new();
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
        for list in [Some(&view.mtb), view.imm_mtb.as_ref()].into_iter().flatten() {
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
        for record in disk.scan(low, high).unwrap() {
            if record.seq > scan_seq {
                return Err(Restart);
            }
            absorb(&record.key, record.seq, record.value);
        }
        Ok(merged
            .into_iter()
            .filter_map(|(key, (_, value))| Some((key.into_vec(), value?.into_vec())))
            .collect())
    }

    fn arena_scan(
        view: &MemView,
        disk: &DiskComponent,
        low: &[u8],
        high: &[u8],
        scan_seq: u64,
    ) -> Result<Owned, Restart> {
        let mut range = ScanArena::new();
        collect_range(view, disk, low, high, scan_seq, &mut range).unwrap()?;
        let mut out = Vec::new();
        range.emit(&mut |key, value| {
            out.push((key.to_vec(), value.to_vec()));
            ControlFlow::Continue(())
        });
        Ok(out)
    }

    /// A disk component whose first compaction lands in L2: one L0 file
    /// triggers, and the file is over L1's budget but under L2's.
    fn leveled_disk() -> DiskComponent {
        let opts = DiskOptions {
            compaction: CompactionConfig {
                l0_trigger: 1,
                base_level_bytes: 512,
                ..CompactionConfig::default()
            },
            ..DiskOptions::default()
        };
        DiskComponent::new(Arc::new(MemEnv::new(None)), opts)
    }

    fn view_of(mtb: SkipList, imm_mtb: Option<SkipList>) -> MemView {
        MemView {
            mbf: None,
            imm_mbf: None,
            mtb: Arc::new(mtb),
            imm_mtb: imm_mtb.map(Arc::new),
        }
    }

    #[test]
    fn arena_merges_mtb_imm_l0_and_l2_like_the_owned_merge() {
        let disk = leveled_disk();
        disk.flush_records((0..40).map(|i| Record::put(k(i), i + 1, vec![i as u8; 32])).collect())
            .unwrap();
        disk.compact_all().unwrap();
        let levels = disk.stats().files_per_level;
        assert_eq!((levels[0], levels[1], levels[2]), (0, 0, 1), "{levels:?}");
        disk.flush_records(vec![
            Record::put(k(5), 50, &b"l0"[..]),
            Record::tombstone(k(6), 51),
            Record::put(k(7), 52, &b"l0-7"[..]),
        ])
        .unwrap();
        assert_eq!(disk.stats().files_per_level[0], 1);

        let imm = SkipList::new();
        imm.insert(&k(5), Some(b"imm"), 60);
        imm.insert(&k(8), None, 61);
        imm.insert(&k(9), Some(b"imm-9"), 62);
        let mtb = SkipList::new();
        mtb.insert(&k(5), Some(b"mtb"), 70);
        mtb.insert(&k(10), None, 71);
        mtb.insert(&k(41), Some(b"mtb-only"), 72);
        let view = view_of(mtb, Some(imm));

        let (low, high) = (k(0), k(100));
        let got = arena_scan(&view, &disk, &low, &high, 100).ok().unwrap();
        assert_eq!(got, reference(&view, &disk, &low, &high, 100).ok().unwrap());
        let value_of = |key: u64| {
            got.iter()
                .find(|(found, _)| found.as_slice() == k(key))
                .map(|(_, v)| v.as_slice())
        };
        // One key in MTB, IMM_MTB, L0 and L2: the freshest wins.
        assert_eq!(value_of(5), Some(&b"mtb"[..]));
        assert_eq!(value_of(7), Some(&b"l0-7"[..]), "L0 over L2");
        assert_eq!(value_of(9), Some(&b"imm-9"[..]), "IMM_MTB over L2");
        assert_eq!(value_of(41), Some(&b"mtb-only"[..]));
        // Tombstones shadow: an L0 one, an IMM_MTB one, an MTB one.
        assert_eq!((value_of(6), value_of(8), value_of(10)), (None, None, None));
        assert_eq!(got.len(), 40 - 3 + 1);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "sorted, one entry per key");

        // An entry fresher than the stamp restarts, wherever it lives.
        assert!(arena_scan(&view, &disk, &low, &high, 71).is_err(), "MTB");
        assert!(arena_scan(&view, &disk, &k(6), &k(9), 61).is_err(), "IMM_MTB");
        let no_memory = view_of(SkipList::new(), None);
        assert!(arena_scan(&no_memory, &disk, &low, &high, 51).is_err(), "disk");
        assert!(reference(&no_memory, &disk, &low, &high, 51).is_err());
        // ...but only inside the range: [k(0), k(4)] never meets one.
        assert_eq!(arena_scan(&view, &disk, &k(0), &k(4), 40).ok().unwrap().len(), 5);
    }

    #[test]
    fn emission_stops_where_the_visitor_breaks() {
        let mtb = SkipList::new();
        for i in 0..10u64 {
            mtb.insert(&k(i), (i != 1).then_some(b"v"), i + 1);
        }
        let mut range = ScanArena::new();
        collect_range(&view_of(mtb, None), &leveled_disk(), &k(0), &k(9), 100, &mut range)
            .unwrap()
            .ok()
            .unwrap();
        let mut seen = Vec::new();
        let emitted = range.emit(&mut |key, _| {
            seen.push(key.to_vec());
            if seen.len() == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        // The tombstone at k(1) is skipped, not counted.
        assert_eq!(emitted, 3);
        assert_eq!(seen, [k(0).to_vec(), k(2).to_vec(), k(3).to_vec()]);
    }

    #[test]
    fn arena_matches_the_owned_merge_on_random_histories() {
        let mut x = 0xF10D_B5EEDu64;
        let mut rand = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for round in 0..40 {
            let disk = leveled_disk();
            let (imm, mtb) = (SkipList::new(), SkipList::new());
            let mut seq = 0u64;
            // Oldest to newest: flushes (compacted down now and then),
            // then the immutable Memtable, then the live one.
            for flush in 0..rand(4) {
                let batch = (0..1 + rand(60))
                    .map(|_| {
                        seq += 1;
                        match rand(4) {
                            0 => Record::tombstone(k(rand(64)), seq),
                            _ => Record::put(k(rand(64)), seq, vec![seq as u8; rand(40) as usize]),
                        }
                    })
                    .collect();
                disk.flush_records(batch).unwrap();
                if flush % 2 == 0 {
                    disk.compact_all().unwrap();
                }
            }
            for list in [&imm, &mtb] {
                for _ in 0..rand(50) {
                    seq += 1;
                    let value = vec![seq as u8; rand(40) as usize];
                    list.insert(&k(rand(64)), (rand(4) != 0).then_some(&value), seq);
                }
            }
            let view = view_of(mtb, (round % 3 != 0).then_some(imm));
            for _ in 0..8 {
                let low = k(rand(64));
                let high = k(rand(80));
                // Stamps around the newest sequence number: some scans
                // validate, some must restart.
                let stamp = seq.saturating_sub(rand(6)) + rand(3);
                let got = arena_scan(&view, &disk, &low, &high, stamp).ok();
                let want = reference(&view, &disk, &low, &high, stamp).ok();
                assert_eq!(got, want, "round {round}, [{low:?}, {high:?}] at {stamp}");
            }
        }
    }

    // --- the protocol, through the store ---

    use std::ops::ControlFlow;
    use std::sync::atomic::AtomicBool;

    use crate::store::tests::db;
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
