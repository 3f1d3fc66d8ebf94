//! The scan stage (Algorithm 3): admission, the stamp, and a streaming
//! read as of it.
//!
//! "A master scan is a scan that starts when no other scan is concurrently
//! running. A piggybacking scan is a scan that starts while some other scan
//! is concurrently running" (§4.4). The master freezes and drains the
//! Membuffer ([`Inner::freeze_window`]), stamps a sequence number and,
//! still inside the window, takes its [`ScanSnapshot`]; piggybackers reuse
//! it, in chains bounded so the stamp does not grow stale without bound.
//! The coordinator publishes the oldest live stamp — the *horizon* — to
//! every Memtable of the store, whose updates keep the versions a live
//! stamp reads (`flodb_memtable`'s "Version chains"). So a scan streams
//! each key's newest version at or below its stamp straight to its
//! visitor, in one pass: nothing restarts (ARCHITECTURE.md "Scan contract").

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use flodb_memtable::{SkipList, SkipListIter};
use flodb_storage::merge::{MergeCursor, MergeSource, ScanSource};
use flodb_storage::version::Version;
use flodb_storage::{DiskComponent, RecordRef};
use flodb_sync::lock_order::SCAN_COORDINATOR;
use flodb_sync::shim::atomic::{AtomicU64, Ordering};
use flodb_sync::shim::{ranked_condvar, ranked_mutex, Arc, Condvar, Mutex};

use super::Inner;
use crate::stats::FloDbStats;
use crate::telemetry::OpClass;

/// Maximum piggybacking-chain length before a scan must establish a fresh
/// sequence number (§4.4).
const PIGGYBACK_CHAIN_LIMIT: u32 = 8;

/// A Memtable as a merge source: the skiplist cursor, each entry borrowed
/// as of a stamp (`SkipListIter::value_at`; the cursor's bound skips what
/// is above it). A flush streams its Memtable through it at `u64::MAX`.
pub(super) struct MemtableSource<'a>(pub(super) SkipListIter<'a>, pub(super) u64);

impl MergeSource for MemtableSource<'_> {
    fn valid(&self) -> bool {
        self.0.valid()
    }

    fn record(&self) -> RecordRef<'_> {
        let version = self.0.value_at(self.1);
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

/// What a scan reads, taken in the master's freeze window right after the
/// stamp; no Membuffer, as the freeze drained it into the Memtable.
#[derive(Debug)]
pub(super) struct ScanSnapshot {
    stamp: u64,
    mtb: Arc<SkipList>,
    imm_mtb: Option<Arc<SkipList>>,
    /// Read after the Memtables: a table flushed in between is then read
    /// twice (same records), never missed.
    disk: Arc<Version>,
}

impl ScanSnapshot {
    /// Algorithm 3, lines 15-30, as of the stamp: merges MTB, IMM_MTB and
    /// the disk, handing each live winner in `[low, high]` to `visitor`
    /// until it breaks; returns how many it was handed.
    fn stream(
        &self,
        disk: &DiskComponent,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) -> flodb_storage::Result<u64> {
        let mut sources = Vec::with_capacity(2);
        for list in std::iter::once(&self.mtb).chain(&self.imm_mtb) {
            let mut it = list.iter();
            it.seek(low);
            sources.push(ScanSource::Memory(MemtableSource(it, self.stamp)));
        }
        disk.range_sources(&self.disk, low, high, &mut sources)?;
        let mut merged = MergeCursor::new(sources, self.stamp)?;
        let mut emitted = 0;
        while let Some(record) = merged.next_merged()?.filter(|r| r.key <= high) {
            if let Some(value) = record.value {
                emitted += 1;
                if visitor(record.key, value).is_break() {
                    break;
                }
            }
        }
        Ok(emitted)
    }
}

#[derive(Debug, Default)]
struct ScanState {
    /// A master is between its admission and its publication.
    master_active: bool,
    /// The running chain's snapshot, while a scan reads it.
    chain: Option<Arc<ScanSnapshot>>,
    /// Piggybackers admitted into the running chain.
    chain_len: u32,
    /// Every live stamp with the scans reading at it: the running chain's,
    /// and those of older chains' stragglers.
    live: BTreeMap<u64, u32>,
}

/// Admission control for scans, and the registry of live stamps.
#[derive(Debug)]
pub(super) struct ScanCoordinator {
    state: Mutex<ScanState>,
    cv: Condvar,
    /// The oldest live stamp (`u64::MAX`: no scan is live), which every
    /// Memtable of the store reads before an in-place update.
    horizon: Arc<AtomicU64>,
}

/// A running scan, whose stamp holds the horizon down until it drops.
pub(super) struct LiveScan<'a> {
    coord: &'a ScanCoordinator,
    snapshot: Arc<ScanSnapshot>,
}

impl Drop for LiveScan<'_> {
    fn drop(&mut self) {
        self.coord.exit(self.snapshot.stamp);
    }
}

impl ScanCoordinator {
    /// Creates an idle coordinator.
    pub(super) fn new() -> Self {
        Self {
            state: ranked_mutex(SCAN_COORDINATOR, ScanState::default()),
            cv: ranked_condvar(SCAN_COORDINATOR),
            horizon: Arc::new(AtomicU64::new(u64::MAX)),
        }
    }

    /// An empty Memtable that keeps what this coordinator's live scans
    /// read.
    pub(super) fn memtable(&self) -> SkipList {
        SkipList::with_horizon(Arc::clone(&self.horizon))
    }

    /// Admits a scan into the running chain of at most `chain_limit`
    /// piggybackers, or else (`None`) as the master, which must
    /// [`Self::publish`]. A limit of 0 makes every scan a master: all are
    /// linearizable, at the cost of a drain per scan (§4.4).
    fn enter(&self, chain_limit: u32) -> Option<LiveScan<'_>> {
        let mut st = self.state.lock();
        loop {
            if let Some(chain) = st.chain.clone().filter(|_| st.chain_len < chain_limit) {
                st.chain_len += 1;
                *st.live.entry(chain.stamp).or_default() += 1;
                return Some(LiveScan { coord: self, snapshot: chain });
            }
            if !st.master_active {
                st.master_active = true;
                st.chain = None;
                st.chain_len = 0;
                return None;
            }
            self.cv.wait(&mut st);
        }
    }

    /// Publishes the master's snapshot as the running chain's, lowers the
    /// horizon to its stamp and gives up the master slot. Call inside the
    /// freeze window that minted the stamp, before Memtable updates resume.
    fn publish(&self, snapshot: ScanSnapshot) -> LiveScan<'_> {
        let snapshot = Arc::new(snapshot);
        let mut st = self.state.lock();
        debug_assert!(st.master_active);
        st.master_active = false;
        st.chain = Some(Arc::clone(&snapshot));
        st.live.insert(snapshot.stamp, 1);
        self.store_horizon(&st);
        self.cv.notify_all();
        LiveScan { coord: self, snapshot }
    }

    /// Records a scan stamped `stamp` finishing.
    fn exit(&self, stamp: u64) {
        let mut st = self.state.lock();
        // Every `LiveScan` drops once, so its stamp is registered.
        let Some(scans) = st.live.get_mut(&stamp) else { return };
        *scans -= 1;
        if *scans == 0 {
            st.live.remove(&stamp);
            // The chain dies with its last member: a later scan must
            // re-establish freshness.
            if st.chain.as_ref().is_some_and(|chain| chain.stamp == stamp) {
                st.chain = None;
                st.chain_len = 0;
            }
            self.store_horizon(&st);
        }
    }

    fn store_horizon(&self, st: &ScanState) {
        let oldest = st.live.keys().next().copied().unwrap_or(u64::MAX);
        // ORDERING: pairs with the Memtable update's SeqCst load. A lower
        // horizon is stored before the freeze resumes the writers (whose
        // pause check is SeqCst too); a higher one after the scan's reads,
        // so an update that sees it cuts nothing that scan still reads.
        self.horizon.store(oldest, Ordering::SeqCst);
    }
}

impl Inner {
    /// The body of `KvStore::scan_with`: admission, then one streamed
    /// pass. The [`OpClass::Scan`] sample covers both, the caller's
    /// visitor included.
    pub(super) fn scan_with(
        &self,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) {
        let t0 = self.full_timer();
        let scan = self.admit_scan();
        // PANIC-OK: same contract as `get` — the scan path is infallible
        // until fallible reads land (ROADMAP item 3), so a disk error aborts.
        let emitted = scan.snapshot.stream(&self.disk, low, high, visitor).expect("disk scan failed");
        self.record_op(OpClass::Scan, t0);
        FloDbStats::bump(&self.stats.scans);
        FloDbStats::add(&self.stats.scanned_keys, emitted);
    }

    /// Admits a scan: into the running chain, or as the master that
    /// freezes, drains and stamps a fresh snapshot.
    fn admit_scan(&self) -> LiveScan<'_> {
        // A linearizable scan joins no chain: every one is a master.
        let chain_limit = if self.opts.linearizable_scans { 0 } else { PIGGYBACK_CHAIN_LIMIT };
        if let Some(scan) = self.coord.enter(chain_limit) {
            FloDbStats::bump(&self.stats.piggyback_scans);
            return scan;
        }
        FloDbStats::bump(&self.stats.master_scans);
        // Algorithm 3, lines 4-14: freeze, swap, drain, stamp (line 12:
        // the scan's linearization point), snapshot, unfreeze.
        self.freeze_window(|spare| {
            self.freeze_and_drain_membuffer(spare);
            let stamp = self.seq.next();
            let (mtb, imm_mtb) = self.view.read(|v| (Arc::clone(&v.mtb), v.imm_mtb.clone()));
            let disk = self.disk.version();
            self.coord.publish(ScanSnapshot { stamp, mtb, imm_mtb, disk })
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;
    use std::thread;
    use std::time::Duration;

    use flodb_storage::compaction::CompactionConfig;
    use flodb_storage::{DiskOptions, MemEnv, Record};

    use super::*;
    use crate::store::tests::k;

    fn snapshot(stamp: u64) -> ScanSnapshot {
        ScanSnapshot {
            stamp,
            mtb: Arc::new(SkipList::new()),
            imm_mtb: None,
            disk: Arc::new(Version::default()),
        }
    }

    fn horizon(c: &ScanCoordinator) -> u64 {
        c.horizon.load(Ordering::SeqCst)
    }

    #[test]
    fn first_scan_is_master_and_holds_the_horizon() {
        let c = ScanCoordinator::new();
        assert!(c.enter(8).is_none());
        let scan = c.publish(snapshot(5));
        assert_eq!(horizon(&c), 5);
        drop(scan);
        assert_eq!(horizon(&c), u64::MAX);
        assert!(c.state.lock().live.is_empty());
    }

    #[test]
    fn second_scan_piggybacks_on_the_published_snapshot() {
        let c = ScanCoordinator::new();
        assert!(c.enter(8).is_none());
        let master = c.publish(snapshot(42));
        let second = c.enter(8).expect("a piggybacker");
        assert!(Arc::ptr_eq(&master.snapshot, &second.snapshot));
        drop(master);
        assert_eq!(horizon(&c), 42, "the piggybacker still reads at 42");
        drop(second);
        assert_eq!(horizon(&c), u64::MAX);
    }

    #[test]
    fn chain_ends_when_all_scans_exit() {
        let c = ScanCoordinator::new();
        assert!(c.enter(8).is_none());
        drop(c.publish(snapshot(42)));
        // No scan reads the chain any more: the next scan must be a master.
        assert!(c.enter(8).is_none());
    }

    /// A full chain makes the next scan a master at once — the running one
    /// gave up the slot when it published — and the old chain's scans
    /// straggle on, holding the horizon at their older stamp. With a
    /// limit of 0 (linearizable mode) no scan ever piggybacks.
    #[test]
    fn a_full_chain_starts_a_new_master_while_stragglers_hold_the_horizon() {
        for limit in [1, 0] {
            let c = ScanCoordinator::new();
            assert!(c.enter(limit).is_none());
            let master = c.publish(snapshot(7));
            let chain: Vec<_> = (0..limit).map(|_| c.enter(limit).unwrap()).collect();
            assert!(chain.iter().all(|scan| scan.snapshot.stamp == 7));
            assert!(c.enter(limit).is_none(), "limit {limit}");
            let fresh = c.publish(snapshot(9));
            assert_eq!(horizon(&c), 7);
            drop(master);
            drop(chain);
            assert_eq!(horizon(&c), 9, "limit {limit}");
            drop(fresh);
            assert_eq!(horizon(&c), u64::MAX);
        }
    }

    #[test]
    fn piggybackers_wait_for_publication() {
        let c = ScanCoordinator::new();
        assert!(c.enter(8).is_none());
        let joined = AtomicU32::new(0);
        thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let scan = c.enter(8).expect("the master holds its slot until it publishes");
                    assert_eq!(scan.snapshot.stamp, 99);
                    joined.fetch_add(1, Ordering::SeqCst);
                });
            }
            thread::sleep(Duration::from_millis(20));
            assert_eq!(joined.load(Ordering::SeqCst), 0);
            let master = c.publish(snapshot(99));
            while joined.load(Ordering::SeqCst) < 3 {
                thread::yield_now();
            }
            drop(master);
        });
        assert_eq!(horizon(&c), u64::MAX);
    }

    // --- the streaming read, against a model that keeps every version ---

    /// Every version of every key; a read as of a stamp takes each key's
    /// newest at or below it and drops tombstones.
    #[derive(Default)]
    struct Reference(BTreeMap<Vec<u8>, Vec<(u64, Option<Vec<u8>>)>>);

    type Owned = Vec<(Vec<u8>, Vec<u8>)>;

    impl Reference {
        fn write(&mut self, key: &[u8], seq: u64, value: Option<&[u8]>) {
            self.0.entry(key.to_vec()).or_default().push((seq, value.map(<[u8]>::to_vec)));
        }

        fn read(&self, low: &[u8], high: &[u8], stamp: u64) -> Owned {
            self.0
                .range(low.to_vec()..)
                .take_while(|(key, _)| key.as_slice() <= high)
                .filter_map(|(key, versions)| {
                    let newest = versions.iter().filter(|(seq, _)| *seq <= stamp).max_by_key(|v| v.0);
                    Some((key.clone(), newest?.1.clone()?))
                })
                .collect()
        }
    }

    fn stream_all(snap: &ScanSnapshot, disk: &DiskComponent, low: &[u8], high: &[u8]) -> Owned {
        let mut out = Vec::new();
        snap.stream(disk, low, high, &mut |key, value| {
            out.push((key.to_vec(), value.to_vec()));
            ControlFlow::Continue(())
        })
        .unwrap();
        out
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

    fn snapshot_of(stamp: u64, mtb: &Arc<SkipList>, imm: Option<&Arc<SkipList>>, disk: &DiskComponent) -> ScanSnapshot {
        ScanSnapshot { stamp, mtb: Arc::clone(mtb), imm_mtb: imm.cloned(), disk: disk.version() }
    }

    #[test]
    fn stream_merges_mtb_imm_l0_and_l2_as_of_the_stamp() {
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

        let imm = Arc::new(SkipList::new());
        imm.insert(&k(5), Some(b"imm"), 60);
        imm.insert(&k(8), None, 61);
        imm.insert(&k(9), Some(b"imm-9"), 62);
        let mtb = Arc::new(SkipList::new());
        mtb.insert(&k(5), Some(b"mtb"), 70);
        mtb.insert(&k(10), None, 71);
        mtb.insert(&k(41), Some(b"mtb-only"), 72);

        let (low, high) = (k(0), k(100));
        let got = stream_all(&snapshot_of(100, &mtb, Some(&imm), &disk), &disk, &low, &high);
        let value_of = |got: &Owned, key: u64| {
            got.iter()
                .find(|(found, _)| found.as_slice() == k(key))
                .map(|(_, v)| v.clone())
        };
        // One key in MTB, IMM_MTB, L0 and L2: the freshest wins.
        assert_eq!(value_of(&got, 5), Some(b"mtb".to_vec()));
        assert_eq!(value_of(&got, 7), Some(b"l0-7".to_vec()), "L0 over L2");
        assert_eq!(value_of(&got, 9), Some(b"imm-9".to_vec()), "IMM_MTB over L2");
        assert_eq!(value_of(&got, 41), Some(b"mtb-only".to_vec()));
        // Tombstones shadow: an L0 one, an IMM_MTB one, an MTB one.
        assert_eq!((value_of(&got, 6), value_of(&got, 8), value_of(&got, 10)), (None, None, None));
        assert_eq!(got.len(), 40 - 3 + 1);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "sorted, one entry per key");

        // Entries above the stamp are skipped, wherever they live.
        let at_70 = stream_all(&snapshot_of(70, &mtb, Some(&imm), &disk), &disk, &low, &high);
        assert_eq!(value_of(&at_70, 10), Some(vec![10; 32]), "MTB tombstone at 71");
        assert_eq!(value_of(&at_70, 41), None, "MTB insert at 72");
        let at_60 = stream_all(&snapshot_of(60, &mtb, Some(&imm), &disk), &disk, &low, &high);
        assert_eq!(value_of(&at_60, 5), Some(b"imm".to_vec()));
        assert_eq!(value_of(&at_60, 9), Some(vec![9; 32]), "IMM_MTB insert at 62");
    }

    #[test]
    fn streaming_stops_where_the_visitor_breaks() {
        let mtb = Arc::new(SkipList::new());
        for i in 0..10u64 {
            mtb.insert(&k(i), (i != 1).then_some(b"v"), i + 1);
        }
        let disk = leveled_disk();
        let mut seen = Vec::new();
        let emitted = snapshot_of(100, &mtb, None, &disk)
            .stream(&disk, &k(0), &k(9), &mut |key, _| {
                seen.push(key.to_vec());
                if seen.len() == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        // The tombstone at k(1) is skipped, not counted.
        assert_eq!(emitted, 3);
        assert_eq!(seen, [k(0).to_vec(), k(2).to_vec(), k(3).to_vec()]);
    }

    /// Random histories — flushes (compacted down now and then), then the
    /// immutable Memtable, then the live one, with in-place updates
    /// throughout — under a horizon that scans move as they come and go:
    /// a stamp minted now lowers it from `u64::MAX` or raises it, and the
    /// last scan's exit clears it. Scans at random stamps at or above the
    /// final horizon read what the all-versions reference reads.
    #[test]
    fn streaming_matches_the_all_versions_reference_on_random_histories() {
        let mut x = 0xF10D_B5EEDu64;
        let mut rand = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for round in 0..60 {
            let disk = leveled_disk();
            let mut reference = Reference::default();
            let coord = ScanCoordinator::new();
            let (imm, mtb) = (Arc::new(coord.memtable()), Arc::new(coord.memtable()));
            let mut seq = 0u64;
            for flush in 0..rand(4) {
                let batch = (0..1 + rand(60))
                    .map(|_| {
                        seq += 1;
                        let key = k(rand(24));
                        let value = vec![seq as u8; rand(40) as usize];
                        let record = match rand(4) {
                            0 => Record::tombstone(key, seq),
                            _ => Record::put(key, seq, value),
                        };
                        reference.write(&record.key, seq, record.value.as_deref());
                        record
                    })
                    .collect();
                disk.flush_records(batch).unwrap();
                if flush % 2 == 0 {
                    disk.compact_all().unwrap();
                }
            }
            let with_imm = round % 3 != 0;
            for list in [&imm, &mtb].into_iter().skip(usize::from(!with_imm)) {
                for _ in 0..rand(80) {
                    if rand(6) == 0 {
                        let stamp = match rand(3) {
                            0 => u64::MAX,
                            _ => seq + 1,
                        };
                        coord.horizon.store(stamp, Ordering::SeqCst);
                    }
                    seq += 1;
                    let (key, value) = (k(rand(24)), vec![seq as u8; rand(40) as usize]);
                    let value = (rand(4) != 0).then_some(value.as_slice());
                    list.insert(&key, value, seq);
                    reference.write(&key, seq, value);
                }
            }
            let horizon = coord.horizon.load(Ordering::SeqCst);
            let imm = with_imm.then_some(&imm);
            for _ in 0..8 {
                let (low, high) = (k(rand(24)), k(rand(30)));
                let stamp = match horizon {
                    u64::MAX => seq + rand(2),
                    h => h + rand(seq + 2 - h),
                };
                let got = stream_all(&snapshot_of(stamp, &mtb, imm, &disk), &disk, &low, &high);
                let want = reference.read(&low, &high, stamp);
                assert_eq!(got, want, "round {round}, [{low:?}, {high:?}] at {stamp}, horizon {horizon}");
            }
        }
    }

    // --- the protocol, through the store ---

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

    /// A visitor may call back into the store it scans — a put, a get,
    /// a nested scan — in either scan mode: the scan holds no lock while
    /// it streams, and the master gave up its slot when it published.
    #[test]
    fn a_visitor_can_put_get_and_scan_the_store_it_scans() {
        for linearizable in [false, true] {
            let mut opts = FloDbOptions::small_for_tests();
            opts.linearizable_scans = linearizable;
            let db = FloDb::open(opts).unwrap();
            for i in 0..10u64 {
                db.put(&k(i), b"before").unwrap();
            }
            let mut seen = 0;
            db.scan_with(&k(0), &k(9), &mut |key, value| {
                assert_eq!(value, b"before", "the outer scan reads as of its stamp");
                db.put(key, b"during").unwrap();
                assert_eq!(db.get(key), Some(b"during".to_vec()));
                let inner = db.scan(&k(0), &k(9));
                assert_eq!(inner.len(), 10);
                seen += 1;
                ControlFlow::Continue(())
            });
            assert_eq!(seen, 10, "linearizable: {linearizable}");
            assert!(db.scan(&k(0), &k(9)).iter().all(|(_, v)| v == b"during"));
            let stats = db.stats();
            assert_eq!((stats.scan_restarts, stats.fallback_scans), (0, 0));
        }
    }

    /// A Memtable switch in the middle of a scan, in either scan mode: the
    /// visitor rewrites every key but one, which it deletes, and forces a
    /// flush on the first key it sees, so the snapshot's Memtable is
    /// switched, flushed and released while the scan streams it. The scan
    /// still reads every key as of its stamp; a scan after it reads the new
    /// state.
    #[test]
    fn a_memtable_switch_mid_scan_leaves_the_stream_at_its_stamp() {
        for linearizable in [false, true] {
            let mut opts = FloDbOptions::small_for_tests();
            opts.linearizable_scans = linearizable;
            let db = FloDb::open(opts).unwrap();
            for i in 0..200u64 {
                db.put(&k(i), b"before").unwrap();
            }
            let persists = db.stats().persists;
            let mut seen = Vec::new();
            db.scan_with(&k(0), &k(199), &mut |key, value| {
                if key == k(7) {
                    db.delete(key).unwrap();
                } else {
                    db.put(key, b"after").unwrap();
                }
                if seen.is_empty() {
                    db.flush_all();
                    assert!(db.stats().persists > persists, "the flush switched nothing");
                }
                seen.push((key.to_vec(), value.to_vec()));
                ControlFlow::Continue(())
            });
            let want: Vec<_> = (0..200u64).map(|i| (k(i).to_vec(), b"before".to_vec())).collect();
            assert_eq!(seen, want, "linearizable: {linearizable}");
            let after = db.scan(&k(0), &k(199));
            assert_eq!(after.len(), 199, "linearizable: {linearizable}");
            assert!(after.iter().all(|(key, v)| key.as_slice() != k(7) && v == b"after"));
        }
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
