//! One closed-loop client thread: generates an operation, times the call
//! into the store, checks the reply, records the latency.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use benchkit::rng::Rng;
use flodb_core::{FloDb, KvStore};

use crate::gen::{self, Dist, CLIENTS, PRIVATE_MODULUS, VALUE_BYTES};

/// Operation classes, indexing every per-class array.
pub const PUT: usize = 0;
pub const GET: usize = 1;
pub const SCAN: usize = 2;
pub const CLASS_NAMES: [&str; 3] = ["put", "get", "scan"];
/// Keys one scan covers: `[2·lo, 2·lo + 198]`.
pub const SCAN_KEYS: u64 = 100;

/// What one client issues during the measured windows, in per mille of its
/// operations; the remainder after puts and gets are scans.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub put_pm: u64,
    pub get_pm: u64,
    pub dist: Dist,
    /// Per mille of gets aimed at a never-written odd key.
    pub absent_get_pm: u64,
}

impl Mix {
    pub fn issues(&self, class: usize) -> bool {
        match class {
            PUT => self.put_pm > 0,
            GET => self.get_pm > 0,
            _ => self.put_pm + self.get_pm < 1000,
        }
    }
}

/// Exact latencies of one class, in completion order. `marks[w]` is the
/// sample count when window edge `w` passed (edge 0 ends the warm-up).
#[derive(Debug, Default)]
pub struct Recorder {
    pub ns: Vec<u32>,
    /// Span starts in ns since the run's origin; traced runs only.
    pub start_ns: Option<Vec<u64>>,
    pub marks: Vec<usize>,
}

impl Recorder {
    /// Samples recorded between edges `w - 1` and `w`: window `w`, 1-based.
    pub fn window(&self, w: usize) -> &[u32] {
        &self.ns[self.marks[w - 1]..self.marks[w]]
    }

    /// Samples recorded in all the windows together.
    pub fn in_windows(&self) -> &[u32] {
        &self.ns[self.marks[0]..self.marks[self.marks.len() - 1]]
    }

    /// Samples recorded after the last window edge (the tail phases).
    pub fn tail(&self) -> &[u32] {
        &self.ns[self.marks.last().copied().unwrap_or(0)..]
    }
}

/// An empty vector with room for `n` elements whose pages have all been
/// written once, so pushing into it never faults a page in.
fn touched<T: Clone>(n: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; n];
    v.clear();
    v
}

pub struct Client {
    pub id: usize,
    k: u64,
    rng: Rng,
    writes: u64,
    /// Last acknowledged version of each private key, by `index / 64`.
    private_versions: Vec<u64>,
    value: [u8; VALUE_BYTES],
    origin: Instant,
    pub rec: [Recorder; 3],
    pub attempted: u64,
    pub failed: u64,
    /// Which part of the run is executing; names the failures it sees.
    pub phase: &'static str,
    /// What the first few failed operations saw, for the report.
    pub failures: Vec<String>,
}

/// Failed operations described in full; the rest are only counted.
const FAILURES_KEPT: usize = 8;

/// `Ok` or what was wrong with the reply.
type Checked = Result<(), String>;

impl Client {
    /// `capacity[class]` samples are allocated and touched up front so the
    /// measured loop never waits for the allocator or a page fault.
    pub fn new(
        id: usize,
        k: u64,
        seed: u64,
        origin: Instant,
        capacity: [usize; 3],
        spans: bool,
    ) -> Self {
        let private = (k + PRIVATE_MODULUS - 1 - id as u64) / PRIVATE_MODULUS;
        Self {
            id,
            k,
            rng: Rng::new(seed, id as u64),
            writes: 0,
            private_versions: vec![gen::LOAD_VERSION; private as usize],
            value: [0; VALUE_BYTES],
            origin,
            rec: std::array::from_fn(|c| Recorder {
                ns: touched(capacity[c], 1u32),
                start_ns: spans.then(|| touched(capacity[c], 1u64)),
                marks: Vec::new(),
            }),
            attempted: 0,
            failed: 0,
            phase: "windows",
            failures: Vec::new(),
        }
    }

    /// Counts one operation and, if it failed, keeps what it saw.
    fn count(&mut self, checked: Checked) {
        self.attempted += 1;
        if let Err(what) = checked {
            self.failed += 1;
            if self.failures.len() < FAILURES_KEPT {
                self.failures
                    .push(format!("client {} in {}: {what}", self.id, self.phase));
            }
        }
    }

    fn record(&mut self, class: usize, t0: Instant, t1: Instant, checked: Checked) {
        let rec = &mut self.rec[class];
        rec.ns
            .push(u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX));
        if let Some(starts) = &mut rec.start_ns {
            starts.push((t0 - self.origin).as_nanos() as u64);
        }
        self.count(checked);
    }

    /// Private keys this client owns.
    pub fn private_count(&self) -> u64 {
        self.private_versions.len() as u64
    }

    fn private_index(&self, slot: u64) -> u64 {
        slot * PRIVATE_MODULUS + self.id as u64
    }

    /// Writes a fresh version of `index` (moved onto an own key if it is
    /// another client's private one). A failed put is one that returned
    /// `Err`.
    fn put(&mut self, store: &FloDb, index: u64) -> (Instant, Instant, Checked) {
        let index = gen::own(index, self.id);
        // Unique across clients and above `LOAD_VERSION`.
        self.writes += 1;
        let version = self.writes * CLIENTS as u64 + self.id as u64 + gen::LOAD_VERSION;
        gen::fill_value(&mut self.value, index, version);
        let key = gen::key(index);
        let t0 = Instant::now();
        let result = store.put(&key, &self.value);
        let t1 = Instant::now();
        if result.is_ok() && index % PRIVATE_MODULUS == self.id as u64 {
            self.private_versions[(index / PRIVATE_MODULUS) as usize] = version;
        }
        (t0, t1, result.map_err(|e| format!("put {index}: {e}")))
    }

    /// The version a read of `index` must carry, when this client knows it.
    fn expected_version(&self, index: u64) -> Option<u64> {
        (index % PRIVATE_MODULUS == self.id as u64)
            .then(|| self.private_versions[(index / PRIVATE_MODULUS) as usize])
    }

    fn check(&self, value: &[u8], index: u64) -> Checked {
        match (gen::check_value(value, index), self.expected_version(index)) {
            (None, _) => Err(format!("key {index} holds a value that is not its own")),
            (Some(got), Some(want)) if got != want => Err(format!(
                "key {index} reads version {got}, last acknowledged is {want}"
            )),
            _ => Ok(()),
        }
    }

    /// A failed get returns `None` for a present key, `Some` for an absent
    /// one, or a value that fails the key/version/fill check.
    fn get(&mut self, store: &FloDb, index: u64, absent: bool) -> (Instant, Instant, Checked) {
        let key = if absent {
            gen::absent_key(index)
        } else {
            gen::key(index)
        };
        let t0 = Instant::now();
        let reply = store.get(&key);
        let t1 = Instant::now();
        let checked = match reply {
            None if absent => Ok(()),
            None => Err(format!("key {index} is gone")),
            Some(_) if absent => Err(format!("never-written odd key {index} reads a value")),
            Some(value) => self.check(&value, index),
        };
        (t0, t1, checked)
    }

    /// A failed scan is one that is not exactly the 100 even keys from
    /// `2·lo` in order, each with a value that passes the check.
    fn scan(&mut self, store: &FloDb, lo: u64) -> (Instant, Instant, Checked) {
        let (low, high) = (gen::key(lo), gen::key(lo + SCAN_KEYS - 1));
        let mut seen = 0u64;
        let mut checked = Ok(());
        let t0 = Instant::now();
        store.scan_with(&low, &high, &mut |key, value| {
            let index = lo + seen;
            let entry = if gen::key_index(key) == Some(index) {
                self.check(value, index)
            } else {
                Err(format!("entry {seen} is key {key:?}, not index {index}"))
            };
            if checked.is_ok() {
                checked = entry.map_err(|what| format!("scan from {lo}: {what}"));
            }
            seen += 1;
            ControlFlow::Continue(())
        });
        let t1 = Instant::now();
        if checked.is_ok() && seen != SCAN_KEYS {
            checked = Err(format!("scan from {lo}: {seen} entries, not {SCAN_KEYS}"));
        }
        (t0, t1, checked)
    }

    fn mark_edge(&mut self) {
        for rec in &mut self.rec {
            rec.marks.push(rec.ns.len());
        }
    }

    /// Runs `mix` in a closed loop from `start`: a warm-up, then `windows`
    /// windows. An operation belongs to the window it completes in.
    pub fn run_windows(
        &mut self,
        store: &FloDb,
        mix: Mix,
        start: Instant,
        warm_up: Duration,
        window: Duration,
        windows: usize,
    ) {
        let mut edge = start + warm_up;
        let mut edges_passed = 0;
        loop {
            let roll = self.rng.below(1000);
            let (class, (t0, t1, checked)) = if roll < mix.put_pm {
                let index = mix.dist.draw(&mut self.rng, self.k);
                (PUT, self.put(store, index))
            } else if roll < mix.put_pm + mix.get_pm {
                let index = mix.dist.draw(&mut self.rng, self.k);
                let absent = self.rng.chance_per_mille(mix.absent_get_pm);
                (GET, self.get(store, index, absent))
            } else {
                let lo = self.rng.below(self.k - SCAN_KEYS);
                (SCAN, self.scan(store, lo))
            };
            while t1 >= edge {
                self.mark_edge();
                edge += window;
                edges_passed += 1;
            }
            if edges_passed > windows {
                // Completed after the last edge: not part of any window.
                for rec in &mut self.rec {
                    rec.marks.truncate(windows + 1);
                }
                return;
            }
            self.record(class, t0, t1, checked);
        }
    }

    /// Tail phase: one put to each sampled private key. Each key once: a
    /// key rewritten between two flushes can come back from a reopen at
    /// the older version (see the README's findings), and the benchmark's
    /// workloads are ones on which no operation fails.
    pub fn tail_puts(&mut self, store: &FloDb, sample: &[u64]) {
        for &slot in sample {
            let (t0, t1, checked) = self.put(store, self.private_index(slot));
            self.record(PUT, t0, t1, checked);
        }
    }

    /// A seeded sample of `n` private slots without repeats.
    pub fn verification_sample(&mut self, n: u64) -> Vec<u64> {
        let mut slots: Vec<u64> = (0..self.private_count()).collect();
        let n = n.min(self.private_count()) as usize;
        for i in 0..n {
            let j = i + self.rng.below((slots.len() - i) as u64) as usize;
            slots.swap(i, j);
        }
        slots.truncate(n);
        slots
    }

    /// Reads each sampled private key, expecting exactly the last
    /// acknowledged version. `timed` reads are recorded as `get` samples;
    /// untimed ones (after the reopen) only count toward `failed`.
    pub fn verify(&mut self, store: &FloDb, sample: &[u64], timed: bool) {
        for &slot in sample {
            let (t0, t1, checked) = self.get(store, self.private_index(slot), false);
            if timed {
                self.record(GET, t0, t1, checked);
            } else {
                self.count(checked);
            }
        }
    }

    /// Tail phase: `n` gets of uniform present keys.
    pub fn tail_gets(&mut self, store: &FloDb, n: u64) {
        for _ in 0..n {
            let index = self.rng.below(self.k);
            let (t0, t1, checked) = self.get(store, index, false);
            self.record(GET, t0, t1, checked);
        }
    }

    /// Tail phase: `n` scans at uniform positions.
    pub fn tail_scans(&mut self, store: &FloDb, n: u64) {
        for _ in 0..n {
            let lo = self.rng.below(self.k - SCAN_KEYS);
            let (t0, t1, checked) = self.scan(store, lo);
            self.record(SCAN, t0, t1, checked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flodb_core::{FloDbOptions, WriteBatch};

    const KEYS: u64 = 640;

    fn loaded_store() -> FloDb {
        let store = FloDb::open(FloDbOptions::default_in_memory()).unwrap();
        let mut batch = WriteBatch::new();
        let mut value = [0u8; VALUE_BYTES];
        for index in 0..KEYS {
            gen::fill_value(&mut value, index, gen::LOAD_VERSION);
            batch.put(&gen::key(index), &value);
        }
        store.write(&batch).unwrap();
        store
    }

    fn client(id: usize) -> Client {
        Client::new(id, KEYS, 9, Instant::now(), [64; 3], false)
    }

    #[test]
    fn wrong_versions_lost_keys_and_invented_keys_count_as_failed() {
        let store = loaded_store();
        let mut c = client(1);
        let sample = c.verification_sample(5);
        assert_eq!(sample.len(), 5);
        c.verify(&store, &sample, true);
        c.tail_puts(&store, &sample);
        c.verify(&store, &sample, false);
        let (t0, t1, checked) = c.scan(&store, 0);
        c.record(SCAN, t0, t1, checked);
        assert_eq!(c.get(&store, 3, true).2, Ok(()), "an odd key is absent");
        assert_eq!((c.attempted, c.failed), (5 + 5 + 5 + 1, 0));
        assert_eq!(c.rec[GET].ns.len(), 5, "untimed reads leave no sample");

        // Somebody else writes a well-formed value to a private key: the
        // value checks, the version does not.
        let stolen = c.private_index(sample[0]);
        let mut value = [0u8; VALUE_BYTES];
        gen::fill_value(&mut value, stolen, 999_999);
        store.put(&gen::key(stolen), &value).unwrap();
        c.phase = "test";
        c.verify(&store, &sample, false);
        assert_eq!(c.failed, 1);
        assert_eq!(
            c.failures,
            [format!(
                "client 1 in test: key {stolen} reads version 999999, last acknowledged is {}",
                c.expected_version(stolen).unwrap()
            )]
        );

        // A lost key fails its get and every scan across it.
        let lost = c.private_index(sample[1]);
        store.delete(&gen::key(lost)).unwrap();
        c.verify(&store, &sample, false);
        assert_eq!(c.failed, 1 + 2);
        let lo = lost.saturating_sub(10).min(KEYS - SCAN_KEYS);
        assert!(c.scan(&store, lo).2.is_err(), "99 entries are not 100");

        // A value under the wrong key, and a present key where none may be.
        gen::fill_value(&mut value, 7, 5);
        store.put(&gen::key(300), &value).unwrap();
        assert!(c.get(&store, 300, false).2.is_err());
        store.put(&gen::absent_key(3), &value).unwrap();
        assert!(c.get(&store, 3, true).2.is_err());
        assert!(c.scan(&store, 0).2.is_err(), "an odd key inside the range");
    }

    #[test]
    fn windows_partition_the_samples_and_nothing_lands_after_the_last_edge() {
        let store = loaded_store();
        let mut c = client(0);
        // No scans: at a millisecond each they could leave a window empty
        // when the other tests have the CPUs.
        let mix = Mix {
            put_pm: 400,
            get_pm: 600,
            dist: Dist::Uniform,
            absent_get_pm: 100,
        };
        assert!(mix.issues(PUT) && mix.issues(GET) && !mix.issues(SCAN));
        let (warm_up, window, windows) = (Duration::from_millis(20), Duration::from_millis(50), 4);
        let start = Instant::now();
        c.run_windows(&store, mix, start, warm_up, window, windows);
        assert!(start.elapsed() >= warm_up + window * windows as u32);
        assert_eq!(c.failed, 0);
        let mut recorded = 0;
        for rec in &c.rec {
            assert_eq!(rec.marks.len(), windows + 1);
            assert!(rec.marks.windows(2).all(|m| m[0] <= m[1]));
            let in_windows: usize = (1..=windows).map(|w| rec.window(w).len()).sum();
            assert_eq!(in_windows, rec.marks[windows] - rec.marks[0]);
            assert_eq!(
                rec.ns.len(),
                rec.marks[windows],
                "nothing after the last edge"
            );
            assert!(rec.tail().is_empty());
            recorded += rec.ns.len() as u64;
        }
        assert_eq!(c.attempted, recorded);
        assert!(!c.rec[PUT].ns.is_empty() && !c.rec[GET].ns.is_empty());
        assert!(c.rec[SCAN].ns.is_empty());

        c.tail_scans(&store, 3);
        assert_eq!(c.rec[SCAN].tail().len(), 3);
    }
}
