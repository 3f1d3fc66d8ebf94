//! Deterministic fault injection for any [`Env`].
//!
//! [`FaultEnv`] wraps an inner environment and injects failures at
//! **named trip points** — (file class × operation class) pairs such as
//! `"segment-append"` or `"manifest-sync"` — according to armed
//! [`FaultPlan`]s. Because every byte the store persists flows through
//! the [`Env`] trait, classifying operations here covers the whole I/O
//! surface without instrumenting a single consumer: the WAL, manifest,
//! SSTables, the sharding record, and directory syncs all pick up their
//! trip points from the file names they already use.
//!
//! Plans are deterministic: a plan armed as "fail the 3rd matching
//! operation, twice" fires on exactly the 3rd and 4th matching
//! operations after arming, every run. Transient faults (finite
//! `count`) recover by themselves; persistent plans keep failing until
//! [`FaultEnv::disarm_all`]. Each injection is counted per site, so a
//! test can prove its fault actually fired (no vacuous green).
//!
//! Read operations ([`Env::open_random`], [`RandomAccessFile`]) are
//! deliberately *not* fault points: the store's read path treats disk
//! read errors as fatal by design (see ARCHITECTURE.md "Failure model");
//! making reads fallible end-to-end is a separate roadmap item.

use std::collections::HashMap;
use std::io;

use flodb_sync::lock_order::{FAULT_COUNTERS, FAULT_PLANS};
use flodb_sync::shim::{ranked_mutex, Arc, Mutex};

use crate::env::{Env, RandomAccessFile, WritableFile};
use crate::error::{Result, StorageError};
use crate::sharding::SHARDING_FILE;
use crate::wal::parse_wal_name;

/// Every trip point a [`FaultEnv`] can inject at, for runtime
/// enumeration: sweep tests iterate this slice instead of hand-listing
/// sites, so a new file class or operation class cannot silently escape
/// coverage. Each name is `<file class>-<operation>`, except the WAL
/// segment delete, which is named for the subsystem that performs it
/// (`retire-delete`). `finish()` calls count toward the `-sync` site of
/// their file class: both are durability barriers on an open file. A
/// header written at creation ([`Env::new_writable_with_header`]) is part
/// of the `-create` site.
pub const TRIP_POINTS: &[&str] = &[
    "segment-create",
    "segment-append",
    "segment-sync",
    "retire-delete",
    "manifest-create",
    "manifest-append",
    "manifest-sync",
    "manifest-delete",
    "table-create",
    "table-append",
    "table-sync",
    "table-delete",
    "sharding-create",
    "sharding-append",
    "sharding-sync",
    "dir-sync",
];

/// Marker substring present in every injected error's message, so tests
/// can tell an injected failure from a genuine environment error.
pub const INJECTED_MARKER: &str = "injected fault";

/// Returns whether `err` was manufactured by a [`FaultEnv`].
pub fn is_injected(err: &StorageError) -> bool {
    err.to_string().contains(INJECTED_MARKER)
}

/// The flavor of failure a [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A generic I/O error (EIO-style).
    Io,
    /// Out of space: [`std::io::ErrorKind::StorageFull`].
    Enospc,
    /// A torn append: half the payload reaches the inner file, then the
    /// operation reports failure. On non-append operations this behaves
    /// like [`FaultKind::Io`].
    ShortWrite,
}

/// One armed fault: fail matching operations at a trip point.
///
/// Counting starts at arm time: `after = 0` fails the very next
/// operation that hits the site, `after = n` lets `n` operations through
/// first. `count` consecutive matches fail (then the plan is spent —
/// the transient-then-recover shape); [`FaultPlan::persistent`] plans
/// never recover until disarmed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    site: &'static str,
    after: u64,
    kind: FaultKind,
    count: u64,
}

impl FaultPlan {
    /// Fails the `(after + 1)`-th matching operation after arming, and
    /// every matching operation from then on, with `kind`.
    ///
    /// # Panics
    ///
    /// If `site` is not a registered trip point (see [`TRIP_POINTS`]) —
    /// a misspelled site would otherwise arm a plan that can never fire.
    pub fn nth(site: &str, after: u64, kind: FaultKind) -> Self {
        Self {
            site: resolve_site(site),
            after,
            kind,
            count: u64::MAX,
        }
    }

    /// Fails every matching operation from now on with `kind`.
    pub fn persistent(site: &str, kind: FaultKind) -> Self {
        Self::nth(site, 0, kind)
    }

    /// Like [`FaultPlan::nth`], but only `count` consecutive matching
    /// operations fail — after that the site recovers by itself.
    pub fn transient(site: &str, after: u64, kind: FaultKind, count: u64) -> Self {
        Self {
            count,
            ..Self::nth(site, after, kind)
        }
    }

    /// Derives a plan deterministically from `seed` (a splitmix64 walk):
    /// same seed, same site/offset/kind/count, so a seeded sweep is
    /// reproducible from its seed alone.
    pub fn for_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let site = TRIP_POINTS[(next() % TRIP_POINTS.len() as u64) as usize];
        let after = next() % 4;
        let kind = match next() % 3 {
            0 => FaultKind::Io,
            1 => FaultKind::Enospc,
            _ => FaultKind::ShortWrite,
        };
        match next() % 2 {
            0 => Self::nth(site, after, kind),
            _ => Self::transient(site, after, kind, 1 + next() % 3),
        }
    }

    /// The trip point this plan targets.
    pub fn site(&self) -> &'static str {
        self.site
    }
}

/// Maps a runtime site name onto its registry entry (the `'static`
/// canonical string used for counting).
fn resolve_site(site: &str) -> &'static str {
    TRIP_POINTS
        .iter()
        .find(|&&s| s == site)
        // PANIC-OK: test-harness configuration error, not a runtime path.
        .unwrap_or_else(|| panic!("unknown trip point {site:?}; see fault::TRIP_POINTS"))
}

/// Operation classes a trip point distinguishes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Create,
    Append,
    Sync,
    Delete,
}

/// Classifies a file name (last path component; shard prefixes like
/// `shard-03/` are routing, not identity) into its trip-point prefix.
fn file_class(name: &str) -> Option<&'static str> {
    let base = name.rsplit('/').next().unwrap_or(name);
    if parse_wal_name(base).is_some() {
        Some("segment")
    } else if base.starts_with("MANIFEST-") {
        Some("manifest")
    } else if base.ends_with(".sst") {
        Some("table")
    } else if base == SHARDING_FILE {
        Some("sharding")
    } else {
        None
    }
}

/// The trip point for (file class, operation), if one is registered.
fn site_for(class: Option<&'static str>, op: Op) -> Option<&'static str> {
    Some(match (class?, op) {
        ("segment", Op::Create) => "segment-create",
        ("segment", Op::Append) => "segment-append",
        ("segment", Op::Sync) => "segment-sync",
        ("segment", Op::Delete) => "retire-delete",
        ("manifest", Op::Create) => "manifest-create",
        ("manifest", Op::Append) => "manifest-append",
        ("manifest", Op::Sync) => "manifest-sync",
        ("manifest", Op::Delete) => "manifest-delete",
        ("table", Op::Create) => "table-create",
        ("table", Op::Append) => "table-append",
        ("table", Op::Sync) => "table-sync",
        ("table", Op::Delete) => "table-delete",
        ("sharding", Op::Create) => "sharding-create",
        ("sharding", Op::Append) => "sharding-append",
        ("sharding", Op::Sync) => "sharding-sync",
        // The sharding record is written once and never deleted; there
        // is no registered site to fire.
        ("sharding", Op::Delete) => return None,
        (other, _) => unreachable!("unclassified file class {other}"),
    })
}

fn injected_error(site: &str, kind: FaultKind) -> StorageError {
    StorageError::Io(match kind {
        FaultKind::Enospc => io::Error::new(
            io::ErrorKind::StorageFull,
            format!("{INJECTED_MARKER} at {site}: no space left on device"),
        ),
        FaultKind::Io | FaultKind::ShortWrite => {
            io::Error::other(format!("{INJECTED_MARKER} at {site}"))
        }
    })
}

#[derive(Debug, Default, Clone, Copy)]
struct SiteCounters {
    seen: u64,
    injected: u64,
}

#[derive(Debug)]
struct ArmedPlan {
    site: &'static str,
    /// Fires once the site's `seen` counter exceeds this.
    fire_above: u64,
    kind: FaultKind,
    remaining: u64,
}

#[derive(Debug)]
struct FaultState {
    counters: Mutex<HashMap<&'static str, SiteCounters>>,
    plans: Mutex<Vec<ArmedPlan>>,
}

impl Default for FaultState {
    fn default() -> Self {
        Self {
            counters: ranked_mutex(FAULT_COUNTERS, HashMap::new()),
            plans: ranked_mutex(FAULT_PLANS, Vec::new()),
        }
    }
}

impl FaultState {
    /// Records one operation at `site` and returns the fault to inject,
    /// if an armed plan matches. Deterministic: the decision depends
    /// only on the per-site operation ordinal and the armed plans.
    fn check(&self, site: &'static str) -> Option<FaultKind> {
        let seen = {
            let mut counters = self.counters.lock();
            let entry = counters.entry(site).or_default();
            entry.seen += 1;
            entry.seen
        };
        let kind = {
            let mut plans = self.plans.lock();
            let plan = plans
                .iter_mut()
                .find(|p| p.site == site && p.remaining > 0 && seen > p.fire_above)?;
            plan.remaining -= 1;
            plan.kind
        };
        self.counters.lock().entry(site).or_default().injected += 1;
        Some(kind)
    }

    fn check_site(&self, class: Option<&'static str>, op: Op) -> Result<()> {
        if let Some(site) = site_for(class, op) {
            if let Some(kind) = self.check(site) {
                return Err(injected_error(site, kind));
            }
        }
        Ok(())
    }
}

/// A deterministic fault-injecting wrapper over any [`Env`].
///
/// Share the wrapper with the store under test via `Arc` and keep a
/// second handle for control:
///
/// ```
/// use std::sync::Arc;
/// use flodb_storage::fault::{FaultEnv, FaultKind, FaultPlan};
/// use flodb_storage::{Env, MemEnv};
///
/// let fault = Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))));
/// fault.arm(FaultPlan::persistent("segment-append", FaultKind::Io));
/// let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
/// let mut log = env.new_writable("000001.log").unwrap();
/// assert!(log.append(b"frame").is_err());
/// assert_eq!(fault.injected("segment-append"), 1);
/// ```
pub struct FaultEnv {
    inner: Arc<dyn Env>,
    state: Arc<FaultState>,
}

impl std::fmt::Debug for FaultEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultEnv")
            .field("plans", &self.state.plans.lock().len())
            .finish_non_exhaustive()
    }
}

impl FaultEnv {
    /// Wraps `inner`; no plans are armed yet, so every operation passes
    /// through untouched (but is still counted per site).
    pub fn new(inner: Arc<dyn Env>) -> Self {
        Self {
            inner,
            state: Arc::new(FaultState::default()),
        }
    }

    /// The trip-point registry (see [`TRIP_POINTS`]).
    pub fn trip_points() -> &'static [&'static str] {
        TRIP_POINTS
    }

    /// Arms `plan`. Multiple plans may be armed; the first matching one
    /// (in arm order) fires for each operation.
    pub fn arm(&self, plan: FaultPlan) {
        let fire_above = self
            .state
            .counters
            .lock()
            .get(plan.site)
            .map_or(0, |c| c.seen)
            + plan.after;
        self.state.plans.lock().push(ArmedPlan {
            site: plan.site,
            fire_above,
            kind: plan.kind,
            remaining: plan.count,
        });
    }

    /// Disarms every plan — the environment heals. Counters are kept.
    pub fn disarm_all(&self) {
        self.state.plans.lock().clear();
    }

    /// Operations seen at `site` since construction (fired or not).
    pub fn ops_seen(&self, site: &str) -> u64 {
        let site = resolve_site(site);
        self.state.counters.lock().get(site).map_or(0, |c| c.seen)
    }

    /// Faults injected at `site` since construction.
    pub fn injected(&self, site: &str) -> u64 {
        let site = resolve_site(site);
        self.state
            .counters
            .lock()
            .get(site)
            .map_or(0, |c| c.injected)
    }

    /// Faults injected across every site since construction.
    pub fn injected_total(&self) -> u64 {
        self.state
            .counters
            .lock()
            .values()
            .map(|c| c.injected)
            .sum()
    }
}

impl Env for FaultEnv {
    fn new_writable(&self, name: &str) -> Result<Box<dyn WritableFile>> {
        self.new_writable_with_header(name, &[])
    }

    /// The header's write and sync are part of the create: a segment
    /// created in the background (a Memtable switch's roll) never takes a
    /// fault armed for the next commit-group append (`segment-append`).
    fn new_writable_with_header(&self, name: &str, header: &[u8]) -> Result<Box<dyn WritableFile>> {
        let class = file_class(name);
        self.state.check_site(class, Op::Create)?;
        let inner = if header.is_empty() {
            self.inner.new_writable(name)?
        } else {
            self.inner.new_writable_with_header(name, header)?
        };
        Ok(Box::new(FaultFile {
            inner,
            class,
            state: Arc::clone(&self.state),
        }))
    }

    fn open_random(&self, name: &str) -> Result<Arc<dyn RandomAccessFile>> {
        // Reads are not fault points (see the module docs).
        self.inner.open_random(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.state.check_site(file_class(name), Op::Delete)?;
        self.inner.delete(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn sync_dir(&self) -> Result<()> {
        if let Some(kind) = self.state.check("dir-sync") {
            return Err(injected_error("dir-sync", kind));
        }
        self.inner.sync_dir()
    }
}

/// A writable file that routes its operations through the shared fault
/// state, classified by the file it was opened as.
struct FaultFile {
    inner: Box<dyn WritableFile>,
    class: Option<&'static str>,
    state: Arc<FaultState>,
}

impl WritableFile for FaultFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        if let Some(site) = site_for(self.class, Op::Append) {
            if let Some(kind) = self.state.check(site) {
                if kind == FaultKind::ShortWrite && data.len() > 1 {
                    // A torn write: the prefix lands, the caller sees an
                    // error. Best effort — if even the prefix fails, the
                    // injected error is still what surfaces.
                    let _ = self.inner.append(&data[..data.len() / 2]);
                }
                return Err(injected_error(site, kind));
            }
        }
        self.inner.append(data)
    }

    fn sync(&mut self) -> Result<()> {
        self.state.check_site(self.class, Op::Sync)?;
        self.inner.sync()
    }

    fn finish(&mut self) -> Result<()> {
        // A durability barrier like sync; counted at the same site.
        self.state.check_site(self.class, Op::Sync)?;
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;

    fn fault() -> Arc<FaultEnv> {
        Arc::new(FaultEnv::new(Arc::new(MemEnv::new(None))))
    }

    #[test]
    fn classification_covers_every_store_file() {
        assert_eq!(file_class("000042.log"), Some("segment"));
        assert_eq!(file_class("shard-03/000001.log"), Some("segment"));
        assert_eq!(file_class("MANIFEST-000007"), Some("manifest"));
        assert_eq!(file_class("12.sst"), Some("table"));
        assert_eq!(file_class("SHARDING"), Some("sharding"));
        assert_eq!(file_class("notes.txt"), None);
    }

    #[test]
    fn every_registered_site_is_resolvable_and_unique() {
        for site in TRIP_POINTS {
            assert_eq!(resolve_site(site), *site);
        }
        let mut sorted: Vec<_> = TRIP_POINTS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), TRIP_POINTS.len(), "duplicate trip point");
    }

    #[test]
    fn unarmed_env_passes_everything_through() {
        let env = fault();
        let mut f = env.new_writable("000001.log").unwrap();
        f.append(b"data").unwrap();
        f.sync().unwrap();
        f.finish().unwrap();
        env.sync_dir().unwrap();
        env.delete("000001.log").unwrap();
        assert_eq!(env.injected_total(), 0);
        assert_eq!(env.ops_seen("segment-append"), 1);
        assert_eq!(env.ops_seen("segment-sync"), 2, "sync + finish");
        assert_eq!(env.ops_seen("retire-delete"), 1);
        assert_eq!(env.ops_seen("dir-sync"), 1);
    }

    #[test]
    fn nth_plan_fires_deterministically() {
        let env = fault();
        env.arm(FaultPlan::nth("segment-append", 2, FaultKind::Io));
        let mut f = env.new_writable("000001.log").unwrap();
        f.append(b"one").unwrap();
        f.append(b"two").unwrap();
        let err = f.append(b"three").unwrap_err();
        assert!(is_injected(&err), "{err}");
        assert!(f.append(b"four").is_err(), "persistent plan keeps firing");
        assert_eq!(env.injected("segment-append"), 2);
    }

    #[test]
    fn arming_counts_from_arm_time_not_construction() {
        let env = fault();
        let mut f = env.new_writable("000001.log").unwrap();
        f.append(b"before").unwrap();
        env.arm(FaultPlan::persistent("segment-append", FaultKind::Io));
        assert!(f.append(b"after").is_err(), "next op after arming fails");
    }

    #[test]
    fn transient_plan_recovers() {
        let env = fault();
        env.arm(FaultPlan::transient("manifest-create", 0, FaultKind::Io, 2));
        assert!(env.new_writable("MANIFEST-000001").is_err());
        assert!(env.new_writable("MANIFEST-000001").is_err());
        env.new_writable("MANIFEST-000001").unwrap();
        assert_eq!(env.injected("manifest-create"), 2);
    }

    #[test]
    fn disarm_heals_immediately() {
        let env = fault();
        env.arm(FaultPlan::persistent("dir-sync", FaultKind::Io));
        assert!(env.sync_dir().is_err());
        env.disarm_all();
        env.sync_dir().unwrap();
        assert_eq!(env.injected("dir-sync"), 1, "counters survive disarm");
    }

    #[test]
    fn enospc_has_the_storage_full_kind() {
        let env = fault();
        env.arm(FaultPlan::persistent("table-create", FaultKind::Enospc));
        let Err(err) = env.new_writable("7.sst") else {
            panic!("create must fail")
        };
        match err {
            StorageError::Io(io) => {
                assert_eq!(io.kind(), io::ErrorKind::StorageFull)
            }
            other => panic!("expected Io(StorageFull), got {other:?}"),
        }
    }

    #[test]
    fn short_write_tears_the_append() {
        let inner = Arc::new(MemEnv::new(None));
        let env = FaultEnv::new(Arc::clone(&inner) as Arc<dyn Env>);
        env.arm(FaultPlan::nth("segment-append", 1, FaultKind::ShortWrite));
        let mut f = env.new_writable("000001.log").unwrap();
        f.append(b"whole-frame-1").unwrap();
        assert!(f.append(b"torn-frame-02").is_err());
        let file = inner.open_random("000001.log").unwrap();
        assert_eq!(
            file.len(),
            13 + 6,
            "first frame whole, second torn at half"
        );
    }

    #[test]
    fn faults_only_hit_their_own_site() {
        let env = fault();
        env.arm(FaultPlan::persistent("manifest-append", FaultKind::Io));
        let mut log = env.new_writable("000001.log").unwrap();
        log.append(b"wal traffic unaffected").unwrap();
        let mut man = env.new_writable("MANIFEST-000001").unwrap();
        assert!(man.append(b"edit").is_err());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in 0..64u64 {
            let a = FaultPlan::for_seed(seed);
            let b = FaultPlan::for_seed(seed);
            assert_eq!(a.site, b.site);
            assert_eq!(a.after, b.after);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.count, b.count);
        }
        // And the walk actually varies with the seed.
        let distinct: std::collections::HashSet<_> =
            (0..64u64).map(|s| FaultPlan::for_seed(s).site).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    #[should_panic(expected = "unknown trip point")]
    fn unknown_site_is_rejected_at_arm_time() {
        FaultPlan::persistent("segment-rename", FaultKind::Io);
    }
}
