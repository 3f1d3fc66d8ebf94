//! The [`ShardedFloDb`] router: N FloDB instances behind one `KvStore`.

use std::ops::ControlFlow;

use flodb_storage::merge::MergeCursor;
use flodb_storage::sharding::{read_sharding, shard_dir_name, write_sharding, ShardingSpec};
use flodb_storage::wal::BatchAnnotation;
use flodb_storage::{PrefixEnv, Record};
use flodb_sync::shim::atomic::{AtomicU64, Ordering};
use flodb_sync::shim::Arc;

use crate::api::{KvStore, StoreStats, WriteBatch};
use crate::error::{OpenError, OptionsError, WriteError};
use crate::options::FloDbOptions;
use crate::sharded::partitioner::Partitioner;
use crate::store::FloDb;
use crate::telemetry::TelemetrySnapshot;

/// Default partitioner seed when the caller does not pick one.
pub const DEFAULT_HASH_SEED: u64 = 0xF10D_B5EE_D000_0001;

/// Configuration for a [`ShardedFloDb`]: the shard layout plus the
/// per-shard FloDB options template.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Number of FloDB instances to partition the keyspace across
    /// (validation rejects 0 with [`OptionsError::ZeroShards`]). Sticky:
    /// recorded in the store root on first open, and a later open with a
    /// different count is [`OpenError::ShardMismatch`].
    pub shards: u32,
    /// Seed of the routing hash (see [`Partitioner`]). Sticky like
    /// `shards`, and for the same reason: it decides key placement.
    pub hash_seed: u64,
    /// Per-shard options template. Each shard gets a clone with its `env`
    /// replaced by a `shard-NN/` sub-namespace of this template's env, so
    /// every shard runs its own Membuffer, WAL, and background threads
    /// against its own directory. Budget note: `memory_bytes` is
    /// *per shard* — N shards use N × `memory_bytes`.
    pub base: FloDbOptions,
}

impl ShardedOptions {
    /// `shards` instances over `base`, with the default hash seed.
    pub fn new(shards: u32, base: FloDbOptions) -> Self {
        Self {
            shards,
            hash_seed: DEFAULT_HASH_SEED,
            base,
        }
    }
}

/// N independent FloDB instances behind one [`KvStore`]: point ops route
/// by a seeded stable hash of the key, scans fan out and k-way merge,
/// and batches split into per-shard sub-batches.
///
/// # Cross-shard atomicity
///
/// [`KvStore::write`] splits a batch into per-shard sub-batches and
/// commits each as **one group-commit frame in that shard's WAL**, tagged
/// with a shared batch id and the count of sibling sub-batches
/// ([`BatchAnnotation`]). Recovery is therefore *per-shard
/// all-or-nothing, relaxed cross-shard*: a sub-batch replays whole or not
/// at all (frames are CRC-checked units), but a crash may persist a
/// strict subset of a batch's shards. See ARCHITECTURE.md "Sharding" for
/// the full recovery rule and its rationale.
///
/// # Scans
///
/// Each shard streams its range into a run through its own scan
/// ([`KvStore::scan_with`]); the router merges the N sorted runs in key
/// order through one `MergeCursor`. `ControlFlow::Break` stops that merge
/// at once, though each shard's run was already collected whole.
///
/// # Examples
///
/// ```
/// use flodb_core::{FloDbOptions, KvStore, ShardedFloDb, ShardedOptions};
///
/// let db = ShardedFloDb::open(ShardedOptions::new(
///     4,
///     FloDbOptions::small_for_tests(),
/// ))
/// .unwrap();
/// db.put(b"user:1", b"alice").unwrap();
/// db.put(b"user:2", b"bob").unwrap();
/// assert_eq!(db.get(b"user:1"), Some(b"alice".to_vec()));
/// assert_eq!(db.scan(b"user:", b"user:~").len(), 2);
/// ```
pub struct ShardedFloDb {
    shards: Vec<FloDb>,
    partitioner: Partitioner,
    /// Next batch id for sub-batch annotations; ids are unique per open
    /// store handle, which is all recovery needs (sibling frames of one
    /// split share an id, different splits in the same logs differ).
    next_batch_id: AtomicU64,
}

impl std::fmt::Debug for ShardedFloDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFloDb")
            .field("shards", &self.shards.len())
            .field("hash_seed", &self.partitioner.seed())
            .finish_non_exhaustive()
    }
}

impl ShardedFloDb {
    /// Opens (or recovers) `shards` FloDB instances under the root env of
    /// `opts.base`, each in its own `shard-NN/` namespace.
    ///
    /// The first open of a root writes a sticky sharding record (count +
    /// hash seed); every later open verifies it and fails with
    /// [`OpenError::ShardMismatch`] on disagreement — honoring a changed
    /// layout would silently route reads away from the shards holding
    /// their keys.
    ///
    /// # Errors
    ///
    /// [`OpenError::Options`] for invalid options (including zero
    /// shards), [`OpenError::ShardMismatch`] as above, and whatever any
    /// shard's own open reports.
    pub fn open(opts: ShardedOptions) -> Result<Self, OpenError> {
        if opts.shards == 0 {
            return Err(OptionsError::ZeroShards.into());
        }
        opts.base.validate()?;
        let root = Arc::clone(&opts.base.env);
        let requested = ShardingSpec {
            shards: opts.shards,
            hash_seed: opts.hash_seed,
        };
        match read_sharding(root.as_ref()).map_err(OpenError::Storage)? {
            Some(on_disk) if on_disk != requested => {
                return Err(OpenError::ShardMismatch {
                    on_disk: (on_disk.shards, on_disk.hash_seed),
                    requested: (requested.shards, requested.hash_seed),
                });
            }
            Some(_) => {}
            None => write_sharding(root.as_ref(), &requested).map_err(OpenError::Storage)?,
        }
        let mut shards = Vec::with_capacity(opts.shards as usize);
        for i in 0..opts.shards {
            let mut shard_opts = opts.base.clone();
            shard_opts.env = Arc::new(PrefixEnv::new(Arc::clone(&root), &shard_dir_name(i)));
            shards.push(FloDb::open(shard_opts)?);
        }
        Ok(Self {
            shards,
            partitioner: Partitioner::new(opts.shards, opts.hash_seed),
            next_batch_id: AtomicU64::new(1),
        })
    }

    /// Number of shards behind this router.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The routing partitioner (shard count + seed, as persisted).
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Per-shard stats snapshots, indexed by shard — the imbalance gauge.
    /// [`KvStore::stats`] returns their sum.
    pub fn per_shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(KvStore::stats).collect()
    }

    /// Fleet-wide telemetry: every shard's snapshot merged into one
    /// (counters summed, histograms merged — see
    /// [`TelemetrySnapshot::merge_from`]). Pair with
    /// [`Self::per_shard_telemetry`] to find the shard behind a tail.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut total = match self.shards.first() {
            Some(first) => first.telemetry(),
            None => return TelemetrySnapshot::empty(crate::TelemetryLevel::Off),
        };
        for shard in &self.shards[1..] {
            total.merge_from(&shard.telemetry());
        }
        total
    }

    /// Per-shard telemetry snapshots, indexed by shard — the latency
    /// imbalance gauge ([`Self::telemetry`] returns their merge).
    pub fn per_shard_telemetry(&self) -> Vec<TelemetrySnapshot> {
        self.shards.iter().map(FloDb::telemetry).collect()
    }

    /// Shard indexes currently latched degraded (see
    /// [`FloDb::is_degraded`]). Failure isolation is per shard: a
    /// poisoned or degraded shard rejects *its* writes, while sibling
    /// shards keep serving reads and writes untouched — the router never
    /// propagates one shard's latch to another.
    pub fn degraded_shards(&self) -> Vec<u32> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_degraded())
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn shard_for(&self, key: &[u8]) -> &FloDb {
        &self.shards[self.partitioner.shard_of(key) as usize]
    }
}

impl KvStore for ShardedFloDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), WriteError> {
        self.shard_for(key).put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<(), WriteError> {
        self.shard_for(key).delete(key)
    }

    /// Splits `batch` into per-shard sub-batches and commits each as one
    /// annotated group-commit frame in its shard's WAL.
    ///
    /// On `Err`, the failing shard applied nothing (its shard is
    /// poisoned), but sub-batches already committed to *earlier* shards
    /// stay applied — the documented relaxed cross-shard contract; a
    /// crash has the same shape.
    fn write(&self, batch: &WriteBatch) -> Result<(), WriteError> {
        if batch.is_empty() || self.shards.len() == 1 {
            // One shard holds the whole batch: plain single-store
            // atomicity applies and no annotation is needed (the empty
            // case still observes shard 0's poison latch).
            return self.shards[0].write(batch);
        }
        let mut subs: Vec<WriteBatch> = vec![WriteBatch::new(); self.shards.len()];
        for (key, value) in batch.iter() {
            let sub = &mut subs[self.partitioner.shard_of(key) as usize];
            match value {
                Some(value) => sub.put(key, value),
                None => sub.delete(key),
            };
        }
        let shard_count = subs.iter().filter(|s| !s.is_empty()).count() as u32;
        let batch_id = self.next_batch_id.fetch_add(1, Ordering::Relaxed);
        for (shard, sub) in subs.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            self.shards[shard].write_tagged(
                sub,
                Some(&BatchAnnotation {
                    batch_id,
                    shard: shard as u32,
                    shard_count,
                    ops: sub.len() as u32,
                }),
            )?;
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shard_for(key).get(key)
    }

    fn scan_with(
        &self,
        low: &[u8],
        high: &[u8],
        visitor: &mut dyn FnMut(&[u8], &[u8]) -> ControlFlow<()>,
    ) {
        let snapshots = self.shards.iter().map(|shard| {
            let mut run = Vec::new();
            shard.scan_with(low, high, &mut |key, value| {
                run.push(Record::put(key, 0, value));
                ControlFlow::Continue(())
            });
            run.into_iter()
        });
        // PANIC-OK: a run in memory never fails to step.
        let mut merged = MergeCursor::new(snapshots.collect(), u64::MAX).expect("in-memory merge");
        // PANIC-OK: as above.
        while let Some(entry) = merged.next_merged().expect("in-memory merge") {
            if visitor(entry.key, entry.value.unwrap_or_default()).is_break() {
                break;
            }
        }
    }

    fn name(&self) -> &'static str {
        "ShardedFloDB"
    }

    /// Every counter (and gauge) summed across the shards. The router
    /// itself counts nothing and each operation is counted once, by the
    /// shard that executed it, so the sums are exactly what an unsharded
    /// store would report — except `scans`: one router-level scan fans out
    /// to every shard, so expect `shards ×` the logical scan count.
    fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            total.add(&shard.stats());
        }
        total
    }

    fn quiesce(&self) {
        for shard in &self.shards {
            shard.quiesce();
        }
    }
}
