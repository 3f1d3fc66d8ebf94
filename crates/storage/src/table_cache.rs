//! The table (fd) cache: open-table handles keyed by file number.
//!
//! LevelDB keeps "thread-local versions and one shared version of the
//! file-descriptor cache in memory, acquiring a global lock to access the
//! shared version" — which FloDB found to be "a major scalability
//! bottleneck" and replaced "with a more scalable, concurrent hash table"
//! (§4, footnote 2). [`ShardedTableCache`] is both: lock striping over
//! `shards` stripes is the replacement FloDB uses, and one stripe *is* the
//! global-lock cache — one mutex around one map — so the baselines
//! reproduce LevelDB's contention point with `cache_shards = 1`.

use std::collections::HashMap;

use flodb_sync::lock_order::CACHE_SHARD;
use flodb_sync::shim::{ranked_mutex, Arc, Mutex};

use crate::env::Env;
use crate::error::Result;
use crate::sstable::{table_file_name, Table};

/// Cache hit/miss counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to open the table.
    pub misses: u64,
}

/// An open-table cache: the operations of [`ShardedTableCache`], its one
/// implementor. The trait is kept because the benchmark's probes import it
/// to call them; the engine holds the concrete type.
pub trait TableCache: Send + Sync {
    /// Returns the open table for `file_number`, opening it on miss.
    fn get(&self, file_number: u64) -> Result<Arc<Table>>;
    /// Drops the cached handle for `file_number` (after file deletion).
    fn evict(&self, file_number: u64);
    /// Returns hit/miss counters.
    fn stats(&self) -> CacheStats;
}

/// One stripe: its tables, its use clock and its hit/miss counts, all
/// under the stripe's lock, so a lookup writes only lines of its stripe.
struct Shard {
    /// file number -> (table, last-use tick).
    map: HashMap<u64, (Arc<Table>, u64)>,
    /// Bumped by every lookup; eviction is least-recently-used per stripe,
    /// so only the order within a stripe matters.
    tick: u64,
    stats: CacheStats,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn get_or_open(
        &mut self,
        env: &Arc<dyn Env>,
        file_number: u64,
        capacity: usize,
    ) -> Result<Arc<Table>> {
        self.tick += 1;
        if let Some((table, last)) = self.map.get_mut(&file_number) {
            *last = self.tick;
            self.stats.hits += 1;
            return Ok(Arc::clone(table));
        }
        self.stats.misses += 1;
        let file = env.open_random(&table_file_name(file_number))?;
        let table = Arc::new(Table::open(file)?);
        if self.map.len() >= capacity {
            // Evict the least recently used entry in this shard.
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, (_, last))| *last) {
                self.map.remove(&victim);
            }
        }
        self.map.insert(file_number, (Arc::clone(&table), self.tick));
        Ok(table)
    }
}

/// Lock-striped concurrent table cache (FloDB's replacement, footnote 2).
pub struct ShardedTableCache {
    env: Arc<dyn Env>,
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ShardedTableCache {
    /// Creates a cache with `capacity` total entries over `shards` stripes.
    pub fn new(env: Arc<dyn Env>, capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            env,
            shards: (0..shards).map(|_| ranked_mutex(CACHE_SHARD, Shard::new())).collect(),
            per_shard_capacity: (capacity / shards).max(1),
        }
    }
}

impl TableCache for ShardedTableCache {
    fn get(&self, file_number: u64) -> Result<Arc<Table>> {
        let shard = &self.shards[(file_number as usize) % self.shards.len()];
        shard
            .lock()
            .get_or_open(&self.env, file_number, self.per_shard_capacity)
    }

    fn evict(&self, file_number: u64) {
        let shard = &self.shards[(file_number as usize) % self.shards.len()];
        shard.lock().map.remove(&file_number);
    }

    fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |sum, shard| {
            let stats = shard.lock().stats;
            CacheStats {
                hits: sum.hits + stats.hits,
                misses: sum.misses + stats.misses,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;
    use crate::record::Record;
    use crate::sstable::TableBuilder;

    fn env_with_tables(n: u64) -> Arc<dyn Env> {
        let env = MemEnv::new(None);
        for i in 1..=n {
            let mut b = TableBuilder::new(env.new_writable(&table_file_name(i)).unwrap(), 512, 10);
            b.add(&Record::put(i.to_be_bytes().as_slice(), i, b"v".as_slice()))
                .unwrap();
            b.finish().unwrap();
        }
        Arc::new(env)
    }

    /// One stripe is the global-lock cache, many stripes the concurrent
    /// one; what a caller can observe is the same either way.
    #[test]
    fn semantics_hold_for_one_shard_and_many() {
        for shards in [1, 4] {
            // Hits after the first open.
            let cache = ShardedTableCache::new(env_with_tables(3), 8, shards);
            cache.get(1).unwrap();
            cache.get(1).unwrap();
            cache.get(2).unwrap();
            assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 }, "{shards} shards");

            // Evict drops the handle; a missing file is an error.
            cache.evict(1);
            cache.get(1).unwrap();
            assert_eq!(cache.stats().misses, 3, "{shards} shards");
            assert!(cache.get(99).is_err());

            // Capacity is the total over all stripes (files 1..=4 land one
            // per stripe, or all in the only one) and the victim is the
            // least recently used entry.
            let cache = ShardedTableCache::new(env_with_tables(8), 4, shards);
            for i in 1..=4 {
                cache.get(i).unwrap();
            }
            assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 4 });
            for i in [2, 3, 4, 1] {
                cache.get(i).unwrap();
            }
            assert_eq!(cache.stats().hits, 4, "{shards} shards hold all four");
            // File 6 shares file 2's stripe: 2 is the victim in both shapes
            // (the oldest of the stripe, and the oldest overall).
            cache.get(6).unwrap();
            for i in [1, 3, 4, 6] {
                cache.get(i).unwrap();
            }
            assert_eq!(cache.stats(), CacheStats { hits: 8, misses: 5 }, "{shards} shards");
            cache.get(2).unwrap();
            assert_eq!(cache.stats().misses, 6, "{shards} shards evicted the LRU entry");

            // Concurrent gets.
            let cache = Arc::new(ShardedTableCache::new(env_with_tables(8), 16, shards));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    std::thread::spawn(move || {
                        for round in 0..200u64 {
                            let table = cache.get(round % 8 + 1).unwrap();
                            assert_eq!(table.entries(), 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.misses, 800);
        }
    }
}
