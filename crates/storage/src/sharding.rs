//! The sticky sharding record: a store root's shard layout, on disk.
//!
//! A sharded store hash-partitions the keyspace across N independent
//! store instances, each under its own `shard-NN/` sub-namespace of one
//! root environment. Both the shard **count** and the partitioner's hash
//! **seed** decide which shard owns a key, so they must never silently
//! change across reopen — a different count (or seed) would route reads
//! away from the shard that holds the data. This module persists them in
//! a tiny checksummed record file at the root, written once when the
//! sharded store is first created and verified on every subsequent open.
//!
//! The record is one [`frame`], like the manifest's and the
//! WAL's; a torn or corrupt record is reported as corruption, never
//! silently treated as "unsharded" — that would re-route every key.

use crate::env::Env;
use crate::error::{Result, StorageError};
use crate::frame::{self, Frames, Tail};

/// Name of the sharding record file at the store root.
pub const SHARDING_FILE: &str = "SHARDING";

/// Magic bytes opening the sharding record payload.
const SHARDING_MAGIC: &[u8; 8] = b"FLODBSHD";

/// The persisted shard layout: how many shards, and the seed their
/// partitioner hashes keys with. Both are sticky for the store's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingSpec {
    /// Number of hash partitions (one sub-store each).
    pub shards: u32,
    /// Seed of the stable key hash routing point operations.
    pub hash_seed: u64,
}

impl ShardingSpec {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(20);
        payload.extend_from_slice(SHARDING_MAGIC);
        payload.extend_from_slice(&self.shards.to_le_bytes());
        payload.extend_from_slice(&self.hash_seed.to_le_bytes());
        payload
    }

    fn decode(payload: &[u8]) -> Result<Self> {
        if payload.len() < 20 || &payload[..8] != SHARDING_MAGIC.as_slice() {
            return Err(StorageError::Corruption(
                "sharding record has a bad magic or is truncated".into(),
            ));
        }
        Ok(Self {
            shards: u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")),
            hash_seed: u64::from_le_bytes(payload[12..20].try_into().expect("8 bytes")),
        })
    }
}

/// Writes (and syncs) the sharding record at the root of `env`, then syncs
/// the directory so the record's existence survives a crash along with the
/// shard directories it describes.
///
/// If any step fails, the half-written record is removed (best effort)
/// before the error is returned: the record is only ever written before
/// any shard holds data, so a later open can safely retry creation —
/// whereas a torn record left behind would read as corruption on every
/// subsequent open, bricking the root over one transient I/O error.
pub fn write_sharding(env: &dyn Env, spec: &ShardingSpec) -> Result<()> {
    let mut framed = Vec::new();
    frame::push(&mut framed, &spec.encode());
    let result = (|| {
        let mut file = env.new_writable(SHARDING_FILE)?;
        file.append(&framed)?;
        file.sync()?;
        file.finish()?;
        env.sync_dir()
    })();
    if result.is_err() && env.exists(SHARDING_FILE) {
        let _ = env.delete(SHARDING_FILE);
    }
    result
}

/// Reads the sharding record at the root of `env`.
///
/// Returns `Ok(None)` when no record exists (a fresh root). An existing
/// but torn or checksum-failing record is corruption: unlike a WAL tail,
/// this file is written once, synced, and never appended to, so no crash
/// interleaving legitimately truncates it after creation succeeded.
pub fn read_sharding(env: &dyn Env) -> Result<Option<ShardingSpec>> {
    if !env.exists(SHARDING_FILE) {
        return Ok(None);
    }
    let file = env.open_random(SHARDING_FILE)?;
    let data = file.read_at(0, file.len() as usize)?;
    let mut frames = Frames::new(&data);
    match frames.next() {
        Some(payload) => ShardingSpec::decode(payload).map(Some),
        None => Err(StorageError::Corruption(match frames.tail() {
            Tail::Corrupt => "sharding record checksum mismatch".into(),
            Tail::Clean | Tail::Torn => "sharding record truncated".into(),
        })),
    }
}

/// Returns the canonical shard sub-directory name (`shard-NN`, two digits
/// minimum so listings sort in shard order for the common N <= 99).
pub fn shard_dir_name(index: u32) -> String {
    format!("shard-{index:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnv;

    #[test]
    fn roundtrip_and_fresh_root() {
        let env = MemEnv::new(None);
        assert_eq!(read_sharding(&env).unwrap(), None);
        let spec = ShardingSpec {
            shards: 7,
            hash_seed: 0xDEAD_BEEF,
        };
        write_sharding(&env, &spec).unwrap();
        assert_eq!(read_sharding(&env).unwrap(), Some(spec));
    }

    #[test]
    fn torn_or_corrupt_record_is_an_error_not_unsharded() {
        let env = MemEnv::new(None);
        let spec = ShardingSpec {
            shards: 4,
            hash_seed: 9,
        };
        write_sharding(&env, &spec).unwrap();
        let full = env.open_random(SHARDING_FILE).unwrap();
        let bytes = full.read_at(0, full.len() as usize).unwrap();

        // Every strict prefix must fail loudly.
        for cut in 1..bytes.len() {
            let mut f = env.new_writable(SHARDING_FILE).unwrap();
            f.append(&bytes[..cut]).unwrap();
            assert!(read_sharding(&env).is_err(), "cut at {cut}");
        }

        // A flipped payload byte must fail the checksum.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let mut f = env.new_writable(SHARDING_FILE).unwrap();
        f.append(&corrupt).unwrap();
        assert!(read_sharding(&env).is_err());
    }

    #[test]
    fn failed_creation_leaves_no_torn_record_behind() {
        use std::sync::Arc;

        use crate::fault::{FaultEnv, FaultKind, FaultPlan};

        let env = FaultEnv::new(Arc::new(MemEnv::new(None)));
        let spec = ShardingSpec {
            shards: 4,
            hash_seed: 9,
        };
        for site in ["sharding-create", "sharding-append", "sharding-sync", "dir-sync"] {
            env.arm(FaultPlan::persistent(site, FaultKind::Io));
            assert!(write_sharding(&env, &spec).is_err(), "{site}");
            env.disarm_all();
            // The failed creation must be retryable: no torn record may
            // read as corruption, which would brick the root for good.
            assert_eq!(read_sharding(&env).unwrap(), None, "{site}");
        }
        write_sharding(&env, &spec).unwrap();
        assert_eq!(read_sharding(&env).unwrap(), Some(spec));
    }

    #[test]
    fn shard_dir_names_sort_in_shard_order() {
        assert_eq!(shard_dir_name(0), "shard-00");
        assert_eq!(shard_dir_name(41), "shard-41");
        assert_eq!(shard_dir_name(100), "shard-100");
        let mut names: Vec<String> = (0..16).map(shard_dir_name).collect();
        let sorted = names.clone();
        names.sort();
        assert_eq!(names, sorted);
    }
}
