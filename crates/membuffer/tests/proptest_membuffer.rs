//! Property-based tests: the Membuffer must behave like a capacity-bounded
//! HashMap where adds may be refused (bucket full) but never corrupted.

use std::collections::{BTreeSet, HashMap};

use flodb_membuffer::{AddResult, MemBuffer, MemBufferConfig, RemoveToken};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u16, value: u8 },
    Delete { key: u16 },
    Get { key: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(key, value)| Op::Put { key, value }),
        any::<u16>().prop_map(|key| Op::Delete { key }),
        any::<u16>().prop_map(|key| Op::Get { key }),
    ]
}

/// Writes racing a drain, sequentially: the drain's claim and removal
/// steps are separate operations, so updates land between them.
#[derive(Debug, Clone)]
enum DrainOp {
    /// `add` of a value (`Some`) or a tombstone (`None`); an insert or an
    /// in-place update depending on what is resident.
    Add { key: u16, value: Option<u8> },
    /// `claim_bucket` of one bucket; the tokens are kept for a `Remove`.
    Claim { bucket: u16 },
    /// `remove_drained` of every token claimed so far.
    Remove,
}

fn drain_op_strategy() -> impl Strategy<Value = DrainOp> {
    // 96 keys spread over the whole u16 range (all four partitions), few
    // enough that buckets fill up, empty out and fill again.
    let key = any::<u16>().prop_map(|k| (k % 96) * 683);
    prop_oneof![
        (key, proptest::option::of(any::<u8>()))
            .prop_map(|(key, value)| DrainOp::Add { key, value }),
        any::<u16>().prop_map(|bucket| DrainOp::Claim { bucket }),
        any::<u16>().prop_map(|_| DrainOp::Remove),
    ]
}

/// A Membuffer driven by [`DrainOp`]s next to a model of what it must
/// hold: key -> (value, version of the resident entry, claimed?).
struct Drained {
    buffer: MemBuffer,
    model: HashMap<u16, (Option<u8>, u64, bool)>,
    /// Claimed and not yet removed: (key, version claimed, token).
    pending: Vec<(u16, u64, RemoveToken)>,
    versions: u64,
}

impl Drained {
    fn new() -> Self {
        Self {
            buffer: MemBuffer::new(MemBufferConfig {
                partition_bits: 2,
                buckets_per_partition: 32,
            }),
            model: HashMap::new(),
            pending: Vec::new(),
            versions: 0,
        }
    }

    fn apply(&mut self, op: &DrainOp) {
        match *op {
            DrainOp::Add { key, value } => {
                let v = value.map(|v| [v]);
                let result = self
                    .buffer
                    .add(&key.to_be_bytes(), v.as_ref().map(|v| &v[..]));
                assert_eq!(
                    result == AddResult::Updated,
                    self.model.contains_key(&key),
                    "{op:?} -> {result:?}"
                );
                if result != AddResult::BucketFull {
                    // An update installs a fresh, unclaimed entry.
                    self.versions += 1;
                    self.model.insert(key, (value, self.versions, false));
                }
            }
            DrainOp::Claim { bucket } => {
                let bucket = bucket as usize % self.buffer.total_buckets();
                let expected = self.unclaimed_in(Some(bucket));
                let mut claimed = Vec::new();
                for d in self.buffer.claim_bucket(bucket) {
                    let key = u16::from_be_bytes(d.key.as_ref().try_into().unwrap());
                    let entry = self.model.get_mut(&key).expect("claimed a key never added");
                    assert_eq!(
                        d.value.as_deref(),
                        entry.0.as_ref().map(std::slice::from_ref)
                    );
                    assert!(!entry.2, "key {key} claimed twice");
                    entry.2 = true;
                    self.pending.push((key, entry.1, d.token));
                    claimed.push(key);
                }
                claimed.sort_unstable();
                assert_eq!(claimed, expected, "claim of bucket {bucket}");
            }
            DrainOp::Remove => {
                let tokens: Vec<RemoveToken> = self.pending.iter().map(|p| p.2).collect();
                self.buffer.remove_drained(&tokens);
                // Only the entry that was claimed goes; a newer version
                // written over it since stays resident.
                for (key, version, _) in self.pending.drain(..) {
                    if self.model.get(&key).is_some_and(|e| e.1 == version) {
                        self.model.remove(&key);
                    }
                }
            }
        }
    }

    /// Model keys not yet claimed, in one bucket or in all, sorted.
    fn unclaimed_in(&self, bucket: Option<usize>) -> Vec<u16> {
        let mut keys: Vec<u16> = self
            .model
            .iter()
            .filter(|(k, e)| {
                !e.2 && bucket.is_none_or(|b| self.buffer.bucket_of(&k.to_be_bytes()) == b)
            })
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The summary invariant: bit set <=> bucket holds an entry.
    fn check_summary(&self) {
        let mut resident = BTreeSet::new();
        // `for_each` walks the slots under the bucket locks; it does not
        // consult the summary.
        self.buffer.for_each(|key, _| {
            resident.insert(self.buffer.bucket_of(key));
        });
        let total = self.buffer.total_buckets();
        let mut summarized = BTreeSet::new();
        let mut from = 0;
        while let Some(bucket) = self.buffer.next_occupied(from, total) {
            summarized.insert(bucket);
            from = bucket + 1;
        }
        assert_eq!(summarized, resident);
        assert_eq!(self.buffer.len(), self.model.len());
        assert_eq!(self.buffer.is_drained(), self.model.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// After any interleaving of writes with the drain's claim and remove
    /// steps the occupancy summary is exact, and a summary-driven full
    /// drain (word chunks) yields what the per-bucket sweep yields: every
    /// resident, unclaimed entry.
    #[test]
    fn summary_is_exact_and_drives_a_complete_drain(
        ops in proptest::collection::vec(drain_op_strategy(), 1..300)
    ) {
        // Twins fed the same operations, one per drain flavour.
        let mut by_chunk = Drained::new();
        let mut by_bucket = Drained::new();
        for op in &ops {
            by_chunk.apply(op);
            by_bucket.apply(op);
            by_chunk.check_summary();
        }
        let expected = by_chunk.unclaimed_in(None);

        let mut chunked = Vec::new();
        let chunks = by_chunk.buffer.chunks();
        let mut at = 0;
        while let Some(chunk) = by_chunk.buffer.next_occupied_chunk(at, chunks) {
            chunked.extend(by_chunk.buffer.claim_chunk(chunk));
            at = chunk + 1;
        }
        let mut swept = Vec::new();
        for bucket in 0..by_bucket.buffer.total_buckets() {
            swept.extend(by_bucket.buffer.claim_bucket(bucket));
        }
        let keys = |drained: &[flodb_membuffer::DrainedEntry]| {
            let mut keys: Vec<u16> = drained
                .iter()
                .map(|d| u16::from_be_bytes(d.key.as_ref().try_into().unwrap()))
                .collect();
            keys.sort_unstable();
            keys
        };
        prop_assert_eq!(keys(&chunked), expected.clone());
        prop_assert_eq!(keys(&swept), expected);

        // Removing everything claimed — now and earlier — empties the
        // buffer and clears the summary: it is as good as new.
        let tokens: Vec<RemoveToken> = chunked
            .iter()
            .map(|d| d.token)
            .chain(by_chunk.pending.iter().map(|p| p.2))
            .collect();
        by_chunk.buffer.remove_drained(&tokens);
        prop_assert!(by_chunk.buffer.is_drained());
    }

    /// Sequential semantics match a model; `BucketFull` refusals leave
    /// state untouched.
    #[test]
    fn matches_hashmap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let m = MemBuffer::new(MemBufferConfig {
            partition_bits: 2,
            buckets_per_partition: 8,
        });
        // Model only holds keys the buffer accepted.
        let mut model: HashMap<u16, Option<u8>> = HashMap::new();

        for op in ops {
            match op {
                Op::Put { key, value } => {
                    match m.add(&key.to_be_bytes(), Some(&[value])) {
                        AddResult::Added => {
                            prop_assert!(!model.contains_key(&key));
                            model.insert(key, Some(value));
                        }
                        AddResult::Updated => {
                            prop_assert!(model.contains_key(&key));
                            model.insert(key, Some(value));
                        }
                        AddResult::BucketFull => {
                            prop_assert!(!model.contains_key(&key));
                        }
                    }
                }
                Op::Delete { key } => {
                    match m.add(&key.to_be_bytes(), None) {
                        AddResult::Added => { model.insert(key, None); }
                        AddResult::Updated => { model.insert(key, None); }
                        AddResult::BucketFull => {}
                    }
                }
                Op::Get { key } => {
                    let got = m.get(&key.to_be_bytes());
                    match model.get(&key) {
                        Some(Some(v)) => {
                            prop_assert_eq!(got, Some(Some(Box::from([*v].as_slice()))));
                        }
                        Some(None) => prop_assert_eq!(got, Some(None)),
                        None => prop_assert_eq!(got, None),
                    }
                }
            }
        }
        prop_assert_eq!(m.len(), model.len());
    }

    /// Drain-then-remove empties the buffer and yields exactly the resident
    /// entries.
    #[test]
    fn full_drain_yields_all_entries(keys in proptest::collection::hash_set(any::<u16>(), 1..100)) {
        let m = MemBuffer::new(MemBufferConfig {
            partition_bits: 2,
            buckets_per_partition: 64,
        });
        let mut accepted = Vec::new();
        for key in &keys {
            if m.add(&key.to_be_bytes(), Some(&key.to_le_bytes())) == AddResult::Added {
                accepted.push(*key);
            }
        }
        let mut drained_keys = Vec::new();
        let mut tokens = Vec::new();
        for chunk in 0..m.total_buckets() {
            for d in m.claim_bucket(chunk) {
                drained_keys.push(u16::from_be_bytes(d.key.as_ref().try_into().unwrap()));
                tokens.push(d.token);
            }
        }
        m.remove_drained(&tokens);
        drained_keys.sort_unstable();
        accepted.sort_unstable();
        prop_assert_eq!(drained_keys, accepted);
        prop_assert_eq!(m.len(), 0);
    }
}
