//! Property-based tests: the skiplist must behave like a reference
//! `BTreeMap` that keeps, per key, the value with the largest sequence
//! number.

use std::collections::BTreeMap;

use flodb_memtable::{BatchEntry, SkipList, VersionedValue};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { key: u8, value: u8 },
    Delete { key: u8 },
    MultiInsert { pairs: Vec<(u8, u8)> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(key, value)| Op::Insert { key, value }),
        any::<u8>().prop_map(|key| Op::Delete { key }),
        proptest::collection::vec((any::<u8>(), any::<u8>()), 1..8)
            .prop_map(|pairs| Op::MultiInsert { pairs }),
    ]
}

fn k(key: u8) -> Box<[u8]> {
    Box::new([key])
}

/// Every entry `(key, value)` in iteration order, tombstones included.
fn entries(list: &SkipList) -> Vec<(Box<[u8]>, VersionedValue)> {
    let mut out = Vec::new();
    let mut it = list.iter();
    it.seek_to_first();
    while it.valid() {
        out.push((Box::from(it.key()), it.value()));
        it.next();
    }
    out
}

/// Longer than the arena's largest chunk (1 MiB), so its node gets a
/// chunk of its own.
const HUGE_KEY: usize = (1 << 20) + 1;

/// The keys one case draws from: 0 to 300 bytes, half of them over a
/// two-letter alphabet so that long shared prefixes and prefix-of
/// relations are common, plus one huge key.
fn key_pool() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let key = prop_oneof![
        proptest::collection::vec(0u8..2, 0..301),
        proptest::collection::vec(any::<u8>(), 0..301),
    ];
    proptest::collection::vec(key, 1..24).prop_map(|mut keys| {
        keys.push(vec![0x5A; HUGE_KEY]);
        keys
    })
}

/// A put (or, `None`, a delete) of the pool key at an index, taken modulo
/// the pool's length.
type Write = (usize, Option<Vec<u8>>);

#[derive(Debug, Clone)]
enum VarOp {
    Insert(Write),
    MultiInsert(Vec<Write>),
}

fn var_op_strategy() -> impl Strategy<Value = VarOp> {
    let write = || {
        (
            0usize..64,
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..40)),
        )
    };
    prop_oneof![
        write().prop_map(VarOp::Insert),
        proptest::collection::vec(write(), 1..8).prop_map(VarOp::MultiInsert),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sequential operations on the skiplist match a model map.
    #[test]
    fn matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let list = SkipList::new();
        // Model: key -> (seq, Option<value>).
        let mut model: BTreeMap<u8, (u64, Option<u8>)> = BTreeMap::new();
        let mut seq = 0u64;

        for op in ops {
            match op {
                Op::Insert { key, value } => {
                    seq += 1;
                    list.insert(&k(key), Some(&[value]), seq);
                    model.insert(key, (seq, Some(value)));
                }
                Op::Delete { key } => {
                    seq += 1;
                    list.insert(&k(key), None, seq);
                    model.insert(key, (seq, None));
                }
                Op::MultiInsert { pairs } => {
                    let mut batch = Vec::new();
                    for (key, value) in pairs {
                        seq += 1;
                        batch.push(BatchEntry {
                            key: k(key),
                            value: Some(Box::from([value].as_slice())),
                            seq,
                        });
                        // The batch is applied with per-element seqs; the
                        // largest seq per key wins, matching sort order
                        // stability in the list.
                        let entry = model.entry(key).or_insert((0, None));
                        if seq >= entry.0 {
                            *entry = (seq, Some(value));
                        }
                    }
                    list.multi_insert(batch);
                }
            }
        }

        prop_assert_eq!(list.len(), model.len());
        for (key, (mseq, mval)) in &model {
            let got = list.get(&k(*key)).expect("model key must exist");
            prop_assert_eq!(got.seq, *mseq);
            let expected: Option<Box<[u8]>> = mval.map(|v| Box::from([v].as_slice()));
            prop_assert_eq!(got.value, expected);
        }
        // Iteration order must equal the model's sorted key order.
        let collected = entries(&list);
        let keys: Vec<u8> = collected.iter().map(|(key, _)| key[0]).collect();
        let model_keys: Vec<u8> = model.keys().copied().collect();
        prop_assert_eq!(keys, model_keys);
    }

    /// The same model check over keys of every length a node block can
    /// hold, through `insert`, `multi_insert`, `get` and iteration.
    #[test]
    fn variable_length_keys_match_btreemap_model(
        pool in key_pool(),
        ops in proptest::collection::vec(var_op_strategy(), 1..80),
    ) {
        let list = SkipList::new();
        let mut model: BTreeMap<Vec<u8>, (u64, Option<Vec<u8>>)> = BTreeMap::new();
        let mut seq = 0u64;
        let mut apply = |(index, value): Write, model: &mut BTreeMap<_, _>| {
            seq += 1;
            let key = pool[index % pool.len()].clone();
            model.insert(key.clone(), (seq, value.clone()));
            BatchEntry { key: key.into(), value: value.map(Vec::into_boxed_slice), seq }
        };
        for op in ops {
            match op {
                VarOp::Insert(write) => {
                    let e = apply(write, &mut model);
                    list.insert(&e.key, e.value.as_deref(), e.seq);
                }
                VarOp::MultiInsert(writes) => {
                    let batch = writes.into_iter().map(|w| apply(w, &mut model)).collect();
                    list.multi_insert(batch);
                }
            }
        }

        prop_assert_eq!(list.len(), model.len());
        for key in &pool {
            let got = list.get(key).map(|v| (v.seq, v.value.map(Vec::from)));
            prop_assert_eq!(got, model.get(key).cloned());
        }
        let collected: Vec<(Vec<u8>, (u64, Option<Vec<u8>>))> = entries(&list)
            .into_iter()
            .map(|(key, v)| (key.into_vec(), (v.seq, v.value.map(Vec::from))))
            .collect();
        prop_assert_eq!(collected, model.into_iter().collect::<Vec<_>>());
    }

    /// Iteration is always sorted and deduplicated, whatever the inserts.
    #[test]
    fn iteration_sorted_unique(keys in proptest::collection::vec(any::<u16>(), 1..300)) {
        let list = SkipList::new();
        for (i, key) in keys.iter().enumerate() {
            list.insert(&key.to_be_bytes(), Some(b"v"), i as u64 + 1);
        }
        let entries = entries(&list);
        for window in entries.windows(2) {
            prop_assert!(window[0].0 < window[1].0, "unsorted or duplicate keys");
        }
    }

    /// Multi-insert and a sequence of single inserts are observationally
    /// equivalent.
    #[test]
    fn multi_insert_equivalence(pairs in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..60)) {
        let single = SkipList::new();
        let multi = SkipList::new();
        let mut batch = Vec::new();
        for (i, (key, value)) in pairs.iter().enumerate() {
            let seq = i as u64 + 1;
            single.insert(&k(*key), Some(&[*value]), seq);
            batch.push(BatchEntry { key: k(*key), value: Some(Box::from([*value].as_slice())), seq });
        }
        multi.multi_insert(batch);
        prop_assert_eq!(single.len(), multi.len());
        prop_assert_eq!(entries(&single), entries(&multi));
    }
}
