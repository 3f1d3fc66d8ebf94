//! `flodb-membuffer`: slot write, in-place update, lookup, fill and drain.

use flodb_membuffer::{AddResult, MemBuffer, MemBufferConfig, RemoveToken};
use std::hint::black_box;

use crate::util::{median_each, ns_per, spread_key, value, Probes, BATCHES};

/// The end-to-end store's Membuffer: 8 MiB, 16 partitions, 280-byte entries.
fn config() -> MemBufferConfig {
    MemBufferConfig::for_capacity_bytes(8 << 20, 4, 280)
}

pub fn run(probes: &mut Probes) {
    let capacity = config().capacity_entries() as u64;
    // Half full: few buckets overflow, so adds measure the slot write.
    let n = probes.n(capacity / 2);
    let fill_to = probes.n(capacity);
    let v = value(0);
    let [add, update, hit, miss, full_share, drain] = median_each(BATCHES, || {
        let buffer = MemBuffer::new(config());
        let add = ns_per(n, || {
            for i in 0..n {
                black_box(buffer.add(&spread_key(i), Some(&v)));
            }
        });
        let update = ns_per(n, || {
            for i in 0..n {
                black_box(buffer.add(&spread_key(i), Some(&v)));
            }
        });
        let hit = ns_per(n, || {
            for i in 0..n {
                black_box(buffer.get(&spread_key(i)));
            }
        });
        let miss = ns_per(n, || {
            for i in 0..n {
                black_box(buffer.get(&spread_key(i + (1 << 40))));
            }
        });
        // Keep filling with fresh uniform keys up to the nominal capacity:
        // the share refused is what bucket granularity costs.
        let mut full = 0u64;
        for i in n..fill_to {
            if buffer.add(&spread_key(i), Some(&v)) == AddResult::BucketFull {
                full += 1;
            }
        }
        let full_share = full as f64 / fill_to as f64;
        let resident = buffer.len() as u64;
        let drain = ns_per(resident, || {
            for chunk in 0..buffer.total_buckets() {
                let entries = buffer.claim_bucket(chunk);
                let tokens: Vec<RemoveToken> = entries.iter().map(|e| e.token).collect();
                buffer.remove_drained(&tokens);
                black_box(entries);
            }
        });
        assert!(
            buffer.is_empty(),
            "the drain probe must empty the Membuffer"
        );
        [add, update, hit, miss, full_share, drain]
    });
    probes.put("membuffer.add_ns", add);
    probes.put("membuffer.update_ns", update);
    probes.put("membuffer.get_hit_ns", hit);
    probes.put("membuffer.get_miss_ns", miss);
    probes.put("membuffer.full_share", full_share);
    probes.put("membuffer.drain_ns_per_entry", drain);
}
