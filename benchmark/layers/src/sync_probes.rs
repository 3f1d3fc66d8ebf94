//! `flodb-sync`: group-commit submission, the in-flight window, RCU.

use std::hint::black_box;

use flodb_sync::{GroupCommitConfig, GroupCommitter, PhasedInflight, RcuDomain};

use crate::util::{median_each, ns_per, Probes, BATCHES};

/// Bytes one submission encodes: an 8-byte key, a 256-byte value, framing.
const RECORD_BYTES: usize = 280;

fn submit_n(committer: &GroupCommitter<std::io::Error>, n: u64) {
    let record = [7u8; RECORD_BYTES];
    for _ in 0..n {
        let role = committer.submit(
            |buf| buf.extend_from_slice(&record),
            |payload| {
                black_box(payload.len());
                Ok(())
            },
        );
        black_box(role.is_ok());
    }
}

pub fn run(probes: &mut Probes) {
    let submits = probes.n(200_000);
    let light = probes.n(1_000_000);
    let syncs = probes.n(20_000);
    let [submit, submit_2t, enter, read, synchronize] = median_each(BATCHES, || {
        let committer = GroupCommitter::new(GroupCommitConfig::default());
        let submit = ns_per(submits, || submit_n(&committer, submits));
        // Two submitters, each `submits / 2`: the time one caller sees per
        // submission when a second one contends for the group.
        let committer = GroupCommitter::new(GroupCommitConfig::default());
        let submit_2t = ns_per(submits / 2, || {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| submit_n(&committer, submits / 2));
                }
            });
        });
        let inflight = PhasedInflight::new();
        let enter = ns_per(light, || {
            for _ in 0..light {
                black_box(inflight.enter());
            }
        });
        let rcu = RcuDomain::new();
        let read = ns_per(light, || {
            for _ in 0..light {
                black_box(rcu.read_lock());
            }
        });
        // One registered, quiescent reader (this thread): the grace period
        // every Membuffer freeze pays at least.
        let synchronize = ns_per(syncs, || {
            for _ in 0..syncs {
                rcu.synchronize();
            }
        }) / 1e3;
        [submit, submit_2t, enter, read, synchronize]
    });
    probes.put("sync.commit_submit_ns", submit);
    probes.put("sync.commit_submit_2t_ns", submit_2t);
    probes.put("sync.inflight_enter_ns", enter);
    probes.put("sync.rcu_read_ns", read);
    probes.put("sync.rcu_synchronize_us", synchronize);
}
