//! The freeze stage (Algorithm 3, lines 4-14): pause writers and drains,
//! swap in a fresh Membuffer, drain the frozen one into the Memtable.
//! Master scans and every Memtable switch come through here.

use std::time::Instant;

use flodb_membuffer::MemBuffer;
use flodb_sync::shim::Arc;

use super::Inner;
use super::drain;
use crate::stats::FloDbStats;
use crate::telemetry::{StageClass, TraceEventKind};
use crate::view;

impl Inner {
    /// Runs `body` inside a freeze window: background drains and Memtable
    /// writers paused (lines 4-5), `freeze_lock` held, everything released
    /// in reverse afterwards (lines 13-14). `body` receives the state
    /// behind `freeze_lock` — the spare Membuffer — for
    /// [`Self::freeze_and_drain_membuffer`].
    ///
    /// The flag is counting, so windows of concurrent callers may overlap
    /// — writers and drains stay paused until the last one resumes;
    /// `freeze_lock` serializes what happens inside them.
    pub(super) fn freeze_window<R>(
        &self,
        body: impl FnOnce(&mut Option<Arc<MemBuffer>>) -> R,
    ) -> R {
        self.frozen.pause();
        let out = {
            let mut spare = self.freeze_lock.lock();
            body(&mut spare)
        };
        self.frozen.resume();
        // A settle may be waiting for the frozen buffer to go.
        self.post_progress();
        out
    }

    /// Lines 6-11 of Algorithm 3: install a fresh Membuffer, freeze the
    /// old one, and fully drain it into the Memtable — alone: paused
    /// Memtable writers wait for the resume instead of helping (the wait
    /// arm of Algorithm 2, lines 12-16). Call inside
    /// [`Self::freeze_window`]: `spare` is the Membuffer to install (a new
    /// one is built only when there is none) and receives the drained one
    /// back if nobody else still holds it.
    pub(super) fn freeze_and_drain_membuffer(&self, spare: &mut Option<Arc<MemBuffer>>) {
        let t0 = self.telemetry.counters().then(Instant::now);
        self.telemetry.event(TraceEventKind::FreezeBegin, 0, 0);
        if self.opts.membuffer_enabled {
            // Install a fresh Membuffer; freeze the old one (lines 6-7).
            // The switch waits a grace period, subsuming MemBufferRCUWait
            // and MemTableRCUWait (lines 8-9).
            let fresh = spare.take().unwrap_or_else(|| super::new_membuffer(&self.opts));
            let imm = self.view.freeze_membuffer(fresh);
            // Drain the frozen buffer (lines 10-11). The switch's grace
            // period has let every straggling add against it land, so one
            // pass over its occupied chunks finds every entry.
            if let Some(imm) = &imm {
                let moved = drain::drain_frozen(imm, &self.view, &self.seq, self.drain_style);
                FloDbStats::add(&self.stats.drained_entries, moved as u64);
                self.telemetry.event(TraceEventKind::Drain, moved as u64, 0);
                debug_assert_eq!(
                    imm.len(),
                    0,
                    "a fully drained frozen Membuffer must be empty — anything \
                     left here is an acknowledged write about to be dropped"
                );
                self.wake_persist_if_full();
            }
            self.view.release_frozen_membuffer();
            // That switch's grace period has retired the last view holding
            // the drained buffer: keep it for the next freeze unless a
            // snapshot still owns a reference.
            *spare = imm.and_then(view::reclaim);
            if spare.is_some() {
                FloDbStats::bump(&self.stats.membuffer_recycles);
            }
        } else {
            // No Membuffer: a pure grace period quiesces in-flight writes.
            self.view.grace_period();
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.telemetry.record_stage(StageClass::FreezeDrain, ns);
            self.telemetry.event(TraceEventKind::FreezeEnd, ns, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    use crate::store::tests::{db, k};
    use crate::KvStore;

    /// A switch's window opening inside a master scan's:
    /// Memtable writers and the drain loop stay paused when the first
    /// window resumes, until the last one does.
    #[test]
    fn overlapping_windows_stay_paused_until_the_last_resumes() {
        let db = db();
        let inner = &*db.inner;
        // Five keys of one bucket: four fill it, the fifth must take the
        // Memtable path.
        let mut buckets: HashMap<usize, Vec<u64>> = HashMap::new();
        let same_bucket = (0u64..)
            .find_map(|i| {
                let bucket = inner.view.read(|v| v.mbf.as_ref().unwrap().bucket_of(&k(i)));
                let keys = buckets.entry(bucket).or_default();
                keys.push(i);
                (keys.len() == 5).then(|| keys.clone())
            })
            .unwrap();
        let resident = || inner.view.read(|v| v.mbf.as_ref().unwrap().len());
        let fifth_written = AtomicBool::new(false);

        thread::scope(|s| {
            let window = || {
                let (entered, is_open) = mpsc::channel();
                let (close, closed) = mpsc::channel::<()>();
                let thread = s.spawn(move || {
                    inner.freeze_window(|_| {
                        entered.send(()).unwrap();
                        closed.recv().unwrap();
                    })
                });
                (is_open, close, thread)
            };
            let (first_open, close_first, first) = window();
            first_open.recv().unwrap();
            // The fast path is never paused; the drain loop is, so the
            // bucket stays full for the fifth key.
            for &i in &same_bucket[..4] {
                db.put(&k(i), b"fast").unwrap();
            }
            s.spawn(|| {
                db.put(&k(same_bucket[4]), b"slow").unwrap();
                fifth_written.store(true, Ordering::SeqCst);
            });
            // The second window pauses, then queues on the freeze lock.
            let (second_open, close_second, second) = window();
            while inner.frozen.pausers() < 2 {
                thread::yield_now();
            }
            close_first.send(()).unwrap();
            first.join().unwrap();
            second_open.recv().unwrap();

            assert_eq!(inner.frozen.pausers(), 1, "only the second window is open");
            thread::sleep(Duration::from_millis(30));
            assert!(!fifth_written.load(Ordering::SeqCst), "a Memtable writer got through");
            assert_eq!(resident(), 4, "the drain loop ran inside a freeze window");

            close_second.send(()).unwrap();
            second.join().unwrap();
        });
        assert!(fifth_written.load(Ordering::SeqCst));
        db.quiesce();
        assert_eq!(resident(), 0);
        assert_eq!(db.get(&k(same_bucket[4])), Some(b"slow".to_vec()));
        assert_eq!(db.stats().memtable_writes, 1);
    }
}
