//! The freeze stage (Algorithm 3, lines 4-14): pause writers and drains,
//! swap in a fresh Membuffer, drain the frozen one into the Memtable.
//! Master scans, the fallback scan and the WAL-retirement checkpoint all
//! come through here.

use std::sync::Arc;
use std::time::Instant;

use flodb_membuffer::MemBuffer;
use flodb_sync::Backoff;

use super::Inner;
use crate::drain;
use crate::stats::FloDbStats;
use crate::telemetry::{StageClass, TraceEventKind};
use crate::view::ImmMembuffer;

impl Inner {
    /// Runs `body` inside a freeze window: background drains and Memtable
    /// writers paused (lines 4-5), `freeze_lock` held, everything released
    /// in reverse afterwards (lines 13-14). `body` receives the state
    /// behind `freeze_lock` — the spare Membuffer — for
    /// [`Self::freeze_and_drain_membuffer`].
    ///
    /// The pause flags are counting, so windows of concurrent callers may
    /// overlap; `freeze_lock` serializes what happens inside them.
    pub(super) fn freeze_window<R>(
        &self,
        body: impl FnOnce(&mut Option<Arc<MemBuffer>>) -> R,
    ) -> R {
        self.pause_draining.pause();
        self.pause_writers.pause();
        let out = {
            let mut spare = self.freeze_lock.lock();
            body(&mut spare)
        };
        self.pause_writers.resume();
        self.pause_draining.resume();
        out
    }

    /// Lines 6-11 of Algorithm 3: install a fresh Membuffer, freeze the
    /// old one, and fully drain it into the Memtable (cooperating with
    /// helping writers). Call inside [`Self::freeze_window`]: `spare` is
    /// the Membuffer to install (a new one is built only when there is
    /// none) and receives the drained one back if nobody else still holds
    /// it.
    pub(super) fn freeze_and_drain_membuffer(&self, spare: &mut Option<Arc<MemBuffer>>) {
        let t0 = self.telemetry.counters().then(Instant::now);
        self.telemetry.event(TraceEventKind::FreezeBegin, 0, 0);
        if self.opts.membuffer_enabled {
            // Install a fresh Membuffer; freeze the old one (lines 6-7).
            // The switch waits a grace period, subsuming MemBufferRCUWait
            // and MemTableRCUWait (lines 8-9).
            let fresh = spare.take().unwrap_or_else(|| super::new_membuffer(&self.opts));
            let imm = self.view.freeze_membuffer(fresh);
            // Drain the frozen buffer, cooperating with helping writers
            // (lines 10-11). The drain opens only now — after the switch's
            // grace period — because the frozen view was visible to paused
            // writers *during* the grace, while straggling writers could
            // still be adding to the frozen buffer; a bucket claimed that
            // early would miss a straggler's entry and drop it with the
            // buffer (an acknowledged write lost — the root cause of the
            // long-standing message_queue backlog flake). The view-coupled
            // drain variant resolves the Memtable per chunk, inside a
            // read-side critical section: a concurrent persist switch would
            // otherwise race the drain into a Memtable whose flush already
            // collected its entries, dropping them when the immutable table
            // is released.
            if let Some(imm) = &imm {
                imm.open_for_drain();
                let moved =
                    drain::help_drain_imm_via(imm, &self.view, &self.seq, self.drain_style).entries;
                FloDbStats::add(&self.stats.drained_entries, moved as u64);
                self.telemetry.event(TraceEventKind::Drain, moved as u64, 0);
                let backoff = Backoff::new();
                while !imm.tracker.is_complete() {
                    backoff.snooze();
                }
                debug_assert_eq!(
                    imm.buffer.len(),
                    0,
                    "a fully drained frozen Membuffer must be empty — anything \
                     left here is an acknowledged write about to be dropped"
                );
            }
            self.view.release_frozen_membuffer();
            // That switch's grace period has retired the last view holding
            // the drained buffer: keep it for the next freeze unless a
            // snapshot or a late helper still owns a reference.
            *spare = imm.and_then(ImmMembuffer::reclaim);
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
