//! A phased in-flight counter: a grace period over short critical windows.
//!
//! A Memtable switch deletes the log segments its flush covers, so it must
//! know that every write *logged* into those segments has also been
//! *applied* to the memory component — otherwise the flush could miss a
//! write that was logged there but applied (and acknowledged!) just
//! after it, and that write would survive only in the deleted file. The
//! logged→applied window spans blocking waits (group-commit parking, a
//! freeze), so RCU read-side sections can't cover it; and a single
//! in-flight counter never reaches zero under sustained traffic.
//!
//! [`PhasedInflight`] solves this the classic way: **two counters and a
//! phase bit**. Writers enter the counter of the current phase; the
//! quiescer flips the phase ([`PhasedInflight::flip`]) and waits only for
//! the *old* phase's counter to drain ([`Grace::wait`]). Writers arriving
//! after the flip land in the new phase and are not waited for, so the
//! wait is bounded by the windows that were open at the flip — a true
//! grace period, even at full write rate. A window can ask whether a
//! grace waits for it ([`InflightGuard::is_awaited`]): the store's
//! writers use that to skip a wait that only the quiescer could end.

use crate::shim::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::shim::thread;

/// A two-phase in-flight tracker; see the module docs.
///
/// One quiescer at a time: a second flip before the first grace ends
/// would mix two grace periods' entrants into one counter. The store's
/// persist thread is the only one that flips.
///
/// # Examples
///
/// ```
/// use flodb_sync::PhasedInflight;
///
/// let inflight = PhasedInflight::new();
/// let guard = inflight.enter();
/// let grace = inflight.flip();
/// assert!(guard.is_awaited(), "the flip left this window in the old phase");
/// drop(guard); // the tracked window closed
/// grace.wait(); // returns: nothing of the old phase is in flight
/// ```
#[derive(Debug)]
pub struct PhasedInflight {
    /// Low bit selects which counter new entrants use.
    phase: AtomicUsize,
    /// Entrant counts per phase.
    counts: [AtomicU64; 2],
}

/// An open in-flight window; dropping it closes the window.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    owner: &'a PhasedInflight,
    phase: usize,
}

/// The grace period a [`PhasedInflight::flip`] began: the windows of the
/// phase it closed.
#[derive(Debug)]
#[must_use = "a flip without its wait is no grace period"]
pub struct Grace<'a> {
    owner: &'a PhasedInflight,
    old: usize,
}

impl Default for PhasedInflight {
    fn default() -> Self {
        Self::new()
    }
}

impl PhasedInflight {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self {
            phase: AtomicUsize::new(0),
            counts: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Opens an in-flight window in the current phase.
    ///
    /// The increment-then-recheck dance closes the race with a concurrent
    /// phase flip: if the flip became visible between reading the phase
    /// and incrementing its counter, the entrant backs out and retries in
    /// the new phase. All operations are `SeqCst`, so an entrant whose
    /// recheck still saw the old phase is ordered before the flip — and
    /// its increment is therefore visible to the quiescer's drain check.
    pub fn enter(&self) -> InflightGuard<'_> {
        loop {
            // ORDERING: the whole increment-then-recheck dance is a Dekker
            // protocol with the quiescer's flip-then-drain (see the doc
            // comment above); every operation participates in the single
            // total order or the "recheck saw old phase ⇒ increment
            // visible to the drain" implication does not hold.
            let phase = self.phase.load(Ordering::SeqCst) & 1;
            self.counts[phase].fetch_add(1, Ordering::SeqCst); // ORDERING: Dekker, see comment above
            if self.phase.load(Ordering::SeqCst) & 1 == phase { // ORDERING: Dekker, see comment above
                return InflightGuard { owner: self, phase };
            }
            self.counts[phase].fetch_sub(1, Ordering::SeqCst); // ORDERING: Dekker, see comment above
        }
    }

    /// Flips the phase: windows opened from here on land in the new one.
    /// The returned [`Grace`] waits for the windows open at the flip.
    ///
    /// The flip itself takes no lock, so a caller can make it atomic with
    /// its own state change (the store flips under the log lock, in the
    /// same critical section that seals a segment).
    pub fn flip(&self) -> Grace<'_> {
        // ORDERING: the quiescer's half of the Dekker pairing with
        // `enter` — the flip RMW and the drain loads must share the
        // entrants' total order, or a window opened before the flip could
        // be missed by the drain check.
        let old = self.phase.fetch_add(1, Ordering::SeqCst) & 1;
        Grace { owner: self, old }
    }

    /// Windows currently open (both phases; diagnostics only).
    pub fn open_windows(&self) -> u64 {
        // Diagnostics only — no protocol depends on these loads, so the
        // weakest ordering suffices.
        self.counts[0].load(Ordering::Relaxed) + self.counts[1].load(Ordering::Relaxed)
    }
}

impl Grace<'_> {
    /// Waits until every window open at the flip has closed, yielding
    /// between checks. Each window is one write operation, and nothing
    /// opened after the flip extends the wait.
    pub fn wait(self) {
        // ORDERING: Dekker drain load, see `PhasedInflight::flip`.
        while self.owner.counts[self.old].load(Ordering::SeqCst) != 0 {
            thread::yield_now();
        }
    }
}

impl InflightGuard<'_> {
    /// Whether a grace period waits for this window: the phase has been
    /// flipped since it opened. Only one flip can happen while a window
    /// is open — the next one waits for this grace to end first — so a
    /// differing phase bit means exactly that.
    pub fn is_awaited(&self) -> bool {
        // Mutation hook (`Hook::RoomStall`, tests/model_mutation.rs): never
        // report the window awaited, so a writer waiting on the very
        // quiescer that waits on it hangs.
        #[cfg(flodb_model_mutation)]
        if crate::shim::mutation::on(crate::shim::mutation::Hook::RoomStall) {
            return false;
        }
        // ORDERING: pairs with the flip's SeqCst RMW; a stale read only
        // delays the answer to the writer's next check.
        self.owner.phase.load(Ordering::SeqCst) & 1 != self.phase
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        // ORDERING: the close must join the same total order as the open
        // and the quiescer's drain loads; a Release decrement could be
        // observed by the drain while the window's writes are not.
        self.owner.counts[self.phase].fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    use super::*;

    #[test]
    fn grace_on_idle_tracker_returns_immediately() {
        let t = PhasedInflight::new();
        t.flip().wait();
        assert_eq!(t.open_windows(), 0);
    }

    #[test]
    fn grace_waits_for_windows_open_at_the_flip() {
        let t = Arc::new(PhasedInflight::new());
        let release = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(AtomicBool::new(false));
        let holder = {
            let t = Arc::clone(&t);
            let release = Arc::clone(&release);
            let entered = Arc::clone(&entered);
            thread::spawn(move || {
                let _g = t.enter();
                entered.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
            })
        };
        while !entered.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        let done = Arc::new(AtomicBool::new(false));
        let quiesced = {
            let t = Arc::clone(&t);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                t.flip().wait();
                done.store(true, Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(20));
        assert!(
            !done.load(Ordering::SeqCst),
            "the grace ended with a window open"
        );
        release.store(true, Ordering::SeqCst);
        quiesced.join().unwrap();
        holder.join().unwrap();
        assert_eq!(t.open_windows(), 0);
    }

    #[test]
    fn grace_does_not_wait_for_late_entrants() {
        // A window opened *after* the flip must not extend the grace
        // period: a grace under a continuous stream of fresh entrants
        // still terminates.
        let t = Arc::new(PhasedInflight::new());
        let stop = Arc::new(AtomicBool::new(false));
        let churn: Vec<_> = (0..3)
            .map(|_| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let _g = t.enter();
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            t.flip().wait();
        }
        stop.store(true, Ordering::SeqCst);
        for h in churn {
            h.join().unwrap();
        }
        t.flip().wait();
        assert_eq!(t.open_windows(), 0);
    }

    #[test]
    fn every_window_closes_exactly_once_under_churn() {
        let t = Arc::new(PhasedInflight::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                for _ in 0..2000 {
                    drop(t.enter());
                }
            }));
        }
        for _ in 0..200 {
            t.flip().wait();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.open_windows(), 0, "counters must balance");
    }
}
