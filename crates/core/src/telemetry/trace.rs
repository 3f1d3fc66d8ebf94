//! The flight recorder: a fixed-size lock-free ring of structured
//! engine events.
//!
//! Writers claim a slot by ticket (`cursor.fetch_add`) and publish it
//! with a per-slot seqlock: the slot's `seq` goes *empty/published →
//! claimed (odd) → published (even)* with a CAS on the claim, so two
//! writers can never write one slot concurrently — a writer that laps a
//! still-writing predecessor drops its event instead (counted in
//! [`TraceRing::dropped`]). Readers ([`TraceRing::dump`]) validate
//! `seq` before and after reading the payload and skip torn slots, so a
//! dump taken mid-flight returns only fully published events.
//!
//! The atomics come from `flodb_sync::shim::atomic`, so under
//! `--cfg flodb_model` the whole publish path runs on the model
//! checker's instrumented primitives (see `tests/model.rs`,
//! `trace_ring_*`).

use std::time::Instant;

use flodb_sync::lock_order::CORE_TRACE_DUMP;
use flodb_sync::shim::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use flodb_sync::shim::{ranked_mutex, Mutex};

/// What happened, for one flight-recorder event.
///
/// The `a`/`b` payload words of [`TraceEvent`] are per-kind:
///
/// | kind | `a` | `b` |
/// |---|---|---|
/// | `FreezeBegin` | — | — |
/// | `FreezeEnd` | duration (ns) | — |
/// | `Drain` | entries moved | — |
/// | `WalRotation` | sealed-segment bytes | duration (ns) |
/// | `WalRetirement` | segments retired | bytes retired |
/// | `Flush` | records flushed | duration (ns) |
/// | `Compaction` | duration (ns) | — |
/// | `StallBegin` | — | — |
/// | `StallEnd` | stall duration (ns) | — |
/// | `IoRetry` | attempt number | — |
/// | `Degraded` | — | — |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Membuffer freeze began (a scan master or capacity trigger).
    FreezeBegin,
    /// Freeze → drain completed; the frozen Membuffer is empty.
    FreezeEnd,
    /// A drain pass moved entries Membuffer → Memtable.
    Drain,
    /// A switch sealed the active WAL segment and opened a fresh one.
    WalRotation,
    /// A Memtable switch deleted the WAL segments its flush covers.
    WalRetirement,
    /// An immutable Memtable was flushed to disk.
    Flush,
    /// A compaction pass ran on the persist thread.
    Compaction,
    /// A writer began stalling for Memtable room.
    StallBegin,
    /// The stalled writer got room and resumed.
    StallEnd,
    /// A background I/O attempt failed and was retried.
    IoRetry,
    /// The degraded latch tripped (background I/O gave up).
    Degraded,
}

impl TraceEventKind {
    /// Stable label used in dump output.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::FreezeBegin => "freeze_begin",
            TraceEventKind::FreezeEnd => "freeze_end",
            TraceEventKind::Drain => "drain",
            TraceEventKind::WalRotation => "wal_rotation",
            TraceEventKind::WalRetirement => "wal_retirement",
            TraceEventKind::Flush => "flush",
            TraceEventKind::Compaction => "compaction",
            TraceEventKind::StallBegin => "stall_begin",
            TraceEventKind::StallEnd => "stall_end",
            TraceEventKind::IoRetry => "io_retry",
            TraceEventKind::Degraded => "degraded",
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            0 => TraceEventKind::FreezeBegin,
            1 => TraceEventKind::FreezeEnd,
            2 => TraceEventKind::Drain,
            3 => TraceEventKind::WalRotation,
            4 => TraceEventKind::WalRetirement,
            5 => TraceEventKind::Flush,
            6 => TraceEventKind::Compaction,
            7 => TraceEventKind::StallBegin,
            8 => TraceEventKind::StallEnd,
            9 => TraceEventKind::IoRetry,
            10 => TraceEventKind::Degraded,
            _ => return None,
        })
    }
}

/// One published flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global event number (monotone across the whole run; the ring
    /// holds the last `capacity` of them).
    pub ticket: u64,
    /// Microseconds since the ring (i.e. the store) was created.
    pub at_us: u64,
    /// Dense process-local id of the emitting thread.
    pub tid: u32,
    /// What happened.
    pub kind: TraceEventKind,
    /// First payload word (see [`TraceEventKind`] for the per-kind
    /// meaning).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// One ring slot: a seqlock (`seq`) over five payload words.
///
/// `seq` encodes both state and ownership: `0` = never written,
/// `2t + 1` = claimed by ticket `t` (payload being written),
/// `2t + 2` = ticket `t` published.
struct Slot {
    seq: AtomicU64,
    kind: AtomicU32,
    tid: AtomicU32,
    at_us: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            kind: AtomicU32::new(0),
            tid: AtomicU32::new(0),
            at_us: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// The fixed-size lock-free event ring. Memory is bounded at
/// construction: recording never allocates, a full ring overwrites its
/// oldest events, and a writer lapped mid-write loses the newer event
/// (never corrupts the older one).
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Next ticket; slot = ticket % capacity.
    cursor: AtomicU64,
    /// Events dropped because their slot's previous writer had not yet
    /// published (a writer lapped the whole ring mid-write).
    dropped: AtomicU64,
    /// Timestamp origin for [`TraceEvent::at_us`].
    epoch: Instant,
    /// Serializes whole-ring dumps to stderr (the degraded-latch
    /// auto-dump), so two tripping shards interleave lines, not bytes.
    /// Leaf rank: nothing is acquired under it.
    dump_lock: Mutex<()>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRing {
    /// Creates a ring holding the last `capacity` events (rounded up to
    /// a power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        Self {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            dump_lock: ranked_mutex(CORE_TRACE_DUMP, ()),
        }
    }

    /// Number of slots (events retained).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events pushed (dropped ones included).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events lost to a writer lapping a still-writing predecessor.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one event. Lock-free and allocation-free; wait-free for
    /// the writer (a claim conflict drops the event rather than spin).
    pub fn push(&self, kind: TraceEventKind, tid: u32, a: u64, b: u64) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let cap = self.slots.len() as u64;
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % cap) as usize];
        // The slot is writable only from a published (even) sequence of
        // an older ticket, or from never-written. Any older lap will do,
        // not just the previous one: a lap whose push was dropped leaves
        // the slot further behind, and the next lapper must still be
        // able to claim it. Acquire pairs with the last writer's
        // publishing Release so its payload stores cannot be ordered
        // after ours.
        let seen = slot.seq.load(Ordering::Relaxed);
        if seen % 2 == 1
            || seen > 2 * ticket
            || slot
                .seq
                .compare_exchange(seen, 2 * ticket + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.kind.store(kind as u32, Ordering::Relaxed);
        slot.tid.store(tid, Ordering::Relaxed);
        slot.at_us.store(at_us, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        // Release-publish: readers that observe the even seq also
        // observe every payload store above.
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Returns every fully published event, oldest first. Slots being
    /// written concurrently are skipped (never torn), so the result is
    /// a consistent sample of the last ≤ `capacity` events.
    pub fn dump(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == 0 || seq1 % 2 == 1 {
                continue; // Empty or mid-write.
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let tid = slot.tid.load(Ordering::Relaxed);
            let at_us = slot.at_us.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            // Seqlock validation: the payload loads above must complete
            // before the re-read below; the Acquire fence orders them.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq1 {
                continue; // Overwritten while reading.
            }
            let Some(kind) = TraceEventKind::from_u32(kind) else {
                continue;
            };
            out.push(TraceEvent {
                ticket: (seq1 - 2) / 2,
                at_us,
                tid,
                kind,
                a,
                b,
            });
        }
        out.sort_by_key(|e| e.ticket);
        out
    }

    /// Dumps the ring to stderr, one line per event — the degraded-latch
    /// auto-dump. The dump lock only serializes concurrent dumps'
    /// output; recording proceeds untouched.
    pub(crate) fn dump_to_stderr(&self, why: &str) {
        let _serialize = self.dump_lock.lock();
        let events = self.dump();
        eprintln!(
            "flodb trace dump ({why}): {} events, {} recorded, {} dropped",
            events.len(),
            self.recorded(),
            self.dropped()
        );
        for ev in &events {
            eprintln!(
                "  #{:<6} +{:>10}us tid={:<3} {:<14} a={} b={}",
                ev.ticket,
                ev.at_us,
                ev.tid,
                ev.kind.name(),
                ev.a,
                ev.b
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order() {
        let ring = TraceRing::with_capacity(8);
        ring.push(TraceEventKind::FreezeBegin, 1, 0, 0);
        ring.push(TraceEventKind::FreezeEnd, 1, 123, 0);
        ring.push(TraceEventKind::Flush, 2, 10, 20);
        let events = ring.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceEventKind::FreezeBegin);
        assert_eq!(events[1].kind, TraceEventKind::FreezeEnd);
        assert_eq!(events[1].a, 123);
        assert_eq!(events[2].tid, 2);
        assert!(events.windows(2).all(|w| w[0].ticket < w[1].ticket));
    }

    #[test]
    fn wraparound_keeps_only_the_newest() {
        let ring = TraceRing::with_capacity(4);
        for i in 0..10u64 {
            ring.push(TraceEventKind::IoRetry, 0, i, 0);
        }
        let events = ring.dump();
        assert_eq!(events.len(), 4, "ring holds exactly its capacity");
        let payloads: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(payloads, vec![6, 7, 8, 9], "oldest overwritten first");
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn a_dropped_push_does_not_retire_its_slot() {
        let ring = TraceRing::with_capacity(4);
        for i in 0..4u64 {
            ring.push(TraceEventKind::Drain, 0, i, 0);
        }
        // Ticket 0's writer is lapped mid-write: slot 0 looks claimed, so
        // ticket 4's push is dropped.
        ring.slots[0].seq.store(1, Ordering::Relaxed);
        for i in 4..8u64 {
            ring.push(TraceEventKind::Drain, 0, i, 0);
        }
        assert_eq!(ring.dropped(), 1);
        // The stalled writer publishes; slot 0 is now two laps behind
        // ticket 8, which must still be able to claim it.
        ring.slots[0].seq.store(2, Ordering::Release);
        for i in 8..12u64 {
            ring.push(TraceEventKind::Drain, 0, i, 0);
        }
        assert_eq!(ring.dropped(), 1);
        let payloads: Vec<u64> = ring.dump().iter().map(|e| e.a).collect();
        assert_eq!(payloads, vec![8, 9, 10, 11]);
    }

    #[test]
    fn capacity_rounds_up_and_memory_is_bounded() {
        let ring = TraceRing::with_capacity(5);
        assert_eq!(ring.capacity(), 8);
        // Push far more events than slots: the dump never grows past
        // capacity and every surviving ticket is from the final lap.
        for i in 0..10_000u64 {
            ring.push(TraceEventKind::Drain, 0, i, 0);
        }
        let events = ring.dump();
        assert_eq!(events.len(), 8);
        assert!(events.iter().all(|e| e.ticket >= 10_000 - 8));
    }

    #[test]
    fn kind_roundtrips_through_u32() {
        for kind in [
            TraceEventKind::FreezeBegin,
            TraceEventKind::FreezeEnd,
            TraceEventKind::Drain,
            TraceEventKind::WalRotation,
            TraceEventKind::WalRetirement,
            TraceEventKind::Flush,
            TraceEventKind::Compaction,
            TraceEventKind::StallBegin,
            TraceEventKind::StallEnd,
            TraceEventKind::IoRetry,
            TraceEventKind::Degraded,
        ] {
            assert_eq!(TraceEventKind::from_u32(kind as u32), Some(kind));
        }
        assert_eq!(TraceEventKind::from_u32(999), None);
    }

    #[test]
    fn dump_to_stderr_does_not_panic() {
        let ring = TraceRing::with_capacity(4);
        ring.push(TraceEventKind::Degraded, 0, 0, 0);
        ring.dump_to_stderr("unit test");
    }
}
