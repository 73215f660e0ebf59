//! Deduction flight recorder — a bounded, lock-free ring of structured
//! engine events.
//!
//! The demand engine emits one [`FlightEvent`] per interesting scheduling
//! decision (goal activated, watcher blocked on a subgoal, goal resumed
//! after budget exhaustion, goal completed, memo hit, cycle merged, and a
//! *sampled* stream of rule firings). The ring is fixed-size: when it
//! fills, the oldest events are overwritten first and the exact number of
//! overwritten events is reported by [`FlightSnapshot::dropped`], so a
//! post-hoc reconstruction always knows how much of the flight it is
//! missing.
//!
//! # Design
//!
//! Each slot is a tiny seqlock: a sequence word plus two data words.
//! A writer claims a slot by a single `fetch_add` on the head counter —
//! the claimed absolute index *is* the event's logical timestamp — then
//! publishes `2·i + 1` (odd: write in progress), the payload, and finally
//! `2·i + 2` (even: stable, encodes `i`). Readers skip slots whose
//! sequence is odd or changes underfoot, so a snapshot taken while the
//! engine is running simply has *gaps* instead of torn events — exactly
//! the tolerance the reconstruction layer is tested for.
//!
//! Slot storage is allocated lazily on the first recorded event, so the
//! hundreds of short-lived engines the test-suite creates pay only for a
//! [`OnceLock`] until they actually record something.
//!
//! Rule firings are orders of magnitude more frequent than structural
//! events, so they route through [`FlightRecorder::maybe_record_fire`],
//! which keeps every `sample`-th firing (stride sampling). Structural
//! events are always recorded. With the default stride the recorder is
//! cheap enough to leave on in production (the bench T9 table reports the
//! measured overhead).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The kind of a recorded engine event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlightEventKind {
    /// A goal was activated (tabled for the first time). `a` = goal index.
    Activated,
    /// A watcher was installed: the consumer goal now *blocks on* new
    /// elements of the producer. `a` = producer goal index, `b` =
    /// consumer goal index (`u32::MAX` when the consumer is not tabled
    /// yet).
    Blocked,
    /// A goal was re-queued because the budget ran out mid-drain; a later
    /// query resumes it. `a` = goal index.
    Resumed,
    /// A goal reached its final fixpoint. `a` = goal index, `b` = element
    /// count, `work` = attributed work ticks.
    Completed,
    /// A query or activation was answered from a memo table. `a` = goal
    /// index, `b` = 0 for the local table, 1 for the shared cross-worker
    /// table.
    MemoHit,
    /// A sampled rule firing. `a` = goal index being processed, `b` =
    /// watcher kind index, `work` = sampling stride (each recorded firing
    /// stands for `work` real ones).
    Fire,
}

impl FlightEventKind {
    /// Schema names, indexed by discriminant.
    pub const KIND_NAMES: [&'static str; 6] = [
        "activated",
        "blocked",
        "resumed",
        "completed",
        "memo_hit",
        "fire",
    ];

    /// The event's schema name.
    pub fn as_str(self) -> &'static str {
        Self::KIND_NAMES[self as usize]
    }

    fn from_u32(v: u32) -> Option<Self> {
        match v {
            0 => Some(FlightEventKind::Activated),
            1 => Some(FlightEventKind::Blocked),
            2 => Some(FlightEventKind::Resumed),
            3 => Some(FlightEventKind::Completed),
            4 => Some(FlightEventKind::MemoHit),
            5 => Some(FlightEventKind::Fire),
            _ => None,
        }
    }
}

/// One recorded engine event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Logical timestamp: the event's absolute position in the recording
    /// order (0-based, monotone across the whole engine lifetime).
    pub seq: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Primary operand — a goal index, meaning per [`FlightEventKind`].
    pub a: u32,
    /// Secondary operand, meaning per [`FlightEventKind`].
    pub b: u32,
    /// Work ticks attributed to this event (0 when not applicable).
    pub work: u32,
}

/// A point-in-time copy of the ring.
#[derive(Clone, Debug, Default)]
pub struct FlightSnapshot {
    /// Stable events, ascending by `seq`. May have gaps where a
    /// concurrent writer was mid-publish.
    pub events: Vec<FlightEvent>,
    /// Total events ever recorded (= the next event's `seq`).
    pub recorded: u64,
    /// Exactly how many of the oldest events the ring has overwritten:
    /// `recorded − min(recorded, capacity)`.
    pub dropped: u64,
}

/// Recorder configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring capacity in events; rounded up to a power of two, minimum 8.
    pub capacity: usize,
    /// Fire-sampling stride: every `sample`-th rule firing is recorded
    /// (clamped to ≥ 1; structural events are never sampled).
    pub sample: u32,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 8192,
            sample: 64,
        }
    }
}

#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in progress; `2·i + 2` = slot holds
    /// the stable event with absolute index `i`.
    seq: AtomicU64,
    /// `kind << 32 | a`.
    kind_a: AtomicU64,
    /// `b << 32 | work`.
    b_work: AtomicU64,
}

/// The bounded lock-free event ring. Cheap to share (`Arc` it); writers
/// never block and never allocate past the one lazy slot-table init.
#[derive(Debug)]
pub struct FlightRecorder {
    config: FlightConfig,
    /// Total events ever recorded; the low bits index the ring.
    head: AtomicU64,
    /// Total rule firings offered to the sampler (recorded or not).
    fires_seen: AtomicU64,
    slots: OnceLock<Box<[Slot]>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(FlightConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given ring size and sampling stride.
    pub fn new(config: FlightConfig) -> Self {
        FlightRecorder {
            config,
            head: AtomicU64::new(0),
            fires_seen: AtomicU64::new(0),
            slots: OnceLock::new(),
        }
    }

    /// The effective ring capacity (power of two, ≥ 8).
    pub fn capacity(&self) -> usize {
        self.config.capacity.next_power_of_two().max(8)
    }

    /// The effective fire-sampling stride (≥ 1).
    pub fn sample_stride(&self) -> u32 {
        self.config.sample.max(1)
    }

    fn slots(&self) -> &[Slot] {
        self.slots.get_or_init(|| {
            (0..self.capacity())
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    kind_a: AtomicU64::new(0),
                    b_work: AtomicU64::new(0),
                })
                .collect()
        })
    }

    /// Records one event; returns its logical timestamp.
    pub fn record(&self, kind: FlightEventKind, a: u32, b: u32, work: u32) -> u64 {
        let slots = self.slots();
        let mask = slots.len() as u64 - 1;
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &slots[(i & mask) as usize];
        slot.seq.store(2 * i + 1, Ordering::Release);
        slot.kind_a
            .store(((kind as u64) << 32) | a as u64, Ordering::Release);
        slot.b_work
            .store(((b as u64) << 32) | work as u64, Ordering::Release);
        slot.seq.store(2 * i + 2, Ordering::Release);
        i
    }

    /// Offers one rule firing to the sampler; records a [`Fire`] event
    /// (with `work` = the stride, the number of real firings it stands
    /// for) every `sample`-th call. Returns `true` if recorded.
    ///
    /// [`Fire`]: FlightEventKind::Fire
    #[inline]
    pub fn maybe_record_fire(&self, goal: u32, watcher_kind: u32) -> bool {
        let stride = self.sample_stride() as u64;
        let n = self.fires_seen.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(stride) {
            return false;
        }
        self.record(
            FlightEventKind::Fire,
            goal,
            watcher_kind,
            self.sample_stride(),
        );
        true
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Total rule firings offered to the sampler.
    pub fn fires_seen(&self) -> u64 {
        self.fires_seen.load(Ordering::Relaxed)
    }

    /// Exact count of events overwritten so far (oldest-first).
    pub fn dropped(&self) -> u64 {
        let recorded = self.recorded();
        recorded - recorded.min(self.capacity() as u64)
    }

    /// Copies the stable contents of the ring. Safe concurrently with
    /// writers: slots mid-write (or overwritten between the sequence
    /// check and the payload read) are skipped, producing gaps rather
    /// than torn events. Events come back ascending by `seq`.
    pub fn snapshot(&self) -> FlightSnapshot {
        let recorded = self.recorded();
        let mut events = Vec::new();
        if let Some(slots) = self.slots.get() {
            let oldest = recorded - recorded.min(slots.len() as u64);
            for slot in slots.iter() {
                let seq0 = slot.seq.load(Ordering::Acquire);
                if seq0 == 0 || seq0 % 2 == 1 {
                    continue; // never written / write in progress
                }
                let i = seq0 / 2 - 1;
                if i < oldest {
                    continue; // stale beyond the live window
                }
                let kind_a = slot.kind_a.load(Ordering::Acquire);
                let b_work = slot.b_work.load(Ordering::Acquire);
                if slot.seq.load(Ordering::Acquire) != seq0 {
                    continue; // overwritten underfoot — tolerate the gap
                }
                let Some(kind) = FlightEventKind::from_u32((kind_a >> 32) as u32) else {
                    continue;
                };
                events.push(FlightEvent {
                    seq: i,
                    kind,
                    a: kind_a as u32,
                    b: (b_work >> 32) as u32,
                    work: b_work as u32,
                });
            }
        }
        events.sort_unstable_by_key(|e| e.seq);
        FlightSnapshot {
            events,
            recorded,
            dropped: recorded - recorded.min(self.capacity() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(capacity: usize, sample: u32) -> FlightRecorder {
        FlightRecorder::new(FlightConfig { capacity, sample })
    }

    #[test]
    fn empty_snapshot_is_empty_and_exact() {
        let r = FlightRecorder::default();
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.recorded, 0);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn records_in_order_with_logical_timestamps() {
        let r = tiny(16, 1);
        for k in 0..5u32 {
            let seq = r.record(FlightEventKind::Activated, k, 0, 0);
            assert_eq!(seq, k as u64, "claimed index is the timestamp");
        }
        let snap = r.snapshot();
        assert_eq!(snap.recorded, 5);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 5);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.a, i as u32);
            assert_eq!(e.kind, FlightEventKind::Activated);
        }
    }

    #[test]
    fn wrap_around_drops_oldest_first_with_exact_counter() {
        let r = tiny(8, 1);
        assert_eq!(r.capacity(), 8);
        for k in 0..20u32 {
            r.record(FlightEventKind::Fire, k, 0, 1);
        }
        let snap = r.snapshot();
        assert_eq!(snap.recorded, 20);
        assert_eq!(snap.dropped, 12, "exactly recorded − capacity dropped");
        assert_eq!(r.dropped(), 12);
        // The survivors are precisely the newest `capacity` events, in order.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two_with_floor() {
        assert_eq!(tiny(0, 1).capacity(), 8);
        assert_eq!(tiny(9, 1).capacity(), 16);
        assert_eq!(tiny(4096, 1).capacity(), 4096);
    }

    #[test]
    fn fire_sampling_keeps_every_nth() {
        let r = tiny(64, 4);
        let mut kept = 0;
        for i in 0..16u32 {
            if r.maybe_record_fire(i, 0) {
                kept += 1;
            }
        }
        assert_eq!(kept, 4, "stride 4 keeps every 4th of 16");
        assert_eq!(r.fires_seen(), 16);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 4);
        for e in &snap.events {
            assert_eq!(e.kind, FlightEventKind::Fire);
            assert_eq!(e.work, 4, "each kept firing stands for `stride` real ones");
        }
    }

    #[test]
    fn sample_stride_clamps_to_one() {
        let r = tiny(64, 0);
        assert_eq!(r.sample_stride(), 1);
        for i in 0..5u32 {
            assert!(r.maybe_record_fire(i, 0), "stride 1 keeps everything");
        }
        assert_eq!(r.snapshot().events.len(), 5);
    }

    #[test]
    fn event_payload_round_trips() {
        let r = tiny(8, 1);
        r.record(FlightEventKind::Completed, 7, 3, 41);
        let e = r.snapshot().events[0];
        assert_eq!(e.kind, FlightEventKind::Completed);
        assert_eq!(e.a, 7);
        assert_eq!(e.b, 3);
        assert_eq!(e.work, 41);
        assert_eq!(e.kind.as_str(), "completed");
    }

    #[test]
    fn kind_names_cover_all_discriminants() {
        for (i, name) in FlightEventKind::KIND_NAMES.iter().enumerate() {
            let k = FlightEventKind::from_u32(i as u32).expect("valid discriminant");
            assert_eq!(k.as_str(), *name);
        }
        assert!(FlightEventKind::from_u32(6).is_none());
    }

    #[test]
    fn concurrent_writers_produce_a_consistent_window() {
        let r = std::sync::Arc::new(tiny(64, 1));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..1000u32 {
                        r.record(FlightEventKind::Fire, t * 1000 + i, 0, 1);
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 4000);
        assert_eq!(r.dropped(), 4000 - 64);
        let snap = r.snapshot();
        // Quiescent ring: every surviving slot is stable, so the snapshot
        // is the full newest-64 window, strictly ascending.
        assert_eq!(snap.events.len(), 64);
        for w in snap.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(snap.events.last().map(|e| e.seq), Some(3999));
    }

    #[test]
    fn snapshot_tolerates_gaps_from_in_progress_writes() {
        // Simulate a writer parked mid-publish by forcing a slot's seq odd.
        let r = tiny(8, 1);
        for k in 0..8u32 {
            r.record(FlightEventKind::Activated, k, 0, 0);
        }
        let slots = r.slots();
        slots[3].seq.store(2 * 3 + 1, Ordering::Release);
        let snap = r.snapshot();
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 4, 5, 6, 7], "gap where the write hangs");
        assert_eq!(snap.recorded, 8, "recorded counter unaffected by the gap");
    }
}
