//! Deterministic event queue.
//!
//! Events are ordered by `(time, priority, sequence)`. The sequence number is
//! assigned at push time, so two runs that push the same events in the same
//! order pop them in the same order — the foundation of the simulator's
//! bit-for-bit determinism.
//!
//! The implementation is a *calendar queue* (a bucketed timing wheel, Brown
//! 1988): a power-of-two ring of unordered buckets indexed by the event's
//! "day" (`time >> width_log2`). A pop scans days forward from a maintained
//! lower bound on the minimum pending time and takes the smallest full
//! `(time, priority, seq)` key inside the first day that has events; since a
//! later day only holds strictly later times, that key is the global minimum.
//! Push and pop are O(1) amortized instead of the former `BinaryHeap`'s
//! O(log n), there is no per-operation allocation in steady state, and —
//! crucially — the pop *order* is identical to the heap's, which the
//! equivalence tests below pin down. See DESIGN.md §15 for the invariants.

use std::cell::Cell;
use std::cmp::Ordering;

use crate::time::Cycles;

/// Scheduling priority for events that share a timestamp.
///
/// `Urgent` models the paper's high-priority protocol-controller commands
/// ("so that we can prevent prefetches from delaying requests for which a
/// computation processor is stalled waiting"); `Low` models prefetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Serviced before anything else at the same timestamp.
    Urgent,
    /// Ordinary protocol traffic.
    #[default]
    Normal,
    /// Prefetches and other deferrable work.
    Low,
}

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone)]
pub struct Event<T> {
    /// Absolute simulated time at which the event fires.
    pub time: Cycles,
    /// Tie-break priority at equal `time`.
    pub priority: Priority,
    /// Push-order sequence number (unique per queue).
    pub seq: u64,
    /// The event itself.
    pub payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Event<T> {}
impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Kept heap-compatible (smallest key = greatest Event) so the
        // `#[cfg(test)]` BinaryHeap reference model pops in the same order.
        other.key().cmp(&self.key())
    }
}

impl<T> Event<T> {
    fn key(&self) -> (Cycles, Priority, u64) {
        (self.time, self.priority, self.seq)
    }
}

/// Smallest bucket ring: `1 << MIN_BITS` buckets.
const MIN_BITS: u32 = 4;
/// Largest bucket ring: `1 << MAX_BITS` buckets.
const MAX_BITS: u32 = 20;
/// Upper clamp for `width_log2`; beyond this a single day covers any
/// realistic span of simulated time.
const MAX_WIDTH_LOG2: u32 = 48;
/// Event slots a rebuild keeps for reuse beyond twice the pending count.
const KEEP_FLOOR: usize = 4096;

/// A deterministic min-priority queue of [`Event`]s.
///
/// ```
/// use ncp2_sim::{EventQueue, Priority};
/// let mut q = EventQueue::new();
/// q.push(5, Priority::Normal, 'x');
/// assert_eq!(q.peek_time(), Some(5));
/// assert_eq!(q.peek().map(|e| e.payload), Some('x'));
/// assert_eq!(q.pop().map(|e| e.payload), Some('x'));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Power-of-two ring of unordered day buckets.
    buckets: Vec<Vec<Event<T>>>,
    /// `buckets.len() == 1 << bucket_bits`.
    bucket_bits: u32,
    /// Cycles per day, as a shift: `day(t) = t >> width_log2`.
    width_log2: u32,
    /// Total pending events across all buckets.
    len: usize,
    /// Next push-order sequence number.
    next_seq: u64,
    /// Lower bound on every pending event's time. Pops are monotone
    /// non-decreasing in time, so the last popped time is a valid bound;
    /// pushes below it lower it.
    min_hint: Cycles,
    /// Memoized position of the minimum event (`bucket`, `slot`), kept
    /// coherent by push and cleared by pop/rebuild, so peek-then-pop costs
    /// one scan instead of two. Purely an optimization: never affects order.
    cached_min: Cell<Option<(u32, u32)>>,
    /// Set when a scan had to fall back to a full ring walk (some event lay
    /// a whole year past `min_hint`); the next pop retunes the day width.
    want_retune: Cell<bool>,
    /// Buckets cut off by a shrink, and the list a rebuild gathers events
    /// in: kept so that a queue whose depth swings (every barrier) resizes
    /// its ring without reallocating what the last swing already grew.
    /// Their spare capacity is bounded at each rebuild (see `KEEP_FLOOR`),
    /// so a queue that once ran deep does not hold that memory forever.
    spare: Vec<Vec<Event<T>>>,
    gather: Vec<Event<T>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..1usize << MIN_BITS).map(|_| Vec::new()).collect(),
            bucket_bits: MIN_BITS,
            width_log2: 6,
            len: 0,
            next_seq: 0,
            min_hint: 0,
            cached_min: Cell::new(None),
            want_retune: Cell::new(false),
            spare: Vec::new(),
            gather: Vec::new(),
        }
    }

    /// Schedules `payload` at absolute time `time`.
    pub fn push(&mut self, time: Cycles, priority: Priority, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.len == 0 || time < self.min_hint {
            self.min_hint = time;
        }
        let ev = Event {
            time,
            priority,
            seq,
            payload,
        };
        // Keep the memoized minimum coherent: a new event can only displace
        // it by comparing smaller on the full key.
        if let Some((cb, cs)) = self.cached_min.get() {
            let cur = &self.buckets[cb as usize][cs as usize];
            if ev.key() < cur.key() {
                let b = self.bucket_of(time);
                let slot = self.buckets[b].len();
                self.buckets[b].push(ev);
                self.cached_min.set(Some((b as u32, slot as u32)));
                self.len += 1;
                self.maybe_grow();
                return;
            }
        }
        let b = self.bucket_of(time);
        self.buckets[b].push(ev);
        self.len += 1;
        self.maybe_grow();
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let (b, s) = self.scan_min()?;
        let ev = self.buckets[b].swap_remove(s);
        self.len -= 1;
        self.min_hint = ev.time;
        self.cached_min.set(None);
        if self.want_retune.take() {
            self.retune();
        } else {
            self.maybe_shrink();
        }
        Some(ev)
    }

    /// The earliest pending event, if any.
    pub fn peek(&self) -> Option<&Event<T>> {
        let (b, s) = self.scan_min()?;
        Some(&self.buckets[b][s])
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bucket index for an event at `time`.
    fn bucket_of(&self, time: Cycles) -> usize {
        ((time >> self.width_log2) & ((1u64 << self.bucket_bits) - 1)) as usize
    }

    /// Locates the minimum-key event as `(bucket, slot)`, memoizing the
    /// result. Scans days forward from `min_hint`'s day; the first day with
    /// events contains the global minimum because every later day holds
    /// strictly greater times. Events more than a full ring "year" ahead are
    /// invisible to that walk, so a fruitless full circle falls back to a
    /// global scan and schedules a width retune.
    fn scan_min(&self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        if let Some((b, s)) = self.cached_min.get() {
            return Some((b as usize, s as usize));
        }
        let nbuckets = 1u64 << self.bucket_bits;
        let start_day = self.min_hint >> self.width_log2;
        for i in 0..nbuckets {
            // overflow: a day index never overflows in practice (times are
            // cycle counts), but saturate defensively — a saturated day
            // matches no event and the global fallback below stays correct.
            let day = start_day.saturating_add(i);
            let b = (day & (nbuckets - 1)) as usize;
            let mut best: Option<(usize, (Cycles, Priority, u64))> = None;
            for (slot, ev) in self.buckets[b].iter().enumerate() {
                if ev.time >> self.width_log2 == day {
                    let k = ev.key();
                    if best.is_none_or(|(_, bk)| k < bk) {
                        best = Some((slot, k));
                    }
                }
            }
            if let Some((slot, _)) = best {
                self.cached_min.set(Some((b as u32, slot as u32)));
                return Some((b, slot));
            }
        }
        // Everything pending is at least a year past `min_hint`: find the
        // global minimum directly and ask pop to retune the day width so the
        // ring covers the new span.
        self.want_retune.set(true);
        type MinCandidate = ((usize, usize), (Cycles, Priority, u64));
        let mut best: Option<MinCandidate> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (slot, ev) in bucket.iter().enumerate() {
                let k = ev.key();
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some(((b, slot), k));
                }
            }
        }
        let ((b, s), _) = best.expect("len > 0 but no event found in any bucket");
        self.cached_min.set(Some((b as u32, s as u32)));
        Some((b, s))
    }

    /// Doubles the ring when buckets get crowded (> 4 events per bucket on
    /// average). Triggered purely by `len`, so it is deterministic across
    /// runs that perform the same operation sequence.
    fn maybe_grow(&mut self) {
        if self.bucket_bits < MAX_BITS && self.len > (4usize << self.bucket_bits) {
            self.rebuild(self.bucket_bits + 1);
        }
    }

    /// Halves the ring when it is nearly empty (< 1 event per 8 buckets).
    /// The wide hysteresis band vs. [`Self::maybe_grow`] prevents thrashing.
    fn maybe_shrink(&mut self) {
        if self.bucket_bits > MIN_BITS && self.len * 8 < (1usize << self.bucket_bits) {
            self.rebuild(self.bucket_bits - 1);
        }
    }

    /// Re-derives the day width from the current content span and rebuilds
    /// if it changed. Called after a fallback scan proved the ring's year too
    /// short for the pending span.
    fn retune(&mut self) {
        if self.len == 0 {
            return;
        }
        let (min_t, max_t) = self.time_span();
        let w = Self::width_for(max_t - min_t, self.bucket_bits);
        if w != self.width_log2 {
            self.rebuild(self.bucket_bits);
        }
    }

    /// Day width (as a shift) such that a full ring year covers `span`.
    fn width_for(span: Cycles, bits: u32) -> u32 {
        // Smallest w with (1 << (w + bits)) > span.
        let needed = 64 - span.leading_zeros();
        // overflow: a span smaller than the ring would make `needed < bits`;
        // saturating to width 0 (one-cycle days) is exactly right there.
        needed.saturating_sub(bits).min(MAX_WIDTH_LOG2)
    }

    /// Minimum and maximum pending times. Only called with `len > 0`.
    fn time_span(&self) -> (Cycles, Cycles) {
        let mut min_t = Cycles::MAX;
        let mut max_t = 0;
        for bucket in &self.buckets {
            for ev in bucket {
                min_t = min_t.min(ev.time);
                max_t = max_t.max(ev.time);
            }
        }
        (min_t, max_t)
    }

    /// Redistributes all events into a ring of `1 << bits` buckets with a
    /// width tuned to the pending span. Layout-only: times, priorities and
    /// sequence numbers are untouched, so pop order is unaffected.
    fn rebuild(&mut self, bits: u32) {
        let mut events = std::mem::take(&mut self.gather);
        for bucket in &mut self.buckets {
            events.append(bucket);
        }
        let (min_t, max_t) = if events.is_empty() {
            (self.min_hint, self.min_hint)
        } else {
            let mut min_t = Cycles::MAX;
            let mut max_t = 0;
            for ev in &events {
                min_t = min_t.min(ev.time);
                max_t = max_t.max(ev.time);
            }
            (min_t, max_t)
        };
        self.bucket_bits = bits;
        self.width_log2 = Self::width_for(max_t - min_t, bits);
        let n = 1usize << bits;
        if n < self.buckets.len() {
            self.spare.extend(self.buckets.drain(n..));
        }
        while self.buckets.len() < n {
            self.buckets.push(self.spare.pop().unwrap_or_default());
        }
        // Keep at most twice the pending events' worth of empty slots
        // (plus a floor), ring buckets first: enough to absorb the next
        // swing, and memory a deep queue grew goes back once it drains.
        let mut budget = 2 * events.len() + KEEP_FLOOR;
        let mut keep = |v: &Vec<Event<T>>| {
            let fits = v.capacity() <= budget;
            if fits {
                budget -= v.capacity();
            }
            fits
        };
        for bucket in &mut self.buckets {
            if !keep(bucket) {
                *bucket = Vec::new();
            }
        }
        // linear: one pass over the spare buckets, once per rebuild (which
        // already walks every pending event).
        self.spare.retain(&mut keep);
        self.min_hint = min_t;
        self.cached_min.set(None);
        self.want_retune.set(false);
        for ev in events.drain(..) {
            let b = self.bucket_of(ev.time);
            self.buckets[b].push(ev);
        }
        if keep(&events) {
            self.gather = events;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// The pre-calendar-queue implementation, kept verbatim as the reference
    /// model for the observational-equivalence property tests below.
    struct HeapQueue<T> {
        heap: BinaryHeap<Event<T>>,
        next_seq: u64,
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, time: Cycles, priority: Priority, payload: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Event {
                time,
                priority,
                seq,
                payload,
            });
        }

        fn pop(&mut self) -> Option<Event<T>> {
            self.heap.pop()
        }

        fn peek(&self) -> Option<&Event<T>> {
            self.heap.peek()
        }
    }

    fn prio(p: u8) -> Priority {
        match p % 3 {
            0 => Priority::Urgent,
            1 => Priority::Normal,
            _ => Priority::Low,
        }
    }

    #[test]
    fn orders_by_time_then_priority_then_seq() {
        let mut q = EventQueue::new();
        q.push(10, Priority::Normal, 1);
        q.push(10, Priority::Low, 2);
        q.push(10, Priority::Urgent, 3);
        q.push(5, Priority::Low, 4);
        q.push(10, Priority::Urgent, 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![4, 3, 5, 1, 2]);
    }

    #[test]
    fn fifo_within_same_key() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, Priority::Normal, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(42, Priority::Normal, ());
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.peek().map(|e| e.time), Some(42));
        assert_eq!(q.pop().map(|e| e.time), Some(42));
        assert_eq!(q.peek_time(), None);
        assert!(q.peek().is_none());
    }

    #[test]
    fn far_future_events_pop_correctly() {
        // Events many ring-years apart force the fallback scan + retune.
        let mut q = EventQueue::new();
        q.push(1u64 << 40, Priority::Normal, 'd');
        q.push(0, Priority::Normal, 'a');
        q.push(1u64 << 20, Priority::Normal, 'c');
        q.push(3, Priority::Normal, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn grows_and_shrinks_without_reordering() {
        let mut q = EventQueue::new();
        // Enough events to trigger several doublings...
        for i in 0..10_000u64 {
            q.push(i * 37 % 4096, prio(i as u8), i);
        }
        // ...then drain fully (exercises shrink) and check global order.
        let mut last = None;
        let mut n = 0;
        while let Some(ev) = q.pop() {
            let k = (ev.time, ev.priority, ev.seq);
            if let Some(prev) = last {
                assert!(prev < k, "pop order violated: {prev:?} then {k:?}");
            }
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    /// Empty event slots held across buckets, spare buckets and the
    /// rebuild list.
    fn idle_slots<T>(q: &EventQueue<T>) -> usize {
        let cap: usize = q.buckets.iter().chain(&q.spare).map(Vec::capacity).sum();
        cap + q.gather.capacity() - q.len()
    }

    #[test]
    fn a_drained_deep_queue_returns_its_memory() {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.push(i % 5_000, Priority::Normal, i);
        }
        assert!(
            idle_slots(&q) > 2 * KEEP_FLOOR,
            "a deep ring holds many slots"
        );
        while q.pop().is_some() {}
        assert!(
            idle_slots(&q) <= 2 * KEEP_FLOOR,
            "{} idle slots retained",
            idle_slots(&q)
        );
    }

    #[test]
    fn swinging_depth_reuses_the_ring() {
        let mut q = EventQueue::new();
        let swing = |q: &mut EventQueue<u64>| {
            for i in 0..512u64 {
                q.push(i % 7, Priority::Normal, i);
            }
            while q.pop().is_some() {}
        };
        swing(&mut q);
        let slots = idle_slots(&q);
        for _ in 0..4 {
            // The same swing again: the rebuilds reuse what the first one
            // grew, and nothing new is allocated.
            swing(&mut q);
            assert_eq!(idle_slots(&q), slots);
        }
    }

    /// Drives the calendar queue and the heap reference model through the
    /// same operation sequence and checks every observation is identical.
    fn check_equivalence(ops: &[(u8, u64, u8)], wide: bool) {
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut payload = 0u64;
        for &(kind, t, p) in ops {
            match kind % 4 {
                // Push twice as often as pop so queues actually fill up.
                0 | 1 => {
                    // `wide` mixes day-scale and year-scale times to exercise
                    // the fallback/retune path; otherwise keep times colliding.
                    let time = if wide && t % 7 == 0 { t << 30 } else { t % 64 };
                    cal.push(time, prio(p), payload);
                    heap.push(time, prio(p), payload);
                    payload += 1;
                }
                2 => {
                    let a = cal.pop().map(|e| (e.time, e.priority, e.seq, e.payload));
                    let b = heap.pop().map(|e| (e.time, e.priority, e.seq, e.payload));
                    assert_eq!(a, b, "pop diverged from reference model");
                }
                _ => {
                    let a = cal.peek().map(|e| (e.time, e.priority, e.seq, e.payload));
                    let b = heap.peek().map(|e| (e.time, e.priority, e.seq, e.payload));
                    assert_eq!(a, b, "peek diverged from reference model");
                    assert_eq!(cal.peek_time(), heap.peek().map(|e| e.time));
                }
            }
            assert_eq!(cal.len(), heap.heap.len());
        }
        // Drain both completely: the tails must agree too.
        loop {
            let a = cal.pop().map(|e| (e.time, e.priority, e.seq, e.payload));
            let b = heap.pop().map(|e| (e.time, e.priority, e.seq, e.payload));
            assert_eq!(a, b, "drain diverged from reference model");
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        /// Satellite 1: random interleaved push/pop/peek sequences with
        /// heavily colliding times and priorities observe byte-identical
        /// behavior from the calendar queue and the old BinaryHeap.
        #[test]
        fn calendar_equals_heap_colliding_keys(
            ops in prop::collection::vec((0u8..4, 0u64..1000, 0u8..3), 1..400)
        ) {
            check_equivalence(&ops, false);
        }

        /// Same, with times spanning many ring-years so resize, fallback and
        /// retune all fire mid-sequence.
        #[test]
        fn calendar_equals_heap_wide_times(
            ops in prop::collection::vec((0u8..4, 0u64..1000, 0u8..3), 1..400)
        ) {
            check_equivalence(&ops, true);
        }
    }
}
