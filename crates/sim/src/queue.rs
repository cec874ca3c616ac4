//! The simulation event queue.
//!
//! [`EventQueue`] is a priority queue keyed on [`SimTime`] with one extra
//! guarantee that a plain binary heap does not give: events scheduled for the
//! *same* instant are delivered in the order they were scheduled. Without
//! this, simultaneous events (e.g. a data segment and an ACK crossing at the
//! same nanosecond) would be delivered in an unspecified order, and the
//! simulation would no longer be reproducible from its seed.
//!
//! The queue is a session hot path — a 180 s capture schedules hundreds of
//! thousands of events — so it supports pre-sizing via
//! [`EventQueue::with_capacity`] and buffer reuse across sessions via
//! [`EventQueue::reset`]. The schedule-into-the-past causality check is a
//! real branch in every build mode: a past event would otherwise be
//! silently clamped and the simulation would drift from its seed without
//! any diagnostic. The branch is perfectly predicted on the hot path and
//! costs no more than the clamp it replaced.
//!
//! ## Layout
//!
//! Every event gets a sequence number from the queue's one counter when it
//! is scheduled, and `(at, seq)` is the total order events pop in. Two
//! kinds of storage hold them:
//!
//! * **FIFO lanes.** Most events of a session are packets in flight on a
//!   FIFO link, whose delivery times are non-decreasing in the order they
//!   are sent. Such a stream is already sorted, so
//!   [`EventQueue::schedule_fifo`] appends it to one of two in-line
//!   `VecDeque` lanes. The lane is a hint, not an obligation: a push earlier
//!   than its lane's tail goes to the timer heap, which is still exact.
//! * **The timer heap.** Everything else — retransmission and application
//!   timers, cross-traffic ticks; a few tens pending at the busiest — sits
//!   in one `BinaryHeap` of whole entries, min-first on `(at, seq)`.
//!
//! The pop side takes the least `(at, seq)` of the heap's top and the two
//! lane fronts, so the pop sequence is exactly what one heap holding
//! everything gives. That reference — a `BinaryHeap` list with no lanes —
//! lives in this module's tests and is driven against the queue in
//! lock-step.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// FIFO lanes beside the timer heap: one per link direction of a session.
const LANES: usize = 2;

/// The timer heap's index among the pop sources (the lanes are `0..LANES`).
const TIMERS: usize = LANES;

/// Pre-size of the timer heap. With packets on the lanes it holds timers
/// only, a few tens pending at the busiest.
const TIMERS_PRESIZE: usize = 64;

/// Passive telemetry accumulated by an [`EventQueue`] across its lifetime
/// (cleared by [`EventQueue::reset`], so a recycled queue reports one
/// session at a time).
///
/// All fields are simple monotone tallies kept on paths the queue already
/// touches. None of these values ever feed back into scheduling decisions —
/// the queue's pop order is independent of its stats (the output-neutrality
/// invariant of `vstream-obs`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed (schedule + schedule_fifo).
    pub scheduled: u64,
    /// `schedule_fifo` pushes appended to their lane.
    pub lane_pushes: u64,
    /// `schedule_fifo` pushes earlier than their lane's tail, filed into the
    /// timer heap instead.
    pub lane_fallbacks: u64,
    /// Maximum number of simultaneously pending events.
    pub peak_len: u64,
}

/// A timer-heap entry, ordered so that the *earliest* `(at, seq)` is the
/// heap's maximum. `seq` is unique, so the event never decides.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events are popped in non-decreasing time order; ties are broken by
/// insertion order (FIFO). The queue also tracks the time of the last popped
/// event. Scheduling into the past indicates a causality bug in the caller
/// and panics in every build mode.
///
/// Invariants between calls:
///
/// * Each lane is ascending in `(at, seq)`: `schedule_fifo` appends only at
///   or after the lane's tail time, and `seq` grows with every push.
/// * Every pending event is at or after `now`, so the earliest pending
///   event — the least of the heap's top and the two lane fronts — never
///   moves the clock back.
pub struct EventQueue<E> {
    timers: BinaryHeap<Entry<E>>,
    lanes: [VecDeque<(SimTime, u64, E)>; LANES],
    next_seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`]. Allocates
    /// nothing until the first push.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` pending events.
    ///
    /// A streaming session keeps a bounded working set of in-flight events
    /// (segments on the wire, timers, application wake-ups); sizing the
    /// storage for that working set up front avoids the doubling
    /// reallocations during the first seconds of simulated time.
    pub fn with_capacity(capacity: usize) -> Self {
        // The working set is packets in flight, which sit on the lanes:
        // they share `capacity`. The heap keeps timers only.
        EventQueue {
            timers: BinaryHeap::with_capacity(capacity.min(TIMERS_PRESIZE)),
            lanes: std::array::from_fn(|_| VecDeque::with_capacity(capacity / LANES)),
            next_seq: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// The telemetry accumulated since construction or the last
    /// [`Self::reset`]. Reading stats never affects queue behaviour.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// The time of the most recently popped event (the current simulated
    /// time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events, lanes included.
    pub(crate) fn len(&self) -> usize {
        self.timers.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Schedules `event` to fire at time `at`.
    ///
    /// # Panics
    /// Panics — in release builds too — if `at` is earlier than the current
    /// simulated time: an event scheduled in the past can never fire and
    /// always indicates a bug in the caller. Before this was a hard check,
    /// release builds clamped the timestamp to `now`, which kept the queue
    /// monotonic but let the causality bug run on silently.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.assert_not_past(at);
        let seq = self.admit();
        self.timers.push(Entry { at, seq, event });
    }

    #[inline]
    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "schedule: event at {at} is in the past (now = {})",
            self.now
        );
    }

    /// Schedules `event` at `at` on FIFO lane `lane` (0 or 1): the road for
    /// a stream whose times are non-decreasing in push order, such as
    /// deliveries over one FIFO link. Observably identical to
    /// [`Self::schedule`] — same `(at, seq)` pop order, same clock — but an
    /// append and a front pop instead of a sift up and down the heap.
    ///
    /// The lane is a hint: a push earlier than the lane's tail is filed
    /// into the timer heap instead (counted in
    /// [`QueueStats::lane_fallbacks`]), so the caller's monotonicity claim
    /// is never trusted for ordering.
    ///
    /// # Panics
    /// Panics — in release builds too — if `at` is earlier than the current
    /// simulated time (see [`Self::schedule`]), or if `lane` is not 0 or 1.
    pub fn schedule_fifo(&mut self, lane: usize, at: SimTime, event: E) {
        self.assert_not_past(at);
        let in_order = self.lanes[lane].back().is_none_or(|&(tail, _, _)| at >= tail);
        let seq = self.admit();
        if in_order {
            self.lanes[lane].push_back((at, seq, event));
            self.stats.lane_pushes += 1;
        } else {
            self.timers.push(Entry { at, seq, event });
            self.stats.lane_fallbacks += 1;
        }
    }

    /// Counts one more pending event and hands out its sequence number.
    #[inline]
    fn admit(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.scheduled += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.len() as u64 + 1);
        seq
    }

    /// Which source — a lane or the timer heap — holds the earliest pending
    /// event by `(at, seq)`, and its time. Three compares, no side effects.
    #[inline]
    fn earliest(&self) -> Option<(usize, SimTime)> {
        let mut best = self.timers.peek().map(|e| (e.at, e.seq));
        let mut src = TIMERS;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(&(at, seq, _)) = lane.front() {
                if best.is_none_or(|b| (at, seq) < b) {
                    best = Some((at, seq));
                    src = i;
                }
            }
        }
        best.map(|(at, _)| (src, at))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(_, at)| at)
    }

    /// Takes the earliest pending event out of `src` (as named by
    /// [`Self::earliest`]) and advances the clock to its timestamp.
    #[inline]
    fn take(&mut self, src: usize) -> (SimTime, E) {
        let (at, event) = if src == TIMERS {
            let e = self.timers.pop().expect("earliest() named an empty timer heap");
            (e.at, e.event)
        } else {
            let (at, _, event) = self.lanes[src].pop_front().expect("earliest() named an empty lane");
            (at, event)
        };
        debug_assert!(at >= self.now);
        self.now = at;
        (at, event)
    }

    /// Pops the earliest pending event and advances the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (src, _) = self.earliest()?;
        Some(self.take(src))
    }

    /// Pops the earliest pending event if it fires at or before `limit`.
    ///
    /// This is the session loop's fused peek-then-pop, with identical
    /// semantics to `peek_time() <= limit` followed by `pop()`.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (src, at) = self.earliest()?;
        if at > limit {
            return None;
        }
        Some(self.take(src))
    }

    /// Discards all pending events without advancing the clock.
    ///
    /// The queue's allocations are retained.
    pub(crate) fn clear(&mut self) {
        self.timers.clear();
        for lane in &mut self.lanes {
            lane.clear();
        }
    }

    /// Rewinds the queue to its initial state — empty, clock at
    /// [`SimTime::ZERO`], sequence counter reset — while keeping its
    /// allocations, so one queue can be reused across back-to-back sessions
    /// without reallocating.
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.stats = QueueStats::default();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    /// Allocated capacity of the queue's storage, in entries: the lanes and
    /// the timer heap.
    fn capacity<E>(q: &EventQueue<E>) -> usize {
        q.timers.capacity() + q.lanes.iter().map(VecDeque::capacity).sum::<usize>()
    }

    /// The reference future-event list: one plain `BinaryHeap` over whole
    /// entries, no lanes, with the same `(time, seq)` total order and the
    /// same clock rules as [`EventQueue`]. It exists only to be driven
    /// against the queue in lock-step.
    struct HeapQueue<E> {
        heap: BinaryHeap<HeapEntry<E>>,
        next_seq: u64,
        now: SimTime,
        /// Most entries pending at once since construction or `reset`.
        peak: usize,
    }

    struct HeapEntry<E> {
        at: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for HeapEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }

    impl<E> Eq for HeapEntry<E> {}

    impl<E> PartialOrd for HeapEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for HeapEntry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
            // pair is popped first.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO, peak: 0 }
        }

        fn schedule(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now, "reference schedule in the past");
            self.heap.push(HeapEntry { at, seq: self.next_seq, event });
            self.next_seq += 1;
            self.peak = self.peak.max(self.heap.len());
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let e = self.heap.pop()?;
            self.now = e.at;
            Some((e.at, e.event))
        }

        fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
            if self.peek_time()? > limit {
                return None;
            }
            self.pop()
        }

        fn clear(&mut self) {
            self.heap.clear();
        }

        fn reset(&mut self) {
            *self = Self::new();
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), 'x');
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(7));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_before_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 'a');
        q.schedule(SimTime::from_secs(10), 'b');
        assert_eq!(
            q.pop_before(SimTime::from_secs(1)),
            Some((SimTime::from_millis(10), 'a'))
        );
        assert_eq!(q.pop_before(SimTime::from_secs(1)), None);
        assert_eq!(q.len(), 1, "beyond-limit event must stay queued");
        assert_eq!(q.pop_before(SimTime::from_secs(10)), Some((SimTime::from_secs(10), 'b')));
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert_ne!(q.len(), 0);
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn with_capacity_pre_sizes() {
        let q: EventQueue<()> = EventQueue::with_capacity(1024);
        let lanes: usize = q.lanes.iter().map(VecDeque::capacity).sum();
        assert!(lanes >= 1024, "the lanes hold the stated working set");
        assert!(
            (TIMERS_PRESIZE..1024).contains(&q.timers.capacity()),
            "the heap is sized for timers, not for packets"
        );
        assert_eq!(capacity(&q), lanes + q.timers.capacity());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        // An empty queue — what `std::mem::take` leaves behind in a session
        // scratch — allocates nothing.
        assert_eq!(capacity(&EventQueue::<u64>::new()), 0);
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        while q.pop().is_some() {}
        assert_ne!(q.now(), SimTime::ZERO);
        let cap = capacity(&q);
        q.reset();
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(capacity(&q), cap);
        // Sequence counter restarted: FIFO order matches a fresh queue.
        let t = SimTime::from_secs(1);
        q.schedule(t, 7);
        q.schedule(t, 8);
        assert_eq!(q.pop(), Some((t, 7)));
        assert_eq!(q.pop(), Some((t, 8)));
    }

    #[test]
    fn far_timers_pop_in_order_among_near_ones_and_lane_traffic() {
        // Timers at RTO-backoff distance (60 s), half a minute further out
        // and at the end of time keep their place while lane traffic and
        // near timers pass under them, ties at the far instants included.
        let mut q = EventQueue::new();
        let rto = SimTime::from_secs(60);
        q.schedule(SimTime::MAX, "max timer");
        q.schedule(rto + SimDuration::from_secs(30), "rto x1.5");
        q.schedule(SimTime::from_millis(1), "near timer");
        q.schedule(rto, "rto");
        q.schedule_fifo(0, SimTime::from_millis(2), "down 2 ms");
        q.schedule_fifo(1, SimTime::from_millis(2), "up 2 ms");
        q.schedule_fifo(0, rto, "down at rto");
        q.schedule_fifo(1, SimTime::MAX, "up at max");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near timer"));
        // Scheduled after the first pop, still ahead of everything far.
        q.schedule(SimTime::from_millis(3), "near timer 2");
        q.schedule_fifo(0, SimTime::MAX, "down at max");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            [
                "down 2 ms",
                "up 2 ms",
                "near timer 2",
                "rto",
                "down at rto",
                "rto x1.5",
                "max timer",
                "up at max",
                "down at max"
            ]
        );
        assert_eq!(q.now(), SimTime::MAX);
        // At the end of time, `now` itself is still schedulable.
        q.schedule(SimTime::MAX, "last");
        assert_eq!(q.pop(), Some((SimTime::MAX, "last")));
    }

    /// Whatever the scheduling order, pops come out sorted by time, and
    /// equal-time events keep their insertion order. Deterministic sweep
    /// over seeded random schedules (formerly a proptest).
    #[test]
    fn pops_sorted_and_stable_random_schedules() {
        for seed in 0..32u64 {
            let mut rng = SimRng::new(0x5EED_0000 + seed);
            let n = 1 + rng.choose_index(200);
            let mut q = EventQueue::new();
            for i in 0..n {
                let off = rng.uniform_u64(0, 100);
                q.schedule(SimTime::ZERO + SimDuration::from_millis(off), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    assert!(t >= lt, "seed {seed}: time went backwards");
                    if t == lt {
                        assert!(idx > lidx, "seed {seed}: FIFO violated for simultaneous events");
                    }
                }
                last = Some((t, idx));
            }
        }
    }

    /// A binary heap is not stable; `seq` is. One instant, 1 000 events
    /// pushed round-robin on lane 0, lane 1 and the timer heap: they pop in
    /// exact schedule order.
    #[test]
    fn equal_time_round_robin_pushes_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(40);
        for i in 0..1_000u32 {
            match i as usize % 3 {
                TIMERS => q.schedule(t, i),
                lane => q.schedule_fifo(lane, t, i),
            }
        }
        assert_eq!(q.stats().lane_fallbacks, 0);
        for i in 0..1_000u32 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stats_track_scheduling_and_peak() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 'a');
        q.schedule(SimTime::from_millis(50), 'b');
        q.schedule(SimTime::from_secs(2), 'c');
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.peak_len, 3);

        while q.pop().is_some() {}
        assert_eq!(q.stats().scheduled, 3);
        assert_eq!(q.stats().peak_len, 3, "draining does not move the peak");

        q.reset();
        assert_eq!(*q.stats(), QueueStats::default(), "reset clears stats");
    }

    #[test]
    fn reset_and_clear_empty_heap_and_lanes_and_keep_allocations() {
        for use_reset in [false, true] {
            let mut q = EventQueue::new();
            for i in 0..200u64 {
                q.schedule(SimTime::from_millis(i * 3), i);
                q.schedule_fifo((i % 2) as usize, SimTime::from_millis(i * 3), i);
            }
            for _ in 0..50 {
                q.pop();
            }
            assert!(!q.timers.is_empty() && q.lanes.iter().all(|l| !l.is_empty()));
            let cap = capacity(&q);
            if use_reset {
                q.reset();
            } else {
                q.clear();
            }
            assert!(q.timers.is_empty() && q.lanes.iter().all(VecDeque::is_empty));
            assert_eq!(capacity(&q), cap, "allocation kept");
            assert_eq!((q.len(), q.peek_time(), q.pop()), (0, None, None));
            // Usable again.
            q.schedule(q.now() + SimDuration::from_millis(5), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        }
    }

    #[test]
    fn equal_time_inserts_between_pops_stay_fifo() {
        let mut q = EventQueue::new();
        let t = |ns: u64| SimTime::from_nanos(ns);
        // Two early events, three at t=500, one late.
        for (at, label) in [(100, 0), (200, 1), (500, 2), (500, 3), (900, 4), (500, 5)] {
            q.schedule(t(at), label);
        }
        assert_eq!(q.pop(), Some((t(100), 0)));
        assert_eq!(q.pop(), Some((t(200), 1)));
        // New arrivals: at the head's time, at the pending tie, and at now.
        q.schedule(t(500), 6);
        q.schedule(t(200), 7);
        q.schedule(t(900), 8);
        q.schedule(t(500), 9);
        let order: Vec<(u64, i32)> =
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.as_nanos(), e))).collect();
        assert_eq!(
            order,
            vec![(200, 7), (500, 2), (500, 3), (500, 5), (500, 6), (500, 9), (900, 4), (900, 8)]
        );
    }

    /// Seeded random interleavings of `schedule` / `pop` / `pop_before` /
    /// `reset` driven against the queue's timer heap and the reference heap
    /// in lock-step must observe identical results at every step: the
    /// production `Entry` order is the reference's `(time, seq)` order.
    ///
    /// Every simulation output is a function of the pop sequence alone, so
    /// pop-sequence equality here implies figure equality.
    #[test]
    fn backends_are_observationally_identical() {
        for seed in 0..48u64 {
            let mut rng = SimRng::new(0xE100_0000 + seed);
            let mut q = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut label = 0u64;
            for step in 0..600 {
                match rng.choose_index(9) {
                    // Schedule at the current instant, near, and seconds out.
                    0..=4 => {
                        let off = match rng.choose_index(3) {
                            0 => rng.uniform_u64(0, 2_000_000),
                            1 => rng.uniform_u64(0, 300_000_000),
                            _ => rng.uniform_u64(0, 3_000_000_000),
                        };
                        let at = q.now() + SimDuration::from_nanos(off);
                        q.schedule(at, label);
                        heap.schedule(at, label);
                        label += 1;
                    }
                    5..=6 => {
                        assert_eq!(q.pop(), heap.pop(), "seed {seed} step {step}");
                    }
                    7 => {
                        let limit = heap.now + SimDuration::from_nanos(rng.uniform_u64(0, 400_000_000));
                        assert_eq!(
                            q.pop_before(limit),
                            heap.pop_before(limit),
                            "seed {seed} step {step}"
                        );
                    }
                    _ => {
                        if rng.choose_index(8) == 0 {
                            q.reset();
                            heap.reset();
                        } else {
                            assert_eq!(q.peek_time(), heap.peek_time(), "seed {seed} step {step}");
                        }
                    }
                }
                assert_eq!(q.len(), heap.heap.len(), "seed {seed} step {step}");
                assert_eq!(q.now(), heap.now, "seed {seed} step {step}");
            }
            // Drain both completely: the tails must match too.
            loop {
                let (a, b) = (q.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn lanes_and_timers_merge_by_time_then_schedule_order() {
        let mut q = EventQueue::new();
        let t = |ms: u64| SimTime::from_millis(ms);
        q.schedule_fifo(0, t(5), "lane0 first");
        q.schedule(t(5), "timer second");
        q.schedule_fifo(1, t(5), "lane1 third");
        q.schedule_fifo(1, t(9), "lane1 late");
        q.schedule(t(1), "timer early");
        q.schedule_fifo(0, t(5), "lane0 fourth");
        assert_eq!(q.len(), 6);
        assert_eq!(q.stats().peak_len, 6, "the peak counts lane entries too");
        assert_eq!((q.stats().scheduled, q.stats().lane_pushes, q.stats().lane_fallbacks), (6, 4, 0));
        assert_eq!(q.peek_time(), Some(t(1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            ["timer early", "lane0 first", "timer second", "lane1 third", "lane0 fourth", "lane1 late"]
        );
        assert_eq!(q.now(), t(9));
    }

    #[test]
    fn non_monotone_lane_push_falls_back_to_the_timer_heap() {
        let mut q = EventQueue::new();
        let t = |ms: u64| SimTime::from_millis(ms);
        q.schedule_fifo(0, t(8), 'c');
        q.schedule_fifo(0, t(3), 'a'); // earlier than the lane's tail
        q.schedule_fifo(0, t(8), 'd'); // equal to the tail is in order
        q.schedule_fifo(1, t(4), 'b'); // the other lane has its own tail
        assert_eq!((q.stats().lane_pushes, q.stats().lane_fallbacks), (3, 1));
        assert_eq!((q.lanes[0].len() + q.lanes[1].len(), q.timers.len()), (3, 1));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'd']);
        // A drained lane has no tail: any time from `now` on is in order.
        q.schedule_fifo(0, t(8), 'e');
        assert_eq!(q.stats().lane_fallbacks, 1);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_a_lane_event_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_fifo(0, SimTime::from_secs(2), ());
        q.pop();
        q.schedule_fifo(1, SimTime::from_secs(1), ());
    }

    /// `schedule_fifo` on the queue against plain `schedule` on the
    /// reference heap, in lock-step: seeded interleavings over both lanes
    /// and the timer heap — equal-`at` ties across all three, a
    /// non-monotone lane push per seed, `pop_before` limits on and just
    /// below a lane head, `clear` and `reset` mid-stream — must observe
    /// identical results at every step: the three-way merge pops what one
    /// heap holding everything pops.
    #[test]
    fn lanes_are_observationally_identical_to_one_heap() {
        for seed in 0..48u64 {
            let mut rng = SimRng::new(0x1A4E_0000 + seed);
            let mut q = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut label = 0u64;
            let mut fallbacks = 0u64;
            let forced_step = rng.choose_index(600);
            for step in 0..600 {
                let ctx = format!("seed {seed} step {step}");
                // In-order time for a lane: at or after both its tail and now.
                let tail = |q: &EventQueue<u64>, lane: usize| {
                    q.lanes[lane].back().map_or(q.now(), |&(at, _, _)| at.max(q.now()))
                };
                if step == forced_step {
                    let lane = rng.choose_index(LANES);
                    let ahead = tail(&q, lane) + SimDuration::from_millis(5);
                    for at in [ahead, q.now()] {
                        q.schedule_fifo(lane, at, label);
                        heap.schedule(at, label);
                        label += 1;
                    }
                    fallbacks += 1;
                }
                match rng.choose_index(12) {
                    0..=3 => {
                        let lane = rng.choose_index(LANES);
                        let off = match rng.choose_index(3) {
                            0 => 0,
                            1 => rng.uniform_u64(0, 2_000_000),
                            _ => rng.uniform_u64(0, 400_000_000),
                        };
                        let at = tail(&q, lane) + SimDuration::from_nanos(off);
                        q.schedule_fifo(lane, at, label);
                        heap.schedule(at, label);
                        label += 1;
                    }
                    4..=5 => {
                        // Timers: near, at a lane head's instant, or seconds out.
                        let at = match rng.choose_index(3) {
                            0 => q.now() + SimDuration::from_nanos(rng.uniform_u64(0, 300_000_000)),
                            1 => q.lanes[rng.choose_index(LANES)].front().map_or(q.now(), |&(at, _, _)| at),
                            _ => q.now() + SimDuration::from_nanos(rng.uniform_u64(0, 3_000_000_000)),
                        };
                        q.schedule(at, label);
                        heap.schedule(at, label);
                        label += 1;
                    }
                    6 => {
                        // One instant on all three roads, in a random order.
                        let at = tail(&q, 0).max(tail(&q, 1))
                            + SimDuration::from_nanos(rng.uniform_u64(0, 2_000_000));
                        let first = rng.choose_index(3);
                        for k in 0..3 {
                            match (first + k) % 3 {
                                TIMERS => q.schedule(at, label),
                                lane => q.schedule_fifo(lane, at, label),
                            }
                            heap.schedule(at, label);
                            label += 1;
                        }
                    }
                    7..=8 => {
                        let peeked = q.peek_time();
                        let popped = q.pop();
                        assert_eq!(peeked, popped.map(|(at, _)| at), "{ctx}");
                        assert_eq!(popped, heap.pop(), "{ctx}");
                    }
                    9..=10 => {
                        let limit = match (rng.choose_index(3), q.lanes[rng.choose_index(LANES)].front()) {
                            (0, Some(&(at, _, _))) => at,
                            (1, Some(&(at, _, _))) if at > SimTime::ZERO => SimTime::from_nanos(at.as_nanos() - 1),
                            _ => heap.now + SimDuration::from_nanos(rng.uniform_u64(0, 400_000_000)),
                        };
                        assert_eq!(q.pop_before(limit), heap.pop_before(limit), "{ctx}");
                    }
                    _ => match rng.choose_index(16) {
                        0 => {
                            q.reset();
                            heap.reset();
                            fallbacks = 0;
                        }
                        1 => {
                            q.clear();
                            heap.clear();
                        }
                        _ => assert_eq!(q.peek_time(), heap.peek_time(), "{ctx}"),
                    },
                }
                assert_eq!(q.len(), heap.heap.len(), "{ctx}");
                assert_eq!(q.now(), heap.now, "{ctx}");
                assert_eq!(q.stats().scheduled, heap.next_seq, "{ctx}");
                assert_eq!(q.stats().lane_fallbacks, fallbacks, "{ctx}");
                assert_eq!(q.stats().peak_len, heap.peak as u64, "{ctx}");
            }
            loop {
                let (a, b) = (q.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
