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
//! silently clamped (or, worse, misfiled behind the wheel cursor) and the
//! simulation would drift from its seed without any diagnostic. The branch
//! is perfectly predicted on the hot path and costs no more than the clamp
//! it replaced. Callers that want to observe the error instead of aborting
//! use [`EventQueue::try_schedule`].
//!
//! ## Layout
//!
//! The queue is a bucketed calendar queue (a timing wheel): a ring of
//! [`WHEEL_BUCKETS`] buckets of `2^`[`WHEEL_SHIFT`] ns each (~1 ms), with a
//! spillover binary heap for events beyond the ~270 ms horizon. Scheduling
//! into the window is O(1); popping sorts one small bucket at a time instead
//! of sifting a global heap, which keeps the touched memory cache-resident
//! during packet-dense phases.
//!
//! What the buckets and the spill heap order and move is a 24-byte `Key`
//! `(at, seq, slot)`; the event payload itself sits in a slab
//! (`Vec<Option<E>>` plus a free list) from `schedule` until `pop` and is
//! never moved by a sort or an insert. The open bucket is kept *ascending*
//! and drained through a head index: ring buckets fill in nearly ascending
//! time order, so the per-advance sort sees almost-sorted input, and an
//! event scheduled later than everything pending in the open bucket — the
//! usual case — is an append. A 256-bit occupancy bitmap finds the next
//! non-empty ring bucket with `trailing_zeros` instead of a ring walk.
//!
//! ## FIFO lanes
//!
//! Most events of a session are packets in flight on a FIFO link, whose
//! delivery times are non-decreasing in the order they are sent. Such a
//! stream is already sorted, so [`EventQueue::schedule_fifo`] appends it to
//! one of two in-line `VecDeque` lanes instead of filing it into the wheel,
//! and the pop side merges the two lane heads with the wheel's head by the
//! same `(at, seq)` order — `seq` comes from the queue's one counter, so the
//! pop sequence is exactly what scheduling everything on the wheel gives.
//! The lane is a hint, not an obligation: a push earlier than its lane's
//! tail goes to the wheel, which is still exact.
//!
//! A `BinaryHeap` future-event list with the same `(time, seq)` total order
//! lives in this module's tests as the reference the wheel and the lanes are
//! driven against in lock-step.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use vstream_obs::trace::{self, EventKind, SIDE_NONE};
use vstream_obs::Hist;

use crate::time::SimTime;

/// log2 of the wheel bucket width in nanoseconds (2^20 ns ≈ 1.05 ms).
///
/// Sized so that one bucket holds a handful of packet events at the fastest
/// profile (100 Mbps ⇒ ~9 MSS serializations per bucket) and the in-window
/// horizon covers a queueing-delayed RTT, which is where almost all delivery
/// events land.
pub const WHEEL_SHIFT: u32 = 20;

/// Number of buckets in the wheel ring (must be a power of two). With
/// [`WHEEL_SHIFT`] this gives a ~268 ms in-window horizon; RTO and
/// application timers beyond it take the spillover heap, which they hit
/// rarely enough not to matter.
pub const WHEEL_BUCKETS: usize = 256;

const WHEEL_MASK: u64 = (WHEEL_BUCKETS as u64) - 1;

/// Words in the ring-occupancy bitmap.
const OCC_WORDS: usize = WHEEL_BUCKETS / 64;

/// FIFO lanes beside the wheel: one per link direction of a session.
const LANES: usize = 2;

/// The wheel's index among the pop sources (the lanes are `0..LANES`).
const WHEEL: usize = LANES;

/// Pre-size of the wheel's slab and key stores. With packets on the lanes
/// the wheel holds timers only, a few tens pending at the busiest.
const WHEEL_PRESIZE: usize = 64;

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
    /// Events pushed (schedule + try_schedule + schedule_fifo).
    pub scheduled: u64,
    /// `schedule_fifo` pushes appended to their lane.
    pub lane_pushes: u64,
    /// `schedule_fifo` pushes earlier than their lane's tail, filed into the
    /// wheel instead.
    pub lane_fallbacks: u64,
    /// Wheel pushes into a future in-window ring bucket.
    pub ring_pushes: u64,
    /// Wheel pushes beyond the horizon, into the spill heap.
    pub spill_pushes: u64,
    /// Spill events migrated into the window on cursor advances.
    pub spill_promotions: u64,
    /// Cursor advances (bucket openings).
    pub advances: u64,
    /// Maximum number of simultaneously pending events.
    pub peak_len: u64,
    /// Open-bucket size observed at each cursor advance.
    pub occupancy: Hist,
}

/// What the wheel sorts and moves: the `(at, seq)` order plus the slab slot
/// holding the event. The derived order compares `at`, then `seq`; `seq` is
/// unique, so `slot` never decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> WHEEL_SHIFT
}

/// A deterministic future-event list.
///
/// Events are popped in non-decreasing time order; ties are broken by
/// insertion order (FIFO). The queue also tracks the time of the last popped
/// event. Scheduling into the past indicates a causality bug in the caller
/// and panics in every build mode (use [`Self::try_schedule`] where the
/// caller wants to observe the error instead).
///
/// Invariants between calls:
///
/// * `open[head..]` holds the pending keys of absolute bucket `cursor`,
///   sorted in *ascending* `(at, seq)` order; `open[..head]` has been popped.
/// * `buckets[a & MASK]` holds (unsorted) the keys of absolute bucket `a`
///   for `a` in `(cursor, cursor + WHEEL_BUCKETS)`, and bit `a & MASK` of
///   `occupied` is set exactly when that bucket is non-empty.
/// * `spill` holds every key at or beyond bucket `cursor + WHEEL_BUCKETS`;
///   each time the cursor advances, newly in-window spill keys migrate to
///   their buckets.
/// * `slab[key.slot]` is `Some` for every pending key and `None` for every
///   slot on the `free` list; the slab never grows while a slot is free, so
///   its length is the peak number of events pending on the wheel at once.
/// * Each lane is ascending in `(at, seq)`: `schedule_fifo` appends only at
///   or after the lane's tail time, and `seq` grows with every push.
/// * `wheel_head` is the `(at, seq)` of the earliest key on the wheel
///   (`None` when the wheel is empty), so the earliest pending event is the
///   least of it and the two lane fronts.
/// * `cursor <= bucket_of(now)`: the cursor moves only when a wheel event is
///   popped, and `now` never goes back. Lane pops advance `now` alone, so a
///   push at or after `now` never lands behind the cursor.
pub struct EventQueue<E> {
    open: Vec<Key>,
    head: usize,
    buckets: Vec<Vec<Key>>,
    occupied: [u64; OCC_WORDS],
    spill: BinaryHeap<Reverse<Key>>,
    cursor: u64,
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    wheel_head: Option<(SimTime, u64)>,
    lanes: [VecDeque<(SimTime, u64, E)>; LANES],
    len: usize,
    next_seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
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
        // they share `capacity`. The wheel keeps timers only, so its slab
        // and the two key stores that see traffic from the first event get
        // a small fixed pre-size. The ring buckets start empty and grow on
        // demand: pre-sizing all 256 would cost 256 allocations per fresh
        // queue, while a reused queue (the common case — see
        // `SessionScratch`) keeps whatever each bucket grew to.
        let wheel = capacity.min(WHEEL_PRESIZE);
        EventQueue {
            open: Vec::with_capacity(wheel),
            head: 0,
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; OCC_WORDS],
            spill: BinaryHeap::with_capacity(wheel),
            cursor: 0,
            slab: Vec::with_capacity(wheel),
            free: Vec::with_capacity(wheel),
            wheel_head: None,
            lanes: std::array::from_fn(|_| VecDeque::with_capacity(capacity / LANES)),
            len: 0,
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
    pub fn len(&self) -> usize {
        self.len
    }

    /// Allocated capacity of the underlying storage, in entries: the lanes,
    /// the wheel's event slab and its key stores (open bucket, ring
    /// buckets, spill heap).
    pub fn capacity(&self) -> usize {
        self.lanes.iter().map(VecDeque::capacity).sum::<usize>()
            + self.slab.capacity()
            + self.open.capacity()
            + self.spill.capacity()
            + self.buckets.iter().map(Vec::capacity).sum::<usize>()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` to fire at time `at`.
    ///
    /// # Panics
    /// Panics — in release builds too — if `at` is earlier than the current
    /// simulated time: an event scheduled in the past can never fire and
    /// always indicates a bug in the caller. Before this was a hard check,
    /// release builds clamped the timestamp to `now`, which kept the queue
    /// monotonic but let the causality bug run on silently (and a past
    /// bucket index would underflow the wheel's cursor arithmetic,
    /// misfiling the event into the spill heap).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.assert_not_past(at);
        self.push_wheel(at, event);
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
    /// append and a front pop instead of a trip through the wheel.
    ///
    /// The lane is a hint: a push earlier than the lane's tail is filed
    /// into the wheel instead (counted in [`QueueStats::lane_fallbacks`]),
    /// so the caller's monotonicity claim is never trusted for ordering.
    ///
    /// # Panics
    /// Panics — in release builds too — if `at` is earlier than the current
    /// simulated time (see [`Self::schedule`]), or if `lane` is not 0 or 1.
    pub fn schedule_fifo(&mut self, lane: usize, at: SimTime, event: E) {
        self.assert_not_past(at);
        if self.lanes[lane].back().is_some_and(|&(tail, _, _)| at < tail) {
            self.stats.lane_fallbacks += 1;
            self.push_wheel(at, event);
            return;
        }
        let seq = self.admit();
        self.lanes[lane].push_back((at, seq, event));
        self.stats.lane_pushes += 1;
    }

    /// Schedules `event` at `at`, returning the event back to the caller if
    /// `at` lies in the past.
    ///
    /// This is the recoverable form of [`Self::schedule`] for release-mode
    /// callers that want to detect causality violations rather than clamp
    /// them.
    pub fn try_schedule(&mut self, at: SimTime, event: E) -> Result<(), E> {
        if at < self.now {
            trace::emit(
                self.now.as_nanos(),
                EventKind::SimSchedulePast,
                SIDE_NONE,
                0,
                at.as_nanos(),
                0,
            );
            return Err(event);
        }
        self.push_wheel(at, event);
        Ok(())
    }

    /// Counts one more pending event and hands out its sequence number.
    #[inline]
    fn admit(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.stats.scheduled += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.len as u64);
        seq
    }

    #[inline]
    fn push_wheel(&mut self, at: SimTime, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("more than u32::MAX pending events");
                self.slab.push(Some(event));
                slot
            }
        };
        let key = Key { at, seq: self.admit(), slot };
        // The new key has the highest seq so far, so it becomes the wheel's
        // head only by being strictly earlier.
        if self.wheel_head.is_none_or(|(head_at, _)| at < head_at) {
            self.wheel_head = Some((at, key.seq));
        }

        let b = bucket_of(at);
        debug_assert!(b >= self.cursor, "event scheduled behind the wheel cursor");
        if b == self.cursor {
            // Into the open bucket: keep the ascending sort. The new key has
            // the highest seq so far, so among equal times it goes last, and
            // partition_point finds the slot in O(log n) — the end of the
            // vector unless something later is already pending here.
            if self.head == self.open.len() {
                self.open.clear();
                self.head = 0;
            }
            let idx = self.head + self.open[self.head..].partition_point(|k| k.at <= at);
            self.open.insert(idx, key);
        } else if b - self.cursor < WHEEL_BUCKETS as u64 {
            let idx = (b & WHEEL_MASK) as usize;
            self.buckets[idx].push(key);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.stats.ring_pushes += 1;
        } else {
            self.spill.push(Reverse(key));
            self.stats.spill_pushes += 1;
            trace::emit(
                self.now.as_nanos(),
                EventKind::SimSpillPush,
                SIDE_NONE,
                0,
                at.as_nanos(),
                0,
            );
        }
    }

    /// Ring index of the first non-empty ring bucket at or after ring index
    /// `from`, wrapping once around the ring.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let (word, bit) = (from / 64, from % 64);
        let first = self.occupied[word] & (!0u64 << bit);
        if first != 0 {
            return Some(word * 64 + first.trailing_zeros() as usize);
        }
        // The remaining words in ring order, ending with the low bits of
        // the starting word (its high bits were just seen to be clear).
        (1..=OCC_WORDS)
            .map(|i| (word + i) % OCC_WORDS)
            .find(|&w| self.occupied[w] != 0)
            .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// Absolute index of the first non-empty ring bucket after the cursor.
    #[inline]
    fn next_ring_bucket(&self) -> Option<u64> {
        // The cursor's own ring slot is always empty (its keys live in
        // `open`), so the distance found is in 1..WHEEL_BUCKETS.
        let idx = self.next_occupied(((self.cursor + 1) & WHEEL_MASK) as usize)?;
        Some(self.cursor + ((idx as u64).wrapping_sub(self.cursor) & WHEEL_MASK))
    }

    /// `(at, seq)` of the earliest key on the wheel, found without moving
    /// the cursor. O(1) while the open bucket is non-empty; otherwise one
    /// bitmap probe and a scan of the next bucket. Runs once per wheel pop
    /// (the result is cached in `wheel_head`), not once per peek.
    fn find_wheel_head(&self) -> Option<(SimTime, u64)> {
        if let Some(k) = self.open.get(self.head) {
            return Some((k.at, k.seq));
        }
        if self.slab.len() == self.free.len() {
            return None;
        }
        match self.next_ring_bucket() {
            Some(a) => self.buckets[(a & WHEEL_MASK) as usize].iter().map(|k| (k.at, k.seq)).min(),
            None => self.spill.peek().map(|k| (k.0.at, k.0.seq)),
        }
    }

    /// Which source — a lane or the wheel — holds the earliest pending
    /// event by `(at, seq)`, and its time. Three compares, no side effects.
    #[inline]
    fn earliest(&self) -> Option<(usize, SimTime)> {
        let mut best = self.wheel_head;
        let mut src = WHEEL;
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

    /// Moves the cursor to the next non-empty bucket, migrates newly
    /// in-window spill keys, and sorts the opened bucket. Returns the number
    /// of spill keys promoted.
    fn advance(&mut self) -> u64 {
        debug_assert!(self.head == self.open.len() && self.wheel_head.is_some());
        self.open.clear();
        self.head = 0;
        let a = self.next_ring_bucket().unwrap_or_else(|| {
            bucket_of(self.spill.peek().expect("pending wheel key outside open, ring and spill").0.at)
        });
        self.cursor = a;
        let idx = (a & WHEEL_MASK) as usize;
        std::mem::swap(&mut self.open, &mut self.buckets[idx]);
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        // Spill keys now inside the window move to their real buckets (the
        // heap pops them in time order, so this drains exactly the prefix).
        let mut promoted = 0;
        while let Some(&Reverse(key)) = self.spill.peek() {
            let b = bucket_of(key.at);
            if b >= a + WHEEL_BUCKETS as u64 {
                break;
            }
            self.spill.pop();
            promoted += 1;
            if b == a {
                self.open.push(key);
            } else {
                let idx = (b & WHEEL_MASK) as usize;
                self.buckets[idx].push(key);
                self.occupied[idx / 64] |= 1 << (idx % 64);
            }
        }
        // Ring buckets fill in nearly ascending time order, so this is
        // close to one verification pass.
        self.open.sort_unstable();
        self.stats.spill_promotions += promoted;
        self.stats.advances += 1;
        self.stats.occupancy.record(self.open.len() as u64);
        promoted
    }

    /// Takes the earliest pending event out of `src` (as named by
    /// [`Self::earliest`]) and advances the clock to its timestamp.
    #[inline]
    fn take(&mut self, src: usize) -> (SimTime, E) {
        self.len -= 1;
        let (at, event) = if src == WHEEL {
            self.take_wheel()
        } else {
            let (at, _, event) = self.lanes[src].pop_front().expect("earliest() named an empty lane");
            (at, event)
        };
        debug_assert!(at >= self.now);
        self.now = at;
        (at, event)
    }

    /// The wheel's half of [`Self::take`]: the only place the cursor moves.
    fn take_wheel(&mut self) -> (SimTime, E) {
        let promoted = if self.head == self.open.len() { self.advance() } else { 0 };
        let key = self.open[self.head];
        self.head += 1;
        let event = self.slab[key.slot as usize].take().expect("pending key without an event");
        self.free.push(key.slot);
        debug_assert_eq!(Some((key.at, key.seq)), self.wheel_head);
        self.wheel_head = self.find_wheel_head();
        if promoted > 0 {
            // Stamped at the popped event's time (the clock the caller is
            // about to see) so the flight recorder's event stream stays
            // monotone.
            trace::emit(
                key.at.as_nanos(),
                EventKind::SimSpillPromote,
                SIDE_NONE,
                0,
                promoted,
                0,
            );
        }
        (key.at, event)
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
        // Peek before taking: the cursor may only move when a wheel event
        // is actually popped, otherwise `now` (still at the last popped
        // time) could fall behind the cursor and a subsequent schedule
        // would land behind the wheel.
        let (src, at) = self.earliest()?;
        if at > limit {
            return None;
        }
        Some(self.take(src))
    }

    /// Discards all pending events without advancing the clock.
    ///
    /// The queue's allocations are retained.
    pub fn clear(&mut self) {
        self.open.clear();
        self.head = 0;
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = [0; OCC_WORDS];
        self.spill.clear();
        self.cursor = 0;
        self.slab.clear();
        self.free.clear();
        self.wheel_head = None;
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.len = 0;
    }

    /// Rewinds the queue to its initial state — empty, clock at
    /// [`SimTime::ZERO`], sequence counter reset — while keeping its
    /// allocations (lanes, slab and free list included), so one queue can
    /// be reused across back-to-back sessions without reallocating.
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

    /// The reference future-event list: a plain `BinaryHeap` over whole
    /// entries with the same `(time, seq)` total order and the same clock
    /// rules as [`EventQueue`]. It exists only to be driven against the
    /// wheel in lock-step.
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

        fn try_schedule(&mut self, at: SimTime, event: E) -> Result<(), E> {
            if at < self.now {
                return Err(event);
            }
            self.heap.push(HeapEntry { at, seq: self.next_seq, event });
            self.next_seq += 1;
            self.peak = self.peak.max(self.heap.len());
            Ok(())
        }

        fn schedule(&mut self, at: SimTime, event: E) {
            assert!(self.try_schedule(at, event).is_ok(), "reference schedule in the past");
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

    fn horizon() -> SimTime {
        SimTime::from_nanos((WHEEL_BUCKETS as u64) << WHEEL_SHIFT)
    }

    /// Start of absolute wheel bucket `b`.
    fn bucket_start(b: u64) -> SimTime {
        SimTime::from_nanos(b << WHEEL_SHIFT)
    }

    #[test]
    fn key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
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
    fn try_schedule_rejects_past_and_returns_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'a');
        q.pop();
        assert_eq!(q.try_schedule(SimTime::from_secs(1), 'b'), Err('b'));
        assert_eq!(q.try_schedule(SimTime::from_secs(2), 'c'), Ok(()));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 'c')));
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
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn with_capacity_pre_sizes() {
        let q: EventQueue<()> = EventQueue::with_capacity(1024);
        let lanes: usize = q.lanes.iter().map(VecDeque::capacity).sum();
        assert!(lanes >= 1024, "the lanes hold the stated working set");
        assert!(
            (WHEEL_PRESIZE..1024).contains(&q.slab.capacity()),
            "the wheel is sized for timers, not for packets"
        );
        assert_eq!(
            q.capacity(),
            lanes + q.slab.capacity() + q.open.capacity() + q.spill.capacity()
        );
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        // Below the wheel's pre-size the request is taken literally, so an
        // empty queue (`new`) allocates nothing but the ring headers.
        let q: EventQueue<()> = EventQueue::with_capacity(0);
        assert_eq!(q.capacity(), 0);
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut q = EventQueue::with_capacity(64);
        for i in 0..64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        while q.pop().is_some() {}
        assert_ne!(q.now(), SimTime::ZERO);
        let cap = q.capacity();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.capacity(), cap);
        // Sequence counter restarted: FIFO order matches a fresh queue.
        let t = SimTime::from_secs(1);
        q.schedule(t, 7);
        q.schedule(t, 8);
        assert_eq!(q.pop(), Some((t, 7)));
        assert_eq!(q.pop(), Some((t, 8)));
    }

    #[test]
    fn wheel_handles_events_beyond_the_horizon() {
        // Events far past the wheel window land in the spillover heap and
        // still come out in exact order, including ties with in-window ones.
        let mut q = EventQueue::new();
        q.schedule(horizon() + SimDuration::from_secs(30), 'd');
        q.schedule(SimTime::from_millis(1), 'a');
        q.schedule(horizon() + SimDuration::from_secs(5), 'c');
        q.schedule(SimTime::from_millis(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn wheel_spill_migrates_into_open_bucket() {
        // A spill event whose bucket becomes the *opened* bucket after a
        // long jump must be delivered from the open bucket, interleaved
        // correctly with events scheduled right after the jump.
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(100);
        q.schedule(far, 1);
        q.schedule(far + SimDuration::from_nanos(1), 2);
        q.schedule(SimTime::from_millis(1), 0);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 0)));
        assert!(q.open.is_empty() || q.head == q.open.len(), "both far events still spilled");
        assert_eq!(q.pop(), Some((far, 1)));
        assert_eq!(q.stats().spill_promotions, 2);
        assert_eq!(q.open.len() - q.head, 1, "the second far event was promoted into the open bucket");
        // Now schedule into the open bucket behind the pending entry.
        q.schedule(far + SimDuration::from_nanos(1), 3);
        assert_eq!(q.pop(), Some((far + SimDuration::from_nanos(1), 2)));
        assert_eq!(q.pop(), Some((far + SimDuration::from_nanos(1), 3)));
        assert_eq!(q.pop(), None);
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

    #[test]
    fn stats_track_scheduling_and_wheel_traffic() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 'a'); // open bucket
        q.schedule(SimTime::from_millis(50), 'b'); // ring
        q.schedule(horizon() + SimDuration::from_secs(1), 'c'); // spill
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.ring_pushes, 1);
        assert_eq!(s.spill_pushes, 1);
        assert_eq!(s.peak_len, 3);
        assert_eq!(s.advances, 0, "no pops yet");

        while q.pop().is_some() {}
        let s = q.stats();
        assert!(s.advances >= 2, "ring and spill buckets were opened");
        assert_eq!(s.spill_promotions, 1);
        assert_eq!(s.occupancy.count(), s.advances);
        assert_eq!(s.peak_len, 3, "draining does not move the peak");

        q.reset();
        assert_eq!(*q.stats(), QueueStats::default(), "reset clears stats");
    }

    #[test]
    fn slab_is_bounded_by_peak_len_and_slots_are_reused() {
        let mut q = EventQueue::new();
        // A sliding window of at most three pending events over many pushes.
        for i in 0..1_000u64 {
            q.schedule(SimTime::from_micros(i * 400 + 900), i);
            if i >= 2 {
                assert_eq!(q.pop().map(|(_, e)| e), Some(i - 2));
            }
            assert!(q.slab.len() as u64 <= q.stats().peak_len);
            assert_eq!(q.slab.len(), q.len() + q.free.len(), "every slot is pending or free");
        }
        assert_eq!(q.stats().peak_len, 3);
        assert_eq!(q.slab.len(), 3, "popped slots were recycled, not appended to");
        // The most recently freed slot is the next one handed out.
        let freed = *q.free.last().expect("a slot was freed");
        q.schedule(q.now(), 7_777);
        assert_eq!(q.slab[freed as usize], Some(7_777));
    }

    #[test]
    fn reset_and_clear_empty_slab_free_list_and_bitmap() {
        for use_reset in [false, true] {
            let mut q = EventQueue::new();
            for i in 0..200u64 {
                q.schedule(SimTime::from_millis(i * 3), i); // open, ring and spill
            }
            for _ in 0..50 {
                q.pop();
            }
            assert!(q.occupied.iter().any(|&w| w != 0));
            assert!(!q.free.is_empty() && !q.slab.is_empty() && !q.spill.is_empty());
            let slab_cap = q.slab.capacity();
            if use_reset {
                q.reset();
            } else {
                q.clear();
            }
            assert_eq!(q.occupied, [0; OCC_WORDS]);
            assert!(q.slab.is_empty() && q.free.is_empty() && q.spill.is_empty());
            assert!(q.open.is_empty() && q.head == 0 && q.cursor == 0);
            assert!(q.buckets.iter().all(Vec::is_empty));
            assert_eq!(q.slab.capacity(), slab_cap, "allocation kept");
            assert_eq!((q.len(), q.peek_time(), q.pop()), (0, None, None));
            // Usable again, from slot 0.
            q.schedule(q.now() + SimDuration::from_millis(5), 1);
            assert_eq!(q.slab.len(), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        }
    }

    #[test]
    fn bitmap_scan_wraps_around_the_ring() {
        // Park the cursor on ring index 255: the search for the next bucket
        // starts at ring index 0 of the following lap.
        let mut q = EventQueue::new();
        q.schedule(bucket_start(255), 'a');
        assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
        assert_eq!(q.cursor & WHEEL_MASK, 255);
        // Absolute buckets 256 + {0, 70, 254}: ring indices 0, 70 and 254,
        // i.e. the first word, the second, and the cursor's own word below
        // the cursor bit.
        q.schedule(bucket_start(256 + 254), 'd');
        q.schedule(bucket_start(256 + 70), 'c');
        q.schedule(bucket_start(256), 'b');
        assert_eq!(q.stats().ring_pushes, 3 + 1, "all within the window of cursor 255");
        assert_eq!(q.occupied, [1, 1 << (70 - 64), 0, 1 << (254 - 192)]);
        assert_eq!(q.peek_time(), Some(bucket_start(256)));
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
        assert_eq!(q.cursor, 256);
        assert_eq!(q.pop().map(|(_, e)| e), Some('c'));
        assert_eq!(q.pop().map(|(_, e)| e), Some('d'));
        assert_eq!(q.cursor, 256 + 254);
        assert_eq!(q.occupied, [0; OCC_WORDS]);
        // From mid-word, the only occupied bucket sits *below* the cursor
        // bit in the same word: found by the wrap-around pass.
        q.schedule(bucket_start(256 + 254 + 200), 'e');
        assert_eq!(q.occupied[((256 + 254 + 200) % 256) / 64], 1 << ((256 + 254 + 200) % 64));
        assert_eq!(q.peek_time(), Some(bucket_start(256 + 254 + 200)));
        assert_eq!(q.pop().map(|(_, e)| e), Some('e'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_time_inserts_into_half_drained_open_bucket_stay_fifo() {
        let mut q = EventQueue::new();
        let t = |ns: u64| SimTime::from_nanos(ns);
        // One bucket: two early events, three at t=500, one late.
        for (at, label) in [(100, 0), (200, 1), (500, 2), (500, 3), (900, 4), (500, 5)] {
            q.schedule(t(at), label);
        }
        assert_eq!(q.pop(), Some((t(100), 0)));
        assert_eq!(q.pop(), Some((t(200), 1)));
        assert_eq!(q.head, 2, "open bucket is half drained");
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
        // Fully drained: the next open-bucket insert restarts the vector.
        q.schedule(t(950), 10);
        assert_eq!((q.head, q.open.len()), (0, 1));
    }

    /// The sweep the wheel's correctness rests on: seeded random
    /// interleavings of `schedule` / `try_schedule` / `pop` / `pop_before` /
    /// `reset` driven against the wheel and the reference heap in lock-step
    /// must observe identical results at every step.
    ///
    /// Every simulation output is a function of the pop sequence alone, so
    /// pop-sequence equality here implies figure equality; no end-to-end
    /// wheel-vs-heap rendering test is needed on top of it.
    #[test]
    fn backends_are_observationally_identical() {
        for seed in 0..48u64 {
            let mut rng = SimRng::new(0xE100_0000 + seed);
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut label = 0u64;
            for step in 0..600 {
                match rng.choose_index(10) {
                    // Schedule near, far, and at the current instant; the
                    // span crosses the wheel horizon in both directions.
                    0..=4 => {
                        let off = match rng.choose_index(3) {
                            0 => rng.uniform_u64(0, 2_000_000),          // in-bucket
                            1 => rng.uniform_u64(0, 300_000_000),        // in-window
                            _ => rng.uniform_u64(0, 3_000_000_000),      // spill
                        };
                        let at = wheel.now() + SimDuration::from_nanos(off);
                        wheel.schedule(at, label);
                        heap.schedule(at, label);
                        label += 1;
                    }
                    5 => {
                        let off = rng.uniform_u64(0, 500_000_000);
                        let at = SimTime::ZERO + SimDuration::from_nanos(off);
                        let a = wheel.try_schedule(at, label);
                        let b = heap.try_schedule(at, label);
                        assert_eq!(a.is_ok(), b.is_ok(), "seed {seed} step {step}");
                        label += 1;
                    }
                    6..=7 => {
                        assert_eq!(wheel.pop(), heap.pop(), "seed {seed} step {step}");
                    }
                    8 => {
                        let limit = heap.now + SimDuration::from_nanos(rng.uniform_u64(0, 400_000_000));
                        assert_eq!(
                            wheel.pop_before(limit),
                            heap.pop_before(limit),
                            "seed {seed} step {step}"
                        );
                    }
                    _ => {
                        if rng.choose_index(8) == 0 {
                            wheel.reset();
                            heap.reset();
                        } else {
                            assert_eq!(wheel.peek_time(), heap.peek_time(), "seed {seed} step {step}");
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.heap.len(), "seed {seed} step {step}");
                assert_eq!(wheel.now(), heap.now, "seed {seed} step {step}");
                assert!(wheel.slab.len() as u64 <= wheel.stats().peak_len, "seed {seed} step {step}");
            }
            // Drain both completely: the tails must match too.
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn lanes_and_wheel_merge_by_time_then_schedule_order() {
        let mut q = EventQueue::new();
        let t = |ms: u64| SimTime::from_millis(ms);
        q.schedule_fifo(0, t(5), "lane0 first");
        q.schedule(t(5), "wheel second");
        q.schedule_fifo(1, t(5), "lane1 third");
        q.schedule_fifo(1, t(9), "lane1 late");
        q.schedule(t(1), "wheel early");
        q.schedule_fifo(0, t(5), "lane0 fourth");
        assert_eq!(q.len(), 6);
        assert_eq!(q.stats().peak_len, 6, "the peak counts lane entries too");
        assert_eq!((q.stats().scheduled, q.stats().lane_pushes, q.stats().lane_fallbacks), (6, 4, 0));
        assert_eq!(q.peek_time(), Some(t(1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            ["wheel early", "lane0 first", "wheel second", "lane1 third", "lane0 fourth", "lane1 late"]
        );
        assert_eq!(q.now(), t(9));
        assert_eq!(q.cursor, bucket_of(t(5)), "the cursor moved on wheel pops only");
    }

    #[test]
    fn non_monotone_lane_push_falls_back_to_the_wheel() {
        let mut q = EventQueue::new();
        let t = |ms: u64| SimTime::from_millis(ms);
        q.schedule_fifo(0, t(8), 'c');
        q.schedule_fifo(0, t(3), 'a'); // earlier than the lane's tail
        q.schedule_fifo(0, t(8), 'd'); // equal to the tail is in order
        q.schedule_fifo(1, t(4), 'b'); // the other lane has its own tail
        assert_eq!((q.stats().lane_pushes, q.stats().lane_fallbacks), (3, 1));
        assert_eq!(q.lanes[0].len() + q.lanes[1].len(), 3);
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
    /// and the wheel — equal-`at` ties across all three, a non-monotone
    /// lane push per seed, `pop_before` limits on and just below a lane
    /// head, `clear` and `reset` mid-stream — must observe identical
    /// results at every step. Pop-sequence equality with the oracle is
    /// equality with an all-wheel queue (`backends_are_observationally_identical`).
    #[test]
    fn lanes_are_observationally_identical_to_the_wheel() {
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
                        // Timers: near, at a lane head's instant, or spilled.
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
                                WHEEL => q.schedule(at, label),
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
                assert!(q.cursor <= bucket_of(q.now()), "{ctx}: cursor ran ahead of the clock");
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
