//! # Structured event tracing: the per-session flight recorder
//!
//! Where [`crate::Metrics`] answers *how much* (fleet-wide counters and
//! histograms), this module answers *when and in what order*: the layers
//! of one simulated session produce typed, timestamped [`Event`]s, and a
//! bounded ring-buffer [`Recorder`] keeps them. The recorder is a flight
//! recorder in the aviation sense — it always holds the **last** `cap`
//! events, so when a session trips an anomaly predicate (a long stall, a
//! retransmit storm) the tail of the timeline that explains it is still
//! there.
//!
//! This module holds only the vocabulary and the ring; it has no global
//! state. A recorder is a value: the session bracket (`vstream`'s
//! `session::run_engine`) creates one when a dump policy is installed and
//! hands it to the session's engine, which is its one writer — it records
//! what its endpoints, its links' send verdicts and its strategy logic
//! report, in the order they happen — and takes it back when the session
//! ends. A session records if and only if its bracket holds a ring, so
//! there is no switch to set and no thread to bracket.
//!
//! 1. **Output neutrality.** Recording is strictly passive; nothing in the
//!    simulation reads the recorder. Figure output is byte-identical with
//!    a ring attached or not.
//! 2. **No cost without a ring.** Every recording site is one branch on
//!    whether the session holds a ring; without one, no event is built.
//! 3. **Determinism.** Events carry simulation time, never wall time, and
//!    a session's event stream is a pure function of its spec — so trace
//!    dumps are byte-identical across `--jobs` and cache on/off.
//!
//! Timestamps are raw nanoseconds (`SimTime::as_nanos`): this crate sits
//! beside `vstream-sim` at the bottom of the dependency order.

/// Every typed event a session can record. The discriminant
/// and [`EventKind::name`] strings are stable identifiers: they appear in
/// trace dumps and the Chrome trace-event export, and tests replay them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// TCP connection state transition. `a` = previous state ordinal,
    /// `b` = new state ordinal (see the endpoint's `TcpState`).
    TcpState = 0,
    /// Congestion window change on a new ACK. `a` = cwnd (bytes),
    /// `b` = ssthresh (bytes).
    TcpCwnd,
    /// Retransmission timeout fired. `a` = running timeout count for the
    /// endpoint, `b` = bytes in flight at the timeout.
    TcpRtoFire,
    /// Third duplicate ACK triggered a fast retransmit. `a` = seq of the
    /// retransmitted segment, `b` = cwnd after the reduction.
    TcpFastRetx,
    /// A SACK block advanced the scoreboard. `a` = block start seq,
    /// `b` = block end seq.
    TcpSackEdge,
    /// Bottleneck queue tail drop. `a` = backlog (bytes) at drop time,
    /// `b` = dropped packet length (bytes).
    NetQueueDrop,
    /// Random (loss-model) drop. `a` = packet length (bytes).
    NetRandomDrop,
    /// Queue backlog crossed a power-of-two high-water mark.
    /// `a` = new backlog high-water (bytes).
    NetBacklogHwm,
    /// Player left the Initial state: first frame playable.
    /// `a` = startup delay (ns).
    AppStartup,
    /// Player entered the Stalled state (buffer underrun). `a` = the
    /// retroactive stall-start time (ns): the instant the buffer actually
    /// drained, which precedes this event's detection timestamp.
    AppStallStart,
    /// Player resumed from a stall. `a` = completed stall duration (ns).
    AppStallEnd,
    /// Player finished the video. `a` = total stall time so far (ns).
    AppFinished,
    /// Player buffer crossed a power-of-two level boundary.
    /// `a` = buffer level (bytes), `b` = log2 bucket.
    AppBufferLevel,
    /// A streaming strategy issued a block request. `a` = running block
    /// count for the session.
    AppBlockRequest,
    /// An adaptive-bitrate strategy switched ladder rungs. `a` = new rate
    /// (bps), `b` = previous rate (bps).
    AppBitrateSwitch,
}

impl EventKind {
    /// Stable snake_case identifier, used in dumps and exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TcpState => "tcp_state",
            EventKind::TcpCwnd => "tcp_cwnd",
            EventKind::TcpRtoFire => "tcp_rto_fire",
            EventKind::TcpFastRetx => "tcp_fast_retx",
            EventKind::TcpSackEdge => "tcp_sack_edge",
            EventKind::NetQueueDrop => "net_queue_drop",
            EventKind::NetRandomDrop => "net_random_drop",
            EventKind::NetBacklogHwm => "net_backlog_hwm",
            EventKind::AppStartup => "app_startup",
            EventKind::AppStallStart => "app_stall_start",
            EventKind::AppStallEnd => "app_stall_end",
            EventKind::AppFinished => "app_finished",
            EventKind::AppBufferLevel => "app_buffer_level",
            EventKind::AppBlockRequest => "app_block_request",
            EventKind::AppBitrateSwitch => "app_bitrate_switch",
        }
    }

    /// The emitting layer — the Chrome-trace category.
    pub fn layer(self) -> &'static str {
        match self {
            EventKind::TcpState
            | EventKind::TcpCwnd
            | EventKind::TcpRtoFire
            | EventKind::TcpFastRetx
            | EventKind::TcpSackEdge => "tcp",
            EventKind::NetQueueDrop | EventKind::NetRandomDrop | EventKind::NetBacklogHwm => "net",
            EventKind::AppStartup
            | EventKind::AppStallStart
            | EventKind::AppStallEnd
            | EventKind::AppFinished
            | EventKind::AppBufferLevel
            | EventKind::AppBlockRequest
            | EventKind::AppBitrateSwitch => "app",
        }
    }
}

/// Which side of a connection a TCP event belongs to.
pub const SIDE_NONE: u8 = 0;
/// Client-side endpoint.
pub const SIDE_CLIENT: u8 = 1;
/// Server-side endpoint.
pub const SIDE_SERVER: u8 = 2;

/// One recorded event: 32 bytes, `Copy`, no heap. Emission sites are
/// always *detection* points, so `at_ns` is monotone non-decreasing per
/// session; retroactive quantities (e.g. when a stall actually began)
/// travel in the payload words instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulation time of the emission site, in nanoseconds.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// `SIDE_NONE`, `SIDE_CLIENT`, or `SIDE_SERVER`.
    pub side: u8,
    /// Connection id for TCP events, 0 elsewhere.
    pub conn: u16,
    /// First payload word — meaning per [`EventKind`].
    pub a: u64,
    /// Second payload word — meaning per [`EventKind`].
    pub b: u64,
}

/// Bounded ring buffer of the most recent events, plus a count of every
/// event ever offered so dumps can report how many were overwritten.
#[derive(Debug)]
pub struct Recorder {
    buf: Vec<Event>,
    cap: usize,
    /// Next write slot once the ring is full.
    head: usize,
    /// Events ever pushed (`>= buf.len()`).
    total: u64,
}

impl Recorder {
    /// Creates a recorder holding at most `cap` events (min 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Recorder { buf: Vec::new(), cap, head: 0, total: 0 }
    }

    /// Records one event, overwriting the oldest once full.
    pub fn push(&mut self, ev: Event) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.buf.len() == self.cap {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        out
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events ever offered, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind, a: u64) -> Event {
        Event { at_ns: at, kind, side: SIDE_NONE, conn: 0, a, b: 0 }
    }

    #[test]
    fn ring_keeps_exactly_last_n() {
        let mut r = Recorder::new(4);
        for i in 0..11u64 {
            r.push(ev(i, EventKind::AppBlockRequest, i));
        }
        assert_eq!(r.total(), 11);
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 7);
        let kept: Vec<u64> = r.events().iter().map(|e| e.at_ns).collect();
        assert_eq!(kept, vec![7, 8, 9, 10]);
    }

    #[test]
    fn ring_under_capacity_keeps_everything_in_order() {
        let mut r = Recorder::new(8);
        for i in 0..5u64 {
            r.push(ev(i * 10, EventKind::TcpCwnd, i));
        }
        assert_eq!(r.dropped(), 0);
        let kept: Vec<u64> = r.events().iter().map(|e| e.at_ns).collect();
        assert_eq!(kept, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn kind_names_are_unique_and_layered() {
        let kinds = [
            EventKind::TcpState,
            EventKind::TcpCwnd,
            EventKind::TcpRtoFire,
            EventKind::TcpFastRetx,
            EventKind::TcpSackEdge,
            EventKind::NetQueueDrop,
            EventKind::NetRandomDrop,
            EventKind::NetBacklogHwm,
            EventKind::AppStartup,
            EventKind::AppStallStart,
            EventKind::AppStallEnd,
            EventKind::AppFinished,
            EventKind::AppBufferLevel,
            EventKind::AppBlockRequest,
            EventKind::AppBitrateSwitch,
        ];
        assert_eq!(kinds.len(), EventKind::AppBitrateSwitch as usize + 1, "a kind is missing");
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "duplicate event names");
        for k in kinds {
            assert!(k.name().starts_with(k.layer()), "{} vs {}", k.name(), k.layer());
        }
    }
}
