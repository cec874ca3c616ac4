//! The TCP endpoint state machine.
//!
//! An [`Endpoint`] is a passive component: the session loop calls
//! [`Endpoint::on_segment_into`] when a packet arrives,
//! [`Endpoint::on_timer_into`] when the deadline reported by
//! [`Endpoint::next_timer`] passes, and the application-facing methods
//! ([`Endpoint::write_into`], [`Endpoint::read_into`],
//! [`Endpoint::close_into`]) when the streaming strategy acts. Every call
//! appends the segments to transmit to the caller's buffer, which the loop
//! feeds to the simulated link.
//!
//! The send path implements Reno with NewReno partial-ACK recovery, go-back-N
//! retransmission after a timeout (the classic `snd_nxt` rewind, with a
//! `snd_high` high-water mark so retransmissions are labelled as such), RFC
//! 6298 RTO management with Karn's algorithm, zero-window probing with
//! exponential backoff, and (optionally) the RFC 5681 idle-window restart.
//! The receive path acknowledges every data segment, so duplicate ACKs arise
//! naturally from out-of-order arrivals.

use vstream_obs::trace::{self, EventKind, SIDE_CLIENT, SIDE_SERVER};
use vstream_obs::Hist;
use vstream_sim::SimTime;

use crate::cc::{CongestionController, NewAckOutcome};
use crate::config::{TcpConfig, MAX_RTO, MSS};
use crate::rangeset::RangeSet;
use crate::reassembly::ReceiveBuffer;
use crate::rtt::RttEstimator;
use crate::segment::Segment;

/// Which side of the connection this endpoint is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Initiates the connection (the video player).
    Client,
    /// Accepts the connection (the streaming server).
    Server,
}

/// Connection state (simplified TCP state machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// No connection.
    Closed,
    /// Server waiting for a SYN.
    Listen,
    /// Client sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Server sent SYN-ACK, awaiting ACK.
    SynRcvd,
    /// Data can flow.
    Established,
}

/// Stable ordinal carried in [`EventKind::TcpState`] trace payloads.
fn state_ord(s: State) -> u64 {
    match s {
        State::Closed => 0,
        State::Listen => 1,
        State::SynSent => 2,
        State::SynRcvd => 3,
        State::Established => 4,
    }
}

/// Counters for tests and analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Data segments sent carrying new payload.
    pub data_segments_sent: u64,
    /// New payload bytes sent (excluding retransmissions).
    pub data_bytes_sent: u64,
    /// Retransmitted segments.
    pub retx_segments: u64,
    /// Retransmitted payload bytes.
    pub retx_bytes: u64,
    /// Pure ACK segments sent.
    pub acks_sent: u64,
    /// Zero-window probes sent.
    pub probes_sent: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// SACK blocks carried on outgoing ACKs.
    pub sack_blocks_sent: u64,
    /// Congestion-window sizes (bytes) sampled at each new ACK.
    pub cwnd_hist: Hist,
}

impl EndpointStats {
    /// Fraction of sent payload bytes that were retransmissions — the
    /// quantity the paper reports per vantage point (§5.1.1).
    pub fn retx_rate(&self) -> f64 {
        let total = self.data_bytes_sent + self.retx_bytes;
        if total == 0 {
            0.0
        } else {
            self.retx_bytes as f64 / total as f64
        }
    }
}

/// One side of a simulated TCP connection.
pub struct Endpoint {
    cfg: TcpConfig,
    role: Role,
    state: State,
    conn: u32,

    // --- Send side ---
    /// Total bytes the application has queued for sending.
    write_offset: u64,
    /// Oldest unacknowledged sequence.
    snd_una: u64,
    /// Next sequence to send. Rewound to `snd_una` on a retransmission
    /// timeout (go-back-N).
    snd_nxt: u64,
    /// Highest sequence ever sent; anything below it that is sent again is a
    /// retransmission.
    snd_high: u64,
    /// Peer's advertised receive window.
    snd_wnd: u64,
    /// Highest ack_no that updated `snd_wnd`.
    snd_wl: u64,
    /// Application has requested close.
    fin_queued: bool,
    /// FIN has been transmitted and not rewound (consumes one sequence
    /// slot).
    fin_sent: bool,
    /// Sender-side SACK scoreboard: byte ranges the peer reported holding
    /// out of order (above `snd_una`).
    sacked: RangeSet,
    /// Next hole to repair during SACK-based recovery; monotone within one
    /// recovery episode so no hole is retransmitted twice per episode.
    hole_next: u64,
    /// Ranges retransmitted and not yet known delivered; the retransmission
    /// component of the RFC 6675 pipe estimate.
    retx_pending: RangeSet,
    /// End of the highest range the peer has reported holding out of order.
    /// Everything between `snd_una` and this point is either SACKed or lost,
    /// so it does not count toward the pipe.
    peer_sack_highest: u64,

    cc: CongestionController,
    rtt: RttEstimator,
    /// Outstanding RTT measurement: (sequence that must be acked, send
    /// time). Cleared on any retransmission (Karn's algorithm).
    rtt_probe: Option<(u64, SimTime)>,

    // --- Timers ---
    rto_deadline: Option<SimTime>,
    persist_deadline: Option<SimTime>,
    persist_backoff: u32,
    /// Time the last data segment was sent; used for idle-restart detection.
    last_data_sent: Option<SimTime>,
    /// Sends remaining for the current event while in loss recovery. Reset
    /// to 1 per incoming segment/timer: strict conservation (at most one
    /// segment out per ACK in, shared between repairs and new data) keeps
    /// recovery from re-flooding the queue that just overflowed, in the
    /// spirit of proportional rate reduction.
    recovery_quota: u32,
    /// RFC 6582 "impatient" recovery: only the first partial ACK of an
    /// episode restarts the retransmission timer. If recovery then crawls
    /// (e.g. a whole tail of the window was lost and there is no SACK
    /// information to repair from), the RTO fires and go-back-N finishes the
    /// job instead of one-segment-per-RTT NewReno.
    partial_ack_seen: bool,

    // --- Receive side ---
    rb: ReceiveBuffer,

    stats: EndpointStats,
}

impl Endpoint {
    /// Creates an endpoint in [`State::Closed`] (client) or
    /// [`State::Listen`] (server).
    pub fn new(role: Role, conn: u32, cfg: TcpConfig) -> Self {
        cfg.validate();
        let mut cc = CongestionController::new(cfg.congestion, cfg.max_cwnd);
        cc.set_sack_mode(cfg.sack);
        let rtt = RttEstimator::default();
        let rb = ReceiveBuffer::new(cfg.recv_buffer);
        Endpoint {
            state: match role {
                Role::Client => State::Closed,
                Role::Server => State::Listen,
            },
            role,
            conn,
            write_offset: 0,
            snd_una: 0,
            snd_nxt: 0,
            snd_high: 0,
            snd_wnd: MSS, // until the peer advertises, assume one MSS
            snd_wl: 0,
            fin_queued: false,
            fin_sent: false,
            sacked: RangeSet::new(),
            hole_next: 0,
            retx_pending: RangeSet::new(),
            peer_sack_highest: 0,
            cc,
            rtt,
            rtt_probe: None,
            rto_deadline: None,
            persist_deadline: None,
            persist_backoff: 0,
            last_data_sent: None,
            recovery_quota: 0,
            partial_ack_seen: false,
            rb,
            cfg,
            stats: EndpointStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    /// Emits one flight-recorder event attributed to this endpoint's
    /// connection and side. Passive; one relaxed load when tracing is off.
    #[inline]
    fn trace_ev(&self, now: SimTime, kind: EventKind, a: u64, b: u64) {
        let side = match self.role {
            Role::Client => SIDE_CLIENT,
            Role::Server => SIDE_SERVER,
        };
        trace::emit(now.as_nanos(), kind, side, self.conn as u16, a, b);
    }

    /// Changes connection state, recording the transition. Every state
    /// change goes through here, so a `--trace-dir` dump holds each one; the
    /// four legal transitions are the handshake's.
    #[inline]
    fn set_state(&mut self, now: SimTime, next: State) {
        debug_assert!(
            matches!(
                (self.state, next),
                (State::Closed, State::SynSent)
                    | (State::Listen, State::SynRcvd)
                    | (State::SynSent, State::Established)
                    | (State::SynRcvd, State::Established)
            ),
            "illegal TCP transition {:?} -> {:?}",
            self.state,
            next
        );
        self.trace_ev(now, EventKind::TcpState, state_ord(self.state), state_ord(next));
        self.state = next;
    }

    /// Bytes the application can read right now.
    pub fn available_to_read(&self) -> u64 {
        self.rb.available()
    }

    /// True once the peer's FIN arrived and all data has been read.
    pub fn at_eof(&self) -> bool {
        self.rb.at_eof()
    }

    /// Bytes in flight (sent but unacknowledged, including a sent FIN).
    pub(crate) fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// True when every queued byte (and FIN, if any) has been acknowledged.
    pub fn all_acked(&self) -> bool {
        let total = self.write_offset + u64::from(self.fin_sent);
        self.snd_una >= total
    }

    /// Counters.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Currently advertised receive window (what the next outgoing segment
    /// will carry).
    pub fn advertised_window(&self) -> u64 {
        self.rb.window()
    }

    // ------------------------------------------------------------------
    // Application API
    // ------------------------------------------------------------------

    /// Starts the client-side handshake.
    ///
    /// # Panics
    /// Panics if called on a server or a non-closed endpoint.
    pub fn connect(&mut self, now: SimTime) -> Vec<Segment> {
        assert_eq!(self.role, Role::Client, "connect() on a server endpoint");
        assert_eq!(self.state, State::Closed, "connect() on an open endpoint");
        self.set_state(now, State::SynSent);
        self.arm_rto(now);
        self.rtt_probe = Some((0, now)); // SYN-ACK arrival samples the RTT
        vec![self.make_segment(0, 0, true, false)]
    }

    /// Queues `bytes` of application data and appends to `out` whatever the
    /// windows allow sending. Like every call below, it appends to the
    /// caller's buffer: the session loop reuses one per engine.
    ///
    /// # Panics
    /// Panics if called after [`Endpoint::close_into`].
    pub fn write_into(&mut self, now: SimTime, bytes: u64, out: &mut Vec<Segment>) {
        assert!(!self.fin_queued, "write() after close()");
        self.write_offset += bytes;
        self.pump_into(now, out);
    }

    /// Signals that the application is done writing; a FIN is sent once all
    /// queued data has been transmitted.
    pub fn close_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        self.fin_queued = true;
        self.pump_into(now, out);
    }

    /// Reads up to `max` bytes from the receive buffer and returns the bytes
    /// consumed.
    ///
    /// Appends any window-update ACK the read triggered to `out` (sent when
    /// the advertised window grows from below one MSS to at least one MSS,
    /// so a sender stalled on a zero window resumes without waiting for a
    /// persist probe).
    pub fn read_into(&mut self, now: SimTime, max: u64, out: &mut Vec<Segment>) -> u64 {
        let _ = now;
        let window_before = self.rb.window();
        let n = self.rb.read(max);
        if n > 0 && window_before < MSS && self.rb.window() >= MSS {
            out.push(self.make_ack());
        }
        n
    }

    // ------------------------------------------------------------------
    // Network API
    // ------------------------------------------------------------------

    /// Handles a segment arriving from the peer, appending the responses to
    /// `out`.
    pub fn on_segment_into(&mut self, now: SimTime, seg: Segment, out: &mut Vec<Segment>) {
        debug_assert_eq!(seg.conn, self.conn, "segment routed to wrong connection");
        self.recovery_quota = 1;

        // --- Handshake transitions ---
        match self.state {
            State::Listen => {
                if seg.syn {
                    self.set_state(now, State::SynRcvd);
                    self.arm_rto(now);
                    out.push(self.make_segment(0, 0, true, false)); // SYN-ACK
                }
                self.absorb_window(&seg);
                return;
            }
            State::SynSent => {
                if seg.syn && seg.ack {
                    self.set_state(now, State::Established);
                    self.disarm_rto();
                    if let Some((_, t)) = self.rtt_probe.take() {
                        self.rtt.sample(now.duration_since(t));
                    }
                    self.absorb_window(&seg);
                    out.push(self.make_ack());
                    self.pump_into(now, out);
                }
                return;
            }
            State::SynRcvd => {
                if seg.syn {
                    // Our SYN-ACK was lost; the peer retransmitted its SYN.
                    out.push(self.make_segment(0, 0, true, false));
                    return;
                }
                if seg.ack {
                    self.set_state(now, State::Established);
                    self.disarm_rto();
                }
                // Fall through: the ACK completing the handshake may carry
                // data (or this may be the first data segment).
            }
            State::Closed => return,
            State::Established => {}
        }

        // --- ACK processing (send side) ---
        if seg.ack {
            self.process_ack(now, &seg, out);
        }

        // --- Data and FIN (receive side) ---
        if seg.has_payload() {
            self.rb.on_data(seg.seq, seg.payload);
        }
        if seg.fin {
            self.rb.on_fin(seg.seq_end());
        }
        // Every data segment and FIN is acknowledged at once: an
        // out-of-order arrival must produce an immediate duplicate ACK
        // (fast retransmit depends on it).
        if seg.has_payload() || seg.fin {
            out.push(self.make_ack());
        }

        self.pump_into(now, out);
    }

    /// Earliest pending timer deadline, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        // Called after every event the endpoint handles: one compare, no
        // array or iterator to build.
        match (self.rto_deadline, self.persist_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Fires whichever timers have expired at `now`, appending what they
    /// send to `out`.
    pub fn on_timer_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        self.recovery_quota = 1;
        if self.rto_deadline.is_some_and(|d| d <= now) {
            self.rto_deadline = None;
            self.on_rto_into(now, out);
        }
        if self.persist_deadline.is_some_and(|d| d <= now) {
            self.persist_deadline = None;
            self.on_persist_into(now, out);
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn process_ack(&mut self, now: SimTime, seg: &Segment, out: &mut Vec<Segment>) {
        let highest_sendable = self.write_offset + u64::from(self.fin_sent);
        let ack_no = seg.ack_no.min(highest_sendable.max(self.snd_high));
        self.absorb_sack(now, seg);

        if ack_no > self.snd_una {
            let newly_acked = ack_no - self.snd_una;
            let flight_before = self.snd_nxt - self.snd_una;
            let cwnd_limited = flight_before + MSS >= self.cc.cwnd();
            self.snd_una = ack_no;
            self.sacked.prune_below(ack_no);
            self.retx_pending.prune_below(ack_no);
            // PRR slow-start reduction bound: each ACK permits sending one
            // segment more than it delivered, so a collapsed flight can
            // regrow exponentially instead of locking at one segment per
            // round trip.
            self.recovery_quota = 1 + (newly_acked / MSS).min(64) as u32;
            // After a rewind, the ACK may cover bytes we were about to
            // retransmit; never send below snd_una.
            if self.snd_nxt < self.snd_una {
                self.snd_nxt = self.snd_una;
            }
            // RTT sample (Karn-safe: probe is cleared on retransmission).
            if let Some((target, sent_at)) = self.rtt_probe {
                if ack_no >= target {
                    self.rtt.sample(now.duration_since(sent_at));
                    self.rtt_probe = None;
                }
            }
            self.absorb_window(seg);
            let outcome = self.cc.on_new_ack(now, newly_acked, ack_no, cwnd_limited);
            self.stats.cwnd_hist.record(self.cc.cwnd());
            self.trace_ev(now, EventKind::TcpCwnd, self.cc.cwnd(), self.cc.ssthresh());
            match outcome {
                NewAckOutcome::RecoveryPartial => {
                    if self.cfg.sack && !self.sacked.is_empty() {
                        let before = out.len();
                        self.sack_retransmit(now, out);
                        if out.len() == before {
                            out.push(self.retransmit_front(now));
                        }
                    } else {
                        out.push(self.retransmit_front(now));
                    }
                }
                NewAckOutcome::RecoveryComplete | NewAckOutcome::Normal => {
                    self.partial_ack_seen = false;
                }
            }
            // Re-arm or clear the retransmission timer. During recovery,
            // only the first partial ACK restarts it (impatient NewReno).
            if self.snd_una == self.snd_nxt {
                self.disarm_rto();
                self.persist_backoff = 0;
            } else if outcome != NewAckOutcome::RecoveryPartial {
                self.arm_rto(now);
            } else if !self.partial_ack_seen {
                self.partial_ack_seen = true;
                self.arm_rto(now);
            }
        } else if ack_no == self.snd_una
            && seg.is_pure_ack()
            && self.snd_nxt > self.snd_una
            && seg.window <= self.snd_wnd
            // A zero peer window means the ACKs are probe responses, not
            // loss signals: the receiver cannot accept a retransmission
            // anyway, so they must not feed fast retransmit.
            && self.snd_wnd > 0
        {
            // Duplicate ACK.
            if self.cc.on_duplicate_ack(self.snd_nxt - self.snd_una, self.snd_nxt) {
                self.stats.fast_retransmits += 1;
                self.trace_ev(now, EventKind::TcpFastRetx, self.snd_una, self.cc.cwnd());
                out.push(self.retransmit_front(now));
                // The front segment is the first hole; further holes are
                // repaired as the scoreboard and pipe allow.
                self.hole_next = (self.snd_una + MSS).min(self.snd_nxt);
                self.sack_retransmit(now, out);
                self.arm_rto(now);
            } else if self.cc.in_recovery() {
                self.sack_retransmit(now, out);
            }
        } else {
            // Window update (possibly reopening a zero window).
            let was_closed = self.snd_wnd == 0;
            let opened = seg.window > self.snd_wnd;
            self.absorb_window(seg);
            if opened {
                self.persist_deadline = None;
                self.persist_backoff = 0;
                if was_closed && self.snd_nxt > self.snd_una {
                    // Anything sent past the closed window (zero-window
                    // probes) was discarded by the receiver; rewind and send
                    // it again now that there is room.
                    self.rewind_to_una();
                    self.arm_rto(now);
                }
            }
        }
        // Everything below `snd_una` is delivered: neither store may hold it.
        debug_assert!(
            self.sacked.first().is_none_or(|r| r.0 >= self.snd_una)
                && self.retx_pending.first().is_none_or(|r| r.0 >= self.snd_una),
            "SACK scoreboard or repairs in flight below snd_una {}",
            self.snd_una
        );
    }

    /// Merges the peer's SACK blocks into the scoreboard.
    fn absorb_sack(&mut self, now: SimTime, seg: &Segment) {
        if !self.cfg.sack {
            return;
        }
        self.peer_sack_highest = self.peer_sack_highest.max(seg.sack.highest_end());
        for (start, end) in seg.sack.iter() {
            let start = start.max(self.snd_una);
            if start >= end {
                continue;
            }
            self.trace_ev(now, EventKind::TcpSackEdge, start, end);
            self.sacked.insert_merged(start, end);
            // A SACKed retransmission has left the network.
            self.retx_pending.remove_span(start, end);
        }
    }

    /// The RFC 6675 pipe estimate: bytes believed to be in the network.
    ///
    /// The region between `snd_una` and the highest SACKed byte is either
    /// held by the receiver (SACKed) or lost — neither is in flight. What
    /// remains is the un-SACKed tail plus outstanding retransmissions.
    fn pipe(&self) -> u64 {
        let tail_from = self.peer_sack_highest.max(self.snd_una);
        self.snd_nxt.saturating_sub(tail_from) + self.retx_pending.bytes()
    }

    /// Bytes counted against the congestion window when deciding to send.
    fn effective_flight(&self) -> u64 {
        if self.cfg.sack && self.cc.in_recovery() {
            self.pipe()
        } else {
            self.snd_nxt - self.snd_una
        }
    }

    /// Retransmits scoreboard holes during fast recovery, pipe-limited.
    ///
    /// An RFC 6675-style estimate of bytes in the network subtracts what the
    /// peer reported holding; each call repairs the earliest unrepaired
    /// holes while the pipe has room.
    fn sack_retransmit(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        if !self.cfg.sack || self.sacked.is_empty() {
            return;
        }
        self.hole_next = self.hole_next.max(self.snd_una);
        while self.recovery_quota > 0 {
            if self.pipe() + MSS > self.cc.cwnd() {
                break;
            }
            // Skip over ranges the peer holds and repairs still in flight.
            loop {
                if let Some(end) = self.sacked.covering_end(self.hole_next) {
                    self.hole_next = end;
                } else if let Some(end) = self.retx_pending.covering_end(self.hole_next) {
                    self.hole_next = end;
                } else {
                    break;
                }
            }
            if self.hole_next >= self.write_offset {
                break;
            }
            // Only repair gaps *between* scoreboard ranges: a gap bounded
            // above by a SACKed range is known lost (the receiver got later
            // data). Beyond the last known range nothing is known yet — the
            // SACK rotation will reveal it within a round trip, and guessing
            // would spuriously retransmit delivered data.
            let hole_end = match self.sacked.next_start_from(self.hole_next) {
                Some(s) => s.min(self.write_offset),
                None => break,
            };
            // Do not extend a repair over a pending one.
            let hole_end = match self.retx_pending.next_start_from(self.hole_next + 1) {
                Some(s) if s < hole_end => s,
                _ => hole_end,
            };
            let len = MSS.min(hole_end - self.hole_next) as u32;
            if len == 0 {
                break;
            }
            let mut seg = self.make_segment(self.hole_next, len, false, false);
            seg.retx = true;
            self.stats.retx_segments += 1;
            self.stats.retx_bytes += len as u64;
            self.rtt_probe = None;
            self.last_data_sent = Some(now);
            // `hole_next` was just walked past every pending repair and
            // `hole_end` stops short of the next, so this never overlaps.
            self.retx_pending.insert_merged(self.hole_next, self.hole_next + len as u64);
            self.hole_next += len as u64;
            self.recovery_quota -= 1;
            out.push(seg);
        }
    }

    fn absorb_window(&mut self, seg: &Segment) {
        if seg.ack && seg.ack_no >= self.snd_wl {
            self.snd_wl = seg.ack_no;
            self.snd_wnd = seg.window;
        }
    }

    /// Go-back-N rewind: resume sending from the oldest unacked byte.
    fn rewind_to_una(&mut self) {
        self.snd_nxt = self.snd_una;
        // If the FIN was sent but is being rewound past, it must be sent
        // again by the normal FIN path.
        if self.fin_sent && self.snd_nxt <= self.write_offset {
            self.fin_sent = false;
        }
        self.rtt_probe = None;
    }

    /// Sends everything the congestion and flow-control windows allow,
    /// appending to `out`.
    fn pump_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        if self.state != State::Established {
            return;
        }

        // RFC 5681 §4.1: collapse cwnd if the sender has been idle (nothing
        // in flight and nothing sent) for at least one RTO.
        if self.cfg.idle_cwnd_reset && self.flight() == 0 {
            if let Some(last) = self.last_data_sent {
                if now.duration_since(last) >= self.rtt.rto() {
                    self.cc.idle_restart();
                }
            }
        }

        loop {
            // During recovery, stay within the per-event conservation quota
            // shared with the hole repairs.
            if self.cc.in_recovery() && self.recovery_quota == 0 {
                break;
            }
            let cwnd_avail = self.cc.cwnd().saturating_sub(self.effective_flight());
            let wnd_right = self.snd_una + self.snd_wnd;

            // Data (new or go-back-N retransmission; the two are
            // distinguished only by the snd_high watermark).
            if self.snd_nxt < self.write_offset {
                if cwnd_avail == 0 {
                    break;
                }
                // When resending after a rewind, skip ranges the peer
                // already holds (scoreboard survives the timeout, RFC 6675).
                if self.snd_nxt < self.snd_high {
                    if let Some(end) = self.sacked.covering_end(self.snd_nxt) {
                        self.snd_nxt = end.min(self.write_offset);
                        continue;
                    }
                }
                if self.snd_nxt >= wnd_right {
                    self.maybe_arm_persist(now);
                    break;
                }
                // The natural segment: a full MSS unless the stream tail or
                // the peer's window is smaller.
                let natural = MSS
                    .min(self.write_offset - self.snd_nxt)
                    .min(wnd_right - self.snd_nxt);
                if natural == 0 {
                    break;
                }
                // Sender-side silly-window avoidance: if the congestion
                // window has less than a natural segment of room, wait for
                // more ACKs instead of emitting a sliver. Fragmenting here
                // multiplies the packet count (and with it the per-packet
                // loss exposure) without moving more data.
                if cwnd_avail < natural {
                    break;
                }
                let len = natural;
                if self.cc.in_recovery() {
                    self.recovery_quota -= 1;
                }
                out.push(self.send_data(now, len as u32, false, false));
                continue;
            }

            // FIN once all data is out.
            if self.fin_queued && !self.fin_sent && self.snd_nxt == self.write_offset {
                if cwnd_avail == 0 {
                    break;
                }
                out.push(self.send_data(now, 0, true, false));
                continue;
            }

            break;
        }
    }

    /// Transmits `[snd_nxt, snd_nxt + len)` (or a FIN), classifying it as a
    /// retransmission if it falls below the high-water mark.
    fn send_data(&mut self, now: SimTime, len: u32, fin: bool, probe: bool) -> Segment {
        let seq = self.snd_nxt;
        let is_retx = seq < self.snd_high;
        let mut seg = self.make_segment(seq, len, false, fin);
        seg.retx = is_retx;

        self.snd_nxt += len as u64;
        if fin {
            self.fin_sent = true;
            self.snd_nxt += 1; // FIN consumes one sequence slot
        }
        self.snd_high = self.snd_high.max(self.snd_nxt);

        if probe {
            self.stats.probes_sent += 1;
        } else if is_retx {
            self.stats.retx_segments += 1;
            self.stats.retx_bytes += len as u64;
        } else if len > 0 {
            self.stats.data_segments_sent += 1;
            self.stats.data_bytes_sent += len as u64;
        }

        if is_retx {
            self.rtt_probe = None; // Karn's algorithm
        } else if len > 0 && !probe && self.rtt_probe.is_none() {
            self.rtt_probe = Some((self.snd_nxt, now));
        }
        // Zero-window probes are paced by the persist timer, not the
        // retransmission timer: their loss is expected (the window is
        // closed) and must not trigger a congestion response.
        if !probe {
            self.arm_rto_if_unarmed(now);
        }
        self.last_data_sent = Some(now);
        seg
    }

    /// Retransmits the first unacknowledged segment (fast retransmit or
    /// NewReno partial-ACK retransmission) without touching `snd_nxt`.
    fn retransmit_front(&mut self, now: SimTime) -> Segment {
        let (seq, len, fin) = if self.snd_una < self.write_offset {
            let len = MSS.min(self.write_offset - self.snd_una) as u32;
            (self.snd_una, len, false)
        } else {
            // Only the FIN is outstanding.
            debug_assert!(self.fin_sent);
            (self.write_offset, 0, true)
        };
        let mut seg = self.make_segment(seq, len, false, fin);
        seg.retx = true;
        self.stats.retx_segments += 1;
        self.stats.retx_bytes += len as u64;
        if len > 0 {
            self.retx_pending.insert_merged(seq, seq + len as u64);
        }
        self.rtt_probe = None;
        self.last_data_sent = Some(now);
        seg
    }

    fn on_rto_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        match self.state {
            State::SynSent => {
                self.rtt.back_off();
                self.rtt_probe = Some((0, now));
                self.arm_rto(now);
                self.stats.timeouts += 1;
                self.trace_ev(now, EventKind::TcpRtoFire, self.stats.timeouts, 0);
                out.push(self.make_segment(0, 0, true, false));
                return;
            }
            State::SynRcvd => {
                self.rtt.back_off();
                self.arm_rto(now);
                self.stats.timeouts += 1;
                self.trace_ev(now, EventKind::TcpRtoFire, self.stats.timeouts, 0);
                out.push(self.make_segment(0, 0, true, false));
                return;
            }
            State::Established => {}
            State::Closed | State::Listen => return,
        }
        if self.snd_una == self.snd_nxt {
            return; // spurious: everything was acked meanwhile
        }
        self.stats.timeouts += 1;
        self.trace_ev(now, EventKind::TcpRtoFire, self.stats.timeouts, self.snd_nxt - self.snd_una);
        self.rtt.back_off();
        self.cc.on_timeout(self.snd_nxt - self.snd_una);
        self.retx_pending.clear();
        self.rewind_to_una();
        self.arm_rto(now);
        self.pump_into(now, out);
    }

    fn on_persist_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        // Send a one-byte probe past the closed window (or the FIN, if only
        // the FIN is pending).
        if self.snd_nxt < self.write_offset {
            out.push(self.send_data(now, 1, false, true));
        } else if self.fin_queued && !self.fin_sent {
            out.push(self.send_data(now, 0, true, true));
        } else {
            return;
        }
        self.persist_backoff = (self.persist_backoff + 1).min(10);
        self.maybe_arm_persist_after_probe(now);
    }

    fn maybe_arm_persist(&mut self, now: SimTime) {
        // Only needed when nothing is in flight to elicit further ACKs.
        if self.flight() == 0 {
            self.maybe_arm_persist_after_probe(now);
        }
    }

    fn maybe_arm_persist_after_probe(&mut self, now: SimTime) {
        let pending = self.snd_nxt < self.write_offset || (self.fin_queued && !self.fin_sent);
        if pending && self.persist_deadline.is_none() {
            let interval = self.rtt.rto() * (1u32 << self.persist_backoff.min(10));
            let interval = interval.min(MAX_RTO);
            self.persist_deadline = Some(now + interval);
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }

    fn arm_rto_if_unarmed(&mut self, now: SimTime) {
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
    }

    fn disarm_rto(&mut self) {
        self.rto_deadline = None;
    }

    fn make_ack(&mut self) -> Segment {
        self.stats.acks_sent += 1;
        let mut seg = self.make_segment(self.snd_nxt, 0, false, false);
        if self.cfg.sack {
            seg.sack = self.rb.sack_blocks();
            self.stats.sack_blocks_sent += seg.sack.len() as u64;
        }
        seg
    }

    fn make_segment(&self, seq: u64, payload: u32, syn: bool, fin: bool) -> Segment {
        Segment {
            conn: self.conn,
            seq,
            ack_no: self.rb.ack_no(),
            window: self.rb.window(),
            payload,
            syn,
            fin,
            // Every non-SYN segment carries an ACK, like real TCP.
            ack: !syn || self.state != State::SynSent,
            retx: false,
            sack: crate::segment::SackBlocks::EMPTY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MIN_RTO;
    use vstream_sim::SimDuration;

    /// Calls one of the endpoint's `_into` methods on a fresh buffer and returns
    /// the segments it appended.
    fn emitted(call: impl FnOnce(&mut Vec<Segment>)) -> Vec<Segment> {
        let mut out = Vec::new();
        call(&mut out);
        out
    }

    fn pair() -> (Endpoint, Endpoint) {
        let cfg = TcpConfig::default().with_recv_buffer(1 << 20);
        (
            Endpoint::new(Role::Client, 1, cfg.clone()),
            Endpoint::new(Role::Server, 1, cfg),
        )
    }

    /// Delivers segments instantly back and forth until both sides go quiet.
    /// A zero-latency harness is enough for state-machine tests; timing
    /// behaviour is exercised in `tests/loopback.rs` with a real path.
    fn exchange(now: SimTime, a: &mut Endpoint, b: &mut Endpoint, mut from_a: Vec<Segment>) {
        let mut from_b = Vec::new();
        for _ in 0..10_000 {
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for seg in from_a.drain(..) {
                from_b.extend(emitted(|o| b.on_segment_into(now, seg, o)));
            }
            for seg in from_b.drain(..) {
                from_a.extend(emitted(|o| a.on_segment_into(now, seg, o)));
            }
        }
        panic!("exchange did not quiesce");
    }

    fn establish(now: SimTime, client: &mut Endpoint, server: &mut Endpoint) {
        let syn = client.connect(now);
        exchange(now, client, server, syn);
        assert!(client.is_established());
        assert!(server.is_established());
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (mut c, mut s) = pair();
        establish(SimTime::ZERO, &mut c, &mut s);
    }

    // The one test of this crate that turns tracing on: the recorder is
    // thread-local, so the other tests' emits still go nowhere.
    #[test]
    fn handshake_records_exactly_the_four_legal_transitions() {
        trace::set_enabled(true);
        trace::begin_session(64);
        let (mut c, mut s) = pair();
        establish(SimTime::ZERO, &mut c, &mut s);
        let rec = trace::end_session().expect("recorder installed");
        trace::set_enabled(false);
        let transitions: Vec<(u8, u64, u64)> = rec
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::TcpState)
            .map(|e| (e.side, e.a, e.b))
            .collect();
        let step = |side, from, to| (side, state_ord(from), state_ord(to));
        assert_eq!(
            transitions,
            vec![
                step(SIDE_CLIENT, State::Closed, State::SynSent),
                step(SIDE_SERVER, State::Listen, State::SynRcvd),
                step(SIDE_CLIENT, State::SynSent, State::Established),
                step(SIDE_SERVER, State::SynRcvd, State::Established),
            ]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "illegal TCP transition Closed -> Established")]
    fn illegal_transition_panics() {
        let (mut c, _) = pair();
        c.set_state(SimTime::ZERO, State::Established);
    }

    #[test]
    fn handshake_samples_rtt() {
        // With the instant harness the RTT sample is ~0, clamped to min RTO;
        // what matters is that a sample replaced the no-sample RTO.
        let (mut c, mut s) = pair();
        establish(SimTime::ZERO, &mut c, &mut s);
        assert_eq!(c.rtt.rto(), MIN_RTO);
        assert_ne!(c.rtt.rto(), RttEstimator::INITIAL_RTO);
    }

    #[test]
    fn small_write_is_delivered() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let segs = emitted(|o| s.write_into(t, 5_000, o));
        assert!(!segs.is_empty());
        exchange(t, &mut s, &mut c, segs);
        assert_eq!(c.available_to_read(), 5_000);
        assert!(s.all_acked());
    }

    #[test]
    fn write_respects_initial_cwnd() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        // Queue far more than the initial window; only IW segments go out.
        let segs = emitted(|o| s.write_into(t, 1_000_000, o));
        let sent: u64 = segs.iter().map(|x| x.payload as u64).sum();
        assert_eq!(sent, s.cc.cwnd());
        assert_eq!(segs.len(), 4);
    }

    #[test]
    fn receiver_window_limits_sender() {
        let cfg_small = TcpConfig::default().with_recv_buffer(8 * 1460);
        let mut c = Endpoint::new(Role::Client, 1, cfg_small);
        let mut s = Endpoint::new(Role::Server, 1, TcpConfig::default());
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let segs = emitted(|o| s.write_into(t, 1_000_000, o));
        exchange(t, &mut s, &mut c, segs);
        // The client never read, so at most the receive buffer arrived.
        assert_eq!(c.available_to_read(), 8 * 1460);
        // The sender is now blocked on a zero window with a persist timer.
        assert!(s.next_timer().is_some());
    }

    #[test]
    fn read_reopens_window_and_transfer_resumes() {
        let cfg_small = TcpConfig::default().with_recv_buffer(8 * 1460);
        let mut c = Endpoint::new(Role::Client, 1, cfg_small);
        let mut s = Endpoint::new(Role::Server, 1, TcpConfig::default());
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let segs = emitted(|o| s.write_into(t, 50_000, o));
        exchange(t, &mut s, &mut c, segs);
        let mut read_total = 0;
        for _ in 0..20 {
            let mut update = Vec::new();
            let n = c.read_into(t, u64::MAX, &mut update);
            read_total += n;
            exchange(t, &mut c, &mut s, update);
            if s.all_acked() && c.available_to_read() == 0 {
                break;
            }
        }
        let n = c.read_into(t, u64::MAX, &mut Vec::new());
        read_total += n;
        assert!(s.all_acked(), "sender still has unacked data");
        assert_eq!(read_total, 50_000, "every byte read exactly once");
    }

    #[test]
    fn zero_window_probe_keeps_connection_alive() {
        let cfg_small = TcpConfig::default().with_recv_buffer(4 * 1460);
        let mut c = Endpoint::new(Role::Client, 1, cfg_small);
        let mut s = Endpoint::new(Role::Server, 1, TcpConfig::default());
        let mut t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let segs = emitted(|o| s.write_into(t, 100_000, o));
        exchange(t, &mut s, &mut c, segs);
        assert_eq!(c.advertised_window(), 0);
        // Fire the persist timer: a one-byte probe goes out and is refused.
        let deadline = s.next_timer().expect("persist armed");
        t = deadline;
        let probe = emitted(|o| s.on_timer_into(t, o));
        assert_eq!(probe.len(), 1);
        assert_eq!(probe[0].payload, 1);
        exchange(t, &mut s, &mut c, probe);
        assert!(s.stats().probes_sent >= 1);
        // Now the application drains everything; transfer completes.
        for _ in 0..50 {
            let mut update = Vec::new();
            c.read_into(t, u64::MAX, &mut update);
            exchange(t, &mut c, &mut s, update);
            if let Some(d) = s.next_timer() {
                t = t.max(d);
                let segs = emitted(|o| s.on_timer_into(t, o));
                exchange(t, &mut s, &mut c, segs);
            }
            if s.all_acked() {
                break;
            }
        }
        assert!(s.all_acked(), "probe/rewind failed to resume transfer");
    }

    #[test]
    fn fin_handshake_reaches_eof() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let mut segs = emitted(|o| s.write_into(t, 1_000, o));
        segs.extend(emitted(|o| s.close_into(t, o)));
        exchange(t, &mut s, &mut c, segs);
        assert!(s.all_acked());
        let n = c.read_into(t, u64::MAX, &mut Vec::new());
        assert_eq!(n, 1_000);
        assert!(c.at_eof());
    }

    #[test]
    fn close_with_empty_stream_sends_fin() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let segs = emitted(|o| s.close_into(t, o));
        assert!(segs.iter().any(|x| x.fin));
        exchange(t, &mut s, &mut c, segs);
        assert!(c.at_eof());
        assert!(s.all_acked());
    }

    #[test]
    fn lost_data_segment_recovers_by_rto() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        establish(t0, &mut c, &mut s);
        let mut segs = emitted(|o| s.write_into(t0, 2_000, o)); // two segments
        // Drop the first segment; deliver the second.
        segs.remove(0);
        exchange(t0, &mut s, &mut c, segs);
        assert_eq!(c.available_to_read(), 0, "hole blocks delivery");
        // Fire the retransmission timeout.
        let deadline = s.next_timer().expect("RTO armed");
        let retx = emitted(|o| s.on_timer_into(deadline, o));
        assert!(retx.iter().any(|x| x.retx), "no retransmission: {retx:?}");
        exchange(deadline, &mut s, &mut c, retx);
        // One more timer round in case cwnd collapse split the resend.
        if !s.all_acked() {
            if let Some(d) = s.next_timer() {
                let more = emitted(|o| s.on_timer_into(d, o));
                exchange(d, &mut s, &mut c, more);
            }
        }
        assert_eq!(c.available_to_read(), 2_000);
        assert!(s.stats().timeouts >= 1);
    }

    #[test]
    fn lost_fin_is_retransmitted() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let mut segs = emitted(|o| s.write_into(t, 1_000, o));
        segs.extend(emitted(|o| s.close_into(t, o)));
        // Drop the FIN segment.
        let fin_pos = segs.iter().position(|x| x.fin).unwrap();
        segs.remove(fin_pos);
        exchange(t, &mut s, &mut c, segs);
        assert!(!s.all_acked());
        let deadline = s.next_timer().expect("RTO armed for FIN");
        let retx = emitted(|o| s.on_timer_into(deadline, o));
        assert!(retx.iter().any(|x| x.fin));
        exchange(deadline, &mut s, &mut c, retx);
        assert!(s.all_acked());
        let _ = c.read_into(t, u64::MAX, &mut Vec::new());
        assert!(c.at_eof());
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        // Grow cwnd first so five segments can be in flight at once.
        let warm = emitted(|o| s.write_into(t, 4 * 1460, o));
        exchange(t, &mut s, &mut c, warm);
        let mut segs = emitted(|o| s.write_into(t, 5 * 1460, o));
        assert_eq!(segs.len(), 5);
        // Drop the first; the remaining four each produce a duplicate ACK.
        segs.remove(0);
        exchange(t, &mut s, &mut c, segs);
        assert_eq!(s.stats().fast_retransmits, 1);
        assert!(s.all_acked(), "recovery retransmission filled the hole");
        assert_eq!(c.available_to_read(), (4 + 5) * 1460);
    }

    #[test]
    fn syn_loss_is_retransmitted() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        let _lost_syn = c.connect(t0);
        let deadline = c.next_timer().expect("SYN timer armed");
        let retry = emitted(|o| c.on_timer_into(deadline, o));
        assert_eq!(retry.len(), 1);
        assert!(retry[0].syn);
        exchange(deadline, &mut c, &mut s, retry);
        assert!(c.is_established());
    }

    #[test]
    fn duplicate_syn_gets_fresh_synack() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        let syn = c.connect(t);
        let synack1 = emitted(|o| s.on_segment_into(t, syn[0], o));
        assert!(synack1[0].syn && synack1[0].ack);
        // SYN-ACK lost; client retransmits its SYN.
        let synack2 = emitted(|o| s.on_segment_into(t, syn[0], o));
        assert!(synack2[0].syn && synack2[0].ack);
    }

    #[test]
    fn cwnd_grows_across_transfer() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let before = s.cc.cwnd();
        // Repeated write/ack cycles; client reads continuously.
        for _ in 0..10 {
            let segs = emitted(|o| s.write_into(t, 8 * 1460, o));
            exchange(t, &mut s, &mut c, segs);
            let mut upd = Vec::new();
            c.read_into(t, u64::MAX, &mut upd);
            exchange(t, &mut c, &mut s, upd);
        }
        assert!(s.cc.cwnd() > before, "cwnd did not grow: {}", s.cc.cwnd());
    }

    #[test]
    fn idle_reset_collapses_cwnd_when_enabled() {
        let cfg = TcpConfig::default().with_idle_cwnd_reset(true);
        let mut c = Endpoint::new(Role::Client, 1, cfg.clone().with_recv_buffer(1 << 20));
        let mut s = Endpoint::new(Role::Server, 1, cfg);
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        for _ in 0..10 {
            let segs = emitted(|o| s.write_into(t, 8 * 1460, o));
            exchange(t, &mut s, &mut c, segs);
            let mut upd = Vec::new();
            c.read_into(t, u64::MAX, &mut upd);
            exchange(t, &mut c, &mut s, upd);
        }
        assert!(s.cc.cwnd() > 4 * 1460);
        // Ten-second idle gap, then a new write: window collapsed to IW.
        let later = t + SimDuration::from_secs(10);
        let segs = emitted(|o| s.write_into(later, 1_000_000, o));
        let first_burst: u64 = segs.iter().map(|x| x.payload as u64).sum();
        assert_eq!(first_burst, 4 * 1460);
    }

    #[test]
    fn no_idle_reset_by_default() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        for _ in 0..10 {
            let segs = emitted(|o| s.write_into(t, 8 * 1460, o));
            exchange(t, &mut s, &mut c, segs);
            let mut upd = Vec::new();
            c.read_into(t, u64::MAX, &mut upd);
            exchange(t, &mut c, &mut s, upd);
        }
        let grown = s.cc.cwnd();
        let later = t + SimDuration::from_secs(10);
        let segs = emitted(|o| s.write_into(later, 1_000_000, o));
        let first_burst: u64 = segs.iter().map(|x| x.payload as u64).sum();
        // The whole grown window goes out back-to-back (in MSS multiples).
        assert_eq!(first_burst, grown / 1460 * 1460);
    }

    #[test]
    fn stats_track_data_and_acks() {
        let (mut c, mut s) = pair();
        let t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let segs = emitted(|o| s.write_into(t, 2_920, o));
        exchange(t, &mut s, &mut c, segs);
        assert_eq!(s.stats().data_segments_sent, 2);
        assert_eq!(s.stats().data_bytes_sent, 2_920);
        assert!(c.stats().acks_sent >= 2);
        assert_eq!(s.stats().retx_rate(), 0.0);
    }

    #[test]
    fn probes_do_not_arm_the_retransmission_timer() {
        // A sender blocked on a zero window must not suffer an RTO (and the
        // cwnd collapse that follows) just because its persist probes are
        // refused.
        let cfg_small = TcpConfig::default().with_recv_buffer(4 * 1460);
        let mut c = Endpoint::new(Role::Client, 1, cfg_small);
        let mut s = Endpoint::new(Role::Server, 1, TcpConfig::default());
        let mut t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let segs = emitted(|o| s.write_into(t, 100_000, o));
        exchange(t, &mut s, &mut c, segs);
        let cwnd_before = s.cc.cwnd();
        for _ in 0..8 {
            let deadline = s.next_timer().expect("persist armed");
            t = t.max(deadline);
            let out = emitted(|o| s.on_timer_into(t, o));
            exchange(t, &mut s, &mut c, out);
        }
        assert_eq!(s.stats().timeouts, 0, "probe losses caused an RTO");
        assert_eq!(s.cc.cwnd(), cwnd_before, "cwnd collapsed during zero-window wait");
    }

    #[test]
    fn zero_window_acks_do_not_trigger_fast_retransmit() {
        // A receiver with a closed window answers every probe with a
        // window-0 ACK; those must not count as duplicate ACKs.
        let cfg_small = TcpConfig::default().with_recv_buffer(2 * 1460);
        let mut c = Endpoint::new(Role::Client, 1, cfg_small);
        let mut s = Endpoint::new(Role::Server, 1, TcpConfig::default());
        let mut t = SimTime::ZERO;
        establish(t, &mut c, &mut s);
        let segs = emitted(|o| s.write_into(t, 100_000, o));
        exchange(t, &mut s, &mut c, segs);
        // Fire several persist probes; each gets a window-0 ACK back.
        for _ in 0..6 {
            let deadline = s.next_timer().expect("timer armed");
            t = t.max(deadline);
            let probe = emitted(|o| s.on_timer_into(t, o));
            exchange(t, &mut s, &mut c, probe);
        }
        assert_eq!(
            s.stats().fast_retransmits,
            0,
            "probe responses were misread as loss"
        );
    }

    #[test]
    fn retx_rate_reflects_losses() {
        let mut stats = EndpointStats::default();
        stats.data_bytes_sent = 99_000;
        stats.retx_bytes = 1_000;
        assert!((stats.retx_rate() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn segments_carry_connection_id() {
        let cfg = TcpConfig::default();
        let mut c = Endpoint::new(Role::Client, 42, cfg);
        let syn = c.connect(SimTime::ZERO);
        assert_eq!(syn[0].conn, 42);
    }
}
