//! The packet-emission tap: [`PacketSink`] and the packet it is fed.
//!
//! Every reduction the paper's figures need — on/off cycles, phase
//! decomposition, download and throughput timelines, receive-window
//! tracking — consumes packets one at a time, in capture order. The sink
//! trait is that contract: a consumer of [`TapPacket`]s (timestamp, flag
//! byte, connection id, payload length, seq/ack/window, and the rare SACK
//! state), fed either live from the session engine's tap or replayed from a
//! stored capture.
//!
//! Three producers feed the same sink interface:
//!
//! * the session engine's tap, as packets are emitted — how every figure,
//!   the QoE table and the campaign resolve a session, with no capture
//!   retained at all;
//! * [`crate::Trace::replay`], walking an in-memory capture;
//! * [`crate::PackedTrace::replay`], decoding the packed streams record by
//!   record without materialising a trace.
//!
//! [`crate::Trace`] itself implements [`PacketSink`], which is what makes
//! the producers interchangeable: recording a replay reproduces the
//! original capture exactly, and a fold fed by the tap sees what the same
//! fold sees on a replay of the recorded trace. [`Tee`] splits one stream
//! to two sinks for the record-and-fold case.

use vstream_sim::SimTime;
use vstream_tcp::segment::SackBlocks;
use vstream_tcp::Segment;

use crate::record::TapDirection;

/// Flag-byte bit (see [`TapPacket::flags`]): the packet left the client.
///
/// The flag byte holds the direction plus the four TCP flags, and a marker
/// for packets with non-empty SACK state.
pub const FLAG_OUTGOING: u8 = 1 << 0;
/// Flag-byte bit: SYN.
pub const FLAG_SYN: u8 = 1 << 1;
/// Flag-byte bit: FIN.
pub const FLAG_FIN: u8 = 1 << 2;
/// Flag-byte bit: ACK.
pub const FLAG_ACK: u8 = 1 << 3;
/// Flag-byte bit: the segment is a retransmission.
pub const FLAG_RETX: u8 = 1 << 4;
/// Flag-byte bit: the packet carries non-empty SACK state.
pub const FLAG_SACK: u8 = 1 << 5;

/// Builds a [`TapPacket`]'s flag byte from a tap direction and segment —
/// the single definition both [`crate::Trace::push`] and the engine's tap
/// go through, so a recorded flag byte and a streamed one can never
/// disagree.
pub fn flags_of(dir: TapDirection, seg: &Segment) -> u8 {
    let mut tag = 0u8;
    if dir == TapDirection::Outgoing {
        tag |= FLAG_OUTGOING;
    }
    if seg.syn {
        tag |= FLAG_SYN;
    }
    if seg.fin {
        tag |= FLAG_FIN;
    }
    if seg.ack {
        tag |= FLAG_ACK;
    }
    if seg.retx {
        tag |= FLAG_RETX;
    }
    if seg.sack != SackBlocks::EMPTY {
        tag |= FLAG_SACK;
    }
    tag
}

/// One tapped packet, as the tap emits it and a [`crate::Trace`] keeps it:
/// the flag byte holds the direction, the TCP flags and the SACK marker,
/// and `sack` is non-empty iff [`FLAG_SACK`] is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapPacket {
    /// Capture timestamp.
    pub at: SimTime,
    /// Direction, TCP flags and SACK marker (see the `FLAG_*` constants).
    pub flags: u8,
    /// Connection id.
    pub conn: u32,
    /// Payload length in bytes.
    pub payload: u32,
    /// First byte offset of the payload within the sender's stream.
    pub seq: u64,
    /// Cumulative acknowledgement number.
    pub ack_no: u64,
    /// Advertised receive window in bytes.
    pub window: u64,
    /// SACK state; [`SackBlocks::EMPTY`] unless [`FLAG_SACK`] is set.
    pub sack: SackBlocks,
}

impl TapPacket {
    /// Builds the tap tuple from a captured segment, deriving the flag
    /// byte via [`flags_of`].
    pub fn new(at: SimTime, dir: TapDirection, seg: &Segment) -> Self {
        TapPacket {
            at,
            flags: flags_of(dir, seg),
            conn: seg.conn,
            payload: seg.payload,
            seq: seg.seq,
            ack_no: seg.ack_no,
            window: seg.window,
            sack: seg.sack,
        }
    }

    /// The segment this packet was built from — the inverse of
    /// [`TapPacket::new`].
    pub fn segment(&self) -> Segment {
        Segment {
            conn: self.conn,
            seq: self.seq,
            ack_no: self.ack_no,
            window: self.window,
            payload: self.payload,
            syn: self.flags & FLAG_SYN != 0,
            fin: self.flags & FLAG_FIN != 0,
            ack: self.flags & FLAG_ACK != 0,
            retx: self.flags & FLAG_RETX != 0,
            sack: self.sack,
        }
    }

    /// Capture timestamp: the `at` field behind the getter that
    /// `benchmark/driver` calls.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// Direction relative to the client.
    pub fn dir(&self) -> TapDirection {
        if self.flags & FLAG_OUTGOING != 0 {
            TapDirection::Outgoing
        } else {
            TapDirection::Incoming
        }
    }

    /// True for client-to-server packets.
    pub fn is_outgoing(&self) -> bool {
        self.flags & FLAG_OUTGOING != 0
    }

    /// True if this packet carries video payload toward the client.
    pub fn is_incoming_data(&self) -> bool {
        self.flags & FLAG_OUTGOING == 0 && self.payload > 0
    }

    /// True for retransmitted segments.
    pub fn is_retx(&self) -> bool {
        self.flags & FLAG_RETX != 0
    }

    /// True when the ACK flag is set.
    pub fn is_ack(&self) -> bool {
        self.flags & FLAG_ACK != 0
    }

    /// Offset one past the last payload byte.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload as u64
    }
}

/// A consumer of tapped packets, fed in capture order.
///
/// Implementations must be pure folds over the packet stream: the same
/// sequence of [`TapPacket`]s must always produce the same state, so a
/// live session tap, a trace replay, and a packed-cache replay are
/// interchangeable.
pub trait PacketSink {
    /// Accepts the next packet of the capture.
    fn packet(&mut self, p: &TapPacket);
}

impl<S: PacketSink + ?Sized> PacketSink for &mut S {
    fn packet(&mut self, p: &TapPacket) {
        (**self).packet(p);
    }
}

/// A sink that discards every packet (the batch-mode placeholder).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl PacketSink for NullSink {
    fn packet(&mut self, _p: &TapPacket) {}
}

/// Feeds one packet stream to two sinks, in order — e.g. retaining the
/// capture ([`crate::Trace`] as sink `a`) while folding analysis features
/// on the fly (sink `b`).
pub struct Tee<'a, A: PacketSink + ?Sized, B: PacketSink + ?Sized> {
    a: &'a mut A,
    b: &'a mut B,
}

impl<'a, A: PacketSink + ?Sized, B: PacketSink + ?Sized> Tee<'a, A, B> {
    /// A tee over the two sinks.
    pub fn new(a: &'a mut A, b: &'a mut B) -> Self {
        Tee { a, b }
    }
}

impl<A: PacketSink + ?Sized, B: PacketSink + ?Sized> PacketSink for Tee<'_, A, B> {
    fn packet(&mut self, p: &TapPacket) {
        self.a.packet(p);
        self.b.packet(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn seg(conn: u32, payload: u32) -> Segment {
        Segment {
            conn,
            seq: 10,
            ack_no: 20,
            window: 30,
            payload,
            syn: false,
            fin: false,
            ack: true,
            retx: false,
            sack: SackBlocks::EMPTY,
        }
    }

    #[test]
    fn flags_round_trip_direction_and_tcp_bits() {
        let mut s = seg(0, 100);
        s.syn = true;
        s.retx = true;
        let f = flags_of(TapDirection::Outgoing, &s);
        assert_eq!(f & FLAG_OUTGOING, FLAG_OUTGOING);
        assert_eq!(f & FLAG_SYN, FLAG_SYN);
        assert_eq!(f & FLAG_RETX, FLAG_RETX);
        assert_eq!(f & FLAG_SACK, 0);
        let mut sacked = seg(0, 0);
        sacked.sack.push(100, 200);
        assert_ne!(flags_of(TapDirection::Incoming, &sacked) & FLAG_SACK, 0);
    }

    #[test]
    fn tap_packet_classification_matches_record() {
        let p = TapPacket::new(SimTime::from_millis(5), TapDirection::Incoming, &seg(1, 500));
        assert!(p.is_incoming_data());
        assert!(!p.is_outgoing());
        assert_eq!(p.dir(), TapDirection::Incoming);
        assert_eq!(p.seq_end(), 510);
        let ack = TapPacket::new(SimTime::from_millis(6), TapDirection::Outgoing, &seg(1, 0));
        assert!(!ack.is_incoming_data());
        assert!(ack.is_ack());
    }

    #[test]
    fn trace_as_sink_matches_push() {
        let mut direct = Trace::new();
        let mut sunk = Trace::new();
        let records = [
            (1u64, TapDirection::Incoming, seg(0, 1448)),
            (2, TapDirection::Outgoing, seg(0, 0)),
            (3, TapDirection::Incoming, seg(1, 700)),
        ];
        for (ms, dir, s) in records {
            direct.push(SimTime::from_millis(ms), dir, s);
            sunk.packet(&TapPacket::new(SimTime::from_millis(ms), dir, &s));
        }
        assert_eq!(direct, sunk);
    }

    #[test]
    fn tee_feeds_both_sinks_in_order() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        {
            let mut tee = Tee::new(&mut a, &mut b);
            for i in 0..5u64 {
                tee.packet(&TapPacket::new(
                    SimTime::from_millis(i),
                    TapDirection::Incoming,
                    &seg(0, 100),
                ));
            }
        }
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }
}
