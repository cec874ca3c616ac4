//! A captured packet trace: the tapped packets, kept in capture order.
//!
//! A [`Trace`] is the [`TapPacket`]s the tap emitted, as it emitted them. It
//! serves the consumers that need raw packets — pcap export, trace
//! inspection, test oracles, the benchmark's probe sample — and nothing on
//! the figure path retains one.
//!
//! The trace holds no reductions of its own: every figure-facing quantity
//! (download series, receive window, throughput, totals, per-connection
//! summaries, ON/OFF cycles) is a fold in `vstream-analysis`, fed from the
//! live tap or from [`Trace::replay`].

use std::collections::BTreeMap;

use vstream_sim::SimTime;
use vstream_tcp::SackBlocks;
use vstream_tcp::Segment;

use crate::record::TapDirection;
use crate::sink::{PacketSink, TapPacket, FLAG_SACK};

/// A chronologically ordered packet capture taken at the client. Two traces
/// compare equal iff they hold the same packets in the same order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    packets: Vec<TapPacket>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace with room for `capacity` packets.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            packets: Vec::with_capacity(capacity),
        }
    }

    /// Bytes resident in the trace's allocation — the memory figure behind
    /// the `peak_trace_bytes` ledger gauge.
    pub fn resident_bytes(&self) -> usize {
        self.packets.capacity() * std::mem::size_of::<TapPacket>()
    }

    /// Appends a captured packet.
    ///
    /// # Panics
    /// Panics (in debug builds) if timestamps go backwards — captures are
    /// produced by a monotone event loop.
    pub fn push(&mut self, at: SimTime, dir: TapDirection, seg: Segment) {
        self.packet(&TapPacket::new(at, dir, &seg));
    }

    /// Replays the capture through `sink`, packet by packet in capture order
    /// — how a retained capture (`SessionSpec::run`, tests, examples)
    /// reaches the folds.
    pub fn replay<S: PacketSink + ?Sized>(&self, sink: &mut S) {
        for p in &self.packets {
            sink.packet(p);
        }
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// All packets in capture order.
    pub fn records(&self) -> std::slice::Iter<'_, TapPacket> {
        self.packets.iter()
    }

    /// Total unique payload bytes downloaded, summed across connections:
    /// each contributes the high-water mark of the sequence space seen, so
    /// retransmissions and duplicates do not count twice.
    ///
    /// The one reduction left on the trace, and only because
    /// `benchmark/driver` sizes a probe with it. Everything else reads
    /// `TotalsFold` in `vstream-analysis`.
    pub fn total_downloaded(&self) -> u64 {
        let mut high: BTreeMap<u32, u64> = BTreeMap::new();
        let mut total = 0u64;
        for p in self.packets.iter().filter(|p| p.is_incoming_data()) {
            let h = high.entry(p.conn).or_insert(0);
            if p.seq_end() > *h {
                total += p.seq_end() - *h;
                *h = p.seq_end();
            }
        }
        total
    }
}

impl PacketSink for Trace {
    /// Records the packet as the tap built it.
    ///
    /// # Panics
    /// Panics (in debug builds) if timestamps go backwards, or if the
    /// packet's [`FLAG_SACK`] bit disagrees with its SACK payload.
    fn packet(&mut self, p: &TapPacket) {
        debug_assert!(
            self.packets.last().is_none_or(|last| last.at <= p.at),
            "capture timestamps must be monotone"
        );
        debug_assert_eq!(
            p.flags & FLAG_SACK != 0,
            p.sack != SackBlocks::EMPTY,
            "FLAG_SACK must mirror the SACK payload"
        );
        self.packets.push(*p);
    }
}

/// Per-connection statistics extracted from a capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnectionSummary {
    /// Connection id.
    pub conn: u32,
    /// First packet time.
    pub first_seen: SimTime,
    /// Last packet time.
    pub last_seen: SimTime,
    /// Unique payload bytes delivered to the client.
    pub unique_bytes: u64,
    /// Total packets (both directions).
    pub packets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(conn: u32, seq: u64, payload: u32) -> Segment {
        Segment {
            conn,
            seq,
            ack_no: 0,
            window: 65535,
            payload,
            syn: false,
            fin: false,
            ack: true,
            retx: false,
            sack: SackBlocks::EMPTY,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn download_series_accumulates_unique_bytes() {
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Incoming, seg(1, 0, 1000));
        t.push(at(20), TapDirection::Incoming, seg(1, 1000, 1000));
        // Retransmission of the first segment: no new bytes.
        let mut rx = seg(1, 0, 1000);
        rx.retx = true;
        t.push(at(30), TapDirection::Incoming, rx);
        assert_eq!(t.total_downloaded(), 2000);
    }

    #[test]
    fn download_series_sums_connections() {
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Incoming, seg(1, 0, 500));
        t.push(at(20), TapDirection::Incoming, seg(2, 0, 700));
        assert_eq!(t.total_downloaded(), 1200);
    }

    #[test]
    fn outgoing_packets_do_not_count_as_download() {
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Outgoing, seg(1, 0, 800));
        assert_eq!(t.total_downloaded(), 0);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.total_downloaded(), 0);
        assert_eq!(t.records().len(), 0);
    }

    #[test]
    fn segment_roundtrips_every_field() {
        let mut t = Trace::new();
        let mut s = seg(7, 1000, 1448);
        s.syn = false;
        s.fin = true;
        s.retx = true;
        s.ack_no = 555;
        s.window = 1 << 33;
        s.sack.push(2000, 3000);
        s.sack.set_highest_end(3000);
        t.push(at(42), TapDirection::Outgoing, s);
        let r = t.records().next().unwrap();
        assert_eq!(r.at(), at(42));
        assert_eq!(r.dir(), TapDirection::Outgoing);
        assert_eq!(r.segment(), s);
        assert_eq!(r.seq_end(), 1000 + 1448);
    }

    #[test]
    fn trace_equality_is_recordwise() {
        let mut a = Trace::new();
        let mut b = Trace::new();
        a.push(at(1), TapDirection::Incoming, seg(1, 0, 100));
        b.push(at(1), TapDirection::Incoming, seg(1, 0, 100));
        assert_eq!(a, b);
        b.push(at(2), TapDirection::Outgoing, seg(1, 0, 0));
        assert_ne!(a, b);
    }
}
