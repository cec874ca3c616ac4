//! A captured packet trace: the columnar record store behind the tap.
//!
//! # Columnar layout
//!
//! The trace is stored as a structure-of-arrays: one dense column per
//! segment field (timestamps, tag bits, connection ids, payload lengths,
//! sequence/ack/window metadata) plus a sparse side table for the rare
//! records that carry SACK state. Recording appends to each column,
//! [`Trace::replay`] and the packer walk them linearly, and a consumer that
//! reads one or two fields of each packet pulls only those columns through
//! cache instead of striding across ~120-byte records. Per-record access
//! goes through [`PacketRef`], a lightweight view that reads individual
//! columns on demand and can materialise a full [`PacketRecord`] when a
//! consumer genuinely needs every field.
//!
//! The trace holds no reductions of its own: every figure-facing quantity
//! (download series, receive window, throughput, totals, per-connection
//! summaries, ON/OFF cycles) is a fold in `vstream-analysis`, fed from the
//! live tap or from [`Trace::replay`].

use vstream_sim::SimTime;
use vstream_tcp::segment::SackBlocks;
use vstream_tcp::Segment;

use crate::record::{PacketRecord, TapDirection};

/// Per-record flag bit (see the `tags` column): the packet left the client.
///
/// The flag byte holds the direction plus the four TCP flags, and a marker
/// for records with an entry in the SACK side table (so the common case
/// skips the side-table lookup entirely). The same byte is the `flags`
/// field of a [`crate::sink::TapPacket`], which is what the folds read.
pub const FLAG_OUTGOING: u8 = 1 << 0;
/// Per-record flag bit: SYN.
pub const FLAG_SYN: u8 = 1 << 1;
/// Per-record flag bit: FIN.
pub const FLAG_FIN: u8 = 1 << 2;
/// Per-record flag bit: ACK.
pub const FLAG_ACK: u8 = 1 << 3;
/// Per-record flag bit: the segment is a retransmission.
pub const FLAG_RETX: u8 = 1 << 4;
/// Per-record flag bit: the record carries non-empty SACK state.
pub const FLAG_SACK: u8 = 1 << 5;

/// A chronologically ordered packet capture taken at the client, stored
/// column-wise (see the module docs).
///
/// All columns are parallel: index `i` across `at`/`tags`/`conn`/`payload`/
/// `seq`/`ack_no`/`window` describes one captured packet. SACK state lives
/// in `(extras_idx, extras_sack)`, sorted by record index; records without
/// an entry carry [`SackBlocks::EMPTY`]. Two traces compare equal iff they
/// hold the same records in the same order (the side table is canonical:
/// only non-empty SACK state is stored).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    pub(crate) at: Vec<SimTime>,
    pub(crate) tags: Vec<u8>,
    pub(crate) conn: Vec<u32>,
    pub(crate) payload: Vec<u32>,
    pub(crate) seq: Vec<u64>,
    pub(crate) ack_no: Vec<u64>,
    pub(crate) window: Vec<u64>,
    /// Record indices (sorted, ascending) that carry non-empty SACK state.
    pub(crate) extras_idx: Vec<u32>,
    /// The SACK state for each entry of `extras_idx`, in the same order.
    pub(crate) extras_sack: Vec<SackBlocks>,
    /// Sorted, deduplicated connection ids — maintained incrementally on
    /// `push` so [`Trace::connections`] never re-scans the capture. A
    /// session touches a handful of connections, so the membership probe is
    /// a short binary search.
    pub(crate) conns: Vec<u32>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace with room for `capacity` packets.
    ///
    /// A 180 s capture at a fast vantage point holds hundreds of thousands
    /// of records; pre-sizing (e.g. from a packed trace's record count)
    /// avoids the doubling reallocations while recording. Every hot column
    /// is pre-sized; the SACK side table is not (it stays tiny on healthy
    /// paths).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            at: Vec::with_capacity(capacity),
            tags: Vec::with_capacity(capacity),
            conn: Vec::with_capacity(capacity),
            payload: Vec::with_capacity(capacity),
            seq: Vec::with_capacity(capacity),
            ack_no: Vec::with_capacity(capacity),
            window: Vec::with_capacity(capacity),
            extras_idx: Vec::new(),
            extras_sack: Vec::new(),
            conns: Vec::new(),
        }
    }

    /// Allocated record capacity (of the timestamp column; all hot columns
    /// are allocated together).
    pub fn capacity(&self) -> usize {
        self.at.capacity()
    }

    /// Bytes resident in the trace's allocations — every column's capacity
    /// at its element size, plus the side table and connection cache. The
    /// memory figure behind the `peak_trace_bytes` ledger gauge.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.at.capacity() * size_of::<SimTime>()
            + self.tags.capacity()
            + self.conn.capacity() * size_of::<u32>()
            + self.payload.capacity() * size_of::<u32>()
            + self.seq.capacity() * size_of::<u64>()
            + self.ack_no.capacity() * size_of::<u64>()
            + self.window.capacity() * size_of::<u64>()
            + self.extras_idx.capacity() * size_of::<u32>()
            + self.extras_sack.capacity() * size_of::<SackBlocks>()
            + self.conns.capacity() * size_of::<u32>()
    }

    /// Appends a captured packet.
    ///
    /// # Panics
    /// Panics (in debug builds) if timestamps go backwards — captures are
    /// produced by a monotone event loop.
    pub fn push(&mut self, at: SimTime, dir: TapDirection, seg: Segment) {
        self.record(&crate::sink::TapPacket::new(at, dir, &seg));
    }

    /// Appends a tapped packet whose flag byte is already built — the
    /// [`crate::sink::PacketSink`] entry point.
    ///
    /// # Panics
    /// Panics (in debug builds) if timestamps go backwards, or if the
    /// packet's [`FLAG_SACK`] bit disagrees with its SACK payload.
    pub fn record(&mut self, p: &crate::sink::TapPacket) {
        debug_assert!(
            self.at.last().is_none_or(|&t| t <= p.at),
            "capture timestamps must be monotone"
        );
        debug_assert_eq!(
            p.flags & FLAG_SACK != 0,
            p.sack != SackBlocks::EMPTY,
            "FLAG_SACK must mirror the SACK payload"
        );
        if let Err(pos) = self.conns.binary_search(&p.conn) {
            self.conns.insert(pos, p.conn);
        }
        if p.flags & FLAG_SACK != 0 {
            self.extras_idx.push(self.at.len() as u32);
            self.extras_sack.push(p.sack);
        }
        self.at.push(p.at);
        self.tags.push(p.flags);
        self.conn.push(p.conn);
        self.payload.push(p.payload);
        self.seq.push(p.seq);
        self.ack_no.push(p.ack_no);
        self.window.push(p.window);
    }

    /// Replays the capture through `sink`, record by record in capture
    /// order — how a retained capture (`SessionSpec::run`, tests, examples)
    /// reaches the folds, and the bridge that lets any fold be checked
    /// against the stored columns. No figure replays: the session cache
    /// stores finished replies, not captures.
    ///
    /// The SACK side table is walked with a sequential cursor (it is sorted
    /// by record index), so the replay is one linear pass over the columns.
    pub fn replay<S: crate::sink::PacketSink + ?Sized>(&self, sink: &mut S) {
        let mut sack_cursor = 0usize;
        for i in 0..self.len() {
            let sack = if self.tags[i] & FLAG_SACK != 0 {
                let s = self.extras_sack[sack_cursor];
                sack_cursor += 1;
                s
            } else {
                SackBlocks::EMPTY
            };
            sink.packet(&crate::sink::TapPacket {
                at: self.at[i],
                flags: self.tags[i],
                conn: self.conn[i],
                payload: self.payload[i],
                seq: self.seq[i],
                ack_no: self.ack_no[i],
                window: self.window[i],
                sack,
            });
        }
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The record at `idx`, as a lightweight column view.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: usize) -> PacketRef<'_> {
        assert!(idx < self.len(), "record index {idx} out of bounds");
        PacketRef { trace: self, idx }
    }

    /// All records in capture order, as lightweight [`PacketRef`] views.
    /// Field accessors read individual columns, so a consumer that looks at
    /// two fields pulls two columns through cache — not whole records.
    pub fn records(&self) -> Records<'_> {
        Records {
            trace: self,
            front: 0,
            back: self.len(),
        }
    }

    /// Sorted list of connection ids present in the trace.
    pub fn connections(&self) -> &[u32] {
        &self.conns
    }

    /// Total unique payload bytes downloaded, summed across connections:
    /// each contributes the high-water mark of the sequence space seen, so
    /// retransmissions and duplicates do not count twice.
    ///
    /// The one reduction left on the trace, and only because
    /// `benchmark/driver` sizes a probe with it; it leaves together with
    /// `pack.rs`. Everything else reads `TotalsFold` in `vstream-analysis`.
    pub fn total_downloaded(&self) -> u64 {
        let n = self.len();
        let (tags, conn, payload, seq) = (
            &self.tags[..n],
            &self.conn[..n],
            &self.payload[..n],
            &self.seq[..n],
        );
        let mut high = vec![0u64; self.conns.len()];
        let mut total = 0u64;
        for i in 0..n {
            if tags[i] & FLAG_OUTGOING != 0 || payload[i] == 0 {
                continue;
            }
            let end = seq[i] + payload[i] as u64;
            let idx = self
                .conns
                .binary_search(&conn[i])
                .expect("conns cache tracks every pushed record");
            if end > high[idx] {
                total += end - high[idx];
                high[idx] = end;
            }
        }
        total
    }

    /// The SACK state of record `idx` — a side-table probe, only meaningful
    /// for records whose tag carries [`FLAG_SACK`].
    fn sack_of(&self, idx: usize) -> SackBlocks {
        if self.tags[idx] & FLAG_SACK == 0 {
            return SackBlocks::EMPTY;
        }
        let pos = self
            .extras_idx
            .binary_search(&(idx as u32))
            .expect("FLAG_SACK record has a side-table entry");
        self.extras_sack[pos]
    }
}

/// A lightweight view of one captured packet inside a [`Trace`].
///
/// Accessors read individual columns, so consumers touch only the bytes
/// they use; [`PacketRef::record`] and [`PacketRef::segment`] materialise
/// the full AoS forms for the few call sites that need every field.
#[derive(Clone, Copy)]
pub struct PacketRef<'a> {
    trace: &'a Trace,
    idx: usize,
}

impl<'a> PacketRef<'a> {
    /// Capture timestamp.
    pub fn at(&self) -> SimTime {
        self.trace.at[self.idx]
    }

    /// Direction relative to the client.
    pub fn dir(&self) -> TapDirection {
        if self.trace.tags[self.idx] & FLAG_OUTGOING != 0 {
            TapDirection::Outgoing
        } else {
            TapDirection::Incoming
        }
    }

    /// Connection id.
    pub fn conn(&self) -> u32 {
        self.trace.conn[self.idx]
    }

    /// Payload length in bytes.
    pub fn payload(&self) -> u32 {
        self.trace.payload[self.idx]
    }

    /// First byte offset of the payload within the sender's stream.
    pub fn seq(&self) -> u64 {
        self.trace.seq[self.idx]
    }

    /// Offset one past the last payload byte.
    pub fn seq_end(&self) -> u64 {
        self.seq() + self.payload() as u64
    }

    /// Cumulative acknowledgement number.
    pub fn ack_no(&self) -> u64 {
        self.trace.ack_no[self.idx]
    }

    /// Advertised receive window in bytes.
    pub fn window(&self) -> u64 {
        self.trace.window[self.idx]
    }

    /// SYN flag.
    pub fn syn(&self) -> bool {
        self.trace.tags[self.idx] & FLAG_SYN != 0
    }

    /// FIN flag.
    pub fn fin(&self) -> bool {
        self.trace.tags[self.idx] & FLAG_FIN != 0
    }

    /// ACK flag.
    pub fn ack(&self) -> bool {
        self.trace.tags[self.idx] & FLAG_ACK != 0
    }

    /// Retransmission marker.
    pub fn retx(&self) -> bool {
        self.trace.tags[self.idx] & FLAG_RETX != 0
    }

    /// SACK blocks (a side-table probe; free for the common no-SACK case).
    pub fn sack(&self) -> SackBlocks {
        self.trace.sack_of(self.idx)
    }

    /// True if this packet carries payload.
    pub fn has_payload(&self) -> bool {
        self.payload() > 0
    }

    /// True if this packet carries video payload toward the client.
    pub fn is_incoming_data(&self) -> bool {
        self.trace.tags[self.idx] & FLAG_OUTGOING == 0 && self.payload() > 0
    }

    /// Materialises the full segment (all columns plus the SACK side
    /// table).
    pub fn segment(&self) -> Segment {
        let tags = self.trace.tags[self.idx];
        Segment {
            conn: self.conn(),
            seq: self.seq(),
            ack_no: self.ack_no(),
            window: self.window(),
            payload: self.payload(),
            syn: tags & FLAG_SYN != 0,
            fin: tags & FLAG_FIN != 0,
            ack: tags & FLAG_ACK != 0,
            retx: tags & FLAG_RETX != 0,
            sack: self.sack(),
        }
    }

    /// Materialises the full AoS record.
    pub fn record(&self) -> PacketRecord {
        PacketRecord {
            at: self.at(),
            dir: self.dir(),
            seg: self.segment(),
        }
    }
}

impl std::fmt::Debug for PacketRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.record().fmt(f)
    }
}

impl PartialEq for PacketRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.record() == other.record()
    }
}

/// Iterator over a trace's records as [`PacketRef`] views.
#[derive(Clone)]
pub struct Records<'a> {
    trace: &'a Trace,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = PacketRef<'a>;

    fn next(&mut self) -> Option<PacketRef<'a>> {
        if self.front >= self.back {
            return None;
        }
        let r = PacketRef {
            trace: self.trace,
            idx: self.front,
        };
        self.front += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Records<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(PacketRef {
            trace: self.trace,
            idx: self.back,
        })
    }
}

impl ExactSizeIterator for Records<'_> {}

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
        assert_eq!(t.connections(), vec![1, 2]);
    }

    #[test]
    fn outgoing_packets_do_not_count_as_download() {
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Outgoing, seg(1, 0, 800));
        assert_eq!(t.total_downloaded(), 0);
    }

    #[test]
    fn connections_cache_is_sorted_on_push() {
        let mut a = Trace::new();
        a.push(at(1), TapDirection::Incoming, seg(3, 0, 100));
        a.push(at(2), TapDirection::Incoming, seg(1, 0, 100));
        a.push(at(3), TapDirection::Incoming, seg(3, 100, 100));
        assert_eq!(a.connections(), vec![1, 3]);
    }

    #[test]
    fn with_capacity_pre_sizes_records() {
        let t = Trace::with_capacity(1024);
        assert!(t.capacity() >= 1024);
        assert!(t.is_empty());
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.total_downloaded(), 0);
        assert!(t.connections().is_empty());
        assert_eq!(t.records().len(), 0);
    }

    #[test]
    fn packet_ref_roundtrips_every_field() {
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
        let r = t.get(0);
        assert_eq!(r.at(), at(42));
        assert_eq!(r.dir(), TapDirection::Outgoing);
        assert_eq!(r.segment(), s);
        let rec = r.record();
        assert_eq!(rec.seg, s);
        assert!(rec.seg.fin && rec.seg.retx && rec.seg.ack);
        assert_eq!(r.seq_end(), 1000 + 1448);
    }

    #[test]
    fn records_iterator_is_exact_size_and_double_ended() {
        let mut t = Trace::new();
        for i in 0..5u64 {
            t.push(at(i), TapDirection::Incoming, seg(1, i * 10, 10));
        }
        let it = t.records();
        assert_eq!(it.len(), 5);
        let back: Vec<u64> = t.records().rev().map(|r| r.seq()).collect();
        assert_eq!(back, vec![40, 30, 20, 10, 0]);
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
