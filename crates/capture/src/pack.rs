//! Compact, lossless packed form of a [`Trace`], stored stream by stream.
//!
//! A retained packet is a 112-byte [`TapPacket`], dominated by a
//! [`SackBlocks`] that is empty on almost every packet. `PackedTrace` stores
//! the same information in a few bytes per record by exploiting what
//! captures look like:
//!
//! * timestamps are monotone and share a coarse clock granularity (link
//!   serialization and timer delays are multiples of a per-trace tick;
//!   half the deltas are zero, as data arrival and the ACK it triggers
//!   carry the same capture time) — delta-encode, scaled down by the
//!   GCD of all deltas, which is recorded once per trace;
//! * `seq` advances by exactly the previous payload on the same
//!   (connection, direction) stream — predict it and encode only misses
//!   (retransmissions, reordering);
//! * `ack_no`, `window`, and the SACK high-water mark change slowly —
//!   delta-encode against per-stream predictors;
//! * `payload` is almost always 0 (an ACK) or the MSS (a full data
//!   segment) — a two-bit class covers both;
//! * flags are almost always plain ACKs and SACK blocks are rare — a tag
//!   bit gates an optional extras byte.
//!
//! # Layout
//!
//! The packed bytes hold one contiguous *stream* per field (tags, timestamp
//! deltas, connection ids, payloads, seq/ack/window deltas, extras bytes,
//! SACK data), prefixed by the trace's timestamp tick and a table of stream
//! lengths. Unpacking is a [`PackedTrace::replay`] into a [`Trace`]: each
//! stream is read through its own sequential cursor. An empty trace packs
//! to zero bytes.
//!
//! Typical captures pack to ~4–6 bytes per record. Round-tripping is exact:
//! `unpack(pack(t)) == t` field for field.
//!
//! All integers are LEB128 varints; signed deltas are zigzag-mapped first.
//! Deltas use wrapping arithmetic, so the encoding is total — any `u64`
//! pair round-trips, the predictors only decide how many bytes it costs.
//! Truncated or corrupt packed bytes are a checked error in release builds
//! too: every stream must parse exactly to its recorded length, and any
//! overrun or leftover bytes panic with a diagnostic instead of yielding a
//! silently wrong trace.

use vstream_sim::SimTime;
use vstream_tcp::SackBlocks;

use crate::sink::{
    PacketSink, TapPacket, FLAG_ACK, FLAG_FIN, FLAG_OUTGOING, FLAG_RETX, FLAG_SACK, FLAG_SYN,
};
use crate::trace::Trace;

/// Tag bit: direction is outgoing.
const TAG_OUTGOING: u8 = 1 << 0;
/// Tag bit: connection id differs from the previous record's (varint in the
/// connection stream).
const TAG_CONN: u8 = 1 << 1;
/// Tag bits 2–3: payload class.
const TAG_PAYLOAD_SHIFT: u8 = 2;
const PAYLOAD_ZERO: u8 = 0;
const PAYLOAD_PREDICTED: u8 = 1;
const PAYLOAD_EXPLICIT: u8 = 2;
/// Tag bit: `seq` missed the predictor (zigzag delta in the seq stream).
const TAG_SEQ: u8 = 1 << 4;
/// Tag bit: `ack_no` missed the predictor (zigzag delta in the ack stream).
const TAG_ACK: u8 = 1 << 5;
/// Tag bit: `window` missed the predictor (zigzag delta in the window
/// stream).
const TAG_WINDOW: u8 = 1 << 6;
/// Tag bit: an extras byte follows in the extras stream (unusual flags,
/// SACK blocks, or a SACK high-water move).
const TAG_EXTRAS: u8 = 1 << 7;

/// Extras bits 0–3: the raw flags.
const EX_SYN: u8 = 1 << 0;
const EX_FIN: u8 = 1 << 1;
const EX_ACK: u8 = 1 << 2;
const EX_RETX: u8 = 1 << 3;
/// Extras bits 4–5: number of SACK blocks (0–3), each encoded in the SACK
/// stream as `zigzag(start - ack_no), varint(end - start)`.
const EX_SACK_SHIFT: u8 = 4;
/// Extras bit 6: the SACK high-water mark missed its predictor (zigzag
/// delta in the SACK stream, after the blocks).
const EX_HIGHEST: u8 = 1 << 6;

/// The field streams, in packed order. The stream-length table at the head
/// of the packed bytes has one varint per entry.
const STREAM_NAMES: [&str; 9] = [
    "tag", "timestamp", "connection", "payload", "seq", "ack", "window", "extras", "sack",
];
const S_TAG: usize = 0;
const S_AT: usize = 1;
const S_CONN: usize = 2;
const S_PAYLOAD: usize = 3;
const S_SEQ: usize = 4;
const S_ACK: usize = 5;
const S_WINDOW: usize = 6;
const S_EX: usize = 7;
const S_SACK: usize = 8;
const NUM_STREAMS: usize = STREAM_NAMES.len();

/// Per-(connection, direction) predictor state. Encoder and decoder step
/// identical copies of this, so a predictor hit costs zero bytes.
#[derive(Clone, Copy, Default)]
struct StreamState {
    /// Next expected `seq`: the previous record's `seq_end()`.
    seq: u64,
    /// Previous `ack_no`.
    ack: u64,
    /// Previous `window`.
    window: u64,
    /// Previous non-zero `payload` (a stream's MSS in steady state).
    payload: u32,
    /// Previous SACK high-water mark.
    highest: u64,
}

/// Predictor states for both directions of every connection seen so far.
/// Connection ids are assigned densely by the session layer, so a flat
/// `Vec` indexed by id beats a map.
#[derive(Default)]
struct Predictors {
    streams: Vec<[StreamState; 2]>,
}

impl Predictors {
    fn get(&mut self, conn: u32, outgoing: bool) -> &mut StreamState {
        let conn = conn as usize;
        if conn >= self.streams.len() {
            self.streams.resize(conn + 1, [StreamState::default(); 2]);
        }
        &mut self.streams[conn][outgoing as usize]
    }
}

/// A checked cursor over one packed stream. Every read is bounds-checked in
/// release builds — truncated input panics with the stream's name instead
/// of decoding garbage — and [`Reader::finish`] requires the stream to be
/// consumed exactly.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    name: &'static str,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], name: &'static str) -> Self {
        Reader { bytes, pos: 0, name }
    }

    fn u8(&mut self) -> u8 {
        assert!(
            self.pos < self.bytes.len(),
            "corrupt packed trace: {} stream truncated at byte {}",
            self.name,
            self.pos
        );
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8();
            assert!(
                shift < 64,
                "corrupt packed trace: over-long varint in {} stream",
                self.name
            );
            v |= ((b & 0x7f) as u64) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> u64 {
        let z = self.varint();
        ((z >> 1) as i64 ^ -((z & 1) as i64)) as u64
    }

    fn finish(self) {
        assert_eq!(
            self.pos,
            self.bytes.len(),
            "corrupt packed trace: {} stream not fully consumed",
            self.name
        );
    }
}

/// A losslessly packed [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct PackedTrace {
    bytes: Vec<u8>,
    len: usize,
}

impl PackedTrace {
    /// Packs `trace`. The input is unchanged; [`PackedTrace::unpack`]
    /// reproduces it exactly.
    pub fn pack(trace: &Trace) -> PackedTrace {
        let n = trace.len();
        if n == 0 {
            return PackedTrace::default();
        }
        // Per-trace timestamp tick: the GCD of every successive delta.
        // Simulated delays (link serialization, pacing timers, RTT legs)
        // are multiples of a coarse granularity, so dividing deltas by the
        // tick saves a byte on most non-zero entries. A trace whose deltas
        // are all zero gets tick 1.
        let mut scale = 0u64;
        let mut last = 0u64;
        for p in trace.records() {
            scale = gcd(scale, p.at.as_nanos().wrapping_sub(last));
            if scale == 1 {
                break;
            }
            last = p.at.as_nanos();
        }
        let scale = scale.max(1);

        let mut streams: [Vec<u8>; NUM_STREAMS] = Default::default();
        streams[S_TAG].reserve(n);
        streams[S_AT].reserve(n * 2);
        let mut preds = Predictors::default();
        let mut last_at = 0u64;
        let mut last_conn = 0u32;
        for p in trace.records() {
            let TapPacket { at, flags, conn, payload, seq, ack_no, window, ref sack } = *p;
            let outgoing = flags & FLAG_OUTGOING != 0;
            let (syn, fin, ack, retx) = (
                flags & FLAG_SYN != 0,
                flags & FLAG_FIN != 0,
                flags & FLAG_ACK != 0,
                flags & FLAG_RETX != 0,
            );
            let s = preds.get(conn, outgoing);

            let mut tag = 0u8;
            if outgoing {
                tag |= TAG_OUTGOING;
            }
            if conn != last_conn {
                tag |= TAG_CONN;
            }
            let payload_class = if payload == 0 {
                PAYLOAD_ZERO
            } else if payload == s.payload {
                PAYLOAD_PREDICTED
            } else {
                PAYLOAD_EXPLICIT
            };
            tag |= payload_class << TAG_PAYLOAD_SHIFT;
            if seq != s.seq {
                tag |= TAG_SEQ;
            }
            if ack_no != s.ack {
                tag |= TAG_ACK;
            }
            if window != s.window {
                tag |= TAG_WINDOW;
            }
            let plain_flags = ack && !syn && !fin && !retx;
            let extras =
                !plain_flags || !sack.is_empty() || sack.highest_end() != s.highest;
            if extras {
                tag |= TAG_EXTRAS;
            }

            streams[S_TAG].push(tag);
            let at = at.as_nanos();
            put_varint(&mut streams[S_AT], at.wrapping_sub(last_at) / scale);
            last_at = at;
            if tag & TAG_CONN != 0 {
                put_varint(&mut streams[S_CONN], conn as u64);
            }
            if payload_class == PAYLOAD_EXPLICIT {
                put_varint(&mut streams[S_PAYLOAD], payload as u64);
            }
            if tag & TAG_SEQ != 0 {
                put_zigzag(&mut streams[S_SEQ], seq.wrapping_sub(s.seq));
            }
            if tag & TAG_ACK != 0 {
                put_zigzag(&mut streams[S_ACK], ack_no.wrapping_sub(s.ack));
            }
            if tag & TAG_WINDOW != 0 {
                put_zigzag(&mut streams[S_WINDOW], window.wrapping_sub(s.window));
            }
            if extras {
                let mut ex = 0u8;
                if syn {
                    ex |= EX_SYN;
                }
                if fin {
                    ex |= EX_FIN;
                }
                if ack {
                    ex |= EX_ACK;
                }
                if retx {
                    ex |= EX_RETX;
                }
                ex |= (sack.len() as u8) << EX_SACK_SHIFT;
                let highest_moved = sack.highest_end() != s.highest;
                if highest_moved {
                    ex |= EX_HIGHEST;
                }
                streams[S_EX].push(ex);
                for (start, end) in sack.iter() {
                    put_zigzag(&mut streams[S_SACK], start.wrapping_sub(ack_no));
                    put_varint(&mut streams[S_SACK], end - start);
                }
                if highest_moved {
                    put_zigzag(
                        &mut streams[S_SACK],
                        sack.highest_end().wrapping_sub(s.highest),
                    );
                }
            }

            s.seq = seq + payload as u64;
            s.ack = ack_no;
            s.window = window;
            if payload > 0 {
                s.payload = payload;
            }
            s.highest = sack.highest_end();
            last_conn = conn;
        }

        let total: usize = streams.iter().map(Vec::len).sum();
        let mut bytes = Vec::with_capacity(total + NUM_STREAMS * 3 + 3);
        put_varint(&mut bytes, scale);
        for s in &streams {
            put_varint(&mut bytes, s.len() as u64);
        }
        for s in &streams {
            bytes.extend_from_slice(s);
        }
        bytes.shrink_to_fit();
        PackedTrace { bytes, len: n }
    }

    /// Reconstructs the original trace, exactly — a [`PackedTrace::replay`]
    /// into a pre-sized [`Trace`].
    ///
    /// # Panics
    /// Panics (release builds included) if the packed bytes are truncated,
    /// carry trailing garbage, or any stream fails to parse to exactly its
    /// recorded length.
    pub fn unpack(&self) -> Trace {
        let mut trace = Trace::with_capacity(self.len);
        self.replay(&mut trace);
        trace
    }

    /// Replays the packed capture through `sink`, record by record in
    /// capture order, without materialising a [`Trace`] (the benchmark
    /// driver's replay probe and the roundtrip tests; no figure replays).
    /// Every stream (timestamps included) is
    /// decoded lock-step inside the one record loop, so the replay holds
    /// only the per-stream cursors and predictor state, never an O(records)
    /// buffer.
    ///
    /// # Panics
    /// As [`PackedTrace::unpack`]: corrupt or truncated packed bytes panic
    /// rather than yielding a silently wrong replay.
    pub fn replay<S: PacketSink + ?Sized>(&self, sink: &mut S) {
        let n = self.len;
        if n == 0 {
            assert!(
                self.bytes.is_empty(),
                "corrupt packed trace: empty trace carries {} bytes",
                self.bytes.len()
            );
            return;
        }

        // Timestamp tick and stream-length table, then one slice per
        // stream.
        let mut header = Reader::new(&self.bytes, "stream table");
        let scale = header.varint();
        assert!(scale != 0, "corrupt packed trace: zero timestamp tick");
        let mut lens = [0usize; NUM_STREAMS];
        for l in &mut lens {
            *l = header.varint() as usize;
        }
        let mut start = header.pos;
        let mut streams = [&[] as &[u8]; NUM_STREAMS];
        for (i, &len) in lens.iter().enumerate() {
            let end = start.checked_add(len).filter(|&e| e <= self.bytes.len());
            let end = end.unwrap_or_else(|| {
                panic!(
                    "corrupt packed trace: {} stream overruns the packed bytes",
                    STREAM_NAMES[i]
                )
            });
            streams[i] = &self.bytes[start..end];
            start = end;
        }
        assert_eq!(
            start,
            self.bytes.len(),
            "corrupt packed trace: trailing bytes after the last stream"
        );

        let tags = streams[S_TAG];
        assert_eq!(
            tags.len(),
            n,
            "corrupt packed trace: tag stream holds {} records, expected {n}",
            tags.len()
        );

        // One fused pass: each field stream — timestamps included — is
        // read through its own sequential cursor, the per-(connection,
        // direction) predictors step exactly as the encoder's did, and
        // every decoded record is handed to the sink. Timestamps are
        // decoded lock-step with the other fields (not in a separate
        // pre-pass) so the replay needs no O(records) staging buffer.
        let mut r_at = Reader::new(streams[S_AT], STREAM_NAMES[S_AT]);
        let mut last_at = 0u64;
        let mut r_conn = Reader::new(streams[S_CONN], STREAM_NAMES[S_CONN]);
        let mut r_payload = Reader::new(streams[S_PAYLOAD], STREAM_NAMES[S_PAYLOAD]);
        let mut r_seq = Reader::new(streams[S_SEQ], STREAM_NAMES[S_SEQ]);
        let mut r_ack = Reader::new(streams[S_ACK], STREAM_NAMES[S_ACK]);
        let mut r_window = Reader::new(streams[S_WINDOW], STREAM_NAMES[S_WINDOW]);
        let mut r_ex = Reader::new(streams[S_EX], STREAM_NAMES[S_EX]);
        let mut r_sack = Reader::new(streams[S_SACK], STREAM_NAMES[S_SACK]);
        let mut preds = Predictors::default();
        let mut last_conn = 0u32;
        for &tag in tags.iter() {
            last_at = last_at.wrapping_add(r_at.varint().wrapping_mul(scale));
            let outgoing = tag & TAG_OUTGOING != 0;
            if tag & TAG_CONN != 0 {
                last_conn = r_conn.varint() as u32;
            }
            let conn = last_conn;
            let s = preds.get(conn, outgoing);
            let payload = match (tag >> TAG_PAYLOAD_SHIFT) & 0x3 {
                PAYLOAD_ZERO => 0,
                PAYLOAD_PREDICTED => s.payload,
                PAYLOAD_EXPLICIT => r_payload.varint() as u32,
                class => panic!("corrupt packed trace: payload class {class}"),
            };
            let seq = if tag & TAG_SEQ != 0 {
                s.seq.wrapping_add(r_seq.zigzag())
            } else {
                s.seq
            };
            let ack_no = if tag & TAG_ACK != 0 {
                s.ack.wrapping_add(r_ack.zigzag())
            } else {
                s.ack
            };
            let window = if tag & TAG_WINDOW != 0 {
                s.window.wrapping_add(r_window.zigzag())
            } else {
                s.window
            };
            let mut flags = if outgoing { FLAG_OUTGOING } else { 0 };
            let mut sack = SackBlocks::EMPTY;
            let mut highest = s.highest;
            if tag & TAG_EXTRAS != 0 {
                let ex = r_ex.u8();
                if ex & EX_SYN != 0 {
                    flags |= FLAG_SYN;
                }
                if ex & EX_FIN != 0 {
                    flags |= FLAG_FIN;
                }
                if ex & EX_ACK != 0 {
                    flags |= FLAG_ACK;
                }
                if ex & EX_RETX != 0 {
                    flags |= FLAG_RETX;
                }
                for _ in 0..(ex >> EX_SACK_SHIFT) & 0x3 {
                    let start = ack_no.wrapping_add(r_sack.zigzag());
                    let span = r_sack.varint();
                    sack.push(start, start + span);
                }
                if ex & EX_HIGHEST != 0 {
                    highest = s.highest.wrapping_add(r_sack.zigzag());
                }
            } else {
                flags |= FLAG_ACK;
            }
            sack.set_highest_end(highest);
            if sack != SackBlocks::EMPTY {
                flags |= FLAG_SACK;
            }

            s.seq = seq + payload as u64;
            s.ack = ack_no;
            s.window = window;
            if payload > 0 {
                s.payload = payload;
            }
            s.highest = highest;

            sink.packet(&TapPacket {
                at: SimTime::from_nanos(last_at),
                flags,
                conn,
                payload,
                seq,
                ack_no,
                window,
                sack,
            });
        }
        for r in [r_at, r_conn, r_payload, r_seq, r_ack, r_window, r_ex, r_sack] {
            r.finish();
        }
    }

    /// Number of packed records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no records are packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the packed representation.
    pub fn packed_bytes(&self) -> usize {
        self.bytes.len()
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-maps a wrapping `u64` delta so small moves in either direction
/// stay small, then varint-encodes it.
fn put_zigzag(out: &mut Vec<u8>, delta: u64) {
    let d = delta as i64;
    put_varint(out, ((d << 1) ^ (d >> 63)) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TapDirection;
    use vstream_tcp::Segment;

    fn rec(
        at_ms: u64,
        dir: TapDirection,
        conn: u32,
        seq: u64,
        ack_no: u64,
        window: u64,
        payload: u32,
    ) -> (SimTime, TapDirection, Segment) {
        (
            SimTime::from_millis(at_ms),
            dir,
            Segment {
                conn,
                seq,
                ack_no,
                window,
                payload,
                syn: false,
                fin: false,
                ack: true,
                retx: false,
                sack: SackBlocks::EMPTY,
            },
        )
    }

    fn roundtrip(trace: &Trace) -> Trace {
        let packed = PackedTrace::pack(trace);
        assert_eq!(packed.len(), trace.len());
        let back = packed.unpack();
        assert_eq!(&back, trace);
        back
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let p = PackedTrace::pack(&t);
        assert!(p.is_empty());
        assert_eq!(p.packed_bytes(), 0);
        assert!(p.unpack().is_empty());
    }

    #[test]
    fn steady_stream_packs_small_and_roundtrips() {
        // A steady data stream with interleaved ACKs — the dominant capture
        // shape. Data: seq advances by the MSS; ACKs: ack_no follows.
        let mut t = Trace::new();
        let mss = 1448u32;
        for i in 0..1000u64 {
            let (at, dir, mut seg) = rec(
                10 + i * 2,
                TapDirection::Incoming,
                0,
                i * mss as u64,
                1,
                262_144,
                mss,
            );
            seg.window = 262_144;
            t.push(at, dir, seg);
            let (at, dir, seg) = rec(
                11 + i * 2,
                TapDirection::Outgoing,
                0,
                1,
                (i + 1) * mss as u64,
                1_000_000 - i * 100,
                0,
            );
            t.push(at, dir, seg);
        }
        let p = PackedTrace::pack(&t);
        roundtrip(&t);
        // Predictors absorb the regular structure: well under 10 bytes per
        // record against ~120 raw.
        assert!(
            p.packed_bytes() < t.len() * 10,
            "{} bytes for {} records",
            p.packed_bytes(),
            t.len()
        );
    }

    #[test]
    fn millisecond_tick_is_factored_out_of_timestamps() {
        // All deltas here are multiples of 1 ms, so the at stream stores
        // tiny tick counts: the whole record should pack to ~3 bytes.
        let mut t = Trace::new();
        for i in 0..500u64 {
            let (at, dir, seg) = rec(
                10 + 7 * i,
                TapDirection::Incoming,
                0,
                i * 1448,
                1,
                65_535,
                1448,
            );
            t.push(at, dir, seg);
        }
        let p = PackedTrace::pack(&t);
        roundtrip(&t);
        assert!(
            p.packed_bytes() < t.len() * 4,
            "{} bytes for {} records — tick scaling ineffective",
            p.packed_bytes(),
            t.len()
        );
    }

    #[test]
    fn oddball_records_roundtrip_exactly() {
        // SYN/FIN handshakes, retransmissions, SACK blocks, high-water
        // moves, multi-connection interleaving, u64-range windows, and
        // non-MSS payloads: every escape path of the encoding.
        let mut t = Trace::new();
        let mut syn = rec(1, TapDirection::Outgoing, 0, 0, 0, 65_535, 0).2;
        syn.syn = true;
        syn.ack = false;
        t.push(SimTime::from_millis(1), TapDirection::Outgoing, syn);

        let mut synack = rec(2, TapDirection::Incoming, 0, 0, 1, 1 << 40, 0).2;
        synack.syn = true;
        t.push(SimTime::from_millis(2), TapDirection::Incoming, synack);

        for i in 0..5u64 {
            let (at, dir, seg) =
                rec(3 + i, TapDirection::Incoming, (i % 3) as u32, i * 999, i, 7777 + i, 999);
            t.push(at, dir, seg);
        }

        let mut retx = rec(20, TapDirection::Incoming, 1, 0, 1, 8000, 1448).2;
        retx.retx = true;
        t.push(SimTime::from_millis(20), TapDirection::Incoming, retx);

        let mut sacked = rec(21, TapDirection::Outgoing, 1, 5, 1000, 9000, 0).2;
        sacked.sack.push(2000, 3448);
        sacked.sack.push(5000, 6448);
        sacked.sack.push(9000, 10_448);
        sacked.sack.set_highest_end(10_448);
        t.push(SimTime::from_millis(21), TapDirection::Outgoing, sacked);

        // High-water persists on a later plain ACK (predictor hit), then
        // resets to zero (predictor miss with a negative delta).
        let mut still = rec(22, TapDirection::Outgoing, 1, 5, 3448, 9000, 0).2;
        still.sack.set_highest_end(10_448);
        t.push(SimTime::from_millis(22), TapDirection::Outgoing, still);
        let (at, dir, seg) = rec(23, TapDirection::Outgoing, 1, 5, 12_000, 9000, 0);
        t.push(at, dir, seg);

        let mut fin = rec(30, TapDirection::Incoming, 2, u64::MAX - 5, 1, 0, 0).2;
        fin.fin = true;
        t.push(SimTime::from_millis(30), TapDirection::Incoming, fin);

        roundtrip(&t);
    }

    #[test]
    fn same_timestamp_and_zero_time_records_roundtrip() {
        let mut t = Trace::new();
        for i in 0..3u64 {
            let (at, dir, seg) = rec(0, TapDirection::Incoming, 0, i * 100, 0, 500, 100);
            t.push(at, dir, seg);
        }
        roundtrip(&t);
    }

    #[test]
    fn coprime_nanosecond_deltas_roundtrip() {
        // Deltas 1 ns apart force tick = 1: the escape path where no
        // granularity exists to factor out.
        let mut t = Trace::new();
        let mut now = 0u64;
        for i in 0..50u64 {
            now += 1 + (i % 3);
            let (_, dir, seg) = rec(0, TapDirection::Incoming, 0, i * 10, 0, 100, 10);
            t.push(SimTime::from_nanos(now), dir, seg);
        }
        roundtrip(&t);
    }

    fn small_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..20u64 {
            let (at, dir, seg) =
                rec(10 + i, TapDirection::Incoming, (i % 2) as u32, i * 500, 1, 65_535, 500);
            t.push(at, dir, seg);
        }
        let mut sacked = rec(40, TapDirection::Outgoing, 0, 0, 5_000, 65_535, 0).2;
        sacked.sack.push(6_000, 6_500);
        sacked.sack.set_highest_end(6_500);
        t.push(SimTime::from_millis(40), TapDirection::Outgoing, sacked);
        t
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn truncated_bytes_are_rejected_in_release() {
        let mut p = PackedTrace::pack(&small_trace());
        p.bytes.truncate(p.bytes.len() - 1);
        let _ = p.unpack();
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn trailing_garbage_is_rejected_in_release() {
        let mut p = PackedTrace::pack(&small_trace());
        p.bytes.push(0x7f);
        let _ = p.unpack();
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn truncated_stream_table_is_rejected() {
        let mut p = PackedTrace::pack(&small_trace());
        p.bytes.truncate(3);
        let _ = p.unpack();
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn overrunning_stream_length_is_rejected() {
        let mut p = PackedTrace::pack(&small_trace());
        // Skip the timestamp-tick varint, then inflate the first recorded
        // stream length far past the packed bytes.
        let mut i = 0;
        while p.bytes[i] & 0x80 != 0 {
            i += 1;
        }
        p.bytes[i + 1] = 0xff;
        p.bytes[i + 2] = 0x7f;
        let _ = p.unpack();
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn zero_timestamp_tick_is_rejected() {
        let mut p = PackedTrace::pack(&small_trace());
        p.bytes[0] = 0;
        let _ = p.unpack();
    }

    #[test]
    #[should_panic(expected = "corrupt packed trace")]
    fn nonempty_bytes_on_empty_trace_are_rejected() {
        let mut p = PackedTrace::pack(&Trace::new());
        p.bytes.push(0);
        let _ = p.unpack();
    }
}
