//! AoS-vs-SoA lock-step equivalence for the columnar [`Trace`].
//!
//! The columnar rewrite must be observationally identical to the plain
//! array-of-structs layout it replaced. These tests keep a reference
//! `Vec<PacketRecord>` side by side with the real `Trace`, feed both the
//! same randomized captures (across seeds and traffic shapes), and compare
//! every public extraction: per-record accessors, connection sets, download
//! series, throughput timelines, receive-window series, summaries, and the
//! packed roundtrip. Reference reductions are
//! re-implemented here in the obvious AoS style, so a bug in the columnar
//! scans cannot hide behind its own mirror.

use std::collections::BTreeMap;

use vstream_capture::{PackedTrace, PacketRecord, TapDirection, Trace};
use vstream_sim::{SimDuration, SimRng, SimTime};
use vstream_tcp::segment::SackBlocks;
use vstream_tcp::Segment;

const MSS: u32 = 1448;

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One connection, data in / ACK out in steady alternation.
    Steady,
    /// Four interleaved connections with independent sequence state.
    MultiConn,
    /// Steady stream with retransmissions, SACK blocks, and high-water
    /// persistence/reset episodes.
    Lossy,
    /// Mostly pure ACKs with moving ack numbers and windows.
    AckHeavy,
    /// Nothing captured.
    Empty,
    /// A single packet.
    Single,
}

const SHAPES: [Shape; 6] = [
    Shape::Steady,
    Shape::MultiConn,
    Shape::Lossy,
    Shape::AckHeavy,
    Shape::Empty,
    Shape::Single,
];

fn base_seg(conn: u32) -> Segment {
    Segment {
        conn,
        seq: 0,
        ack_no: 0,
        window: 65_535,
        payload: 0,
        syn: false,
        fin: false,
        ack: true,
        retx: false,
        sack: SackBlocks::EMPTY,
    }
}

/// Generates one randomized capture, filling the columnar trace and the AoS
/// reference from the identical event stream.
fn gen(seed: u64, shape: Shape) -> (Trace, Vec<PacketRecord>) {
    let mut rng = SimRng::new(seed);
    let mut trace = Trace::new();
    let mut reference = Vec::new();
    let mut now = 0u64;
    let push = |now: u64, dir: TapDirection, seg: Segment, t: &mut Trace, v: &mut Vec<PacketRecord>| {
        let at = SimTime::from_nanos(now);
        t.push(at, dir, seg);
        v.push(PacketRecord { at, dir, seg });
    };

    let events = match shape {
        Shape::Empty => 0,
        Shape::Single => 1,
        _ => 400,
    };
    let conns: u32 = match shape {
        Shape::MultiConn => 4,
        _ => 1,
    };
    let mut seq = vec![0u64; conns as usize];
    let mut acked = vec![0u64; conns as usize];
    let mut highest = vec![0u64; conns as usize];

    for _ in 0..events {
        // Irregular clock: bursts share timestamps, gaps jump milliseconds.
        now += match rng.uniform_u64(0, 10) {
            0 => 0,
            1..=6 => rng.uniform_u64(1, 20_000),
            _ => rng.uniform_u64(1, 5_000_000),
        };
        let c = if conns == 1 {
            0
        } else {
            rng.uniform_u64(0, conns as u64) as u32
        } as usize;
        let data_bias = match shape {
            Shape::AckHeavy => 0.15,
            _ => 0.6,
        };
        if rng.bernoulli(data_bias) {
            // Incoming data segment, occasionally a retransmission or an
            // odd-sized tail.
            let mut s = base_seg(c as u32);
            s.payload = if rng.bernoulli(0.85) {
                MSS
            } else {
                rng.uniform_u64(1, MSS as u64 * 2) as u32
            };
            if matches!(shape, Shape::Lossy) && rng.bernoulli(0.2) && seq[c] > 0 {
                s.seq = seq[c].saturating_sub(s.payload as u64);
                s.retx = true;
            } else {
                s.seq = seq[c];
                seq[c] += s.payload as u64;
            }
            s.window = 65_535;
            push(now, TapDirection::Incoming, s, &mut trace, &mut reference);
        } else {
            // Outgoing ACK with a moving window; in the lossy shape it may
            // carry SACK blocks, keep a stale high-water mark, or reset it.
            let mut s = base_seg(c as u32);
            acked[c] = acked[c].max(rng.uniform_u64(0, seq[c].max(1) + 1));
            s.ack_no = acked[c];
            s.window = rng.uniform_u64(0, 1 << 20);
            if matches!(shape, Shape::Lossy) {
                if rng.bernoulli(0.25) {
                    for _ in 0..rng.uniform_u64(1, 4) {
                        let start = s.ack_no + rng.uniform_u64(1, 100_000);
                        let span = rng.uniform_u64(1, 3 * MSS as u64);
                        s.sack.push(start, start + span);
                        highest[c] = highest[c].max(start + span);
                    }
                    s.sack.set_highest_end(highest[c]);
                } else if rng.bernoulli(0.5) {
                    // Loss episode continues: blockless ACK still carrying
                    // the accumulated high-water mark.
                    s.sack.set_highest_end(highest[c]);
                } else {
                    highest[c] = 0; // episode repaired: reset
                }
            }
            push(now, TapDirection::Outgoing, s, &mut trace, &mut reference);
        }
    }
    if matches!(shape, Shape::Single) {
        let mut s = base_seg(0);
        s.payload = MSS;
        push(now + 5, TapDirection::Incoming, s, &mut trace, &mut reference);
    }
    (trace, reference)
}

// ---- reference (AoS) reductions -----------------------------------------

fn ref_download_series(recs: &[PacketRecord]) -> Vec<(SimTime, u64)> {
    let mut high: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut out = Vec::new();
    for r in recs {
        if r.dir == TapDirection::Incoming && r.seg.payload > 0 {
            let end = r.seg.seq_end();
            let h = high.entry(r.seg.conn).or_insert(0);
            if end > *h {
                total += end - *h;
                *h = end;
                out.push((r.at, total));
            }
        }
    }
    out
}

fn ref_raw_series(recs: &[PacketRecord]) -> Vec<(SimTime, u64)> {
    let mut total = 0u64;
    let mut out = Vec::new();
    for r in recs {
        if r.dir == TapDirection::Incoming && r.seg.payload > 0 {
            total += r.seg.payload as u64;
            out.push((r.at, total));
        }
    }
    out
}

fn ref_throughput(recs: &[PacketRecord], bin: SimDuration) -> Vec<(SimTime, f64)> {
    let Some(first) = recs.first() else {
        return Vec::new();
    };
    let t0 = first.at;
    let mut bins: Vec<u64> = Vec::new();
    for r in recs {
        if r.dir == TapDirection::Incoming && r.seg.payload > 0 {
            let idx = (r.at.duration_since(t0).as_nanos() / bin.as_nanos()) as usize;
            if idx >= bins.len() {
                bins.resize(idx + 1, 0);
            }
            bins[idx] += r.seg.payload as u64;
        }
    }
    let secs = bin.as_secs_f64();
    bins.into_iter()
        .enumerate()
        .map(|(i, b)| {
            (
                t0 + SimDuration::from_nanos(i as u64 * bin.as_nanos()),
                b as f64 * 8.0 / secs,
            )
        })
        .collect()
}

fn ref_recv_window(recs: &[PacketRecord], conn: u32) -> Vec<(SimTime, u64)> {
    recs.iter()
        .filter(|r| r.dir == TapDirection::Outgoing && r.seg.conn == conn && r.seg.ack)
        .map(|r| (r.at, r.seg.window))
        .collect()
}

fn ref_retx_rate(recs: &[PacketRecord]) -> f64 {
    let data: Vec<_> = recs
        .iter()
        .filter(|r| r.dir == TapDirection::Incoming && r.seg.payload > 0)
        .collect();
    if data.is_empty() {
        0.0
    } else {
        data.iter().filter(|r| r.seg.retx).count() as f64 / data.len() as f64
    }
}

fn ref_connections(recs: &[PacketRecord]) -> Vec<u32> {
    let mut v: Vec<u32> = recs.iter().map(|r| r.seg.conn).collect();
    v.sort_unstable();
    v.dedup();
    v
}

// ---- lock-step equivalence ----------------------------------------------

fn assert_equivalent(trace: &Trace, reference: &[PacketRecord], ctx: &str) {
    assert_eq!(trace.len(), reference.len(), "{ctx}: len");
    for (i, (r, want)) in trace.records().zip(reference).enumerate() {
        assert_eq!(&r.record(), want, "{ctx}: record {i}");
        assert_eq!(r.at(), want.at, "{ctx}: at {i}");
        assert_eq!(r.dir(), want.dir, "{ctx}: dir {i}");
        assert_eq!(r.conn(), want.seg.conn, "{ctx}: conn {i}");
        assert_eq!(r.payload(), want.seg.payload, "{ctx}: payload {i}");
        assert_eq!(r.seq(), want.seg.seq, "{ctx}: seq {i}");
        assert_eq!(r.seq_end(), want.seg.seq_end(), "{ctx}: seq_end {i}");
        assert_eq!(r.ack_no(), want.seg.ack_no, "{ctx}: ack_no {i}");
        assert_eq!(r.window(), want.seg.window, "{ctx}: window {i}");
        assert_eq!(r.sack(), want.seg.sack, "{ctx}: sack {i}");
        assert_eq!(
            (r.syn(), r.fin(), r.ack(), r.retx()),
            (want.seg.syn, want.seg.fin, want.seg.ack, want.seg.retx),
            "{ctx}: flags {i}"
        );
        assert_eq!(
            r.is_incoming_data(),
            want.is_incoming_data(),
            "{ctx}: is_incoming_data {i}"
        );
    }
    assert_eq!(trace.connections(), ref_connections(reference), "{ctx}: connections");
    assert_eq!(
        trace.download_series(),
        ref_download_series(reference),
        "{ctx}: download_series"
    );
    assert_eq!(
        trace.total_downloaded(),
        ref_download_series(reference).last().map_or(0, |&(_, t)| t),
        "{ctx}: total_downloaded"
    );
    assert_eq!(
        trace.total_raw_downloaded(),
        ref_raw_series(reference).last().map_or(0, |&(_, t)| t),
        "{ctx}: total_raw"
    );
    assert_eq!(trace.retransmission_rate(), ref_retx_rate(reference), "{ctx}: retx rate");
    let bin = SimDuration::from_millis(100);
    assert_eq!(trace.throughput_timeline(bin), ref_throughput(reference, bin), "{ctx}: timeline");
    for &conn in trace.connections() {
        assert_eq!(
            trace.recv_window_series(conn),
            ref_recv_window(reference, conn),
            "{ctx}: recv_window conn {conn}"
        );
    }
    let incoming: Vec<usize> = trace.incoming_data().map(|r| r.index()).collect();
    let want: Vec<usize> = reference
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_incoming_data())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(incoming, want, "{ctx}: incoming_data");
}

#[test]
fn randomized_lockstep_equivalence() {
    for seed in 0..6 {
        for shape in SHAPES {
            let (trace, reference) = gen(seed, shape);
            assert_equivalent(&trace, &reference, &format!("seed {seed} {shape:?}"));
        }
    }
}

#[test]
fn randomized_pack_roundtrip() {
    for seed in 0..6 {
        for shape in SHAPES {
            let (trace, _) = gen(seed, shape);
            let packed = PackedTrace::pack(&trace);
            assert_eq!(packed.len(), trace.len());
            let back = packed.unpack();
            assert_eq!(back, trace, "seed {seed} {shape:?}: pack roundtrip");
            assert_eq!(back.connections(), trace.connections());
            if !trace.is_empty() {
                assert!(
                    packed.packed_bytes() < trace.len() * 120,
                    "seed {seed} {shape:?}: packing must beat raw records"
                );
            }
        }
    }
}

// ---- regression pins -----------------------------------------------------

/// A small, fully hand-computable capture: two connections, one
/// retransmission, one out-of-order advance.
fn pinned_trace() -> Trace {
    let at = SimTime::from_millis;
    let mut t = Trace::new();
    let mut s = base_seg(1);
    s.payload = 1000;
    t.push(at(10), TapDirection::Incoming, s); // conn 1: [0, 1000) -> 1000
    let mut s = base_seg(2);
    s.payload = 400;
    t.push(at(15), TapDirection::Incoming, s); // conn 2: [0, 400) -> 1400
    let mut s = base_seg(1);
    s.seq = 1000;
    s.payload = 1000;
    t.push(at(20), TapDirection::Incoming, s); // conn 1: [1000, 2000) -> 2400
    let mut s = base_seg(1);
    s.seq = 0;
    s.payload = 1000;
    s.retx = true;
    t.push(at(30), TapDirection::Incoming, s); // retx: no new bytes
    let mut s = base_seg(2);
    s.seq = 400;
    s.payload = 100;
    t.push(at(45), TapDirection::Incoming, s); // conn 2: [400, 500) -> 2500
    t
}

#[test]
fn download_series_regression_pin() {
    let t = pinned_trace();
    let ms = SimTime::from_millis;
    assert_eq!(
        t.download_series(),
        vec![
            (ms(10), 1000),
            (ms(15), 1400),
            (ms(20), 2400),
            (ms(45), 2500),
        ]
    );
    assert_eq!(t.total_downloaded(), 2500);
    assert_eq!(t.total_raw_downloaded(), 3500);
    assert!((t.retransmission_rate() - 0.2).abs() < 1e-12);
}

#[test]
fn throughput_timeline_regression_pin() {
    let t = pinned_trace();
    let tl = t.throughput_timeline(SimDuration::from_millis(20));
    // Bins of 20 ms anchored at 10 ms: [10,30) = 2400 B, [30,50) = 1100 B.
    assert_eq!(tl.len(), 2);
    assert_eq!(tl[0].0, SimTime::from_millis(10));
    assert!((tl[0].1 - 2400.0 * 8.0 / 0.02).abs() < 1e-9);
    assert!((tl[1].1 - 1100.0 * 8.0 / 0.02).abs() < 1e-9);
}
