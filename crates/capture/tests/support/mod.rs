//! The seeded capture generator and the reference reductions, shared by
//! this crate's `columnar.rs` and (through `#[path]`) the analysis crate's
//! `streaming.rs`.
//!
//! [`gen`] fills a [`Trace`] and a plain `Vec<PacketRecord>` from the
//! identical event stream. The `ref_*` functions reduce the
//! array-of-structs side in the obvious style — maps, filters, whole-slice
//! rescans — and are the one oracle every fold is held to: a bug in a fold,
//! in `Trace::replay` or in `PackedTrace::replay` fails against them, not
//! against its own mirror.

#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;

use vstream_analysis::{AnalysisConfig, Cycle, OnOffAnalysis, SessionPhases};
use vstream_capture::{ConnectionSummary, PacketRecord, TapDirection, Trace};
use vstream_sim::{SimDuration, SimRng, SimTime};
use vstream_tcp::segment::SackBlocks;
use vstream_tcp::Segment;

pub const MSS: u32 = 1448;

#[derive(Clone, Copy, Debug)]
pub enum Shape {
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

pub const SHAPES: [Shape; 6] = [
    Shape::Steady,
    Shape::MultiConn,
    Shape::Lossy,
    Shape::AckHeavy,
    Shape::Empty,
    Shape::Single,
];

pub fn base_seg(conn: u32) -> Segment {
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

/// Generates one randomized capture, filling the trace and the
/// array-of-structs reference from the identical event stream.
pub fn gen(seed: u64, shape: Shape) -> (Trace, Vec<PacketRecord>) {
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

/// Cumulative unique payload bytes over time, summed across connections:
/// a connection contributes the high-water mark of the sequence space seen,
/// so retransmissions and duplicates do not count twice.
pub fn ref_download_series(recs: &[PacketRecord]) -> Vec<(SimTime, u64)> {
    let mut high: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut out = Vec::new();
    for r in recs {
        if r.is_incoming_data() {
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

/// The figure drivers' downsample rule: the first point, then one point per
/// `step` of time, then always the last — in `(secs, megabytes)`.
pub fn ref_downsample_mb(series: &[(SimTime, u64)], step: SimDuration) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut next = SimTime::ZERO;
    for &(t, bytes) in series {
        if t >= next || out.is_empty() {
            out.push((t.as_secs_f64(), bytes as f64 / 1e6));
            next = t + step;
        }
    }
    if let Some(&(t, bytes)) = series.last() {
        let p = (t.as_secs_f64(), bytes as f64 / 1e6);
        if out.last() != Some(&p) {
            out.push(p);
        }
    }
    out
}

/// Raw incoming payload bytes, retransmissions included.
pub fn ref_raw_total(recs: &[PacketRecord]) -> u64 {
    recs.iter()
        .filter(|r| r.dir == TapDirection::Incoming)
        .map(|r| r.seg.payload as u64)
        .sum()
}

/// First-to-last packet time, either direction.
pub fn ref_duration(recs: &[PacketRecord]) -> SimDuration {
    match (recs.first(), recs.last()) {
        (Some(a), Some(b)) => b.at.duration_since(a.at),
        _ => SimDuration::ZERO,
    }
}

/// Incoming goodput per `bin`, in bits per second; bins are anchored at the
/// first captured packet of either direction.
pub fn ref_throughput(recs: &[PacketRecord], bin: SimDuration) -> Vec<(SimTime, f64)> {
    let Some(first) = recs.first() else {
        return Vec::new();
    };
    let t0 = first.at;
    let mut bins: Vec<u64> = Vec::new();
    for r in recs {
        if r.is_incoming_data() {
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

/// The window `conn` advertised, per outgoing ACK.
pub fn ref_recv_window(recs: &[PacketRecord], conn: u32) -> Vec<(SimTime, u64)> {
    recs.iter()
        .filter(|r| r.dir == TapDirection::Outgoing && r.seg.conn == conn && r.seg.ack)
        .map(|r| (r.at, r.seg.window))
        .collect()
}

/// Fraction of incoming data segments marked retransmitted.
pub fn ref_retx_rate(recs: &[PacketRecord]) -> f64 {
    let data: Vec<_> = recs.iter().filter(|r| r.is_incoming_data()).collect();
    if data.is_empty() {
        0.0
    } else {
        data.iter().filter(|r| r.seg.retx).count() as f64 / data.len() as f64
    }
}

/// Sorted connection ids present in the capture.
pub fn ref_connections(recs: &[PacketRecord]) -> Vec<u32> {
    let mut v: Vec<u32> = recs.iter().map(|r| r.seg.conn).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// One summary row per connection, in connection-id order: each is the
/// whole-capture reductions over that connection's records alone.
pub fn ref_connection_summaries(recs: &[PacketRecord]) -> Vec<ConnectionSummary> {
    ref_connections(recs)
        .into_iter()
        .map(|conn| {
            let own: Vec<PacketRecord> =
                recs.iter().filter(|r| r.seg.conn == conn).copied().collect();
            ConnectionSummary {
                conn,
                first_seen: own[0].at,
                last_seen: own[own.len() - 1].at,
                unique_bytes: ref_download_series(&own).last().map_or(0, |&(_, b)| b),
                packets: own.len() as u64,
            }
        })
        .collect()
}

/// ON/OFF cycles: an idle gap longer than the threshold between two data
/// packets closes one ON period and opens the next; the artifact filter is
/// the crate's own (`OnOffAnalysis::filter_raw`, pinned by its inline
/// tests).
pub fn ref_onoff(recs: &[PacketRecord], cfg: &AnalysisConfig) -> OnOffAnalysis {
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut offs = Vec::new();
    for r in recs.iter().filter(|r| r.is_incoming_data()) {
        match cycles.last_mut() {
            Some(c) if r.at.duration_since(c.on_end) <= cfg.idle_threshold => {
                c.on_end = r.at;
                c.bytes += r.seg.payload as u64;
                c.packets += 1;
            }
            open => {
                if let Some(c) = open {
                    offs.push((c.on_end, r.at));
                }
                cycles.push(Cycle {
                    on_start: r.at,
                    on_end: r.at,
                    bytes: r.seg.payload as u64,
                    packets: 1,
                });
            }
        }
    }
    OnOffAnalysis::filter_raw(cycles, offs, cfg)
}

/// Phase decomposition: the buffering phase ends where the first OFF period
/// starts; byte counts are read off the full download series.
pub fn ref_phases(recs: &[PacketRecord], cfg: &AnalysisConfig) -> SessionPhases {
    let series = ref_download_series(recs);
    let bytes_at = |t: SimTime| {
        series.iter().rev().find(|&&(at, _)| at <= t).map_or(0, |&(_, b)| b)
    };
    let start = series.first().map_or(SimTime::ZERO, |&(t, _)| t);
    let (end, total_bytes) = series.last().map_or((start, 0), |&p| p);
    let buffering_end = ref_onoff(recs, cfg).off_periods.first().map(|&(s, _)| s);
    SessionPhases {
        start,
        buffering_end,
        buffering_bytes: buffering_end.map_or(total_bytes, bytes_at),
        steady_state_rate_bps: buffering_end.and_then(|be| {
            let secs = end.saturating_duration_since(be).as_secs_f64();
            (secs > 0.0).then(|| (total_bytes - bytes_at(be)) as f64 * 8.0 / secs)
        }),
        total_bytes,
        duration: end.saturating_duration_since(start),
    }
}

/// Payload bytes arriving within `rtt` of the start of each ON period after
/// the first. One cursor walks the data packets, so a packet counts toward
/// at most one cycle.
pub fn ref_first_rtt_bytes(recs: &[PacketRecord], cfg: &AnalysisConfig, rtt: SimDuration) -> Vec<u64> {
    let mut data = recs.iter().filter(|r| r.is_incoming_data()).peekable();
    let mut out = Vec::new();
    for cycle in ref_onoff(recs, cfg).cycles.iter().skip(1) {
        let mut bytes = 0u64;
        while let Some(r) = data.peek() {
            if r.at >= cycle.on_start + rtt {
                break;
            }
            if r.at >= cycle.on_start {
                bytes += r.seg.payload as u64;
            }
            data.next();
        }
        out.push(bytes);
    }
    out
}
