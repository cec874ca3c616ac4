//! Streaming-vs-batch equivalence for the fold operators.
//!
//! The streaming/batch contract (DESIGN.md §11) says every fold behind the
//! [`PacketSink`] tap produces exactly the result of the column scan it
//! replaces. These tests feed randomized captures — the same seeds and
//! traffic shapes as the capture crate's columnar lock-step suite — through
//! every fold twice: once replayed from the [`Trace`] (the packet sequence
//! the engine's live tap emits) and once replayed from the [`PackedTrace`]
//! columns (a second, independent replay source), and compare both against
//! the trace scans. A divergence in any fold, in
//! the tap replay, or in the packed replay fails against the independent
//! oracle rather than against its own mirror.

use vstream_analysis::{
    first_rtt_bytes, switch_counts_of, AnalysisConfig, AnalysisFold, DownloadFold, OnOffAnalysis,
    SessionPhases, SummariesFold, SwitchRateFold, ThroughputFold, TotalsFold, WindowFold,
};
use vstream_capture::{PackedTrace, PacketSink, TapDirection, Trace};
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

/// Generates one randomized capture — the identical event recipe the
/// columnar suite uses, so the folds face the same adversarial inputs the
/// column scans are proven on (shared timestamps, retransmissions, SACK
/// episodes, multi-connection interleaving, empty and single-packet edges).
fn gen(seed: u64, shape: Shape) -> Trace {
    let mut rng = SimRng::new(seed);
    let mut trace = Trace::new();
    let mut now = 0u64;

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
            trace.push(SimTime::from_nanos(now), TapDirection::Incoming, s);
        } else {
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
                    s.sack.set_highest_end(highest[c]);
                } else {
                    highest[c] = 0;
                }
            }
            trace.push(SimTime::from_nanos(now), TapDirection::Outgoing, s);
        }
    }
    if matches!(shape, Shape::Single) {
        let mut s = base_seg(0);
        s.payload = MSS;
        trace.push(SimTime::from_nanos(now + 5), TapDirection::Incoming, s);
    }
    trace
}

/// The figure drivers' downsample rule over the column scan — re-implemented
/// here in the obvious form so the fold's own grid logic is not its oracle.
fn downsample_mb(series: &[(SimTime, u64)], step: SimDuration) -> Vec<(f64, f64)> {
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

/// The two analysis configurations the suite runs under: the paper defaults
/// (coarse cycles — much of the generated traffic fuses into one block) and
/// a tight threshold that slices the same captures into many raw cycles,
/// exercising the min-bytes filtering and checkpoint reconstruction paths.
fn configs() -> [AnalysisConfig; 2] {
    let mut tight = AnalysisConfig::default();
    tight.idle_threshold = SimDuration::from_millis(2);
    tight.min_cycle_bytes = 1024;
    [AnalysisConfig::default(), tight]
}

/// Feeds `sink` from the trace, either directly or through the packed
/// columns — the two packet sources the streaming session layer replays.
fn feed<S: PacketSink>(trace: &Trace, packed: bool, sink: &mut S) {
    if packed {
        PackedTrace::pack(trace).replay(sink);
    } else {
        trace.replay(sink);
    }
}

fn assert_folds_match(trace: &Trace, packed: bool, ctx: &str) {
    let step = SimDuration::from_millis(5);
    let mut df = DownloadFold::new(step);
    feed(trace, packed, &mut df);
    assert_eq!(
        df.finish(),
        downsample_mb(&trace.download_series(), step),
        "{ctx}: download fold"
    );

    for bin in [SimDuration::from_micros(700), SimDuration::from_millis(50)] {
        let mut tf = ThroughputFold::new(bin);
        feed(trace, packed, &mut tf);
        assert_eq!(
            tf.finish(),
            trace.throughput_timeline(bin),
            "{ctx}: throughput fold, bin {bin:?}"
        );
    }

    // Every connection present, plus one that is not (conn 9): the absent
    // connection must yield an empty series, not a panic or a stray point.
    for conn in trace.connections().iter().copied().chain([9u32]) {
        let mut wf = WindowFold::new(conn);
        feed(trace, packed, &mut wf);
        assert_eq!(
            wf.finish(),
            trace.recv_window_series(conn),
            "{ctx}: window fold conn {conn}"
        );
    }

    let mut tot = TotalsFold::new();
    feed(trace, packed, &mut tot);
    let totals = tot.finish();
    assert_eq!(totals.packets, trace.len() as u64, "{ctx}: packets");
    assert_eq!(totals.total_downloaded, trace.total_downloaded(), "{ctx}: downloaded");
    assert_eq!(
        totals.total_raw_downloaded,
        trace.total_raw_downloaded(),
        "{ctx}: raw downloaded"
    );
    assert_eq!(
        totals.retransmission_rate,
        trace.retransmission_rate(),
        "{ctx}: retx rate"
    );
    assert_eq!(totals.duration, trace.duration(), "{ctx}: duration");

    let mut sf = SummariesFold::new();
    feed(trace, packed, &mut sf);
    assert_eq!(sf.finish(), trace.connection_summaries(), "{ctx}: summaries fold");

    // Two ladders (the default DASH shape and a degenerate two-rung one):
    // the wire-side switch estimate must agree with the summaries-scan
    // oracle on arbitrary captures, not only on well-formed ABR sessions.
    for (lk, ladder) in [
        &[350_000u64, 600_000, 1_000_000, 1_600_000, 2_500_000, 3_800_000][..],
        &[100_000, 5_000_000][..],
    ]
    .into_iter()
    .enumerate()
    {
        let mut swf = SwitchRateFold::new();
        feed(trace, packed, &mut swf);
        assert_eq!(
            swf.finish(ladder, 4_000),
            switch_counts_of(&trace.connection_summaries(), ladder, 4_000),
            "{ctx}: switch fold (ladder {lk})"
        );
    }

    for (ci, cfg) in configs().into_iter().enumerate() {
        let rtt = SimDuration::from_millis(1);
        let mut af = AnalysisFold::new(cfg.clone()).with_phases().with_ack_clock(rtt);
        feed(trace, packed, &mut af);
        let out = af.finish();

        let oracle = OnOffAnalysis::from_trace(trace, &cfg);
        assert_eq!(out.onoff.cycles, oracle.cycles, "{ctx}: cycles (cfg {ci})");
        assert_eq!(
            out.onoff.off_periods, oracle.off_periods,
            "{ctx}: off periods (cfg {ci})"
        );

        let phases = out.phases.expect("phases requested");
        let expect = SessionPhases::from_trace(trace, &cfg);
        assert_eq!(phases.start, expect.start, "{ctx}: phase start (cfg {ci})");
        assert_eq!(
            phases.buffering_end, expect.buffering_end,
            "{ctx}: buffering end (cfg {ci})"
        );
        assert_eq!(
            phases.buffering_bytes, expect.buffering_bytes,
            "{ctx}: buffering bytes (cfg {ci})"
        );
        assert_eq!(
            phases.steady_state_rate_bps, expect.steady_state_rate_bps,
            "{ctx}: steady rate (cfg {ci})"
        );
        assert_eq!(phases.total_bytes, expect.total_bytes, "{ctx}: total bytes (cfg {ci})");
        assert_eq!(phases.duration, expect.duration, "{ctx}: phase duration (cfg {ci})");

        assert_eq!(
            out.first_rtt_bytes.expect("ack clock requested"),
            first_rtt_bytes(trace, &cfg, rtt),
            "{ctx}: first-rtt bytes (cfg {ci})"
        );
    }
}

#[test]
fn randomized_folds_match_column_scans() {
    for seed in 0..6 {
        for shape in SHAPES {
            let trace = gen(seed, shape);
            assert_folds_match(&trace, false, &format!("seed {seed} {shape:?}"));
        }
    }
}

/// A packed capture replays its columns without unpacking a trace: the
/// folds must see the identical packet stream either way.
#[test]
fn randomized_folds_match_through_packed_replay() {
    for seed in 0..6 {
        for shape in SHAPES {
            let trace = gen(seed, shape);
            assert_folds_match(&trace, true, &format!("seed {seed} {shape:?} (packed)"));
        }
    }
}

/// `Trace` is itself a sink: replaying one capture into an empty trace must
/// reproduce it exactly — the identity that lets the engine keep a trace and
/// feed live folds from one tap dispatch.
#[test]
fn trace_replay_into_trace_is_identity() {
    for seed in 0..6 {
        for shape in SHAPES {
            let trace = gen(seed, shape);
            let mut copy = Trace::new();
            trace.replay(&mut copy);
            assert_eq!(copy, trace, "seed {seed} {shape:?}: replay identity");
        }
    }
}

/// Fold state must stay O(flows + figure points): on the densest generated
/// captures the combined footprint is orders of magnitude under the trace's
/// resident columns.
#[test]
fn fold_footprint_is_small() {
    let trace = gen(1, Shape::MultiConn);
    assert!(trace.len() > 100, "generator sanity");
    let mut tot = TotalsFold::new();
    let mut sf = SummariesFold::new();
    trace.replay(&mut tot);
    trace.replay(&mut sf);
    let fold_bytes = tot.approx_bytes() + sf.approx_bytes();
    assert!(
        fold_bytes * 10 < trace.resident_bytes(),
        "fold state ({fold_bytes} B) should be well under the trace columns ({} B)",
        trace.resident_bytes()
    );
}
