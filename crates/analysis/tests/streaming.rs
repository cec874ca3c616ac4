//! The folds against the array-of-structs references.
//!
//! The folds behind the [`PacketSink`] tap are the only implementation of
//! the capture reductions (DESIGN.md §11), so their oracle is the naive
//! one: the `ref_*` reductions over a plain `Vec<PacketRecord>`, shared
//! with the capture crate's trace-vs-reference suite together with the
//! seeded generator (`crates/capture/tests/support/`). These tests feed the
//! same randomized captures through every fold twice — once replayed from
//! the [`Trace`] (the packet sequence the engine's live tap emits) and once
//! from the [`PackedTrace`] streams (a second, independent replay source)
//! — and compare both against the references. A divergence in any fold, in
//! the tap replay, or in the packed replay fails against the independent
//! oracle rather than against its own mirror.

#[path = "../../capture/tests/support/mod.rs"]
mod support;

use support::*;
use vstream_analysis::{
    AnalysisConfig, AnalysisFold, DownloadFold, SummariesFold, ThroughputFold, TotalsFold,
    WindowFold,
};
use vstream_capture::{PackedTrace, PacketRecord, PacketSink, Trace};
use vstream_sim::SimDuration;

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

fn assert_folds_match(trace: &Trace, reference: &[PacketRecord], packed: bool, ctx: &str) {
    let step = SimDuration::from_millis(5);
    let mut df = DownloadFold::new(step);
    feed(trace, packed, &mut df);
    assert_eq!(
        df.finish(),
        ref_downsample_mb(&ref_download_series(reference), step),
        "{ctx}: download fold"
    );

    for bin in [SimDuration::from_micros(700), SimDuration::from_millis(50)] {
        let mut tf = ThroughputFold::new(bin);
        feed(trace, packed, &mut tf);
        assert_eq!(
            tf.finish(),
            ref_throughput(reference, bin),
            "{ctx}: throughput fold, bin {bin:?}"
        );
    }

    // Every connection present, plus one that is not (conn 9): the absent
    // connection must yield an empty series, not a panic or a stray point.
    for conn in ref_connections(reference).into_iter().chain([9u32]) {
        let mut wf = WindowFold::new(conn);
        feed(trace, packed, &mut wf);
        assert_eq!(
            wf.finish(),
            ref_recv_window(reference, conn),
            "{ctx}: window fold conn {conn}"
        );
    }

    let mut tot = TotalsFold::new();
    feed(trace, packed, &mut tot);
    let totals = tot.finish();
    assert_eq!(totals.packets, reference.len() as u64, "{ctx}: packets");
    assert_eq!(
        totals.total_downloaded,
        ref_download_series(reference).last().map_or(0, |&(_, b)| b),
        "{ctx}: downloaded"
    );
    assert_eq!(
        totals.total_raw_downloaded,
        ref_raw_total(reference),
        "{ctx}: raw downloaded"
    );
    assert_eq!(
        totals.retransmission_rate,
        ref_retx_rate(reference),
        "{ctx}: retx rate"
    );
    assert_eq!(totals.duration, ref_duration(reference), "{ctx}: duration");

    let mut sf = SummariesFold::new();
    feed(trace, packed, &mut sf);
    assert_eq!(sf.finish(), ref_connection_summaries(reference), "{ctx}: summaries fold");

    for (ci, cfg) in configs().into_iter().enumerate() {
        let rtt = SimDuration::from_millis(1);
        let mut af = AnalysisFold::new(cfg.clone()).with_phases().with_ack_clock(rtt);
        feed(trace, packed, &mut af);
        let out = af.finish();

        let oracle = ref_onoff(reference, &cfg);
        assert_eq!(out.onoff.cycles, oracle.cycles, "{ctx}: cycles (cfg {ci})");
        assert_eq!(
            out.onoff.off_periods, oracle.off_periods,
            "{ctx}: off periods (cfg {ci})"
        );

        let phases = out.phases.expect("phases requested");
        let expect = ref_phases(reference, &cfg);
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
            ref_first_rtt_bytes(reference, &cfg, rtt),
            "{ctx}: first-rtt bytes (cfg {ci})"
        );
    }
}

#[test]
fn randomized_folds_match_aos_references() {
    for seed in 0..6 {
        for shape in SHAPES {
            let (trace, reference) = gen(seed, shape);
            assert_folds_match(&trace, &reference, false, &format!("seed {seed} {shape:?}"));
        }
    }
}

/// A packed capture replays its columns without unpacking a trace: the
/// folds must see the identical packet stream either way.
#[test]
fn randomized_folds_match_through_packed_replay() {
    for seed in 0..6 {
        for shape in SHAPES {
            let (trace, reference) = gen(seed, shape);
            assert_folds_match(&trace, &reference, true, &format!("seed {seed} {shape:?} (packed)"));
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
            let (trace, _) = gen(seed, shape);
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
    let (trace, _) = gen(1, Shape::MultiConn);
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
