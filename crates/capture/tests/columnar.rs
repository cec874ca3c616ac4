//! The retained [`Trace`] against a plain array-of-structs reference.
//!
//! These tests keep a reference `Vec<PacketRecord>` side by side with the
//! `Trace`, feed both the same randomized captures (across seeds and
//! traffic shapes; the generator and the reference reductions live in
//! `support/`), and check what the trace itself answers: every record maps
//! back to the reference packet (`TapPacket::segment` inverts
//! `TapPacket::new`), the unique-byte total matches, and the packed form
//! round-trips exactly. The reductions over a capture are folds in
//! `vstream-analysis`; its `tests/streaming.rs` holds them to the same
//! references on the same captures, and the two pins at the bottom of this
//! file hold them to hand-computed numbers.

mod support;

use support::{base_seg, gen, ref_download_series, SHAPES};
use vstream_analysis::{DownloadFold, ThroughputFold, TotalsFold};
use vstream_capture::{PackedTrace, PacketRecord, TapDirection, Trace};
use vstream_sim::{SimDuration, SimTime};

// ---- lock-step equivalence ----------------------------------------------

fn assert_equivalent(trace: &Trace, reference: &[PacketRecord], ctx: &str) {
    assert_eq!(trace.len(), reference.len(), "{ctx}: len");
    for (i, (r, want)) in trace.records().zip(reference).enumerate() {
        assert_eq!(r.at, want.at, "{ctx}: at {i}");
        assert_eq!(r.dir(), want.dir, "{ctx}: dir {i}");
        assert_eq!(r.segment(), want.seg, "{ctx}: segment {i}");
        assert_eq!(r.seq_end(), want.seg.seq_end(), "{ctx}: seq_end {i}");
        assert_eq!(
            r.is_incoming_data(),
            want.is_incoming_data(),
            "{ctx}: is_incoming_data {i}"
        );
    }
    assert_eq!(
        trace.total_downloaded(),
        ref_download_series(reference).last().map_or(0, |&(_, t)| t),
        "{ctx}: total_downloaded"
    );
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
            if !trace.is_empty() {
                assert!(
                    packed.packed_bytes() < trace.resident_bytes(),
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
    // A zero step keeps every point of the series.
    let mut series = DownloadFold::new(SimDuration::ZERO);
    let mut totals = TotalsFold::new();
    t.replay(&mut series);
    t.replay(&mut totals);
    let pinned = [
        (ms(10), 1000u64),
        (ms(15), 1400),
        (ms(20), 2400),
        (ms(45), 2500),
    ];
    assert_eq!(
        series.finish(),
        pinned.map(|(at, bytes)| (at.as_secs_f64(), bytes as f64 / 1e6))
    );
    let totals = totals.finish();
    assert_eq!(totals.total_downloaded, 2500);
    assert_eq!(t.total_downloaded(), 2500);
    assert_eq!(totals.total_raw_downloaded, 3500);
    assert!((totals.retransmission_rate - 0.2).abs() < 1e-12);
}

#[test]
fn throughput_timeline_regression_pin() {
    let mut fold = ThroughputFold::new(SimDuration::from_millis(20));
    pinned_trace().replay(&mut fold);
    let tl = fold.finish();
    // Bins of 20 ms anchored at 10 ms: [10,30) = 2400 B, [30,50) = 1100 B.
    assert_eq!(tl.len(), 2);
    assert_eq!(tl[0].0, SimTime::from_millis(10));
    assert!((tl[0].1 - 2400.0 * 8.0 / 0.02).abs() < 1e-9);
    assert!((tl[1].1 - 1100.0 * 8.0 / 0.02).abs() < 1e-9);
}
