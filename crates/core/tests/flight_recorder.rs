//! Randomized flight-recorder suite (DESIGN.md §12).
//!
//! Mirrors the seed × shape structure of the analysis crate's streaming
//! suite: six seeds crossed with seven session shapes spanning every
//! strategy family (server-paced Flash, client-pull HTML5, Netflix
//! Silverlight, iPad range requests, Android pull, an interrupted session,
//! and the DASH rate-adaptation extension), each run as a
//! real simulated session with the event recorder on. Held invariants:
//!
//! * events are monotone non-decreasing in simulation time — emission
//!   sites are detection points, retroactive data travels in payloads;
//! * the bounded ring keeps exactly the last N events under overflow,
//!   byte-for-byte the tail of the unbounded recording;
//! * the event-level QoE fold agrees with an independent reduction of the
//!   full event list *and* with the production QoE summary computed from
//!   player statistics — the two QoE paths (events for dumps, stats for
//!   `qoe_sessions.csv`) can never drift apart unnoticed.
//!
//! Every test turns the global trace switch on and none ever turns it off,
//! so the parallel test harness cannot race one test's sessions against
//! another's toggle.

mod support;

use support::{spec_for, Shape, SHAPES};
use vstream::{qoe, SessionSpec};
use vstream_obs::trace::{self, Event, EventKind, Recorder};

/// Runs one session with a fresh ring of `cap` events on this thread and
/// returns the recorder alongside the outcome.
fn record(spec: &SessionSpec, cap: usize) -> (Recorder, vstream::CellOutcome) {
    trace::set_enabled(true);
    trace::begin_session(cap);
    let out = spec.run().expect("every shape is an applicable matrix cell");
    let rec = trace::end_session().expect("session bracket returns the ring");
    (rec, out)
}

/// A ring big enough that no generated session overflows it.
const FULL: usize = 1 << 20;

#[test]
fn events_are_monotone_in_sim_time() {
    for seed in 0..6 {
        for shape in SHAPES {
            let spec = spec_for(seed, shape);
            let (rec, _) = record(&spec, FULL);
            let events = rec.events();
            assert!(
                !events.is_empty(),
                "seed {seed} {shape:?}: a real session must record events"
            );
            assert_eq!(rec.dropped(), 0, "seed {seed} {shape:?}: FULL ring overflowed");
            for w in events.windows(2) {
                assert!(
                    w[0].at_ns <= w[1].at_ns,
                    "seed {seed} {shape:?}: event at {} ns followed one at {} ns",
                    w[1].at_ns,
                    w[0].at_ns
                );
            }
        }
    }
}

#[test]
fn ring_keeps_exactly_the_last_n_under_overflow() {
    // Two seeds per shape keep this test quick; each session runs twice
    // (unbounded and tiny ring) and the tiny ring must hold exactly the
    // unbounded recording's tail. Sessions are pure functions of their
    // spec, so the two runs emit identical event streams.
    for seed in 0..2 {
        for shape in SHAPES {
            let spec = spec_for(seed, shape);
            let (full, _) = record(&spec, FULL);
            let all = full.events();
            let cap = 64;
            let (small, _) = record(&spec, cap);
            let kept = small.events();
            if all.len() <= cap {
                assert_eq!(kept, all, "seed {seed} {shape:?}: under-capacity ring");
                assert_eq!(small.dropped(), 0);
            } else {
                assert_eq!(kept.len(), cap, "seed {seed} {shape:?}: ring size");
                assert_eq!(
                    kept.as_slice(),
                    &all[all.len() - cap..],
                    "seed {seed} {shape:?}: ring must hold exactly the last {cap} events"
                );
                assert_eq!(
                    small.dropped() as usize,
                    all.len() - cap,
                    "seed {seed} {shape:?}: dropped count"
                );
            }
            assert_eq!(
                small.total() as usize,
                all.len(),
                "seed {seed} {shape:?}: total offered"
            );
        }
    }
}

/// The obvious-form reference reduction over a full event list, kept
/// independent of `QoeFold`'s implementation so the fold is tested against
/// an oracle rather than its own mirror.
fn reference_reduction(events: &[Event]) -> trace::QoeFold {
    let mut r = trace::QoeFold::new();
    for ev in events {
        match ev.kind {
            EventKind::AppStartup => r.startup_ns = Some(ev.a),
            EventKind::AppStallStart => r.stalls += 1,
            EventKind::AppStallEnd => {
                r.stalls_completed += 1;
                r.stall_total_ns += ev.a;
                r.stall_max_ns = r.stall_max_ns.max(ev.a);
            }
            EventKind::AppFinished => r.finished_at_ns = Some(ev.at_ns),
            EventKind::AppBlockRequest => r.blocks += 1,
            EventKind::AppBitrateSwitch => r.switches += 1,
            _ => {}
        }
    }
    r
}

#[test]
fn qoe_fold_matches_reference_and_production_summary() {
    for seed in 0..6 {
        for shape in SHAPES {
            let spec = spec_for(seed, shape);
            let (rec, out) = record(&spec, FULL);
            assert_eq!(rec.dropped(), 0, "fold comparison needs the full stream");
            let events = rec.events();

            let mut fold = trace::QoeFold::new();
            for ev in &events {
                fold.push(ev);
            }
            assert_eq!(
                fold,
                reference_reduction(&events),
                "seed {seed} {shape:?}: QoeFold vs reference reduction"
            );

            // The production table reduces player statistics, never events;
            // the two must describe the same session.
            let prod = qoe::QoeSummary::of(&out.logic);
            assert_eq!(
                prod.startup_us,
                fold.startup_ns.map(|ns| ns / 1_000),
                "seed {seed} {shape:?}: startup"
            );
            assert_eq!(prod.stalls, fold.stalls, "seed {seed} {shape:?}: stalls");
            assert_eq!(
                prod.stalls_completed, fold.stalls_completed,
                "seed {seed} {shape:?}: completed stalls"
            );
            assert_eq!(
                prod.stall_total_us,
                fold.stall_total_ns / 1_000,
                "seed {seed} {shape:?}: stall total"
            );
            assert_eq!(
                prod.stall_max_us,
                fold.stall_max_ns / 1_000,
                "seed {seed} {shape:?}: stall max"
            );
            assert_eq!(prod.blocks, fold.blocks, "seed {seed} {shape:?}: blocks");
            assert_eq!(prod.switches, fold.switches, "seed {seed} {shape:?}: switches");
        }
    }
}

#[test]
fn recording_does_not_perturb_the_session() {
    // Same spec, with and without a ring on this thread (the switch stays
    // globally on either way): outcomes must be indistinguishable. The
    // stronger on-vs-off neutrality — byte-identical figure CSVs — is held
    // by scripts/ci.sh's trace-neutrality stage across whole figure runs.
    for shape in [Shape::ServerPaced, Shape::Netflix] {
        let spec = spec_for(3, shape);
        let (_, recorded) = record(&spec, FULL);
        trace::set_enabled(true);
        let bare = spec.run().unwrap();
        assert_eq!(bare.trace.len(), recorded.trace.len(), "{shape:?}: trace length");
        assert_eq!(
            bare.logic.read_total(),
            recorded.logic.read_total(),
            "{shape:?}: bytes read"
        );
        assert_eq!(bare.connections, recorded.connections, "{shape:?}: connections");
    }
}
