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
//! * a reduction of the full event list agrees with the production QoE
//!   summary computed from player statistics — the events the layers emit
//!   and the counters `qoe_sessions.csv` and the dump footers read can
//!   never drift apart unnoticed.
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
            assert!(!rec.is_empty(), "seed {seed} {shape:?}: a real session must record events");
            let events = rec.events();
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

/// The QoE quantities of a full event list, in the units the events carry.
#[derive(Default)]
struct EventQoe {
    startup_ns: Option<u64>,
    stalls: u32,
    stalls_completed: u32,
    stall_total_ns: u64,
    stall_max_ns: u64,
    blocks: u64,
    switches: u64,
}

/// The obvious-form reduction of a full event list, independent of the
/// player counters the production summary reads.
fn reference_reduction(events: &[Event]) -> EventQoe {
    let mut r = EventQoe::default();
    for ev in events {
        match ev.kind {
            EventKind::AppStartup => r.startup_ns = Some(ev.a),
            EventKind::AppStallStart => r.stalls += 1,
            EventKind::AppStallEnd => {
                r.stalls_completed += 1;
                r.stall_total_ns += ev.a;
                r.stall_max_ns = r.stall_max_ns.max(ev.a);
            }
            EventKind::AppBlockRequest => r.blocks += 1,
            EventKind::AppBitrateSwitch => r.switches += 1,
            _ => {}
        }
    }
    r
}

#[test]
fn event_stream_reduction_matches_production_summary() {
    for seed in 0..6 {
        for shape in SHAPES {
            let spec = spec_for(seed, shape);
            let (rec, out) = record(&spec, FULL);
            assert_eq!(rec.dropped(), 0, "the reduction needs the full stream");
            let events = reference_reduction(&rec.events());

            // The production table reduces player statistics, never events;
            // the two must describe the same session.
            let prod = qoe::QoeSummary::of(&out.logic);
            assert_eq!(
                prod.startup_us,
                events.startup_ns.map(|ns| ns / 1_000),
                "seed {seed} {shape:?}: startup"
            );
            assert_eq!(prod.stalls, events.stalls, "seed {seed} {shape:?}: stalls");
            assert_eq!(
                prod.stalls_completed, events.stalls_completed,
                "seed {seed} {shape:?}: completed stalls"
            );
            assert_eq!(
                prod.stall_total_us,
                events.stall_total_ns / 1_000,
                "seed {seed} {shape:?}: stall total"
            );
            assert_eq!(
                prod.stall_max_us,
                events.stall_max_ns / 1_000,
                "seed {seed} {shape:?}: stall max"
            );
            assert_eq!(prod.blocks, events.blocks, "seed {seed} {shape:?}: blocks");
            assert_eq!(prod.switches, events.switches, "seed {seed} {shape:?}: switches");
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
