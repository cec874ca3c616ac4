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
//!   never drift apart unnoticed;
//! * the TCP events agree with the endpoints' own counters: one RTO event
//!   per timeout, one fast-retransmit event per fast retransmit, and the
//!   four handshake transitions per connection.
//!
//! A ring is a value the session's scratch carries into the engine, so
//! each test's sessions record into their own rings and nothing is shared
//! between tests.

mod support;

use support::{spec_for, Shape, SHAPES};
use vstream::{qoe, CellOutcome, SessionSpec};
use vstream_app::engine::{Engine, SessionLogic, SessionScratch};
use vstream_app::strategies::InterruptAfter;
use vstream_capture::Trace;
use vstream_obs::trace::{Event, EventKind, Recorder};
use vstream_workload::logic_for;

/// Runs one session as the session bracket does, with a fresh ring of
/// `cap` events riding its scratch into the engine, and returns the ring
/// the engine hands back alongside the outcome.
fn record(spec: &SessionSpec, cap: usize) -> (Recorder, CellOutcome) {
    assert!(spec.cross.is_none(), "no shape has cross traffic");
    let mut logic = logic_for(spec.client, spec.container, spec.video)
        .expect("every shape is an applicable matrix cell");
    let mut scratch = SessionScratch::new();
    scratch.attach_recorder(Recorder::new(cap));
    let path = spec.profile.build_path();
    let base_rtt = path.base_rtt();
    let mut eng = Engine::with_scratch(path, spec.seed, spec.capture, scratch);
    let mut trace = Trace::new();
    if let Some(w) = spec.watch_time {
        logic = Box::new(InterruptAfter::new(logic, w));
    }
    eng.run_observed(&mut logic, &mut trace, false);
    let connection_stats: Vec<_> =
        (0..eng.connection_count()).map(|c| eng.connection_stats(c)).collect();
    let rec = eng.into_parts().1.take_recorder().expect("the engine hands the ring back");
    let connections = connection_stats.len();
    let logic = logic.viewer().expect("every shape has a player").clone();
    (rec, CellOutcome { trace, logic, connections, connection_stats, base_rtt })
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
fn tcp_events_equal_the_endpoint_counters() {
    let (mut all_timeouts, mut all_fast) = (0, 0);
    for seed in 0..6 {
        for shape in SHAPES {
            let spec = spec_for(seed, shape);
            let (rec, out) = record(&spec, FULL);
            assert_eq!(rec.dropped(), 0, "the identities need the full stream");
            let events = rec.events();
            let count = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
            let stats = &out.connection_stats;
            let timeouts: u64 = stats.iter().map(|(c, s)| c.timeouts + s.timeouts).sum();
            let fast: u64 =
                stats.iter().map(|(c, s)| c.fast_retransmits + s.fast_retransmits).sum();
            assert_eq!(count(EventKind::TcpRtoFire), timeouts, "seed {seed} {shape:?}: RTOs");
            assert_eq!(count(EventKind::TcpFastRetx), fast, "seed {seed} {shape:?}: fast retx");
            all_timeouts += timeouts;
            all_fast += fast;
            for conn in 0..stats.len() {
                let states = events
                    .iter()
                    .filter(|e| e.kind == EventKind::TcpState && usize::from(e.conn) == conn)
                    .count();
                assert_eq!(states, 4, "seed {seed} {shape:?}: connection {conn}'s transitions");
            }
        }
    }
    assert!(all_timeouts > 0 && all_fast > 0, "{all_timeouts} RTOs, {all_fast} fast retx");
}

#[test]
fn recording_does_not_perturb_the_session() {
    // Same spec, with a ring and through the production bracket without
    // one: outcomes must be indistinguishable. The stronger on-vs-off
    // neutrality — byte-identical figure CSVs — is held by
    // scripts/check_determinism.sh's traced passes across whole figure runs.
    for shape in [Shape::ServerPaced, Shape::Netflix] {
        let spec = spec_for(3, shape);
        let (_, recorded) = record(&spec, FULL);
        let bare = spec.run().unwrap();
        assert!(bare.trace == recorded.trace, "{shape:?}: the captures differ");
        assert_eq!(
            bare.logic.read_total(),
            recorded.logic.read_total(),
            "{shape:?}: bytes read"
        );
        assert_eq!(bare.connection_stats, recorded.connection_stats, "{shape:?}: counters");
    }
}

/// The ledger identity the session bracket debug-asserts, held over every
/// shape through the production path: the client application reads no more
/// than the servers put on the wire — new, retransmitted and zero-window
/// probe bytes. (New bytes alone are no bound: a segment resent across the
/// highest byte sent so far counts wholly as a retransmission.)
#[test]
fn applications_read_at_most_what_the_servers_sent() {
    for seed in 0..6 {
        for shape in SHAPES {
            let out = spec_for(seed, shape).run().expect("every shape is an applicable cell");
            let sent: u64 = out
                .connection_stats
                .iter()
                .map(|(_, s)| s.data_bytes_sent + s.retx_bytes + s.probes_sent)
                .sum();
            let read = out.logic.read_total();
            assert!(read > 0, "seed {seed} {shape:?}: nothing read");
            assert!(read <= sent, "seed {seed} {shape:?}: read {read} B, servers sent {sent} B");
        }
    }
}
