//! Randomized ABR switch-estimate suite (the DASH twin of `streaming_query`).
//!
//! Six seeds crossed with three (classification ladder, LRD cross-traffic)
//! shapes, each a real DASH session over the Home profile. Held invariants,
//! per (seed, shape):
//!
//! * the wire-side switch estimate a query computes equals
//!   [`switch_counts_of`] over a retained trace's connection summaries
//!   (the summaries fold is held to the array-of-structs reference by the
//!   analysis crate's `streaming.rs`), so the live tap classifies the
//!   connections a replayed capture holds;
//! * every source of a reply — the retained trace replayed through the
//!   folds, the live tap, a cache miss, a cache hit — returns byte-equal
//!   switch counts and QoE summaries;
//! * the QoE reply's `switches` equals the client logic's own counter (the
//!   ground truth the flight-recorder suite ties to emitted events).
//!
//! One `#[test]`, deliberately: the session cache is a process global.

mod support;

use vstream::{cache, query_many_jobs, reply_from_outcome, SessionQuery, SessionSpec};
use vstream_analysis::{switch_counts_of, SummariesFold};
use vstream_net::LrdCrossConfig;
use vstream_sim::SimDuration;

/// One suite shape: how the fold classifies, and what loads the link.
struct Shape {
    ladder: Vec<u64>,
    segment_ms: u64,
    cross: Option<LrdCrossConfig>,
}

fn shapes() -> Vec<Shape> {
    let default_ladder = vec![350_000u64, 600_000, 1_000_000, 1_600_000, 2_500_000, 3_800_000];
    vec![
        // Clean link, the client's own ladder: the estimate should track
        // the adaptation loop closely.
        Shape { ladder: default_ladder.clone(), segment_ms: 4_000, cross: None },
        // Half-loaded link: switches actually happen.
        Shape {
            ladder: default_ladder,
            segment_ms: 4_000,
            cross: Some(LrdCrossConfig::for_load(20_000_000, 500)),
        },
        // Heavily loaded link, deliberately mismatched coarse ladder: the
        // estimator must stay consistent across paths even when its
        // classification is wrong about the client.
        Shape {
            ladder: vec![200_000, 2_000_000],
            segment_ms: 4_000,
            cross: Some(LrdCrossConfig::for_load(20_000_000, 750)),
        },
    ]
}

const SEEDS: u64 = 6;

/// The shared generator's DASH session, captured long enough to fetch a
/// dozen segments, cacheable, under this shape's cross-traffic.
fn spec_for(seed: u64, shape: &Shape) -> SessionSpec {
    let mut spec = support::spec_for(seed, support::Shape::Dash).shared();
    spec.capture = SimDuration::from_secs(45);
    spec.cross = shape.cross;
    spec
}

#[test]
fn switch_fold_matches_oracle_on_every_path() {
    let shapes = shapes();
    // Specs are grouped by shape so each group can use its own query.
    let spec_groups: Vec<Vec<SessionSpec>> = shapes
        .iter()
        .map(|shape| (0..SEEDS).map(|seed| spec_for(seed, shape)).collect())
        .collect();

    // Switches seen across the half-loaded group.
    let mut loaded = 0;
    for (si, (shape, specs)) in shapes.iter().zip(&spec_groups).enumerate() {
        let query = SessionQuery::default()
            .qoe()
            .switch_rate(shape.ladder.clone(), shape.segment_ms);

        // Full outcomes (traces retained) for the two oracles.
        let outcomes: Vec<_> = specs.iter().map(SessionSpec::run).collect();
        // The production path: live tap with no cache, then a cache miss
        // (live tap, reply stored) and a hit (stored reply cloned).
        let live = query_many_jobs(specs, 2, &query);
        cache::install();
        let miss = query_many_jobs(specs, 2, &query);
        let hit = query_many_jobs(specs, 2, &query);
        cache::uninstall();

        for (seed, out) in outcomes.into_iter().enumerate() {
            let ctx = format!("shape {si} seed {seed}");
            let out = out.expect("Dash over HTML5 applies");
            let mut summaries = SummariesFold::new();
            out.trace.replay(&mut summaries);
            let oracle = switch_counts_of(&summaries.finish(), &shape.ladder, shape.segment_ms);
            let truth = out.logic.switches();
            if si == 1 {
                loaded += truth;
            }
            // The same trace, replayed through the folds.
            let replayed = Some(reply_from_outcome(out, &query));

            for (path, reply) in [
                ("trace replay", &replayed),
                ("live tap", &live[seed]),
                ("cache-miss", &miss[seed]),
                ("cache-hit", &hit[seed]),
            ] {
                let reply = reply.as_ref().expect("Dash over HTML5 applies");
                assert_eq!(
                    reply.answer.switch_counts,
                    Some(oracle),
                    "{ctx}: {path} switch counts vs summaries oracle"
                );
                // The estimate reads the summaries fold, but an answer
                // carries only what the query named.
                assert!(reply.answer.summaries.is_none(), "{ctx}: {path} summaries not queried");
                let q = reply.answer.qoe.as_ref().expect("qoe queried");
                assert_eq!(q.switches, truth, "{ctx}: {path} client switch counter");
            }
            // The session must actually fetch segments for the suite to
            // mean anything.
            assert!(oracle.segments > 3, "{ctx}: only {} segments", oracle.segments);
        }
    }

    // At least one (seed, shape) pair in the loaded groups must have
    // switched — otherwise the suite never exercised a rung change.
    assert!(loaded > 0, "no switches across the half-loaded group");
}
