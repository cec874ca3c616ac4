//! End-to-end equivalence for the query layer: the live-tap resolution path
//! against its oracle, and the session cache against no cache.
//!
//! One test, deliberately: the session cache and the metrics collector are
//! process globals, so the sources of a reply — oracle (a retained trace
//! replayed through the folds), live tap, cache miss, cache hit — are driven
//! in sequence from a single `#[test]` and compared field by field. This is
//! the session-level form of the fold-vs-oracle suite in `vstream-analysis`:
//! the folds are proven against naive array-of-structs references there;
//! here the claim is that the production path feeds those folds the packet
//! stream a retained capture would have held, and that the cache hands back
//! what was computed.

use std::sync::Barrier;

use vstream::{cache, query_many_jobs, reply_from_outcome, SessionQuery, SessionReply, SessionSpec};
use vstream_app::Video;
use vstream_net::NetworkProfile;
use vstream_obs::{collector, Counter, Gauge};
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

/// A small shared cell: short captures keep the test fast, several seeds
/// give the worker pool a real batch, pacing produces real ON/OFF cycles.
fn specs() -> Vec<SessionSpec> {
    (0..4u64)
        .map(|i| {
            SessionSpec::new(
                Client::Firefox,
                Container::Flash,
                Video::new(i, 1_000_000, SimDuration::from_secs(600)),
                NetworkProfile::Research,
                0xF01D + i,
                SimDuration::from_secs(45),
            )
            .shared()
        })
        .collect()
}

fn full_query() -> SessionQuery {
    SessionQuery::default()
        .download(SimDuration::from_millis(20))
        .window(0)
        .throughput(SimDuration::from_millis(100))
        .onoff()
        .phases()
        .ack_clock()
        .summaries()
        .totals()
}

fn assert_replies_eq(a: &[Option<SessionReply>], b: &[Option<SessionReply>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: reply count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        let (ra, rb) = match (ra, rb) {
            (Some(ra), Some(rb)) => (ra, rb),
            (None, None) => continue,
            _ => panic!("{ctx}: reply {i} presence differs"),
        };
        let (aa, ab) = (&ra.answer, &rb.answer);
        assert_eq!(aa.download_mb, ab.download_mb, "{ctx}: reply {i} download");
        assert_eq!(aa.window_series, ab.window_series, "{ctx}: reply {i} window");
        assert_eq!(aa.throughput, ab.throughput, "{ctx}: reply {i} throughput");
        let (oa, ob) = (
            aa.onoff.as_ref().expect("onoff queried"),
            ab.onoff.as_ref().expect("onoff queried"),
        );
        assert_eq!(oa.cycles, ob.cycles, "{ctx}: reply {i} cycles");
        assert_eq!(oa.off_periods, ob.off_periods, "{ctx}: reply {i} off periods");
        let (pa, pb) = (
            aa.phases.as_ref().expect("phases queried"),
            ab.phases.as_ref().expect("phases queried"),
        );
        assert_eq!(pa.start, pb.start, "{ctx}: reply {i} phase start");
        assert_eq!(pa.buffering_end, pb.buffering_end, "{ctx}: reply {i} buffering end");
        assert_eq!(pa.buffering_bytes, pb.buffering_bytes, "{ctx}: reply {i} buffering bytes");
        assert_eq!(
            pa.steady_state_rate_bps, pb.steady_state_rate_bps,
            "{ctx}: reply {i} steady rate"
        );
        assert_eq!(pa.total_bytes, pb.total_bytes, "{ctx}: reply {i} total bytes");
        assert_eq!(pa.duration, pb.duration, "{ctx}: reply {i} phase duration");
        assert_eq!(aa.first_rtt_bytes, ab.first_rtt_bytes, "{ctx}: reply {i} first-rtt");
        assert_eq!(aa.summaries, ab.summaries, "{ctx}: reply {i} summaries");
        assert_eq!(aa.totals, ab.totals, "{ctx}: reply {i} totals");

        assert_eq!(ra.connections, rb.connections, "{ctx}: reply {i} connections");
        assert_eq!(
            ra.connection_stats, rb.connection_stats,
            "{ctx}: reply {i} connection stats"
        );
        assert_eq!(ra.base_rtt, rb.base_rtt, "{ctx}: reply {i} base rtt");
        assert_eq!(
            ra.logic.player().stats(),
            rb.logic.player().stats(),
            "{ctx}: reply {i} player stats"
        );
    }
}

#[test]
fn streaming_paths_match_batch_replies() {
    let specs = specs();
    let query = full_query();

    // Oracle: retain each session's trace, replay it through the folds.
    let oracle: Vec<Option<SessionReply>> = specs
        .iter()
        .map(|spec| spec.run().map(|o| reply_from_outcome(o, &query)))
        .collect();
    assert!(
        oracle.iter().all(Option::is_some),
        "every session applies in this cell"
    );
    assert!(
        oracle[0].as_ref().unwrap().answer.totals.unwrap().packets > 0,
        "sessions produce traffic"
    );

    // The production path without a cache — live tap, no trace ever built.
    // A wall-mode ledger keeps the execution-dependent gauges that show it.
    collector::install(true);
    let live = query_many_jobs(&specs, 2, &query);
    let ledger = collector::take().expect("collector installed above");
    assert_replies_eq(&oracle, &live, "live tap vs oracle");
    assert_eq!(
        ledger.totals.gauge(Gauge::PeakTraceBytes),
        0,
        "a query must never materialise a trace"
    );
    assert!(ledger.totals.gauge(Gauge::PeakFlowstateBytes) > 0);

    // With the cache installed: the first pass misses (live tap, the reply
    // is stored), the second pass hits (the stored reply is cloned).
    cache::install();
    let miss = query_many_jobs(&specs, 2, &query);
    let hit = query_many_jobs(&specs, 2, &query);
    assert_eq!(cache::len(), specs.len());
    cache::uninstall();
    assert_replies_eq(&oracle, &miss, "cache miss vs oracle");
    assert_replies_eq(&oracle, &hit, "cache hit vs oracle");

    // Two batches racing for the same question. Whichever way the race
    // goes — both miss (the first insert wins, the loser's copy is dropped)
    // or one finishes first and the other hits — exactly one entry is
    // retained, its bytes are charged once, and both callers see the same
    // reply. The barrier lines the two lookups up against a session that
    // takes ~10^5 times longer than a lookup, so the double miss is the
    // interleaving this actually runs.
    collector::install(true);
    cache::install();
    let one = &specs[..1];
    let barrier = Barrier::new(2);
    let race = || {
        barrier.wait();
        query_many_jobs(one, 1, &query)
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(race);
        (race(), other.join().expect("racing batch panicked"))
    });
    let ledger = collector::take().expect("collector installed above");
    assert_replies_eq(&a, &b, "racing batches");
    assert_replies_eq(&oracle[..1], &a, "racing batch vs oracle");
    assert_eq!(cache::len(), 1);
    let (misses, hits) = (
        ledger.totals.counter(Counter::CacheMisses),
        ledger.totals.counter(Counter::CacheHits),
    );
    assert!(misses >= 1 && misses + hits == 2, "{misses} misses, {hits} hits");
    assert_eq!(
        ledger.totals.counter(Counter::CacheBytesRetained),
        cache::bytes_retained(),
        "only the insert that won may charge its bytes"
    );
    cache::uninstall();
}
