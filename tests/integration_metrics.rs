//! The observability layer's two hard invariants, end to end:
//!
//! 1. **Output neutrality** — figure output is byte-identical whether the
//!    metrics collector is installed or not. Instrumentation may observe
//!    the simulation; it must never steer it.
//! 2. **Determinism** — with wall-clock timing disabled, the serialized
//!    ledger is byte-identical at any worker count: per-worker registries
//!    merge commutatively and associatively, so scheduling cannot leak in.
//!
//! The metrics collector is still process-global (it waits on ROADMAP item
//! 1, which releases the benchmark driver's calls into it), so everything
//! runs from one `#[test]`: a second test would record into the ledgers
//! this one takes. The worker count is a field of each [`Run`].

use vstream::figures::{self as f, Run};
use vstream::obs::{collector, ledger_json};
use vstream::{query_many_jobs, SessionQuery, SessionSpec};
use vstream_app::Video;
use vstream_net::{LrdCrossConfig, NetworkProfile};
use vstream_obs::{Counter, Gauge, HistId, Metrics};
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

/// A small figure slice touching both steady-state strategies and the
/// single-session traces, at a given worker count.
fn figure_suite(jobs: usize) -> Vec<String> {
    let mut out = Vec::new();
    collector::begin_span("fig4"); // no-op when the collector is inactive
    let (fig4a, fig4b) = f::fig4_flash_steady_state(&mut Run { seed: 97, jobs, qoe: None }, 2);
    collector::end_span();
    out.push(fig4a.to_csv());
    out.push(fig4b.to_csv());
    collector::begin_span("fig2");
    let (fig2a, fig2b) = f::fig2_short_onoff(&mut Run { seed: 100, jobs, qoe: None });
    collector::end_span();
    out.push(fig2a.to_csv());
    out.push(fig2b.to_csv());
    out
}

/// One `ext-qoe` cell: a DASH session on the Home profile under a
/// half-load LRD aggregate, so cross-traffic ticks share the queue with the
/// packets and the adaptive client churns through connections.
fn lrd_cell() {
    let spec = SessionSpec::new(
        Client::Dash,
        Container::Html5,
        Video::new(1, 1_000_000, SimDuration::from_secs(900)),
        NetworkProfile::Home,
        0xE07E,
        SimDuration::from_secs(45),
    )
    .with_lrd_cross(LrdCrossConfig::for_load(NetworkProfile::Home.down_bps(), 500));
    let replies = query_many_jobs(&[spec], 1, &SessionQuery::default().qoe());
    assert!(replies[0].is_some(), "Dash x Html5 is applicable");
}

/// Every packet delivery takes a FIFO lane of the event queue, none falls
/// back to the timer heap, and the queue's totals are the ones the same
/// sessions produced on the earlier queues (`pinned`: events scheduled and
/// peak pending events, recorded at the commit before the lanes existed;
/// events that are not lane pushes — the timers — recorded at the last
/// commit with a timing wheel) — a new queue changes the road, not the
/// traffic.
fn assert_lane_accounting(m: &Metrics, pinned: (u64, u64, u64), what: &str) {
    assert!(m.counter(Counter::NetPacketsDelivered) > 0, "{what}");
    assert_eq!(
        m.counter(Counter::SimLanePushes),
        m.counter(Counter::NetPacketsDelivered),
        "{what}: a delivered packet missed the lanes"
    );
    assert_eq!(m.counter(Counter::SimLaneFallbacks), 0, "{what}: a link reordered");
    let (events, peak_len, timers) = pinned;
    assert_eq!(m.counter(Counter::SimEventsScheduled), events, "{what}");
    assert_eq!(events - m.counter(Counter::SimLanePushes), timers, "{what}: timer count moved");
    assert_eq!(m.hist(HistId::SimSessionEvents).sum(), events, "{what}");
    assert_eq!(m.hist(HistId::SimSessionEvents).count(), m.counter(Counter::SimSessions), "{what}");
    assert_eq!(m.gauge(Gauge::SimQueuePeakLen), peak_len, "{what}");
}

#[test]
fn metrics_are_output_neutral_and_ledgers_jobs_invariant() {
    // Baseline: collector inactive, exactly what a run without --metrics does.
    let baseline = figure_suite(1);

    // Metered serial run (wall clock off for byte-comparable ledgers).
    collector::install(false);
    let metered_serial = figure_suite(1);
    let ledger_serial = collector::take().expect("ledger from serial run");

    // Metered parallel run.
    collector::install(false);
    let metered_parallel = figure_suite(8);
    let ledger_parallel = collector::take().expect("ledger from parallel run");

    // 1. Output neutrality: metering changed nothing the figures emit.
    assert_eq!(baseline, metered_serial, "metrics-on vs metrics-off differ");
    assert_eq!(baseline, metered_parallel, "metered parallel output differs");

    // 2. Ledger determinism across worker counts, byte for byte.
    let json_serial = ledger_json(&ledger_serial);
    let json_parallel = ledger_json(&ledger_parallel);
    assert_eq!(json_serial, json_parallel, "ledger depends on --jobs");

    // The ledger actually carries the quantities the issue promises.
    let m = &ledger_serial.totals;
    assert!(m.counter(Counter::SimSessions) > 0);
    assert!(m.counter(Counter::SimEventsScheduled) > 0);
    assert!(m.counter(Counter::TcpDataSegmentsSent) > 0);
    assert!(m.counter(Counter::SimScratchUses) >= m.counter(Counter::SimScratchReuseHits));
    assert_eq!(ledger_serial.spans.len(), 2);
    assert_eq!(ledger_serial.spans[0].name, "fig4");
    assert!(ledger_serial.spans[0].sessions > 0);
    assert_eq!(
        ledger_serial.spans[0].wall_ns, 0,
        "wall timing must be zeroed when disabled"
    );
    // Schema 2: every key of the timing wheel is gone except the one the
    // benchmark still indexes, which reads 0.
    assert!(json_serial.contains("\"schema_version\":2,"));
    assert!(json_serial.contains("\"sim_wheel_spill_pushes\":0,"));
    assert_eq!(json_serial.matches("wheel").count(), 1, "a removed wheel key is back in the ledger");
    for profile in ["research", "residence", "academic", "home"] {
        assert!(json_serial.contains(&format!("\"{profile}\"")), "per-profile slot missing: {profile}");
    }

    // Lane accounting: over the figure slice, which streams on all four
    // vantage points (fig4), then over one LRD cell on its own ledger.
    assert_lane_accounting(m, (362_720, 722, 6_944), "figure slice");
    collector::install(false);
    lrd_cell();
    let ledger_lrd = collector::take().expect("ledger from the LRD cell");
    assert_lane_accounting(&ledger_lrd.totals, (52_237, 233, 6_950), "LRD ext-qoe cell");

    // The ablation harnesses bring their own `SessionLogic` but take the
    // same bracket, so the ledger's app-layer slots cover them like the
    // engine-level ones: twelve ext-stalls sessions and the Reno/CUBIC pair,
    // every one a paced player that starts and writes blocks.
    collector::install(false);
    let jobs = vstream_sim::default_jobs();
    f::ext_stall_vs_accumulation(&Run { seed: 61, jobs, qoe: None }, 2);
    f::ext_congestion_ablation(&Run { seed: 65, jobs, qoe: None });
    let ledger_harness = collector::take().expect("ledger from the harness runs");
    let m = &ledger_harness.totals;
    assert_eq!(m.counter(Counter::SimSessions), 14);
    assert_eq!(m.counter(Counter::AppPlaybackStarted), m.counter(Counter::SimSessions));
    assert_eq!(m.hist(HistId::AppStartupDelayMs).count(), m.counter(Counter::SimSessions));
    assert!(m.counter(Counter::AppBlocks) > 0);
}
