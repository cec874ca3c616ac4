//! The query's shared flow table against the standalone folds.
//!
//! A query looks each packet up once in one per-connection table and hands
//! the new-byte delta to the download, totals and phase folds; run alone,
//! each of those folds keeps a table of its own. Replaying one retained
//! capture both ways must give the same answer, byte for byte in its
//! `Debug` form (the form the benchmark goldens pin). The sessions stress
//! the shared delta: a Netflix PC session on the lossy Residence path (many
//! connections, SACK retransmissions), a DASH session on Home under heavy
//! LRD cross traffic (one connection per segment), and Flash on Academic.
//! Two queries cover both table modes: the full one, whose answer reads the
//! rows (every packet updates its row), and one whose folds read only the
//! deltas (the table sees incoming data packets only).

use vstream::{reply_from_outcome, CellOutcome, SessionAnswer, SessionQuery, SessionSpec};
use vstream_analysis::{
    switch_counts_of, AnalysisFold, DownloadFold, SummariesFold, ThroughputFold, TotalsFold,
    WindowFold,
};
use vstream_app::strategies::{ABR_LADDER, ABR_SEGMENT_MS};
use vstream_app::Video;
use vstream_capture::{PacketSink, TapDirection, Trace};
use vstream_net::{LrdCrossConfig, NetworkProfile};
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

fn sessions() -> Vec<(&'static str, SessionSpec)> {
    let video = |id| Video::new(id, 1_000_000, SimDuration::from_secs(600));
    let capture = SimDuration::from_secs(40);
    let spec = |client, container, id, profile| {
        SessionSpec::new(client, container, video(id), profile, 0xF10 + id, capture)
    };
    let home = NetworkProfile::Home;
    vec![
        (
            "netflix-pc-residence",
            spec(Client::Chrome, Container::Silverlight, 1, NetworkProfile::Residence),
        ),
        (
            "dash-home-lrd850",
            spec(Client::Dash, Container::Html5, 2, home)
                .with_lrd_cross(LrdCrossConfig::for_load(home.down_bps(), 850)),
        ),
        ("flash-academic", spec(Client::Firefox, Container::Flash, 3, NetworkProfile::Academic)),
    ]
}

fn full_query() -> SessionQuery {
    SessionQuery::default()
        .download(SimDuration::from_millis(250))
        .window(0)
        .throughput(SimDuration::from_millis(100))
        .onoff()
        .phases()
        .ack_clock()
        .summaries()
        .totals()
        .switch_rate(ABR_LADDER.to_vec(), ABR_SEGMENT_MS)
}

/// The full query less everything read off the rows themselves.
fn deltas_query() -> SessionQuery {
    SessionQuery { summaries: false, switch_rate: None, ..full_query() }
}

/// `fold` after the whole capture has been replayed into it.
fn fed<S: PacketSink>(trace: &Trace, mut fold: S) -> S {
    trace.replay(&mut fold);
    fold
}

/// The answer to `query`, each feature from its own standalone fold.
fn standalone(trace: &Trace, query: &SessionQuery, base_rtt: SimDuration) -> SessionAnswer {
    let mut analysis = AnalysisFold::new(query.config.clone());
    if query.phases {
        analysis = analysis.with_phases();
    }
    if query.ack_clock {
        analysis = analysis.with_ack_clock(base_rtt);
    }
    let analysis = fed(trace, analysis).finish();
    let rows = fed(trace, SummariesFold::new()).finish();
    SessionAnswer {
        download_mb: query.download_step.map(|s| fed(trace, DownloadFold::new(s)).finish()),
        window_series: query.window_conn.map(|c| fed(trace, WindowFold::new(c)).finish()),
        throughput: query.throughput_bin.map(|b| fed(trace, ThroughputFold::new(b)).finish()),
        onoff: query.onoff.then_some(analysis.onoff),
        phases: analysis.phases,
        first_rtt_bytes: analysis.first_rtt_bytes,
        switch_counts: query
            .switch_rate
            .as_ref()
            .map(|q| switch_counts_of(&rows, &q.ladder, q.segment_ms)),
        summaries: query.summaries.then_some(rows),
        totals: query.totals.then(|| fed(trace, TotalsFold::new()).finish()),
        qoe: None,
    }
}

/// `trace` with a 300-byte request after each connection's first outgoing
/// packet. The simulated clients send no payload, so without it no outgoing
/// packet could lift a sequence high-water mark, and a table that counted
/// outgoing bytes as downloaded would go unnoticed.
fn with_requests(trace: &Trace) -> Trace {
    let mut out = Trace::new();
    let mut asked = Vec::new();
    for p in trace.records() {
        out.push(p.at, p.dir(), p.segment());
        if p.dir() == TapDirection::Outgoing && !asked.contains(&p.conn) {
            asked.push(p.conn);
            let mut request = p.segment();
            (request.payload, request.syn) = (300, false);
            out.push(p.at, TapDirection::Outgoing, request);
        }
    }
    out
}

#[test]
fn shared_flow_table_answers_as_the_standalone_folds_do() {
    for (name, spec) in sessions() {
        let run = spec.run().expect("a valid cell");
        // The sessions must exercise what the table shares.
        let totals = fed(&run.trace, TotalsFold::new()).finish();
        assert!(totals.total_downloaded > 0, "{name}: nothing downloaded");
        if name != "flash-academic" {
            assert!(run.connections > 3, "{name}: only {} connections", run.connections);
        }
        if name == "netflix-pc-residence" {
            assert!(totals.retransmission_rate > 0.0, "{name}: no retransmissions");
        }
        let requested = CellOutcome { trace: with_requests(&run.trace), ..run.clone() };
        for (capture, out) in [("as run", &run), ("with requests", &requested)] {
            for (mode, query) in [("rows", full_query()), ("deltas", deltas_query())] {
                let expected = standalone(&out.trace, &query, out.base_rtt);
                let answer = reply_from_outcome(out.clone(), &query).answer;
                assert_eq!(
                    format!("{answer:?}"),
                    format!("{expected:?}"),
                    "{name} {capture}, {mode} table: fused query vs standalone folds"
                );
            }
        }
    }
}
