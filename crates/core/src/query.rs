//! The figure drivers' session interface: ask for features, not traces.
//!
//! A [`SessionQuery`] names the reductions a driver needs — download
//! series, receive-window series, ON/OFF analysis, phase decomposition,
//! ack-clock samples, capture totals — and a batch of specs resolves into
//! [`SessionReply`]s carrying exactly those features: through
//! [`Run::query`](crate::figures::Run::query) in the figure drivers, which
//! also feeds the run's QoE table, or [`query_many_jobs`] with an explicit
//! worker count.
//!
//! There is one resolution path: the query's incremental folds
//! ([`vstream_analysis::fold`]) ride the engine's live packet tap
//! ([`Engine::run_observed`](vstream_app::engine::Engine::run_observed))
//! and the session never materialises a [`Trace`](vstream_capture::Trace).
//! Peak analysis memory is O(flows + figure points) fold state (the
//! `peak_flowstate_bytes` ledger gauge; `peak_trace_bytes` reads 0), and a
//! finished reply is small enough for the [session cache](crate::cache) to
//! retain as it is, keyed by the spec *and* the query.
//!
//! Callers that need raw packets (pcap export, trace inspection) use
//! [`SessionSpec::run`] instead; [`reply_from_outcome`] replays such a
//! retained trace through the same folds and is the oracle the test suites
//! hold the live tap against.

use std::mem::size_of_val;

use vstream_analysis::{
    switch_counts_of, AnalysisConfig, AnalysisFold, CaptureTotals, DownloadFold, OnOffAnalysis,
    SessionPhases, SummariesFold, SwitchCounts, ThroughputFold, TotalsFold, WindowFold,
};
use vstream_app::Viewer;
use vstream_capture::{ConnectionSummary, PacketSink, TapPacket};
use vstream_sim::{SimDuration, SimTime};
use vstream_tcp::EndpointStats;

use crate::session::{CellOutcome, SessionSpec};

/// The features a figure driver wants from each session.
///
/// Every field is an integer or a flag, so equality is exact and the query
/// is (half of) the [session cache](crate::cache)'s key.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct SessionQuery {
    /// Downsampled cumulative-download series at this grid step.
    pub download_step: Option<SimDuration>,
    /// Advertised receive-window series of this connection.
    pub window_conn: Option<u32>,
    /// Incoming goodput timeline at this bin width.
    pub throughput_bin: Option<SimDuration>,
    /// ON/OFF cycle analysis.
    pub onoff: bool,
    /// Buffering/steady-state phase decomposition (implies cycle detection).
    pub phases: bool,
    /// First-RTT bytes per steady-state ON period (the ack-clock test).
    pub ack_clock: bool,
    /// Per-connection summaries.
    pub summaries: bool,
    /// Whole-capture totals (downloaded bytes, retx rate, duration).
    pub totals: bool,
    /// Per-session QoE summary (startup delay, stalls, block cadence).
    ///
    /// Unlike every other feature this is not a packet fold: QoE is an
    /// application-layer reduction of the player's unconditional
    /// statistics ([`crate::qoe::QoeSummary::of`]), filled at reply
    /// assembly from the session's strategy logic.
    pub qoe: bool,
    /// Wire-side bitrate-switch estimate against this segment ladder (the
    /// `ext-qoe` table's cross-check of the client's own switch counter),
    /// read off the per-connection summaries.
    pub switch_rate: Option<SwitchRateQuery>,
    /// Thresholds for the cycle/phase analyses.
    pub config: AnalysisConfig,
}

/// Parameters of the wire-side switch-rate estimate: the ABR client's
/// segment ladder and playback length, which [`switch_counts_of`] needs to
/// classify connections to rungs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SwitchRateQuery {
    /// Available encoding rates in bits per second, ascending.
    pub ladder: Vec<u64>,
    /// Playback milliseconds per segment.
    pub segment_ms: u64,
}

impl SessionQuery {
    /// Requests the download series on a `step` grid.
    pub fn download(mut self, step: SimDuration) -> Self {
        self.download_step = Some(step);
        self
    }

    /// Requests `conn`'s receive-window series.
    pub fn window(mut self, conn: u32) -> Self {
        self.window_conn = Some(conn);
        self
    }

    /// Requests the binned throughput timeline.
    pub fn throughput(mut self, bin: SimDuration) -> Self {
        self.throughput_bin = Some(bin);
        self
    }

    /// Requests the ON/OFF cycle analysis.
    pub fn onoff(mut self) -> Self {
        self.onoff = true;
        self
    }

    /// Requests the phase decomposition.
    pub fn phases(mut self) -> Self {
        self.phases = true;
        self
    }

    /// Requests the ack-clock samples.
    pub fn ack_clock(mut self) -> Self {
        self.ack_clock = true;
        self
    }

    /// Requests per-connection summaries.
    pub fn summaries(mut self) -> Self {
        self.summaries = true;
        self
    }

    /// Requests the capture totals.
    pub fn totals(mut self) -> Self {
        self.totals = true;
        self
    }

    /// Requests the per-session QoE summary.
    pub fn qoe(mut self) -> Self {
        self.qoe = true;
        self
    }

    /// Requests the wire-side switch-rate estimate against `ladder`
    /// (ascending bits per second) at `segment_ms` playback per segment.
    pub fn switch_rate(mut self, ladder: Vec<u64>, segment_ms: u64) -> Self {
        self.switch_rate = Some(SwitchRateQuery { ladder, segment_ms });
        self
    }
}

/// The requested features of one session. Fields are `Some` exactly when
/// the query asked for them.
#[derive(Clone, Debug, Default)]
pub struct SessionAnswer {
    /// `(secs, megabytes)` download points on the query's grid.
    pub download_mb: Option<Vec<(f64, f64)>>,
    /// `(time, window_bytes)` of the queried connection.
    pub window_series: Option<Vec<(SimTime, u64)>>,
    /// `(bin_start, bits_per_sec)` goodput timeline.
    pub throughput: Option<Vec<(SimTime, f64)>>,
    /// Filtered ON/OFF analysis.
    pub onoff: Option<OnOffAnalysis>,
    /// Phase decomposition.
    pub phases: Option<SessionPhases>,
    /// First-RTT bytes per steady-state cycle.
    pub first_rtt_bytes: Option<Vec<u64>>,
    /// Per-connection summaries, ordered by connection id.
    pub summaries: Option<Vec<ConnectionSummary>>,
    /// Whole-capture totals.
    pub totals: Option<CaptureTotals>,
    /// Per-session QoE summary.
    pub qoe: Option<crate::qoe::QoeSummary>,
    /// Wire-side segment/switch counts against the query's ladder.
    pub switch_counts: Option<SwitchCounts>,
}

/// Everything [`query_many_jobs`] returns per session: the computed features
/// plus the non-trace outcome fields
/// ([`CellOutcome`] minus the capture).
#[derive(Clone)]
pub struct SessionReply {
    /// The requested features.
    pub answer: SessionAnswer,
    /// The client application's outcome: player, bytes read, blocks and
    /// switches.
    pub logic: Viewer,
    /// Number of TCP connections the session opened.
    pub connections: usize,
    /// Per-connection endpoint statistics `(client, server)`.
    pub connection_stats: Vec<(EndpointStats, EndpointStats)>,
    /// The base round-trip time of the path.
    pub base_rtt: SimDuration,
}

impl SessionReply {
    /// Approximate heap bytes behind the reply: the feature vectors and
    /// the per-connection statistics (what the session cache accounts per
    /// entry, on top of the entry itself).
    pub(crate) fn heap_bytes(&self) -> usize {
        fn heap<T>(v: &Option<Vec<T>>) -> usize {
            v.as_deref().map_or(0, size_of_val)
        }
        let a = &self.answer;
        heap(&a.download_mb)
            + heap(&a.window_series)
            + heap(&a.throughput)
            + heap(&a.first_rtt_bytes)
            + heap(&a.summaries)
            + a.onoff.as_ref().map_or(0, |o| {
                size_of_val(&o.cycles[..]) + size_of_val(&o.off_periods[..])
            })
            + size_of_val(&self.connection_stats[..])
    }

    /// Closes `fold` over a finished session: the fold's answer (plus the
    /// QoE summary when `query` asks) and the outcome's non-trace fields.
    pub(crate) fn assemble(fold: CompositeFold, query: &SessionQuery, out: CellOutcome) -> Self {
        let mut answer = fold.finish();
        if query.qoe {
            answer.qoe = Some(crate::qoe::QoeSummary::of(&out.logic));
        }
        SessionReply {
            answer,
            logic: out.logic,
            connections: out.connections,
            connection_stats: out.connection_stats,
            base_rtt: out.base_rtt,
        }
    }
}

/// One sink dispatching the packet stream to every fold the query enabled,
/// looking each packet up once in one flow table (DESIGN §11.2).
pub(crate) struct CompositeFold {
    flows: Option<FlowTable>,
    download: Option<DownloadFold>,
    window: Option<WindowFold>,
    throughput: Option<ThroughputFold>,
    analysis: Option<AnalysisFold>,
    /// Whether the answer carries the cycle analysis itself (the analysis
    /// fold also runs for phases or ack-clock alone).
    onoff: bool,
    totals: Option<TotalsFold>,
}

/// The query's flow table, built when a fold or the answer needs it. Every
/// packet updates its row when the answer reads the rows; otherwise only
/// incoming data packets consult it, for the folds' deltas.
struct FlowTable {
    rows: SummariesFold,
    summaries: bool,
    /// The ladder the switch estimate classifies the rows against.
    switch_rate: Option<SwitchRateQuery>,
}

impl CompositeFold {
    /// Builds the folds for `query`. `base_rtt` parameterises the ack-clock
    /// fold and may be anything when the query does not ask for it.
    pub(crate) fn new(query: &SessionQuery, base_rtt: SimDuration) -> Self {
        let analysis = (query.onoff || query.phases || query.ack_clock).then(|| {
            let mut a = AnalysisFold::new(query.config.clone());
            if query.phases {
                a = a.with_phases();
            }
            if query.ack_clock {
                a = a.with_ack_clock(base_rtt);
            }
            a
        });
        let read = query.summaries || query.switch_rate.is_some();
        let deltas = query.download_step.is_some() || query.totals || query.phases;
        CompositeFold {
            flows: (read || deltas).then(|| FlowTable {
                rows: SummariesFold::new(),
                summaries: query.summaries,
                switch_rate: query.switch_rate.clone(),
            }),
            download: query.download_step.map(DownloadFold::new),
            window: query.window_conn.map(WindowFold::new),
            throughput: query.throughput_bin.map(ThroughputFold::new),
            analysis,
            onoff: query.onoff,
            totals: query.totals.then(TotalsFold::new),
        }
    }

    /// Heap bytes held across all enabled folds (the
    /// `peak_flowstate_bytes` sample).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.flows.as_ref().map_or(0, |f| f.rows.approx_bytes())
            + self.download.as_ref().map_or(0, DownloadFold::approx_bytes)
            + self.window.as_ref().map_or(0, WindowFold::approx_bytes)
            + self.throughput.as_ref().map_or(0, ThroughputFold::approx_bytes)
            + self.analysis.as_ref().map_or(0, AnalysisFold::approx_bytes)
            + self.totals.as_ref().map_or(0, TotalsFold::approx_bytes)
    }

    /// Closes every fold into the answer. `qoe` stays `None`: it is not a
    /// packet fold — [`SessionReply::assemble`] fills it from the session's
    /// viewer when the query asks.
    fn finish(self) -> SessionAnswer {
        let analysis = self.analysis.map(AnalysisFold::finish);
        let (onoff, phases, first_rtt_bytes) = match analysis {
            Some(a) => (self.onoff.then_some(a.onoff), a.phases, a.first_rtt_bytes),
            None => (None, None, None),
        };
        let totals = self.totals.map(TotalsFold::finish);
        let (mut summaries, mut switch_counts) = (None, None);
        if let Some(FlowTable { rows, summaries: keep, switch_rate }) = self.flows {
            let rows = rows.finish();
            let unique: u64 = rows.iter().map(|r| r.unique_bytes).sum();
            debug_assert!(totals.is_none_or(|t| t.total_downloaded == unique), "table vs totals");
            switch_counts = switch_rate.map(|q| switch_counts_of(&rows, &q.ladder, q.segment_ms));
            summaries = keep.then_some(rows);
        }
        SessionAnswer {
            download_mb: self.download.map(DownloadFold::finish),
            window_series: self.window.map(WindowFold::finish),
            throughput: self.throughput.map(ThroughputFold::finish),
            onoff,
            phases,
            first_rtt_bytes,
            summaries,
            totals,
            qoe: None,
            switch_counts,
        }
    }
}

impl PacketSink for CompositeFold {
    fn packet(&mut self, p: &TapPacket) {
        let delta = match &mut self.flows {
            Some(f) if p.is_incoming_data() || f.summaries || f.switch_rate.is_some() => {
                f.rows.advance(p)
            }
            _ => 0,
        };
        if let Some(f) = &mut self.download {
            f.fold(p, delta);
        }
        if let Some(f) = &mut self.window {
            f.packet(p);
        }
        if let Some(f) = &mut self.throughput {
            f.packet(p);
        }
        if let Some(f) = &mut self.analysis {
            f.fold(p, delta);
        }
        if let Some(f) = &mut self.totals {
            f.fold(p, delta);
        }
    }
}

/// The oracle the test suites hold [`query_many_jobs`] against: replays the
/// trace a [`SessionSpec::run`] retained through the same folds the
/// production path runs on the live tap. Nothing in the figure drivers
/// calls this — the live tap never has a trace to replay.
pub fn reply_from_outcome(out: CellOutcome, query: &SessionQuery) -> SessionReply {
    let mut fold = CompositeFold::new(query, out.base_rtt);
    out.trace.replay(&mut fold);
    SessionReply::assemble(fold, query, out)
}

/// Resolves every spec into the queried features on up to `jobs` workers,
/// ordered by spec index. `None` marks inapplicable Table 1 cells.
///
/// The reply carries features and the small outcome fields only, so peak
/// memory per worker is the fold state, never a trace. It fills no QoE
/// table; [`Run::query`](crate::figures::Run::query) does.
pub fn query_many_jobs(
    specs: &[SessionSpec],
    jobs: usize,
    query: &SessionQuery,
) -> Vec<Option<SessionReply>> {
    crate::session::batch_resolve(specs, jobs, query, |_, reply| reply)
}
