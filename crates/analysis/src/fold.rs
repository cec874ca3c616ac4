//! Incremental fold operators over the packet tap.
//!
//! Every reduction in this crate (and the figure-facing extractions on
//! [`Trace`](vstream_capture::Trace)) has a streaming form here: a
//! [`PacketSink`] that consumes the tap one packet at a time and produces
//! the *same* result as the corresponding column scan — the streaming/batch
//! equivalence contract. Folds keep per-flow [`FlowState`] and per-figure
//! series only, so a session's analysis memory is O(flows + figure points)
//! instead of O(packets); each fold reports its footprint via
//! `approx_bytes`, the number behind the `peak_flowstate_bytes` ledger
//! gauge.
//!
//! The oracle for each operator:
//!
//! * [`DownloadFold`] — `downsample_mb(trace.download_series(), step)`
//!   (the figure drivers' cumulative-download series);
//! * [`WindowFold`] — [`Trace::recv_window_series`];
//! * [`ThroughputFold`] — [`Trace::throughput_timeline`];
//! * [`TotalsFold`] — [`Trace::total_downloaded`],
//!   [`Trace::total_raw_downloaded`], [`Trace::retransmission_rate`],
//!   [`Trace::duration`];
//! * [`SummariesFold`] — [`Trace::connection_summaries`];
//! * [`AnalysisFold`] — [`OnOffAnalysis::from_trace`],
//!   [`SessionPhases::from_trace`], and
//!   [`first_rtt_bytes`](crate::ackclock::first_rtt_bytes).
//!
//! [`Trace`]: vstream_capture::Trace
//! [`Trace::recv_window_series`]: vstream_capture::Trace::recv_window_series
//! [`Trace::throughput_timeline`]: vstream_capture::Trace::throughput_timeline
//! [`Trace::total_downloaded`]: vstream_capture::Trace::total_downloaded
//! [`Trace::total_raw_downloaded`]: vstream_capture::Trace::total_raw_downloaded
//! [`Trace::retransmission_rate`]: vstream_capture::Trace::retransmission_rate
//! [`Trace::duration`]: vstream_capture::Trace::duration
//! [`Trace::connection_summaries`]: vstream_capture::Trace::connection_summaries

use std::mem::size_of;

use vstream_capture::{
    ConnectionSummary, PacketSink, TapPacket, FLAG_ACK, FLAG_OUTGOING, FLAG_RETX,
};
use vstream_sim::{SimDuration, SimTime};

use crate::onoff::{AnalysisConfig, Cycle, CycleDetector, OnOffAnalysis};
use crate::phases::SessionPhases;

/// Per-connection incremental state: everything the unique-byte accounting
/// and the per-connection summaries need, one entry per flow the session
/// touched. A session opens a handful of connections, so a sorted vector of
/// these is the whole "per-flow table" — O(flows), not O(packets).
#[derive(Clone, Copy, Debug)]
pub struct FlowState {
    /// Connection id.
    pub conn: u32,
    /// First packet time (either direction).
    pub first_seen: SimTime,
    /// Last packet time (either direction).
    pub last_seen: SimTime,
    /// Packets seen (both directions).
    pub packets: u64,
    /// High-water mark of contiguous incoming sequence space.
    pub high_water: u64,
    /// Unique payload bytes delivered to the client.
    pub unique_bytes: u64,
}

/// Looks `conn` up in a per-flow table sorted by connection id, as
/// `binary_search` does (`Err` carries the insertion point), trying the
/// row of the previous hit first: packets arrive in long per-connection
/// runs, so one compare answers almost every lookup and the search is the
/// miss path.
#[inline]
fn find_flow<T>(table: &[T], last: usize, conn: u32, id: impl Fn(&T) -> u32) -> Result<usize, usize> {
    match table.get(last) {
        Some(row) if id(row) == conn => Ok(last),
        _ => table.binary_search_by_key(&conn, id),
    }
}

/// Sorted per-connection high-water marks: the unique-byte ("goodput")
/// accounting shared by the download and phase folds.
#[derive(Clone, Debug, Default)]
struct FlowHighWater {
    conns: Vec<u32>,
    high: Vec<u64>,
    /// Row of the previous packet's connection (see [`find_flow`]).
    last: usize,
}

impl FlowHighWater {
    /// Advances `conn`'s high-water mark to `seq_end` and returns the newly
    /// covered byte count (0 for retransmissions/duplicates).
    fn advance(&mut self, conn: u32, seq_end: u64) -> u64 {
        let i = match find_flow(&self.conns, self.last, conn, |&c| c) {
            Ok(i) => i,
            Err(i) => {
                self.conns.insert(i, conn);
                self.high.insert(i, 0);
                i
            }
        };
        self.last = i;
        let delta = seq_end.saturating_sub(self.high[i]);
        self.high[i] += delta;
        delta
    }

    fn approx_bytes(&self) -> usize {
        self.conns.capacity() * size_of::<u32>() + self.high.capacity() * size_of::<u64>()
    }
}

/// Streaming form of the figure drivers' download series:
/// `downsample_mb(trace.download_series(), step)` computed on the fly. Only
/// the downsampled megabyte points are retained (plus the final cumulative
/// point), never the full per-packet series.
#[derive(Clone, Debug)]
pub struct DownloadFold {
    step: SimDuration,
    flows: FlowHighWater,
    total: u64,
    next: SimTime,
    last: Option<(SimTime, u64)>,
    out: Vec<(f64, f64)>,
}

impl DownloadFold {
    /// A fold producing megabyte points on a `step` time grid.
    pub fn new(step: SimDuration) -> Self {
        DownloadFold {
            step,
            flows: FlowHighWater::default(),
            total: 0,
            next: SimTime::ZERO,
            last: None,
            out: Vec::new(),
        }
    }

    /// The downsampled `(secs, megabytes)` series.
    pub fn finish(mut self) -> Vec<(f64, f64)> {
        // Always include the final point (same rule as `downsample_mb`).
        if let Some((t, bytes)) = self.last {
            let p = (t.as_secs_f64(), bytes as f64 / 1e6);
            if self.out.last() != Some(&p) {
                self.out.push(p);
            }
        }
        self.out
    }

    /// Heap bytes held by the fold.
    pub fn approx_bytes(&self) -> usize {
        self.flows.approx_bytes() + self.out.capacity() * size_of::<(f64, f64)>()
    }
}

impl PacketSink for DownloadFold {
    fn packet(&mut self, p: &TapPacket) {
        if !p.is_incoming_data() {
            return;
        }
        let delta = self.flows.advance(p.conn, p.seq_end());
        if delta == 0 {
            return;
        }
        self.total += delta;
        if p.at >= self.next || self.out.is_empty() {
            self.out.push((p.at.as_secs_f64(), self.total as f64 / 1e6));
            self.next = p.at + self.step;
        }
        self.last = Some((p.at, self.total));
    }
}

/// Streaming form of [`Trace::recv_window_series`]: the client's advertised
/// receive window per outgoing ACK of one connection. The series is the
/// figure's own data, so its size is the figure's, not the capture's.
///
/// [`Trace::recv_window_series`]: vstream_capture::Trace::recv_window_series
#[derive(Clone, Debug)]
pub struct WindowFold {
    conn: u32,
    out: Vec<(SimTime, u64)>,
}

impl WindowFold {
    /// A fold tracking `conn`'s advertised window.
    pub fn new(conn: u32) -> Self {
        WindowFold { conn, out: Vec::new() }
    }

    /// The `(time, window_bytes)` series.
    pub fn finish(self) -> Vec<(SimTime, u64)> {
        self.out
    }

    /// Heap bytes held by the fold.
    pub fn approx_bytes(&self) -> usize {
        self.out.capacity() * size_of::<(SimTime, u64)>()
    }
}

impl PacketSink for WindowFold {
    fn packet(&mut self, p: &TapPacket) {
        const WANT: u8 = FLAG_OUTGOING | FLAG_ACK;
        if p.flags & WANT == WANT && p.conn == self.conn {
            self.out.push((p.at, p.window));
        }
    }
}

/// Streaming form of [`Trace::throughput_timeline`]: incoming goodput binned
/// at fixed granularity. Memory is O(duration / bin).
///
/// [`Trace::throughput_timeline`]: vstream_capture::Trace::throughput_timeline
#[derive(Clone, Debug)]
pub struct ThroughputFold {
    bin: SimDuration,
    t0: Option<SimTime>,
    bins: Vec<u64>,
}

impl ThroughputFold {
    /// A fold binning incoming payload at `bin` width.
    ///
    /// # Panics
    /// Panics if `bin` is zero.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "bin width must be positive");
        ThroughputFold {
            bin,
            t0: None,
            bins: Vec::new(),
        }
    }

    /// The `(bin_start, bits_per_sec)` timeline.
    pub fn finish(self) -> Vec<(SimTime, f64)> {
        let Some(t0) = self.t0 else {
            return Vec::new();
        };
        let secs = self.bin.as_secs_f64();
        self.bins
            .into_iter()
            .enumerate()
            .map(|(i, bytes)| {
                (
                    t0 + SimDuration::from_nanos(i as u64 * self.bin.as_nanos()),
                    bytes as f64 * 8.0 / secs,
                )
            })
            .collect()
    }

    /// Heap bytes held by the fold.
    pub fn approx_bytes(&self) -> usize {
        self.bins.capacity() * size_of::<u64>()
    }
}

impl PacketSink for ThroughputFold {
    fn packet(&mut self, p: &TapPacket) {
        // The bin origin is the first captured packet of either direction,
        // exactly like the column scan.
        let t0 = *self.t0.get_or_insert(p.at);
        if !p.is_incoming_data() {
            return;
        }
        let idx = (p.at.duration_since(t0).as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += p.payload as u64;
    }
}

/// The whole-capture totals a figure driver reads off a trace in one line.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CaptureTotals {
    /// Captured packets (both directions).
    pub packets: u64,
    /// Unique payload bytes delivered ([`Trace::total_downloaded`]).
    ///
    /// [`Trace::total_downloaded`]: vstream_capture::Trace::total_downloaded
    pub total_downloaded: u64,
    /// Raw incoming payload bytes including retransmissions.
    pub total_raw_downloaded: u64,
    /// Fraction of incoming data segments marked retransmitted.
    pub retransmission_rate: f64,
    /// First-to-last packet time.
    pub duration: SimDuration,
}

/// Streaming form of the scalar capture reductions: totals, retransmission
/// rate, and duration.
#[derive(Clone, Debug, Default)]
pub struct TotalsFold {
    flows: FlowHighWater,
    packets: u64,
    unique: u64,
    raw: u64,
    data_packets: u64,
    retx_packets: u64,
    first_at: Option<SimTime>,
    last_at: SimTime,
}

impl TotalsFold {
    /// An empty totals fold.
    pub fn new() -> Self {
        TotalsFold::default()
    }

    /// The capture totals.
    pub fn finish(self) -> CaptureTotals {
        CaptureTotals {
            packets: self.packets,
            total_downloaded: self.unique,
            total_raw_downloaded: self.raw,
            retransmission_rate: if self.data_packets == 0 {
                0.0
            } else {
                self.retx_packets as f64 / self.data_packets as f64
            },
            duration: match self.first_at {
                Some(first) => self.last_at.duration_since(first),
                None => SimDuration::ZERO,
            },
        }
    }

    /// Heap bytes held by the fold.
    pub fn approx_bytes(&self) -> usize {
        self.flows.approx_bytes()
    }
}

impl PacketSink for TotalsFold {
    fn packet(&mut self, p: &TapPacket) {
        self.packets += 1;
        self.first_at.get_or_insert(p.at);
        self.last_at = p.at;
        if p.flags & FLAG_OUTGOING != 0 {
            return;
        }
        self.raw += p.payload as u64;
        if p.payload == 0 {
            return;
        }
        self.data_packets += 1;
        if p.flags & FLAG_RETX != 0 {
            self.retx_packets += 1;
        }
        self.unique += self.flows.advance(p.conn, p.seq_end());
    }
}

/// Streaming form of [`Trace::connection_summaries`]: one [`FlowState`] per
/// connection, updated per packet.
///
/// [`Trace::connection_summaries`]: vstream_capture::Trace::connection_summaries
#[derive(Clone, Debug, Default)]
pub struct SummariesFold {
    /// Sorted by connection id.
    flows: Vec<FlowState>,
    /// Row of the previous packet's connection (see [`find_flow`]).
    last: usize,
}

impl SummariesFold {
    /// An empty summaries fold.
    pub fn new() -> Self {
        SummariesFold::default()
    }

    /// The per-connection summary rows, ordered by connection id (the same
    /// order the trace scan's `BTreeMap` yields).
    pub fn finish(self) -> Vec<ConnectionSummary> {
        self.flows
            .into_iter()
            .map(|f| ConnectionSummary {
                conn: f.conn,
                first_seen: f.first_seen,
                last_seen: f.last_seen,
                unique_bytes: f.unique_bytes,
                packets: f.packets,
            })
            .collect()
    }

    /// Heap bytes held by the fold.
    pub fn approx_bytes(&self) -> usize {
        self.flows.capacity() * size_of::<FlowState>()
    }
}

impl PacketSink for SummariesFold {
    fn packet(&mut self, p: &TapPacket) {
        let i = match find_flow(&self.flows, self.last, p.conn, |f| f.conn) {
            Ok(i) => i,
            Err(i) => {
                self.flows.insert(
                    i,
                    FlowState {
                        conn: p.conn,
                        first_seen: p.at,
                        last_seen: p.at,
                        packets: 0,
                        high_water: 0,
                        unique_bytes: 0,
                    },
                );
                i
            }
        };
        self.last = i;
        let f = &mut self.flows[i];
        f.last_seen = p.at;
        f.packets += 1;
        if p.is_incoming_data() {
            let end = p.seq_end();
            if end > f.high_water {
                f.unique_bytes += end - f.high_water;
                f.high_water = end;
            }
        }
    }
}

/// The bitrate-switch quantities reduced from one capture.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchCounts {
    /// Connections classified as carrying a ladder segment.
    pub segments: u64,
    /// Rung changes between consecutive segments.
    pub switches: u64,
}

/// Streaming estimator of an ABR session's bitrate-switch count, from the
/// wire alone: the DASH client fetches one segment per fresh connection, so
/// each connection's unique incoming byte total is (close to) one ladder
/// rung's segment size. [`finish`](SwitchRateFold::finish) classifies each
/// connection to its nearest rung, in connection-id order (the request
/// order), and counts rung changes. Memory is the per-flow table —
/// O(flows), like every fold here.
///
/// The oracle is [`switch_counts_of`] over
/// [`Trace::connection_summaries`] — the column-scan form the batch paths
/// use; the streaming/batch equivalence suite holds the two equal.
///
/// [`Trace::connection_summaries`]: vstream_capture::Trace::connection_summaries
#[derive(Clone, Debug, Default)]
pub struct SwitchRateFold {
    flows: FlowHighWater,
}

impl SwitchRateFold {
    /// An empty switch-rate fold.
    pub fn new() -> Self {
        SwitchRateFold::default()
    }

    /// Classifies every connection against `ladder` (ascending bits per
    /// second) at `segment_ms` playback per segment and counts rung
    /// changes.
    pub fn finish(self, ladder: &[u64], segment_ms: u64) -> SwitchCounts {
        // `high` is the contiguous incoming sequence high-water mark, which
        // is the connection's unique byte count (server sequence space
        // starts at zero), in connection-id == request order.
        count_switches(self.flows.high.iter().copied(), ladder, segment_ms)
    }

    /// Heap bytes held by the fold.
    pub fn approx_bytes(&self) -> usize {
        self.flows.approx_bytes()
    }
}

impl PacketSink for SwitchRateFold {
    fn packet(&mut self, p: &TapPacket) {
        if p.is_incoming_data() {
            self.flows.advance(p.conn, p.seq_end());
        }
    }
}

/// The column-scan oracle of [`SwitchRateFold`]: the same classification
/// over per-connection summaries (already in connection-id order).
pub fn switch_counts_of(
    summaries: &[ConnectionSummary],
    ladder: &[u64],
    segment_ms: u64,
) -> SwitchCounts {
    count_switches(summaries.iter().map(|s| s.unique_bytes), ladder, segment_ms)
}

/// Shared reduction: nearest-rung classification per connection, switches
/// counted between consecutive classified connections. Empty connections
/// (zero unique bytes — e.g. a capture-truncated handshake) are skipped.
fn count_switches(
    per_conn_bytes: impl Iterator<Item = u64>,
    ladder: &[u64],
    segment_ms: u64,
) -> SwitchCounts {
    let mut out = SwitchCounts::default();
    let mut prev: Option<usize> = None;
    for bytes in per_conn_bytes {
        if bytes == 0 {
            continue;
        }
        let rung = nearest_rung(ladder, segment_ms, bytes);
        out.segments += 1;
        if let Some(p) = prev {
            if p != rung {
                out.switches += 1;
            }
        }
        prev = Some(rung);
    }
    out
}

/// The ladder index whose expected segment size (`bits × ms / 8000`,
/// floored — the client's own sizing rule) is nearest to `bytes`; ties go
/// to the lower rung.
fn nearest_rung(ladder: &[u64], segment_ms: u64, bytes: u64) -> usize {
    let mut best = 0usize;
    let mut best_dist = u64::MAX;
    for (i, &bps) in ladder.iter().enumerate() {
        let expected = (bps as u128 * segment_ms as u128 / 8_000) as u64;
        let dist = expected.abs_diff(bytes);
        if dist < best_dist {
            best = i;
            best_dist = dist;
        }
    }
    best
}

/// Phase-decomposition state piggybacked on the cycle detector: cumulative
/// unique-byte checkpoints at each raw cycle's edges, which is all
/// [`SessionPhases`] needs (the buffering boundary is always a cycle edge).
#[derive(Clone, Debug, Default)]
struct PhaseState {
    flows: FlowHighWater,
    cum: u64,
    first_data: Option<SimTime>,
    last_advance: Option<(SimTime, u64)>,
    /// `(cum at on_start, cum at close)` per raw cycle, detector-aligned.
    checkpoints: Vec<(u64, u64)>,
    pending: Option<PendingCheckpoint>,
}

#[derive(Clone, Copy, Debug)]
struct PendingCheckpoint {
    on_start: SimTime,
    cum_at_start: u64,
    cum_at_end: u64,
}

/// The combined ON/OFF · phases · ack-clock fold: one shared
/// [`CycleDetector`] pass producing everything `OnOffAnalysis::from_trace`,
/// `SessionPhases::from_trace`, and `first_rtt_bytes` extract from a trace.
pub struct AnalysisFold {
    config: AnalysisConfig,
    detector: CycleDetector,
    want_phases: bool,
    phase: PhaseState,
    ack_rtt: Option<SimDuration>,
    /// `(at, payload)` of data packets within one RTT of their own raw
    /// cycle's start — a superset of everything the ack-clock cursor can
    /// count, bounded by one RTT's worth of packets per cycle.
    recorded: Vec<(SimTime, u64)>,
}

/// Everything [`AnalysisFold`] produces.
#[derive(Clone, Debug)]
pub struct AnalysisOutput {
    /// The filtered cycle analysis (classify with
    /// [`classify_analysis`](crate::classify::classify_analysis)).
    pub onoff: OnOffAnalysis,
    /// Phase decomposition, if requested.
    pub phases: Option<SessionPhases>,
    /// First-RTT bytes per steady-state cycle, if requested.
    pub first_rtt_bytes: Option<Vec<u64>>,
}

impl AnalysisFold {
    /// A fold running cycle detection only.
    pub fn new(config: AnalysisConfig) -> Self {
        AnalysisFold {
            config,
            detector: CycleDetector::default(),
            want_phases: false,
            phase: PhaseState::default(),
            ack_rtt: None,
            recorded: Vec::new(),
        }
    }

    /// Also decompose the session into buffering and steady-state phases.
    pub fn with_phases(mut self) -> Self {
        self.want_phases = true;
        self
    }

    /// Also measure the bytes arriving within `rtt` of each ON period's
    /// start (the ack-clock test).
    pub fn with_ack_clock(mut self, rtt: SimDuration) -> Self {
        self.ack_rtt = Some(rtt);
        self
    }

    /// Closes the detection state and produces the analysis results.
    pub fn finish(mut self) -> AnalysisOutput {
        let (raw_cycles, raw_offs) = self.detector.into_raw();
        if let Some(p) = self.phase.pending.take() {
            self.phase.checkpoints.push((p.cum_at_start, p.cum_at_end));
        }
        let onoff = OnOffAnalysis::filter_raw(raw_cycles.clone(), raw_offs, &self.config);

        let phases = self.want_phases.then(|| {
            let start = self.phase.first_data.unwrap_or(SimTime::ZERO);
            let total_bytes = self.phase.cum;
            let end = self.phase.last_advance.map_or(start, |(t, _)| t);
            let buffering_end = onoff.off_periods.first().map(|&(s, _)| s);
            let buffering_bytes = match buffering_end {
                Some(be) => checkpoint_bytes_at(&raw_cycles, &self.phase.checkpoints, be),
                None => total_bytes,
            };
            let steady_state_rate_bps = buffering_end.and_then(|be| {
                let steady_duration = end.saturating_duration_since(be).as_secs_f64();
                if steady_duration <= 0.0 {
                    return None;
                }
                let steady_bytes =
                    total_bytes - checkpoint_bytes_at(&raw_cycles, &self.phase.checkpoints, be);
                Some(steady_bytes as f64 * 8.0 / steady_duration)
            });
            SessionPhases {
                start,
                buffering_end,
                buffering_bytes,
                steady_state_rate_bps,
                total_bytes,
                duration: end.saturating_duration_since(start),
            }
        });

        let first_rtt_bytes = self.ack_rtt.map(|rtt| {
            if onoff.cycles.len() < 2 {
                return Vec::new();
            }
            // The same single-cursor walk as `first_rtt_bytes`, over the
            // recorded subset (which contains every countable packet).
            let mut out = Vec::with_capacity(onoff.cycles.len() - 1);
            let mut data = self.recorded.iter().peekable();
            for cycle in &onoff.cycles[1..] {
                let deadline = cycle.on_start + rtt;
                let mut bytes = 0u64;
                while let Some(&&(at, payload)) = data.peek() {
                    if at < cycle.on_start {
                        data.next();
                    } else if at < deadline {
                        bytes += payload;
                        data.next();
                    } else {
                        break;
                    }
                }
                out.push(bytes);
            }
            out
        });

        AnalysisOutput {
            onoff,
            phases,
            first_rtt_bytes,
        }
    }

    /// Heap bytes held by the fold.
    pub fn approx_bytes(&self) -> usize {
        self.detector.approx_bytes()
            + self.phase.flows.approx_bytes()
            + self.phase.checkpoints.capacity() * size_of::<(u64, u64)>()
            + self.recorded.capacity() * size_of::<(SimTime, u64)>()
    }
}

impl PacketSink for AnalysisFold {
    fn packet(&mut self, p: &TapPacket) {
        if !p.is_incoming_data() {
            return;
        }
        let payload = p.payload as u64;
        let started = self
            .detector
            .data(p.at, payload, self.config.idle_threshold);
        if self.want_phases {
            if started {
                if let Some(prev) = self.phase.pending.take() {
                    self.phase.checkpoints.push((prev.cum_at_start, prev.cum_at_end));
                }
                self.phase.pending = Some(PendingCheckpoint {
                    on_start: p.at,
                    cum_at_start: self.phase.cum,
                    cum_at_end: self.phase.cum,
                });
            }
            self.phase.first_data.get_or_insert(p.at);
            let delta = self.phase.flows.advance(p.conn, p.seq_end());
            if delta > 0 {
                self.phase.cum += delta;
                self.phase.last_advance = Some((p.at, self.phase.cum));
            }
            let pending = self.phase.pending.as_mut().expect("an ON period is open");
            pending.cum_at_end = self.phase.cum;
            if p.at == pending.on_start {
                pending.cum_at_start = self.phase.cum;
            }
        }
        if let Some(rtt) = self.ack_rtt {
            let cs = self.detector.current_start().expect("an ON period is open");
            if p.at.duration_since(cs) < rtt {
                self.recorded.push((p.at, payload));
            }
        }
    }
}

/// Cumulative unique bytes at time `at`, reconstructed from the per-cycle
/// checkpoints. `at` is always a raw cycle edge (an OFF period starts at a
/// kept cycle's end or a dropped cycle's start), so the two checkpoints per
/// cycle cover every reachable query.
fn checkpoint_bytes_at(cycles: &[Cycle], checkpoints: &[(u64, u64)], at: SimTime) -> u64 {
    let i = cycles.partition_point(|c| c.on_start <= at);
    if i == 0 {
        return 0;
    }
    let (c, &(cum_at_start, cum_at_end)) = (&cycles[i - 1], &checkpoints[i - 1]);
    if at >= c.on_end {
        cum_at_end
    } else {
        debug_assert_eq!(at, c.on_start, "phase boundary must be a cycle edge");
        cum_at_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_capture::{TapDirection, Trace};
    use vstream_tcp::segment::SackBlocks;
    use vstream_tcp::Segment;

    fn seg(conn: u32, seq: u64, payload: u32) -> Segment {
        Segment {
            conn,
            seq,
            ack_no: 0,
            window: 65535,
            payload,
            syn: false,
            fin: false,
            ack: true,
            retx: false,
            sack: SackBlocks::EMPTY,
        }
    }

    /// A small but busy trace: buffering burst, steady-state cycles on two
    /// connections, a retransmission, outgoing ACKs.
    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(10);
        let mut seq = 0u64;
        for _ in 0..50 {
            t.push(now, TapDirection::Incoming, seg(0, seq, 1000));
            t.push(now + SimDuration::from_micros(10), TapDirection::Outgoing, seg(0, 0, 0));
            seq += 1000;
            now = now + SimDuration::from_millis(1);
        }
        for cycle in 0..4u64 {
            now = now + SimDuration::from_secs(1);
            for i in 0..10u64 {
                let conn = (cycle % 2) as u32;
                t.push(now, TapDirection::Incoming, seg(conn, seq, 1200));
                if cycle == 1 && i == 3 {
                    let mut rx = seg(conn, seq, 1200);
                    rx.retx = true;
                    now = now + SimDuration::from_micros(30);
                    t.push(now, TapDirection::Incoming, rx);
                }
                seq += 1200;
                now = now + SimDuration::from_millis(1);
            }
        }
        t
    }

    fn feed<S: PacketSink>(trace: &Trace, sink: &mut S) {
        trace.replay(sink);
    }

    #[test]
    fn download_fold_matches_downsampled_series() {
        let t = sample_trace();
        let step = SimDuration::from_millis(20);
        // Inline oracle: the figure drivers' downsample over the column scan.
        let series = t.download_series();
        let mut expect: Vec<(f64, f64)> = Vec::new();
        let mut next = SimTime::ZERO;
        for &(at, bytes) in &series {
            if at >= next || expect.is_empty() {
                expect.push((at.as_secs_f64(), bytes as f64 / 1e6));
                next = at + step;
            }
        }
        if let Some(&(at, bytes)) = series.last() {
            let p = (at.as_secs_f64(), bytes as f64 / 1e6);
            if expect.last() != Some(&p) {
                expect.push(p);
            }
        }
        let mut fold = DownloadFold::new(step);
        feed(&t, &mut fold);
        assert_eq!(fold.finish(), expect);
    }

    #[test]
    fn totals_fold_matches_scans() {
        let t = sample_trace();
        let mut fold = TotalsFold::new();
        feed(&t, &mut fold);
        let totals = fold.finish();
        assert_eq!(totals.packets, t.len() as u64);
        assert_eq!(totals.total_downloaded, t.total_downloaded());
        assert_eq!(totals.total_raw_downloaded, t.total_raw_downloaded());
        assert_eq!(totals.retransmission_rate, t.retransmission_rate());
        assert_eq!(totals.duration, t.duration());
    }

    #[test]
    fn summaries_fold_matches_scan() {
        let t = sample_trace();
        let mut fold = SummariesFold::new();
        feed(&t, &mut fold);
        assert_eq!(fold.finish(), t.connection_summaries());
    }

    /// The last-hit memo of the per-flow tables is only a shortcut: packets
    /// alternating between connections whose ids arrive in no order (so
    /// inserts land below, at and above the remembered row) fold to the
    /// same totals and summaries as the column scans.
    #[test]
    fn flow_lookup_memo_survives_interleaved_and_unordered_connections() {
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(1);
        let mut seq = [0u64; 10];
        for (step, conn) in [5u32, 5, 9, 5, 2, 2, 9, 0, 5, 0, 7, 2, 7, 7, 9].into_iter().enumerate() {
            let payload = 500 + 100 * step as u32;
            t.push(now, TapDirection::Incoming, seg(conn, seq[conn as usize], payload));
            t.push(now, TapDirection::Outgoing, seg(conn, 0, 0));
            seq[conn as usize] += payload as u64;
            now += SimDuration::from_millis(3);
        }
        let (mut totals, mut summaries, mut switches) =
            (TotalsFold::new(), SummariesFold::new(), SwitchRateFold::new());
        feed(&t, &mut totals);
        feed(&t, &mut summaries);
        feed(&t, &mut switches);
        assert_eq!(totals.finish().total_downloaded, t.total_downloaded());
        assert_eq!(switches.flows.conns, [0, 2, 5, 7, 9]);
        assert_eq!(
            switches.flows.high,
            t.connection_summaries().iter().map(|s| s.unique_bytes).collect::<Vec<_>>()
        );
        assert_eq!(summaries.finish(), t.connection_summaries());
    }

    #[test]
    fn window_and_throughput_folds_match_scans() {
        let t = sample_trace();
        let mut wf = WindowFold::new(0);
        let mut tf = ThroughputFold::new(SimDuration::from_millis(500));
        feed(&t, &mut wf);
        feed(&t, &mut tf);
        assert_eq!(wf.finish(), t.recv_window_series(0));
        assert_eq!(tf.finish(), t.throughput_timeline(SimDuration::from_millis(500)));
    }

    #[test]
    fn analysis_fold_matches_trace_analysis() {
        let t = sample_trace();
        let cfg = AnalysisConfig::default();
        let rtt = SimDuration::from_millis(30);
        let mut fold = AnalysisFold::new(cfg.clone()).with_phases().with_ack_clock(rtt);
        feed(&t, &mut fold);
        let out = fold.finish();
        let oracle = OnOffAnalysis::from_trace(&t, &cfg);
        assert_eq!(out.onoff.cycles, oracle.cycles);
        assert_eq!(out.onoff.off_periods, oracle.off_periods);

        let phases = out.phases.unwrap();
        let expect = SessionPhases::from_trace(&t, &cfg);
        assert_eq!(phases.start, expect.start);
        assert_eq!(phases.buffering_end, expect.buffering_end);
        assert_eq!(phases.buffering_bytes, expect.buffering_bytes);
        assert_eq!(phases.steady_state_rate_bps, expect.steady_state_rate_bps);
        assert_eq!(phases.total_bytes, expect.total_bytes);
        assert_eq!(phases.duration, expect.duration);

        assert_eq!(
            out.first_rtt_bytes.unwrap(),
            crate::ackclock::first_rtt_bytes(&t, &cfg, rtt)
        );
    }

    #[test]
    fn switch_fold_matches_summaries_oracle_and_classifies_rungs() {
        let ladder = [350_000u64, 1_000_000, 3_800_000];
        let seg_ms = 4_000u64;
        // Three segments on fresh connections: rung 0, rung 2, rung 2 —
        // one up-switch. Sizes are the client's own `bits × ms / 8000`.
        let sizes = [175_000u32, 1_900_000, 1_900_000];
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(5);
        for (conn, &size) in sizes.iter().enumerate() {
            let mut seq = 0u64;
            while seq < size as u64 {
                let payload = 1448.min(size as u64 - seq) as u32;
                t.push(now, TapDirection::Incoming, seg(conn as u32, seq, payload));
                seq += payload as u64;
                now = now + SimDuration::from_micros(400);
            }
            now = now + SimDuration::from_secs(2);
        }
        let mut fold = SwitchRateFold::new();
        feed(&t, &mut fold);
        let counts = fold.finish(&ladder, seg_ms);
        assert_eq!(counts, SwitchCounts { segments: 3, switches: 1 });
        assert_eq!(counts, switch_counts_of(&t.connection_summaries(), &ladder, seg_ms));
        // A retransmission-riddled final segment still lands on its rung:
        // classification reads unique bytes, not raw bytes.
        let mut rx = seg(2, 0, 1448);
        rx.retx = true;
        t.push(now, TapDirection::Incoming, rx);
        let mut fold = SwitchRateFold::new();
        feed(&t, &mut fold);
        assert_eq!(fold.finish(&ladder, seg_ms).switches, 1);
    }

    #[test]
    fn switch_fold_ignores_empty_connections_and_empty_streams() {
        let ladder = [350_000u64, 1_000_000];
        assert_eq!(
            SwitchRateFold::new().finish(&ladder, 4_000),
            SwitchCounts::default()
        );
        // A connection with only an outgoing handshake never classifies.
        let mut t = Trace::new();
        t.push(SimTime::from_millis(1), TapDirection::Outgoing, seg(0, 0, 0));
        t.push(SimTime::from_millis(2), TapDirection::Incoming, seg(1, 0, 175_000));
        let mut fold = SwitchRateFold::new();
        feed(&t, &mut fold);
        assert_eq!(fold.finish(&ladder, 4_000), SwitchCounts { segments: 1, switches: 0 });
    }

    #[test]
    fn empty_stream_is_degenerate_everywhere() {
        let t = Trace::new();
        let cfg = AnalysisConfig::default();
        let mut fold = AnalysisFold::new(cfg.clone()).with_phases();
        feed(&t, &mut fold);
        let out = fold.finish();
        assert!(out.onoff.cycles.is_empty());
        assert_eq!(out.phases.unwrap().total_bytes, 0);
        assert_eq!(TotalsFold::new().finish(), CaptureTotals::default());
        assert!(DownloadFold::new(SimDuration::from_secs(1)).finish().is_empty());
        assert!(ThroughputFold::new(SimDuration::from_secs(1)).finish().is_empty());
    }
}
