//! Incremental fold operators over the packet tap.
//!
//! Every reduction over a capture lives here, once: a [`PacketSink`] that
//! consumes the tap one packet at a time — live from the engine, or from
//! [`Trace::replay`](vstream_capture::Trace::replay) /
//! `PackedTrace::replay` when a capture was retained. Folds keep
//! per-figure series and at most one [`ConnectionSummary`] row per flow, so
//! a session's analysis memory is O(flows + figure points) instead of
//! O(packets); each fold reports its footprint via `approx_bytes`, the
//! number behind the `peak_flowstate_bytes` ledger gauge.
//!
//! **One flow table.** [`SummariesFold::advance`] looks a packet's row up
//! once and returns the bytes the packet newly covers (a row's
//! `unique_bytes` is the connection's high-water mark). The download,
//! totals and phase folds read only that delta, through `fold(p, delta)`:
//! run standalone they wrap a private `SummariesFold`, and the query
//! layer's composite shares one table among them (DESIGN §11.2).
//!
//! The oracle for each operator is a naive reduction over a plain
//! `Vec<PacketRecord>` (`crates/capture/tests/support/`), compared on
//! randomized captures through both replays by `tests/streaming.rs`:
//!
//! * [`DownloadFold`] — `ref_downsample_mb(ref_download_series(..), step)`
//!   (the figure drivers' cumulative-download series);
//! * [`WindowFold`] — `ref_recv_window`;
//! * [`ThroughputFold`] — `ref_throughput`;
//! * [`TotalsFold`] — the last point of `ref_download_series`,
//!   `ref_raw_total`, `ref_retx_rate`, `ref_duration`;
//! * [`SummariesFold`] — `ref_connection_summaries` (the wire-side
//!   bitrate-switch estimate, [`switch_counts_of`], reads these rows);
//! * [`AnalysisFold`] — `ref_onoff`, `ref_phases`, `ref_first_rtt_bytes`
//!   (what [`OnOffAnalysis::from_trace`], [`SessionPhases::from_trace`] and
//!   [`first_rtt_bytes`](crate::ackclock::first_rtt_bytes) answer, being
//!   this fold over a replayed trace).

use std::mem::size_of;

use vstream_capture::{
    ConnectionSummary, PacketSink, TapPacket, FLAG_ACK, FLAG_OUTGOING, FLAG_RETX,
};
use vstream_sim::{SimDuration, SimTime};

use crate::onoff::{AnalysisConfig, Cycle, CycleDetector, OnOffAnalysis};
use crate::phases::SessionPhases;

/// The figure drivers' download series: cumulative unique payload bytes —
/// per connection the high-water mark of the sequence space seen, so
/// retransmissions and duplicates do not count twice — downsampled on the
/// fly to the first point, one point per `step`, and the last. Only those
/// `(secs, megabytes)` points are retained, never the per-packet series.
#[derive(Clone, Debug)]
pub struct DownloadFold {
    step: SimDuration,
    /// Its own flow table when standalone; empty under a shared one.
    flows: SummariesFold,
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
            flows: SummariesFold::new(),
            total: 0,
            next: SimTime::ZERO,
            last: None,
            out: Vec::new(),
        }
    }

    /// Folds `p`, which newly covers `delta` bytes ([`SummariesFold::advance`]).
    #[inline]
    pub fn fold(&mut self, p: &TapPacket, delta: u64) {
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

    /// The downsampled `(secs, megabytes)` series.
    pub fn finish(mut self) -> Vec<(f64, f64)> {
        // Always include the final point.
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
        let delta = if p.is_incoming_data() { self.flows.advance(p) } else { 0 };
        self.fold(p, delta);
    }
}

/// The client's advertised receive window per outgoing ACK of one
/// connection — the "Receive Window" axis of Figs. 2b and 6a. The series is
/// the figure's own data, so its size is the figure's, not the capture's.
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
    #[inline]
    fn packet(&mut self, p: &TapPacket) {
        const WANT: u8 = FLAG_OUTGOING | FLAG_ACK;
        if p.flags & WANT == WANT && p.conn == self.conn {
            self.out.push((p.at, p.window));
        }
    }
}

/// Incoming goodput binned at fixed granularity, one `(bin_start,
/// bits_per_sec)` point per bin — the view a tool like Wireshark's IO graph
/// draws. Memory is O(duration / bin).
#[derive(Clone, Debug)]
pub struct ThroughputFold {
    bin: SimDuration,
    t0: Option<SimTime>,
    bins: Vec<u64>,
    /// End of the last bin: packets arrive in time order, so only one past
    /// it needs a division to find its bin.
    bin_end: SimTime,
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
            bin_end: SimTime::ZERO,
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
    #[inline]
    fn packet(&mut self, p: &TapPacket) {
        // The bin origin is the first captured packet of either direction.
        let t0 = *self.t0.get_or_insert(p.at);
        if !p.is_incoming_data() {
            return;
        }
        if p.at >= self.bin_end {
            let width = self.bin.as_nanos();
            let idx = p.at.duration_since(t0).as_nanos() / width;
            self.bins.resize(idx as usize + 1, 0);
            self.bin_end = SimTime::from_nanos((t0.as_nanos() + idx * width).saturating_add(width));
        }
        if let Some(last) = self.bins.last_mut() {
            *last += p.payload as u64;
        }
    }
}

/// The whole-capture totals a figure driver reads off a trace in one line.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CaptureTotals {
    /// Captured packets (both directions).
    pub packets: u64,
    /// Unique payload bytes delivered (retransmissions count once).
    pub total_downloaded: u64,
    /// Raw incoming payload bytes including retransmissions.
    pub total_raw_downloaded: u64,
    /// Fraction of incoming data segments marked retransmitted.
    pub retransmission_rate: f64,
    /// First-to-last packet time.
    pub duration: SimDuration,
}

/// The scalar capture reductions: totals, retransmission rate, and
/// duration.
#[derive(Clone, Debug, Default)]
pub struct TotalsFold {
    /// Its own flow table when standalone; empty under a shared one.
    flows: SummariesFold,
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

    /// Folds `p`, which newly covers `delta` bytes ([`SummariesFold::advance`]).
    #[inline]
    pub fn fold(&mut self, p: &TapPacket, delta: u64) {
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
        self.unique += delta;
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
        let delta = if p.is_incoming_data() { self.flows.advance(p) } else { 0 };
        self.fold(p, delta);
    }
}

/// Per-connection summary rows — the paper's per-connection view of the
/// iPad and Netflix sessions (§5.1.3, §5.2.2): one [`ConnectionSummary`]
/// per connection, updated per packet; also the folds' flow table.
#[derive(Clone, Debug, Default)]
pub struct SummariesFold {
    /// Sorted by connection id.
    rows: Vec<ConnectionSummary>,
    /// Row of the previous packet's connection: packets come in long
    /// per-connection runs, so one compare answers almost every lookup.
    last: usize,
}

impl SummariesFold {
    /// An empty summaries fold.
    pub fn new() -> Self {
        SummariesFold::default()
    }

    /// Counts `p` into its connection's row and returns the bytes it newly
    /// covers: how far it lifts the connection's sequence high-water mark
    /// (0 for a retransmission, a duplicate, an ACK or an outgoing packet).
    #[inline]
    pub fn advance(&mut self, p: &TapPacket) -> u64 {
        if self.rows.get(self.last).is_none_or(|r| r.conn != p.conn) {
            self.last = self.find_or_insert(p);
        }
        let r = &mut self.rows[self.last];
        r.last_seen = p.at;
        r.packets += 1;
        if !p.is_incoming_data() {
            return 0;
        }
        // Server sequence space starts at zero, so the unique byte count is
        // also the connection's contiguous high-water mark.
        let delta = p.seq_end().saturating_sub(r.unique_bytes);
        r.unique_bytes += delta;
        delta
    }

    /// `p`'s row, inserted if new: the miss path of [`advance`](Self::advance).
    #[cold]
    fn find_or_insert(&mut self, p: &TapPacket) -> usize {
        self.rows.binary_search_by_key(&p.conn, |r| r.conn).unwrap_or_else(|i| {
            let row = ConnectionSummary {
                conn: p.conn,
                first_seen: p.at,
                last_seen: p.at,
                unique_bytes: 0,
                packets: 0,
            };
            self.rows.insert(i, row);
            i
        })
    }

    /// The per-connection summary rows, ordered by connection id.
    pub fn finish(self) -> Vec<ConnectionSummary> {
        self.rows
    }

    /// Heap bytes held by the fold.
    pub fn approx_bytes(&self) -> usize {
        self.rows.capacity() * size_of::<ConnectionSummary>()
    }
}

impl PacketSink for SummariesFold {
    fn packet(&mut self, p: &TapPacket) {
        self.advance(p);
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

/// The wire-side estimate of an ABR session's bitrate-switch count, read
/// off its per-connection summaries: the DASH client fetches one segment
/// per fresh connection, so each connection's unique incoming byte total is
/// (close to) one ladder rung's segment size. Classifies each connection to
/// its nearest rung of `ladder` (ascending bits per second) at `segment_ms`
/// playback per segment, in connection-id order (the request order), and
/// counts rung changes. Empty connections (zero unique bytes — e.g. a
/// capture-truncated handshake) are skipped.
pub fn switch_counts_of(
    summaries: &[ConnectionSummary],
    ladder: &[u64],
    segment_ms: u64,
) -> SwitchCounts {
    let mut out = SwitchCounts::default();
    let mut prev: Option<usize> = None;
    for s in summaries.iter().filter(|s| s.unique_bytes > 0) {
        let rung = nearest_rung(ladder, segment_ms, s.unique_bytes);
        out.segments += 1;
        if prev.is_some_and(|p| p != rung) {
            out.switches += 1;
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
    cum: u64,
    /// The first data packet's time; `None` until data has arrived.
    first_data: Option<SimTime>,
    last_advance: Option<SimTime>,
    /// `(cum at on_start, cum at close)` per closed raw cycle, detector-aligned.
    checkpoints: Vec<(u64, u64)>,
    /// The open cycle's checkpoint so far, once data has arrived.
    open: (u64, u64),
}

/// The combined ON/OFF · phases · ack-clock fold: one shared
/// `CycleDetector` pass producing the cycle analysis, the phase
/// decomposition (the buffering phase ends where the first OFF period
/// starts; the steady-state rate is the unique bytes after it over the time
/// after it) and the bytes arriving within one RTT of each steady-state ON
/// period's start.
pub struct AnalysisFold {
    config: AnalysisConfig,
    detector: CycleDetector,
    want_phases: bool,
    /// Its own flow table when standalone with phases; empty under a shared one.
    flows: SummariesFold,
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
            flows: SummariesFold::new(),
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

    /// Folds `p`, which newly covers `delta` bytes ([`SummariesFold::advance`];
    /// only the phase decomposition reads it).
    #[inline]
    pub fn fold(&mut self, p: &TapPacket, delta: u64) {
        if !p.is_incoming_data() {
            return;
        }
        let payload = p.payload as u64;
        let (started, on_start) = self
            .detector
            .data(p.at, payload, self.config.idle_threshold);
        if self.want_phases {
            let ph = &mut self.phase;
            if started && ph.first_data.is_some() {
                ph.checkpoints.push(ph.open);
            }
            ph.first_data.get_or_insert(p.at);
            if delta > 0 {
                ph.cum += delta;
                ph.last_advance = Some(p.at);
            }
            ph.open.1 = ph.cum;
            if p.at == on_start {
                ph.open.0 = ph.cum;
            }
        }
        if let Some(rtt) = self.ack_rtt {
            if p.at.duration_since(on_start) < rtt {
                self.recorded.push((p.at, payload));
            }
        }
    }

    /// Closes the detection state and produces the analysis results.
    pub fn finish(mut self) -> AnalysisOutput {
        let (raw_cycles, raw_offs) = self.detector.into_raw();
        if self.phase.first_data.is_some() {
            self.phase.checkpoints.push(self.phase.open);
        }
        let onoff = OnOffAnalysis::filter_raw(raw_cycles.clone(), raw_offs, &self.config);

        let phases = self.want_phases.then(|| {
            let start = self.phase.first_data.unwrap_or(SimTime::ZERO);
            let total_bytes = self.phase.cum;
            let end = self.phase.last_advance.unwrap_or(start);
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
            // One cursor over the recorded subset (which contains every
            // countable packet): packets are chronological, so each is
            // visited once and counts toward at most one cycle.
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
            + self.flows.approx_bytes()
            + self.phase.checkpoints.capacity() * size_of::<(u64, u64)>()
            + self.recorded.capacity() * size_of::<(SimTime, u64)>()
    }
}

impl PacketSink for AnalysisFold {
    fn packet(&mut self, p: &TapPacket) {
        let d = if self.want_phases && p.is_incoming_data() { self.flows.advance(p) } else { 0 };
        self.fold(p, d);
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
    use vstream_tcp::SackBlocks;
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

    /// A small but busy trace, hand-computable: a 50 kB burst on connection
    /// 0 over 10..=59 ms with an ACK 10 µs behind each segment, then four
    /// 10-segment blocks a second apart, alternating between connections 0
    /// and 1. The second block carries one retransmission 30 µs after its
    /// fourth segment, which shifts every later timestamp by as much.
    /// Sequence numbers run on across both connections, so connection 1's
    /// first segment alone lifts its high-water mark to 63 200: connection
    /// 0 ends at 86 000 unique bytes, connection 1 at 98 000.
    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(10);
        let mut seq = 0u64;
        for _ in 0..50 {
            t.push(now, TapDirection::Incoming, seg(0, seq, 1000));
            t.push(now + SimDuration::from_micros(10), TapDirection::Outgoing, seg(0, 0, 0));
            seq += 1000;
            now += SimDuration::from_millis(1);
        }
        for cycle in 0..4u64 {
            now += SimDuration::from_secs(1);
            for i in 0..10u64 {
                let conn = (cycle % 2) as u32;
                t.push(now, TapDirection::Incoming, seg(conn, seq, 1200));
                if cycle == 1 && i == 3 {
                    let mut rx = seg(conn, seq, 1200);
                    rx.retx = true;
                    now += SimDuration::from_micros(30);
                    t.push(now, TapDirection::Incoming, rx);
                }
                seq += 1200;
                now += SimDuration::from_millis(1);
            }
        }
        t
    }

    /// `sink` after the whole capture has been replayed into it.
    fn fed<S: PacketSink>(trace: &Trace, mut sink: S) -> S {
        trace.replay(&mut sink);
        sink
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Two new segments and a retransmission of the first.
    fn retransmitting_trace() -> Trace {
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Incoming, seg(1, 0, 1000));
        t.push(at(20), TapDirection::Incoming, seg(1, 1000, 1000));
        let mut rx = seg(1, 0, 1000);
        rx.retx = true;
        t.push(at(30), TapDirection::Incoming, rx);
        t
    }

    #[test]
    fn download_fold_matches_downsampled_series() {
        // The first point, then the first point 20 ms or more after the
        // last one kept (three in the burst, one per block), then the last.
        let series = fed(&sample_trace(), DownloadFold::new(SimDuration::from_millis(20))).finish();
        assert_eq!(
            series,
            [
                (0.01, 0.001),
                (0.03, 0.021),
                (0.05, 0.041),
                (1.06, 0.0512),
                (2.07, 0.1252),
                (3.08003, 0.1492),
                (4.09003, 0.1732),
                (4.09903, 0.184),
            ]
        );
    }

    #[test]
    fn download_fold_accumulates_unique_bytes() {
        // A zero step keeps every point; the retransmission adds none.
        let series = fed(&retransmitting_trace(), DownloadFold::new(SimDuration::ZERO)).finish();
        assert_eq!(
            series,
            [(at(10), 1000u64), (at(20), 2000)].map(|(t, b)| (t.as_secs_f64(), b as f64 / 1e6))
        );
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Incoming, seg(1, 0, 500));
        t.push(at(20), TapDirection::Incoming, seg(2, 0, 700));
        t.push(at(30), TapDirection::Outgoing, seg(1, 0, 800));
        // Connections sum; outgoing payload is not download.
        let series = fed(&t, DownloadFold::new(SimDuration::ZERO)).finish();
        assert_eq!(series.last(), Some(&(at(20).as_secs_f64(), 1200.0 / 1e6)));
    }

    #[test]
    fn totals_fold_pins_the_sample_capture() {
        let t = sample_trace();
        let totals = fed(&t, TotalsFold::new()).finish();
        assert_eq!(totals.packets, 50 + 50 + 41);
        assert_eq!(totals.total_downloaded, 86_000 + 98_000);
        assert_eq!(totals.total_downloaded, t.total_downloaded());
        assert_eq!(totals.total_raw_downloaded, 50_000 + 41 * 1200);
        assert_eq!(totals.retransmission_rate, 1.0 / 91.0);
        assert_eq!(totals.duration, SimDuration::from_micros(4_089_030));
    }

    #[test]
    fn totals_fold_counts_marked_retransmissions() {
        let totals = fed(&retransmitting_trace(), TotalsFold::new()).finish();
        assert_eq!(totals.total_downloaded, 2000);
        assert_eq!(totals.total_raw_downloaded, 3000);
        assert!((totals.retransmission_rate - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn totals_fold_duration_spans_first_to_last_packet() {
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Incoming, seg(1, 0, 100));
        t.push(at(50), TapDirection::Outgoing, seg(1, 0, 0));
        let totals = fed(&t, TotalsFold::new()).finish();
        assert_eq!(totals.duration, SimDuration::from_millis(40));
    }

    #[test]
    fn totals_fold_ignores_outgoing_payload() {
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Outgoing, seg(1, 0, 800));
        let totals = fed(&t, TotalsFold::new()).finish();
        assert_eq!((totals.total_downloaded, totals.total_raw_downloaded), (0, 0));
        assert_eq!(totals.retransmission_rate, 0.0);
    }

    #[test]
    fn summaries_fold_pins_the_sample_capture() {
        let us = SimTime::from_micros;
        let row = |conn, first_seen, last_seen, unique_bytes, packets| ConnectionSummary {
            conn,
            first_seen,
            last_seen,
            unique_bytes,
            packets,
        };
        assert_eq!(
            fed(&sample_trace(), SummariesFold::new()).finish(),
            [
                row(0, at(10), us(3_089_030), 86_000, 120),
                row(1, at(2_070), us(4_099_030), 98_000, 21),
            ]
        );
    }

    #[test]
    fn summaries_fold_splits_by_conn() {
        let mut t = Trace::new();
        t.push(at(10), TapDirection::Incoming, seg(1, 0, 500));
        t.push(at(20), TapDirection::Outgoing, seg(1, 0, 0));
        t.push(at(30), TapDirection::Incoming, seg(2, 0, 800));
        let s = fed(&t, SummariesFold::new()).finish();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].conn, 1);
        assert_eq!(s[0].unique_bytes, 500);
        assert_eq!(s[0].packets, 2);
        assert_eq!(s[1].unique_bytes, 800);
        assert_eq!(s[0].first_seen, at(10));
        assert_eq!(s[0].last_seen, at(20));
    }

    /// The last-hit memo of the flow table is only a shortcut: packets
    /// alternating between connections whose ids arrive in no order (so
    /// inserts land below, at and above the remembered row) fold to the
    /// same per-connection byte and packet counts as were pushed, whether
    /// the table sees every packet or, as a standalone totals fold's own
    /// table does, the incoming data packets only.
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
        let counts = |rows: &[ConnectionSummary]| -> Vec<_> {
            rows.iter().map(|s| (s.conn, s.unique_bytes, s.packets)).collect()
        };
        // Connections 0, 2, 5, 7, 9 sent 2, 3, 4, 3, 3 segments, one ACK each.
        let segments = [(0, 2), (2, 3), (5, 4), (7, 3), (9, 3)];
        let totals = fed(&t, TotalsFold::new());
        assert_eq!(
            counts(&totals.flows.rows),
            segments.map(|(c, n)| (c, seq[c as usize], n))
        );
        assert_eq!(totals.finish().total_downloaded, seq.iter().sum::<u64>());
        assert_eq!(
            counts(&fed(&t, SummariesFold::new()).finish()),
            segments.map(|(c, n)| (c, seq[c as usize], 2 * n))
        );
    }

    #[test]
    fn window_and_throughput_folds_pin_the_sample_capture() {
        let t = sample_trace();
        // One ACK 10 µs behind each segment of the burst.
        let window: Vec<_> =
            (0..50).map(|i| (SimTime::from_micros(10_010 + 1_000 * i), 65_535)).collect();
        assert_eq!(fed(&t, WindowFold::new(0)).finish(), window);
        assert!(fed(&t, WindowFold::new(1)).finish().is_empty());

        // Half-second bins anchored at 10 ms: the burst, then a block in
        // every other bin.
        let bin = SimDuration::from_millis(500);
        let timeline: Vec<_> = (0u64..)
            .zip([50_000u64, 0, 12_000, 0, 13_200, 0, 12_000, 0, 12_000])
            .map(|(i, bytes)| (at(10 + 500 * i), bytes as f64 * 8.0 / 0.5))
            .collect();
        assert_eq!(fed(&t, ThroughputFold::new(bin)).finish(), timeline);
    }

    #[test]
    fn window_fold_reads_outgoing_acks() {
        let mut t = Trace::new();
        // The connection's own SYN carries no ACK flag: excluded.
        let mut syn = seg(1, 0, 0);
        (syn.syn, syn.ack) = (true, false);
        t.push(at(2), TapDirection::Outgoing, syn);
        let mut a = seg(1, 0, 0);
        a.window = 256_000;
        t.push(at(5), TapDirection::Outgoing, a);
        // The server's ACKs advertise the server's window: excluded.
        t.push(at(10), TapDirection::Incoming, seg(1, 0, 0));
        let mut b = seg(1, 0, 0);
        b.window = 0;
        t.push(at(15), TapDirection::Outgoing, b);
        // A different connection's ACK is excluded.
        t.push(at(25), TapDirection::Outgoing, seg(2, 0, 0));
        let series = fed(&t, WindowFold::new(1)).finish();
        assert_eq!(series, vec![(at(5), 256_000), (at(15), 0)]);
    }

    #[test]
    fn throughput_fold_bins_bytes() {
        let mut t = Trace::new();
        // 2000 bytes in the first second, 1000 in the third.
        t.push(at(100), TapDirection::Incoming, seg(1, 0, 1000));
        t.push(at(600), TapDirection::Incoming, seg(1, 1000, 1000));
        t.push(at(2500), TapDirection::Incoming, seg(1, 2000, 1000));
        let tl = fed(&t, ThroughputFold::new(SimDuration::from_secs(1))).finish();
        assert_eq!(tl.len(), 3);
        assert!((tl[0].1 - 16_000.0).abs() < 1e-9); // 2000 B/s = 16 kbps
        assert_eq!(tl[1].1, 0.0);
        assert!((tl[2].1 - 8_000.0).abs() < 1e-9);
    }

    #[test]
    fn analysis_fold_matches_trace_analysis() {
        let t = sample_trace();
        let us = SimTime::from_micros;
        let rtt = SimDuration::from_millis(30);
        let fold = AnalysisFold::new(AnalysisConfig::default()).with_phases().with_ack_clock(rtt);
        let out = fed(&t, fold).finish();
        let cycle = |on_start, on_end, bytes, packets| Cycle { on_start, on_end, bytes, packets };
        assert_eq!(
            out.onoff.cycles,
            [
                cycle(at(10), at(59), 50_000, 50),
                cycle(at(1_060), at(1_069), 12_000, 10),
                cycle(at(2_070), us(2_079_030), 13_200, 11),
                cycle(us(3_080_030), us(3_089_030), 12_000, 10),
                cycle(us(4_090_030), us(4_099_030), 12_000, 10),
            ]
        );
        assert_eq!(
            out.onoff.off_periods,
            [
                (at(59), at(1_060)),
                (at(1_069), at(2_070)),
                (us(2_079_030), us(3_080_030)),
                (us(3_089_030), us(4_090_030)),
            ]
        );

        let phases = out.phases.unwrap();
        assert_eq!(phases.start, at(10));
        assert_eq!(phases.buffering_end, Some(at(59)));
        assert_eq!(phases.buffering_bytes, 50_000);
        assert_eq!(phases.total_bytes, 184_000);
        assert_eq!(phases.duration, SimDuration::from_micros(4_089_030));
        assert_eq!(
            phases.steady_state_rate_bps,
            Some(134_000.0 * 8.0 / SimDuration::from_micros(4_040_030).as_secs_f64())
        );

        assert_eq!(out.first_rtt_bytes.unwrap(), [12_000, 13_200, 12_000, 12_000]);
    }

    /// The switch estimate over the summaries fold's rows.
    fn switch_counts(trace: &Trace, ladder: &[u64], segment_ms: u64) -> SwitchCounts {
        switch_counts_of(&fed(trace, SummariesFold::new()).finish(), ladder, segment_ms)
    }

    #[test]
    fn switch_counts_classify_rungs_from_unique_bytes() {
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
                now += SimDuration::from_micros(400);
            }
            now += SimDuration::from_secs(2);
        }
        assert_eq!(switch_counts(&t, &ladder, seg_ms), SwitchCounts { segments: 3, switches: 1 });
        // A retransmission-riddled final segment still lands on its rung:
        // classification reads unique bytes, not raw bytes.
        let mut rx = seg(2, 0, 1448);
        rx.retx = true;
        t.push(now, TapDirection::Incoming, rx);
        assert_eq!(switch_counts(&t, &ladder, seg_ms).switches, 1);
    }

    #[test]
    fn switch_counts_tie_goes_to_the_lower_rung() {
        // Rungs expect 175 000 and 500 000 bytes per 4 s segment; 337 500
        // is equidistant from both, so it stays on rung 0 and the session
        // never switches. One byte more lands on rung 1 and back again.
        let ladder = [350_000u64, 1_000_000];
        for (middle, switches) in [(337_500u32, 0u64), (337_501, 2)] {
            let mut t = Trace::new();
            for (conn, size) in [175_000u32, middle, 175_000].into_iter().enumerate() {
                t.push(at(conn as u64), TapDirection::Incoming, seg(conn as u32, 0, size));
            }
            assert_eq!(
                switch_counts(&t, &ladder, 4_000),
                SwitchCounts { segments: 3, switches },
                "middle segment {middle} B"
            );
        }
    }

    #[test]
    fn switch_counts_skip_empty_connections_and_empty_streams() {
        let ladder = [350_000u64, 1_000_000];
        assert_eq!(switch_counts(&Trace::new(), &ladder, 4_000), SwitchCounts::default());
        // A connection with only an outgoing handshake never classifies.
        let mut t = Trace::new();
        t.push(at(1), TapDirection::Outgoing, seg(0, 0, 0));
        t.push(at(2), TapDirection::Incoming, seg(1, 0, 175_000));
        assert_eq!(
            switch_counts(&t, &ladder, 4_000),
            SwitchCounts { segments: 1, switches: 0 }
        );
    }

    #[test]
    fn empty_stream_is_degenerate_everywhere() {
        let fold = AnalysisFold::new(AnalysisConfig::default()).with_phases();
        let out = fed(&Trace::new(), fold).finish();
        assert!(out.onoff.cycles.is_empty());
        assert_eq!(out.phases.unwrap().total_bytes, 0);
        assert_eq!(TotalsFold::new().finish(), CaptureTotals::default());
        assert!(DownloadFold::new(SimDuration::from_secs(1)).finish().is_empty());
        assert!(ThroughputFold::new(SimDuration::from_secs(1)).finish().is_empty());
    }
}
