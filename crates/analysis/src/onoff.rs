//! ON/OFF cycle detection.
//!
//! Section 3 of the paper: during the steady-state phase the server (or
//! client) transfers one *block* per cycle; the transfer burst is the ON
//! period and the idle gap until the next burst is the OFF period. This
//! module segments the incoming data stream of a capture into those cycles.
//!
//! Like the paper's own analysis, detection keys on idle gaps in the packet
//! arrival process. A gap longer than [`AnalysisConfig::idle_threshold`]
//! ends the current ON period. The threshold sits well above per-window ACK
//! gaps (an RTT) and below real OFF periods (hundreds of ms to tens of
//! seconds) — but, faithfully to the paper, a retransmission timeout on a
//! lossy path also registers as an OFF boundary, which is exactly the
//! measurement artifact the authors discuss in §5.1.1.

use vstream_capture::Trace;
use vstream_sim::{SimDuration, SimTime};

use crate::fold::AnalysisFold;

/// Parameters of the cycle detector.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AnalysisConfig {
    /// An idle gap longer than this ends an ON period.
    pub idle_threshold: SimDuration,
    /// Blocks larger than this classify a session as *long* ON-OFF cycles
    /// (the paper's 2.5 MB boundary).
    pub(crate) long_block_bytes: u64,
    /// ON periods carrying fewer bytes than this are discarded as transport
    /// artifacts (TCP zero-window probes, keep-alives) rather than
    /// application blocks, and their neighbouring OFF periods are merged.
    pub min_cycle_bytes: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            idle_threshold: SimDuration::from_millis(150),
            long_block_bytes: 2_500_000,
            min_cycle_bytes: 4_096,
        }
    }
}

/// One ON period and the block it carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cycle {
    /// Arrival time of the first packet of the ON period.
    pub on_start: SimTime,
    /// Arrival time of the last packet of the ON period.
    pub on_end: SimTime,
    /// Raw payload bytes transferred during the ON period (including
    /// retransmissions, as a capture-based analysis would count).
    pub bytes: u64,
    /// Number of data packets in the ON period.
    pub packets: u32,
}

/// Result of segmenting a capture into ON/OFF cycles.
#[derive(Clone, Debug, Default)]
pub struct OnOffAnalysis {
    /// The detected ON periods, in time order.
    pub cycles: Vec<Cycle>,
    /// OFF periods as `(start, end)` between consecutive ON periods.
    pub off_periods: Vec<(SimTime, SimTime)>,
}

/// Incremental ON/OFF cycle detector, fed one incoming data packet at a
/// time (by [`AnalysisFold`] behind a live
/// [`PacketSink`](vstream_capture::PacketSink) tap or a replayed capture).
/// `CycleDetector::into_raw` closes the open cycle;
/// [`OnOffAnalysis::filter_raw`] applies the min-cycle filter.
///
/// State is O(cycles), not O(packets).
#[derive(Clone, Debug, Default)]
pub(crate) struct CycleDetector {
    current: Option<Cycle>,
    cycles: Vec<Cycle>,
    off_periods: Vec<(SimTime, SimTime)>,
}

impl CycleDetector {
    /// Feeds the next incoming data packet. Returns whether the packet
    /// opened a new ON period (including the very first packet), and the
    /// start of the ON period it belongs to.
    pub(crate) fn data(&mut self, at: SimTime, payload: u64, idle: SimDuration) -> (bool, SimTime) {
        match self.current.as_mut() {
            None => {
                self.current = Some(Cycle {
                    on_start: at,
                    on_end: at,
                    bytes: payload,
                    packets: 1,
                });
                (true, at)
            }
            Some(c) => {
                if at.duration_since(c.on_end) > idle {
                    self.off_periods.push((c.on_end, at));
                    self.cycles.push(*c);
                    *c = Cycle {
                        on_start: at,
                        on_end: at,
                        bytes: payload,
                        packets: 1,
                    };
                    (true, at)
                } else {
                    c.on_end = at;
                    c.bytes += payload;
                    c.packets += 1;
                    (false, c.on_start)
                }
            }
        }
    }

    /// Closes the open cycle and hands back the raw (unfiltered) cycles and
    /// the OFF periods between them.
    pub(crate) fn into_raw(mut self) -> (Vec<Cycle>, Vec<(SimTime, SimTime)>) {
        if let Some(c) = self.current.take() {
            self.cycles.push(c);
        }
        (self.cycles, self.off_periods)
    }

    /// Heap bytes held by the detector state.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.cycles.capacity() * std::mem::size_of::<Cycle>()
            + self.off_periods.capacity() * std::mem::size_of::<(SimTime, SimTime)>()
    }
}

impl OnOffAnalysis {
    /// Segments the incoming data packets of `trace` (all connections
    /// aggregated, as the viewer's access link sees them) into ON/OFF
    /// cycles.
    pub fn from_trace(trace: &Trace, config: &AnalysisConfig) -> Self {
        let mut fold = AnalysisFold::new(config.clone());
        trace.replay(&mut fold);
        fold.finish().onoff
    }

    /// Applies the artifact filter to raw detected cycles.
    ///
    /// Drops probe/keep-alive artifacts: a "cycle" of a few bytes is a
    /// zero-window probe, not an application block. Its OFF neighbours merge
    /// into one longer OFF period.
    pub fn filter_raw(
        cycles: Vec<Cycle>,
        off_periods: Vec<(SimTime, SimTime)>,
        config: &AnalysisConfig,
    ) -> Self {
        let mut filtered = Vec::with_capacity(cycles.len());
        let mut merged_offs: Vec<(SimTime, SimTime)> = Vec::with_capacity(off_periods.len());
        for (i, c) in cycles.iter().enumerate() {
            let keep = c.bytes >= config.min_cycle_bytes;
            if keep {
                filtered.push(*c);
            }
            // The OFF period following cycle i (if any).
            if i < off_periods.len() {
                let (s, e) = off_periods[i];
                if keep {
                    merged_offs.push((s, e));
                } else if let Some(last) = merged_offs.last_mut() {
                    // Extend the previous OFF across the dropped cycle.
                    last.1 = e;
                } else {
                    // Artifact before any kept cycle: start the OFF at the
                    // dropped cycle's own start.
                    merged_offs.push((c.on_start, e));
                }
            } else if !keep {
                // Trailing dropped cycle: extend the last OFF to its end.
                if let Some(last) = merged_offs.last_mut() {
                    last.1 = c.on_end;
                }
            }
        }
        // An OFF period only exists between two kept cycles; trim any OFF
        // that now dangles past the last kept cycle.
        if let (Some(last_cycle), Some(last_off)) = (filtered.last(), merged_offs.last()) {
            if last_off.0 >= last_cycle.on_end {
                merged_offs.pop();
            }
        }
        if filtered.len() <= 1 {
            merged_offs.clear();
        }
        OnOffAnalysis {
            cycles: filtered,
            off_periods: merged_offs,
        }
    }

    /// True if the session never paused — the *no ON-OFF cycles* signature.
    pub fn has_off_periods(&self) -> bool {
        !self.off_periods.is_empty()
    }

    /// Block sizes of the steady-state cycles (every cycle after the first,
    /// which is the buffering phase).
    pub fn steady_state_block_sizes(&self) -> Vec<u64> {
        self.cycles.iter().skip(1).map(|c| c.bytes).collect()
    }

    /// Durations of the OFF periods.
    pub fn off_durations(&self) -> Vec<SimDuration> {
        self.off_periods
            .iter()
            .map(|&(s, e)| e.duration_since(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_capture::TapDirection;
    use vstream_tcp::SackBlocks;
    use vstream_tcp::Segment;

    fn seg(seq: u64, payload: u32) -> Segment {
        Segment {
            conn: 1,
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

    /// Builds a trace with bursts of `packets_per_burst` packets spaced
    /// `gap_ms` apart, bursts separated by `off_ms`.
    fn bursty_trace(bursts: usize, packets_per_burst: usize, gap_ms: u64, off_ms: u64) -> Trace {
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(10);
        let mut seq = 0u64;
        for _ in 0..bursts {
            for _ in 0..packets_per_burst {
                t.push(now, TapDirection::Incoming, seg(seq, 1000));
                seq += 1000;
                now += SimDuration::from_millis(gap_ms);
            }
            now += SimDuration::from_millis(off_ms);
        }
        t
    }

    #[test]
    fn detects_cycles_and_off_periods() {
        // 4 bursts of 5 packets 1 ms apart, 500 ms OFF between bursts.
        let trace = bursty_trace(4, 5, 1, 500);
        let a = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        assert_eq!(a.cycles.len(), 4);
        assert_eq!(a.off_periods.len(), 3);
        assert!(a.has_off_periods());
        for c in &a.cycles {
            assert_eq!(c.bytes, 5000);
            assert_eq!(c.packets, 5);
        }
        for d in a.off_durations() {
            // The OFF gap includes the trailing inter-packet millisecond.
            assert!(d >= SimDuration::from_millis(500));
            assert!(d <= SimDuration::from_millis(510));
        }
    }

    #[test]
    fn continuous_transfer_is_one_cycle() {
        let trace = bursty_trace(1, 100, 10, 0);
        let a = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        assert_eq!(a.cycles.len(), 1);
        assert!(!a.has_off_periods());
        assert!(a.steady_state_block_sizes().is_empty());
    }

    #[test]
    fn steady_state_blocks_skip_buffering_phase() {
        // First burst (buffering) is larger than the rest.
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(1);
        let mut seq = 0u64;
        for _ in 0..50 {
            t.push(now, TapDirection::Incoming, seg(seq, 1000));
            seq += 1000;
            now += SimDuration::from_millis(1);
        }
        for _ in 0..3 {
            now += SimDuration::from_secs(1);
            for _ in 0..10 {
                t.push(now, TapDirection::Incoming, seg(seq, 1000));
                seq += 1000;
                now += SimDuration::from_millis(1);
            }
        }
        let a = OnOffAnalysis::from_trace(&t, &AnalysisConfig::default());
        assert_eq!(a.cycles.len(), 4);
        assert_eq!(a.steady_state_block_sizes(), vec![10_000, 10_000, 10_000]);
    }

    #[test]
    fn gaps_below_threshold_do_not_split() {
        // 100 ms gaps with a 150 ms threshold: still one cycle.
        let trace = bursty_trace(1, 20, 100, 0);
        let a = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        assert_eq!(a.cycles.len(), 1);
    }

    #[test]
    fn cycle_durations_measure_start_to_start() {
        let trace = bursty_trace(3, 5, 1, 500);
        let a = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        assert_eq!(a.cycles.len(), 3);
        for w in a.cycles.windows(2) {
            assert_eq!(w[1].on_start.duration_since(w[0].on_start), SimDuration::from_millis(505));
        }
    }

    #[test]
    fn probe_artifacts_are_filtered_and_offs_merged() {
        // Bursts with a 1-byte zero-window probe in the middle of each OFF
        // period: the probe must not count as a cycle, and the OFF must span
        // the whole gap.
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(10);
        let mut seq = 0u64;
        for _ in 0..3 {
            for _ in 0..10 {
                t.push(now, TapDirection::Incoming, seg(seq, 1000));
                seq += 1000;
                now += SimDuration::from_millis(1);
            }
            // Probe mid-gap.
            now += SimDuration::from_millis(400);
            t.push(now, TapDirection::Incoming, seg(seq, 1));
            seq += 1;
            now += SimDuration::from_millis(400);
        }
        let a = OnOffAnalysis::from_trace(&t, &AnalysisConfig::default());
        assert_eq!(a.cycles.len(), 3, "probes must not count as cycles");
        assert_eq!(a.off_periods.len(), 2);
        for d in a.off_durations() {
            assert!(d >= SimDuration::from_millis(790), "off = {d}");
        }
    }

    #[test]
    fn min_cycle_filter_can_be_disabled() {
        let mut t = Trace::new();
        t.push(SimTime::from_millis(1), TapDirection::Incoming, seg(0, 1));
        t.push(SimTime::from_secs(1), TapDirection::Incoming, seg(1, 1));
        let cfg = AnalysisConfig {
            min_cycle_bytes: 0,
            ..AnalysisConfig::default()
        };
        let a = OnOffAnalysis::from_trace(&t, &cfg);
        assert_eq!(a.cycles.len(), 2);
    }

    #[test]
    fn empty_trace_yields_empty_analysis() {
        let a = OnOffAnalysis::from_trace(&Trace::new(), &AnalysisConfig::default());
        assert!(a.cycles.is_empty());
        assert!(!a.has_off_periods());
    }

    #[test]
    fn outgoing_acks_are_ignored() {
        let mut t = Trace::new();
        t.push(SimTime::from_millis(1), TapDirection::Incoming, seg(0, 5000));
        // A flurry of outgoing ACKs much later must not register as data.
        t.push(SimTime::from_secs(5), TapDirection::Outgoing, seg(0, 0));
        let a = OnOffAnalysis::from_trace(&t, &AnalysisConfig::default());
        assert_eq!(a.cycles.len(), 1);
        assert_eq!(a.cycles[0].bytes, 5000);
    }
}
