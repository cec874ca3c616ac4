//! Phase decomposition: buffering phase, steady-state rate, and accumulation
//! ratio.
//!
//! The paper's §4/§5 methodology: *"we consider the start time of the first
//! OFF period as the end of the buffering phase"*; the accumulation ratio is
//! the ratio of the average download rate during the steady-state phase to
//! the video encoding rate.

use vstream_capture::Trace;
use vstream_sim::{SimDuration, SimTime};

use crate::fold::AnalysisFold;
use crate::onoff::AnalysisConfig;

/// Phase metrics extracted from one streaming-session capture.
#[derive(Clone, Debug)]
pub struct SessionPhases {
    /// Time of the first data packet.
    pub start: SimTime,
    /// End of the buffering phase (start of the first OFF period), if a
    /// steady state exists.
    pub buffering_end: Option<SimTime>,
    /// Unique bytes downloaded during the buffering phase (total download if
    /// no steady state exists).
    pub buffering_bytes: u64,
    /// Average unique-byte download rate in the steady state, bits per
    /// second.
    pub steady_state_rate_bps: Option<f64>,
    /// Total unique bytes downloaded over the whole capture.
    pub total_bytes: u64,
    /// Capture duration (first to last data packet).
    pub duration: SimDuration,
}

impl SessionPhases {
    /// Decomposes a capture into buffering and steady-state phases.
    pub fn from_trace(trace: &Trace, config: &AnalysisConfig) -> Self {
        let mut fold = AnalysisFold::new(config.clone()).with_phases();
        trace.replay(&mut fold);
        fold.finish().phases.expect("phases requested")
    }

    /// True if the session has a steady-state phase (i.e. is not a bulk
    /// transfer).
    pub fn has_steady_state(&self) -> bool {
        self.buffering_end.is_some()
    }

    /// The accumulation ratio: steady-state download rate over the video
    /// encoding rate (§3). `None` for sessions without a steady state.
    pub fn accumulation_ratio(&self, encoding_rate_bps: f64) -> Option<f64> {
        assert!(encoding_rate_bps > 0.0, "encoding rate must be positive");
        self.steady_state_rate_bps.map(|r| r / encoding_rate_bps)
    }

    /// Buffered playback time: buffering bytes expressed in seconds of video
    /// at the given encoding rate — the x-axis of Fig. 3(a).
    pub fn buffered_playback_time(&self, encoding_rate_bps: f64) -> f64 {
        assert!(encoding_rate_bps > 0.0, "encoding rate must be positive");
        self.buffering_bytes as f64 * 8.0 / encoding_rate_bps
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

    /// Buffering burst of `buffer_kb` kB, then `cycles` blocks of `block_kb`
    /// kB every `period_ms`.
    fn session_trace(buffer_kb: u64, cycles: usize, block_kb: u64, period_ms: u64) -> Trace {
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(100);
        let mut seq = 0u64;
        for _ in 0..buffer_kb {
            t.push(now, TapDirection::Incoming, seg(seq, 1000));
            seq += 1000;
            now += SimDuration::from_micros(100);
        }
        for _ in 0..cycles {
            now += SimDuration::from_millis(period_ms);
            for _ in 0..block_kb {
                t.push(now, TapDirection::Incoming, seg(seq, 1000));
                seq += 1000;
                now += SimDuration::from_micros(100);
            }
        }
        t
    }

    #[test]
    fn bulk_transfer_has_no_steady_state() {
        let trace = session_trace(1000, 0, 0, 0);
        let p = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        assert!(!p.has_steady_state());
        assert_eq!(p.buffering_bytes, 1_000_000);
        assert_eq!(p.total_bytes, 1_000_000);
        assert!(p.steady_state_rate_bps.is_none());
        assert!(p.accumulation_ratio(1e6).is_none());
    }

    #[test]
    fn buffering_phase_ends_at_first_off() {
        let trace = session_trace(500, 10, 64, 400);
        let p = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        assert!(p.has_steady_state());
        assert_eq!(p.buffering_bytes, 500_000);
        assert_eq!(p.total_bytes, 500_000 + 10 * 64_000);
        // Buffering took 500 packets * 100 us = 50 ms.
        let bd = p.buffering_end.unwrap().duration_since(p.start);
        assert!(bd >= SimDuration::from_millis(49) && bd <= SimDuration::from_millis(51));
    }

    #[test]
    fn steady_state_rate_matches_block_schedule() {
        // 64 kB every 400 ms = 1.28 Mbps.
        let trace = session_trace(500, 20, 64, 400);
        let p = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        let rate = p.steady_state_rate_bps.unwrap();
        assert!(
            (rate - 1_280_000.0).abs() / 1_280_000.0 < 0.05,
            "rate = {rate}"
        );
    }

    #[test]
    fn accumulation_ratio_against_encoding_rate() {
        let trace = session_trace(500, 20, 64, 400);
        let p = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        // Encoding rate 1.024 Mbps -> ratio = 1.28/1.024 = 1.25.
        let k = p.accumulation_ratio(1_024_000.0).unwrap();
        assert!((k - 1.25).abs() < 0.07, "k = {k}");
    }

    #[test]
    fn buffered_playback_time_converts_units() {
        let trace = session_trace(500, 5, 64, 400);
        let p = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        // 500 kB at 1 Mbps = 4 s of playback.
        let secs = p.buffered_playback_time(1_000_000.0);
        assert!((secs - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_degenerate() {
        let p = SessionPhases::from_trace(&Trace::new(), &AnalysisConfig::default());
        assert_eq!(p.total_bytes, 0);
        assert!(!p.has_steady_state());
    }
}
