//! The ack-clock test of §5.1.5 (Fig. 9).
//!
//! TCP normally paces data by acknowledgements: after an idle period a
//! sender that honours RFC 5681 §4.1 restarts from a small window, so only a
//! few segments arrive in the first round-trip of an ON period. The paper
//! measures *the amount of data received during the first RTT of each ON
//! period* as a conservative estimate of the sender's congestion window at
//! the start of the burst — and finds entire blocks arriving back-to-back,
//! i.e. no ack clock.

use vstream_capture::Trace;
use vstream_sim::SimDuration;

use crate::fold::AnalysisFold;
use crate::onoff::AnalysisConfig;

/// For each ON period that follows an OFF period, the payload bytes that
/// arrived within one `rtt` of the ON period's first packet.
///
/// The first cycle (buffering phase) is excluded: its burst is ack-clocked
/// slow start by construction and the paper's figure concerns the steady
/// state.
pub fn first_rtt_bytes(trace: &Trace, config: &AnalysisConfig, rtt: SimDuration) -> Vec<u64> {
    let mut fold = AnalysisFold::new(config.clone()).with_ack_clock(rtt);
    trace.replay(&mut fold);
    fold.finish().first_rtt_bytes.expect("ack clock requested")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_capture::TapDirection;
    use vstream_sim::SimTime;
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

    /// Cycles where `head` packets arrive back-to-back and `tail` packets
    /// arrive one RTT later.
    fn trace(cycles: usize, head: usize, tail: usize, rtt_ms: u64) -> Trace {
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(5);
        let mut seq = 0u64;
        // Buffering burst.
        for _ in 0..100 {
            t.push(now, TapDirection::Incoming, seg(seq, 1000));
            seq += 1000;
            now += SimDuration::from_micros(50);
        }
        for _ in 0..cycles {
            now += SimDuration::from_secs(2);
            for _ in 0..head {
                t.push(now, TapDirection::Incoming, seg(seq, 1000));
                seq += 1000;
                now += SimDuration::from_micros(50);
            }
            // Remaining packets arrive after one RTT (ack-clocked).
            now += SimDuration::from_millis(rtt_ms);
            for _ in 0..tail {
                t.push(now, TapDirection::Incoming, seg(seq, 1000));
                seq += 1000;
                now += SimDuration::from_micros(50);
            }
        }
        t
    }

    #[test]
    fn measures_back_to_back_head_of_each_cycle() {
        // 4 packets back-to-back, 40 more an RTT later.
        let t = trace(5, 4, 40, 30);
        let bytes = first_rtt_bytes(&t, &AnalysisConfig::default(), SimDuration::from_millis(30));
        assert_eq!(bytes.len(), 5);
        for b in bytes {
            assert_eq!(b, 4_000, "only the head burst is within the first RTT");
        }
    }

    #[test]
    fn whole_block_within_rtt_means_no_ack_clock() {
        // All 44 packets back-to-back: the whole block lands in the first
        // RTT — the signature of Fig. 9.
        let t = trace(5, 44, 0, 30);
        let bytes = first_rtt_bytes(&t, &AnalysisConfig::default(), SimDuration::from_millis(30));
        assert_eq!(bytes.len(), 5);
        for b in bytes {
            assert_eq!(b, 44_000);
        }
    }

    #[test]
    fn buffering_phase_is_excluded() {
        let t = trace(3, 10, 0, 30);
        let bytes = first_rtt_bytes(&t, &AnalysisConfig::default(), SimDuration::from_millis(30));
        // Three steady-state cycles, not four.
        assert_eq!(bytes.len(), 3);
    }

    #[test]
    fn bulk_transfer_yields_no_samples() {
        let t = trace(0, 0, 0, 30);
        assert!(first_rtt_bytes(&t, &AnalysisConfig::default(), SimDuration::from_millis(30)).is_empty());
    }
}
