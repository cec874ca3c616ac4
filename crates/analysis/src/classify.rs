//! Streaming-strategy classification (§3 of the paper).

use vstream_capture::Trace;

use crate::onoff::{AnalysisConfig, OnOffAnalysis};
use crate::stats::Cdf;

/// The three streaming strategies the paper identifies, plus the mixed
/// behaviour observed on the iPad (§5.1.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Bulk TCP transfer: everything downloaded in one buffering phase.
    NoOnOff,
    /// Periodic blocks of at most 2.5 MB.
    ShortCycles,
    /// Periodic blocks larger than 2.5 MB.
    LongCycles,
    /// Both short and long cycles within one session (iPad behaviour).
    Mixed,
}

impl Strategy {
    /// The abbreviation used in Table 1 of the paper.
    pub fn table_label(self) -> &'static str {
        match self {
            Strategy::NoOnOff => "No",
            Strategy::ShortCycles => "Short",
            Strategy::LongCycles => "Long",
            Strategy::Mixed => "Multiple",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Strategy::NoOnOff => "no ON-OFF cycles",
            Strategy::ShortCycles => "short ON-OFF cycles",
            Strategy::LongCycles => "long ON-OFF cycles",
            Strategy::Mixed => "combination of ON-OFF strategies",
        };
        f.write_str(name)
    }
}

/// Classifies a session capture into one of the streaming strategies.
///
/// Rules, following §3:
/// * no OFF period over the whole session → [`Strategy::NoOnOff`];
/// * otherwise, by steady-state block size against the 2.5 MB boundary —
///   median below and 90th percentile above → [`Strategy::Mixed`], median
///   above → [`Strategy::LongCycles`], else [`Strategy::ShortCycles`].
pub fn classify(trace: &Trace, config: &AnalysisConfig) -> Strategy {
    let analysis = OnOffAnalysis::from_trace(trace, config);
    classify_analysis(&analysis, config)
}

/// Classifies an already-computed cycle analysis.
pub fn classify_analysis(analysis: &OnOffAnalysis, config: &AnalysisConfig) -> Strategy {
    if !analysis.has_off_periods() {
        return Strategy::NoOnOff;
    }
    let blocks = analysis.steady_state_block_sizes();
    if blocks.is_empty() {
        // A single trailing OFF period with no further data (e.g. capture
        // cut right at a pause) — treat as bulk.
        return Strategy::NoOnOff;
    }
    let cdf = Cdf::new(blocks.iter().map(|&b| b as f64).collect());
    let boundary = config.long_block_bytes as f64;
    let median = cdf.median();
    let p90 = cdf.quantile(0.9);
    if median > boundary {
        Strategy::LongCycles
    } else if p90 > boundary {
        Strategy::Mixed
    } else {
        Strategy::ShortCycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_capture::TapDirection;
    use vstream_sim::{SimDuration, SimTime};
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

    /// Trace with an initial buffering burst then blocks of the given sizes
    /// (bytes), one second apart.
    fn trace_with_blocks(block_sizes: &[u64]) -> Trace {
        let mut t = Trace::new();
        let mut now = SimTime::from_millis(10);
        let mut seq = 0u64;
        // Buffering burst: 2 MB.
        for _ in 0..2000 {
            t.push(now, TapDirection::Incoming, seg(seq, 1000));
            seq += 1000;
            now += SimDuration::from_micros(80);
        }
        for &b in block_sizes {
            now += SimDuration::from_secs(1);
            let mut remaining = b;
            while remaining > 0 {
                let chunk = remaining.min(1460) as u32;
                t.push(now, TapDirection::Incoming, seg(seq, chunk));
                seq += chunk as u64;
                remaining -= chunk as u64;
                now += SimDuration::from_micros(120);
            }
        }
        t
    }

    #[test]
    fn bulk_is_no_onoff() {
        let t = trace_with_blocks(&[]);
        assert_eq!(classify(&t, &AnalysisConfig::default()), Strategy::NoOnOff);
    }

    #[test]
    fn small_blocks_are_short_cycles() {
        let t = trace_with_blocks(&[64_000; 20]);
        assert_eq!(classify(&t, &AnalysisConfig::default()), Strategy::ShortCycles);
    }

    #[test]
    fn large_blocks_are_long_cycles() {
        let t = trace_with_blocks(&[5_000_000; 6]);
        assert_eq!(classify(&t, &AnalysisConfig::default()), Strategy::LongCycles);
    }

    #[test]
    fn boundary_blocks_are_short() {
        // Exactly 2.5 MB is "not larger than 2.5 MB".
        let t = trace_with_blocks(&[2_500_000; 8]);
        assert_eq!(classify(&t, &AnalysisConfig::default()), Strategy::ShortCycles);
    }

    #[test]
    fn mixture_is_detected() {
        let blocks: Vec<u64> = vec![
            64_000, 64_000, 64_000, 64_000, 64_000, 64_000, 64_000,
            8_000_000, 8_000_000, 8_000_000,
        ];
        let t = trace_with_blocks(&blocks);
        assert_eq!(classify(&t, &AnalysisConfig::default()), Strategy::Mixed);
    }

    #[test]
    fn table_labels_match_paper() {
        assert_eq!(Strategy::NoOnOff.table_label(), "No");
        assert_eq!(Strategy::ShortCycles.table_label(), "Short");
        assert_eq!(Strategy::LongCycles.table_label(), "Long");
        assert_eq!(Strategy::Mixed.table_label(), "Multiple");
    }

    #[test]
    fn display_is_descriptive() {
        assert_eq!(Strategy::ShortCycles.to_string(), "short ON-OFF cycles");
    }
}
