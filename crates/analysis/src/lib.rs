//! Trace analysis: the paper's measurement methodology, implemented against
//! simulated captures.
//!
//! Given a [`vstream_capture::Trace`], this crate reconstructs everything
//! Section 5 of the paper reports:
//!
//! * **ON/OFF cycles** ([`OnOffAnalysis`]) — idle-gap detection over the incoming
//!   data stream, yielding per-cycle block sizes and OFF durations.
//! * **Phases** ([`SessionPhases`]) — the buffering phase (start of capture to the
//!   first OFF period, exactly the heuristic the paper uses and whose
//!   loss-sensitivity it discusses), the steady-state download rate, and the
//!   accumulation ratio.
//! * **Strategy classification** ([`classify()`]) — the three streaming
//!   strategies, using the paper's 2.5 MB block-size boundary.
//! * **Ack-clock test** ([`first_rtt_bytes`]) — bytes arriving
//!   back-to-back within the first RTT of each ON period (Fig. 9).
//! * **Statistics** ([`Cdf`], [`pearson_correlation`]) — empirical CDFs,
//!   quantiles, and the Pearson correlations quoted throughout Section 5.
//!
//! Every reduction is implemented once, as a fold ([`AnalysisFold`] and its
//! siblings): incremental operators behind the
//! [`vstream_capture::PacketSink`] tap that keep per-flow state
//! only (O(flows), not O(packets)) — so figures can be computed without
//! ever materialising a capture. The `from_trace` entry points replay a
//! retained trace into the same folds.

mod ackclock;
mod classify;
mod fold;
mod onoff;
mod phases;
mod stats;

pub use ackclock::first_rtt_bytes;
pub use classify::{classify, classify_analysis, Strategy};
pub use fold::{
    switch_counts_of, AnalysisFold, AnalysisOutput, CaptureTotals, DownloadFold, SummariesFold,
    SwitchCounts, ThroughputFold, TotalsFold, WindowFold,
};
pub use onoff::{AnalysisConfig, Cycle, OnOffAnalysis};
pub use phases::SessionPhases;
pub use stats::{mean, pearson_correlation, variance, Cdf};
