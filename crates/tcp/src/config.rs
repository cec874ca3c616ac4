//! TCP endpoint configuration.

use vstream_sim::SimDuration;

use crate::cc::CcAlgorithm;

/// Maximum segment size (payload bytes per segment) of every endpoint.
pub const MSS: u64 = 1460;

/// Initial congestion window, in segments: between the classic IW3 and
/// Google's IW10 rollout of 2011.
pub(crate) const INITIAL_CWND_SEGMENTS: u64 = 4;

/// Lower bound on the retransmission timeout (Linux).
pub(crate) const MIN_RTO: SimDuration = SimDuration::from_millis(200);

/// Upper bound on the retransmission timeout (with backoff).
pub(crate) const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// The switches and buffer sizes of a TCP [`crate::Endpoint`]; the segment
/// size, initial window and RTO bounds are the constants above.
///
/// Defaults model a 2011-era server stack and — crucially for Fig. 9 of the
/// paper — *no* congestion-window reset after idle periods.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Congestion window ceiling in bytes (stands in for the send-buffer
    /// autotuning limit of a real stack).
    pub max_cwnd: u64,
    /// Receive buffer capacity in bytes; the advertised window can never
    /// exceed this. Window scaling is assumed negotiated, so the full value
    /// is advertised.
    pub recv_buffer: u64,
    /// If true, apply RFC 5681 §4.1: collapse cwnd back to the initial window
    /// after the connection has been idle for one RTO. The paper's traces
    /// show streaming servers did not do this; the ablation bench flips it.
    pub(crate) idle_cwnd_reset: bool,
    /// Negotiate selective acknowledgements (RFC 2018/6675). All 2011-era
    /// stacks did; disabling it degrades loss recovery to NewReno's one hole
    /// per round trip, which the recovery ablation bench quantifies.
    pub sack: bool,
    /// Congestion-control algorithm (Reno default; CUBIC for the ablation).
    pub congestion: CcAlgorithm,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_cwnd: 16 * 1024 * 1024,
            recv_buffer: 256 * 1024,
            idle_cwnd_reset: false,
            sack: true,
            congestion: CcAlgorithm::Reno,
        }
    }
}

impl TcpConfig {
    /// Replaces the receive-buffer capacity.
    pub fn with_recv_buffer(mut self, bytes: u64) -> Self {
        self.recv_buffer = bytes;
        self
    }

    /// Enables or disables the RFC 5681 idle-restart behaviour.
    pub fn with_idle_cwnd_reset(mut self, on: bool) -> Self {
        self.idle_cwnd_reset = on;
        self
    }

    /// Enables or disables SACK.
    pub fn with_sack(mut self, on: bool) -> Self {
        self.sack = on;
        self
    }

    /// Selects the congestion-control algorithm.
    pub fn with_congestion(mut self, algorithm: CcAlgorithm) -> Self {
        self.congestion = algorithm;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics if the congestion window cap or the receive buffer is below
    /// one MSS.
    pub(crate) fn validate(&self) {
        assert!(self.max_cwnd >= MSS, "max_cwnd below one MSS");
        assert!(self.recv_buffer >= MSS, "recv_buffer below one MSS");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        TcpConfig::default().validate();
    }

    #[test]
    fn default_matches_2011_stack() {
        let cfg = TcpConfig::default();
        assert_eq!(MSS, 1460);
        assert_eq!(INITIAL_CWND_SEGMENTS * MSS, 4 * 1460);
        assert!(!cfg.idle_cwnd_reset);
        assert!(cfg.sack);
        assert_eq!(MIN_RTO, SimDuration::from_millis(200));
    }

    #[test]
    fn builders_apply() {
        let cfg = TcpConfig::default()
            .with_recv_buffer(1 << 20)
            .with_idle_cwnd_reset(true);
        assert_eq!(cfg.recv_buffer, 1 << 20);
        assert!(cfg.idle_cwnd_reset);
    }

    #[test]
    #[should_panic(expected = "recv_buffer below one MSS")]
    fn validate_rejects_tiny_recv_buffer() {
        TcpConfig::default().with_recv_buffer(100).validate();
    }
}
