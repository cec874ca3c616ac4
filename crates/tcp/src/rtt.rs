//! Round-trip time estimation and retransmission timeout computation,
//! following RFC 6298.

use vstream_sim::SimDuration;

use crate::config::{MAX_RTO, MIN_RTO};

/// RFC 6298 smoothed RTT estimator, its RTO clamped between [`MIN_RTO`]
/// and [`MAX_RTO`].
///
/// The first sample initializes `SRTT = R`, `RTTVAR = R/2`; subsequent
/// samples apply the EWMA updates with `alpha = 1/8`, `beta = 1/4`. Until a
/// sample exists the RTO is a conservative 1 second. Exponential backoff is
/// applied by the endpoint on each retransmission timeout (Karn's algorithm:
/// retransmitted segments are never sampled). [`Default`] is the estimator
/// with no sample yet.
#[derive(Clone, Debug, Default)]
pub(crate) struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Current backoff multiplier (doubles per timeout, resets on a valid
    /// sample).
    backoff: u32,
}

impl RttEstimator {
    /// Initial RTO before any sample, per RFC 6298.
    pub(crate) const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

    /// Incorporates a new RTT measurement and clears any backoff.
    pub(crate) fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|
                let err = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = self.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
                // SRTT = 7/8 SRTT + 1/8 R
                self.srtt = Some(srtt.mul_f64(0.875) + rtt.mul_f64(0.125));
            }
        }
        self.backoff = 0;
    }

    /// Current retransmission timeout, including backoff and clamping.
    pub(crate) fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => Self::INITIAL_RTO,
            // RTO = SRTT + max(G, 4 * RTTVAR); clock granularity G is 1 ns
            // here, so effectively SRTT + 4 * RTTVAR.
            Some(srtt) => srtt + self.rttvar * 4,
        };
        let clamped = base.max(MIN_RTO);
        let shifted = clamped * (1u32 << self.backoff.min(16));
        shifted.min(MAX_RTO)
    }

    /// Doubles the RTO (called on each retransmission timeout).
    pub(crate) fn back_off(&mut self) {
        self.backoff = self.backoff.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::default()
    }

    #[test]
    fn initial_rto_is_one_second() {
        assert_eq!(est().rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt, Some(SimDuration::from_millis(100)));
        // RTO = SRTT + 4 * RTTVAR = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn min_rto_clamp_applies() {
        let mut e = est();
        // A very stable, fast path: srtt -> 10 ms, rttvar -> ~0.
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(10));
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn smoothing_converges_to_constant_rtt() {
        let mut e = est();
        e.sample(SimDuration::from_millis(500));
        for _ in 0..200 {
            e.sample(SimDuration::from_millis(50));
        }
        let srtt = e.srtt.unwrap();
        let err = srtt.saturating_sub(SimDuration::from_millis(50));
        assert!(err < SimDuration::from_millis(2), "srtt = {srtt}");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100)); // RTO = 300 ms
        e.back_off();
        assert_eq!(e.rto(), SimDuration::from_millis(600));
        e.back_off();
        assert_eq!(e.rto(), SimDuration::from_millis(1200));
        for _ in 0..20 {
            e.back_off();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }

    #[test]
    fn sample_clears_backoff() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        e.back_off();
        e.back_off();
        e.sample(SimDuration::from_millis(100));
        assert!(e.rto() <= SimDuration::from_millis(400));
    }

    #[test]
    fn variance_tracks_jitter() {
        let mut stable = est();
        let mut jittery = est();
        for i in 0..100 {
            stable.sample(SimDuration::from_millis(100));
            let jitter = if i % 2 == 0 { 50 } else { 150 };
            jittery.sample(SimDuration::from_millis(jitter));
        }
        assert!(jittery.rto() > stable.rto());
    }
}
