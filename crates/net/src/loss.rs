//! Packet loss models.
//!
//! The paper's vantage points differed mostly in their loss behaviour: the
//! Residence and Academic networks showed median retransmission rates of
//! 1.02 % and 0.76 %, which in turn shrank the measured buffering amounts and
//! smeared the block-size distributions (Figs. 3a, 4a, 5a). A configurable
//! loss model lets each [`crate::NetworkProfile`] reproduce its vantage
//! point, and doubles as the fault-injection hook for robustness tests.

use vstream_sim::SimRng;

/// A stateful packet-loss process.
#[derive(Clone, Debug, PartialEq)]
pub enum LossModel {
    /// No packets are ever lost.
    None,
    /// Independent (Bernoulli) loss with the given probability per packet.
    Bernoulli(f64),
    /// Two-state Gilbert-Elliott bursty loss.
    ///
    /// The channel alternates between a *good* and a *bad* state with the
    /// given per-packet transition probabilities, and drops packets with a
    /// state-dependent probability. Captures the loss clustering of Wi-Fi /
    /// ADSL links, where a single fade kills several consecutive segments and
    /// forces the RTO-driven block merging the paper observed.
    GilbertElliott {
        /// P(good -> bad) evaluated per packet.
        p_good_to_bad: f64,
        /// P(bad -> good) evaluated per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
        /// Current state; `false` = good, `true` = bad.
        in_bad: bool,
    },
    /// Drops exactly every `n`-th packet (1-based). Deterministic; intended
    /// for unit tests that need a specific loss pattern.
    EveryNth {
        /// Period of the drop pattern; the `n`-th, `2n`-th, ... packets drop.
        n: u64,
        /// Packets seen so far.
        count: u64,
    },
}

impl LossModel {
    /// Convenience constructor for [`LossModel::Bernoulli`].
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability {p} outside [0, 1]");
        if p == 0.0 {
            LossModel::None
        } else {
            LossModel::Bernoulli(p)
        }
    }

    /// Convenience constructor for a Gilbert-Elliott channel starting in the
    /// good state.
    pub fn gilbert_elliott(p_good_to_bad: f64, p_bad_to_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        for p in [p_good_to_bad, p_bad_to_good, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        }
        LossModel::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// Convenience constructor for [`LossModel::EveryNth`].
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn every_nth(n: u64) -> Self {
        assert!(n > 0, "every_nth: n must be positive");
        LossModel::EveryNth { n, count: 0 }
    }

    /// Decides whether the next packet is lost, advancing any internal state.
    pub fn should_drop(&mut self, rng: &mut SimRng) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli(p) => rng.bernoulli(*p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
                in_bad,
            } => {
                // Transition first, then draw the loss for this packet from
                // the (possibly new) state.
                if *in_bad {
                    if rng.bernoulli(*p_bad_to_good) {
                        *in_bad = false;
                    }
                } else if rng.bernoulli(*p_good_to_bad) {
                    *in_bad = true;
                }
                let p = if *in_bad { *loss_bad } else { *loss_good };
                rng.bernoulli(p)
            }
            LossModel::EveryNth { n, count } => {
                *count += 1;
                *count % *n == 0
            }
        }
    }

    /// Long-run average loss probability of the model, where well defined:
    /// the analytic reference the tests hold `should_drop`'s long-run rate
    /// to.
    #[cfg(test)]
    fn steady_state_loss(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Bernoulli(p) => *p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
                ..
            } => {
                // Stationary distribution of the two-state chain.
                let denom = p_good_to_bad + p_bad_to_good;
                if denom == 0.0 {
                    return *loss_good;
                }
                let pi_bad = p_good_to_bad / denom;
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
            LossModel::EveryNth { n, .. } => 1.0 / *n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let mut model = LossModel::None;
        let mut rng = SimRng::new(1);
        assert!((0..1000).all(|_| !model.should_drop(&mut rng)));
    }

    #[test]
    fn bernoulli_zero_collapses_to_none() {
        assert_eq!(LossModel::bernoulli(0.0), LossModel::None);
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut model = LossModel::bernoulli(0.02);
        let mut rng = SimRng::new(2);
        let n = 200_000;
        let drops = (0..n).filter(|_| model.should_drop(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.02).abs() < 0.002, "rate = {rate}");
    }

    #[test]
    fn every_nth_is_periodic() {
        let mut model = LossModel::every_nth(3);
        let mut rng = SimRng::new(3);
        let pattern: Vec<bool> = (0..9).map(|_| model.should_drop(&mut rng)).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn gilbert_elliott_long_run_rate_matches_stationary() {
        let mut model = LossModel::gilbert_elliott(0.01, 0.2, 0.0, 0.3);
        let expected = model.steady_state_loss();
        let mut rng = SimRng::new(4);
        let n = 400_000;
        let drops = (0..n).filter(|_| model.should_drop(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!(
            (rate - expected).abs() < 0.005,
            "rate = {rate}, expected = {expected}"
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare the mean loss-burst length against Bernoulli at the same
        // average rate: the GE channel should produce longer bursts.
        let mut ge = LossModel::gilbert_elliott(0.005, 0.3, 0.0, 0.5);
        let avg = ge.steady_state_loss();
        let mut bern = LossModel::bernoulli(avg);
        let mut rng_ge = SimRng::new(5);
        let mut rng_b = SimRng::new(6);

        let burst_mean = |model: &mut LossModel, rng: &mut SimRng| {
            let mut bursts = Vec::new();
            let mut run = 0u32;
            for _ in 0..300_000 {
                if model.should_drop(rng) {
                    run += 1;
                } else if run > 0 {
                    bursts.push(run);
                    run = 0;
                }
            }
            bursts.iter().map(|&b| b as f64).sum::<f64>() / bursts.len().max(1) as f64
        };

        let ge_burst = burst_mean(&mut ge, &mut rng_ge);
        let b_burst = burst_mean(&mut bern, &mut rng_b);
        assert!(
            ge_burst > b_burst * 1.3,
            "GE bursts ({ge_burst:.2}) not longer than Bernoulli bursts ({b_burst:.2})"
        );
    }

    #[test]
    fn steady_state_loss_values() {
        assert_eq!(LossModel::None.steady_state_loss(), 0.0);
        assert_eq!(LossModel::bernoulli(0.25).steady_state_loss(), 0.25);
        assert!((LossModel::every_nth(4).steady_state_loss() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bernoulli_rejects_bad_probability() {
        let _ = LossModel::bernoulli(1.2);
    }
}
