//! Long-range-dependent cross traffic: superposed heavy-tailed on/off
//! sources sharing the bottleneck.
//!
//! The paper's resilience experiments (and the Ye et al. follow-up work on
//! streaming QoE under load) put the video flow behind an access link that
//! also carries *other people's traffic*. Real access-link aggregates are
//! famously long-range dependent: Taqqu's theorem says a superposition of
//! many on/off sources whose ON periods are heavy-tailed with shape
//! `alpha in (1, 2)` converges to fractional Gaussian noise with Hurst
//! parameter `H = (3 - alpha) / 2`. This module holds the *configuration*
//! of such an aggregate; the per-source Pareto-ON / exponential-OFF state
//! machines live in the session engine, which owns the event queue.
//!
//! The aggregate's shape is fixed — [`LRD_SOURCES`] sources, alpha
//! [`LRD_ALPHA_MILLI`] / 1000 (H = 0.75), half-second mean bursts, 1.5 s
//! mean gaps — and only the per-source peak rate varies with the offered
//! load. The peak rate is an integer so the config can be embedded verbatim
//! in session cache keys — determinism across `--jobs` and cache hits
//! requires the key to pin every behaviour-affecting bit.

/// Number of superposed on/off sources.
pub const LRD_SOURCES: u32 = 16;
/// Pareto shape of the ON durations, in thousandths (1500 = alpha 1.5).
/// Long-range dependence requires a value strictly between 1000 and 2000.
pub const LRD_ALPHA_MILLI: u32 = 1500;
/// Mean ON duration in milliseconds (sets the Pareto scale `x_min`).
pub const LRD_MEAN_ON_MS: u32 = 500;
/// Mean OFF duration in milliseconds (exponential).
pub const LRD_MEAN_OFF_MS: u32 = 1500;

/// An aggregate of [`LRD_SOURCES`] identical heavy-tailed on/off sources on
/// the downlink.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LrdCrossConfig {
    /// Per-source emission rate while ON, in bits per second.
    pub peak_bps: u64,
}

impl LrdCrossConfig {
    /// The aggregate whose per-source peak rate is sized so its mean
    /// offered load is `load_permille / 1000` of `bottleneck_bps`.
    pub fn for_load(bottleneck_bps: u64, load_permille: u32) -> Self {
        // mean load = sources * peak * duty; duty = on / (on + off) = 1/4.
        let load_bps = bottleneck_bps as u128 * load_permille as u128 / 1000;
        let duty_num = LRD_MEAN_ON_MS as u128;
        let duty_den = (LRD_MEAN_ON_MS + LRD_MEAN_OFF_MS) as u128;
        LrdCrossConfig {
            peak_bps: (load_bps * duty_den / (duty_num * LRD_SOURCES as u128)) as u64,
        }
    }

    /// The Pareto shape as a real number.
    pub fn alpha() -> f64 {
        LRD_ALPHA_MILLI as f64 / 1000.0
    }

    /// The Pareto scale (`x_min`, seconds) that yields [`LRD_MEAN_ON_MS`]:
    /// for alpha > 1 the Pareto mean is `alpha * x_min / (alpha - 1)`.
    pub fn on_x_min_secs() -> f64 {
        let a = Self::alpha();
        LRD_MEAN_ON_MS as f64 / 1000.0 * (a - 1.0) / a
    }

    /// Mean OFF duration in seconds.
    pub fn mean_off_secs() -> f64 {
        LRD_MEAN_OFF_MS as f64 / 1000.0
    }

    /// Long-run fraction of time each source spends ON.
    pub fn duty_cycle() -> f64 {
        LRD_MEAN_ON_MS as f64 / (LRD_MEAN_ON_MS + LRD_MEAN_OFF_MS) as f64
    }

    /// Mean offered load of the whole aggregate, in bits per second.
    pub fn mean_load_bps(&self) -> f64 {
        LRD_SOURCES as f64 * self.peak_bps as f64 * Self::duty_cycle()
    }

    /// The Hurst parameter Taqqu's theorem predicts for the aggregate:
    /// `H = (3 - alpha) / 2`, in (0.5, 1) for alpha in (1, 2).
    pub fn hurst() -> f64 {
        (3.0 - Self::alpha()) / 2.0
    }

    /// Bytes one source emits over `ns` nanoseconds of an ON period
    /// (integer arithmetic; used for the engine's chunked emissions).
    pub fn on_bytes(&self, ns: u64) -> u64 {
        (self.peak_bps as u128 * ns as u128 / 8_000_000_000) as u64
    }

    /// The config's identity as cache-key words: callers hashing a session
    /// spec embed these words (plus a presence flag) so two sessions
    /// differing only in cross-traffic load can never collide.
    pub fn key_words(&self) -> [u64; 1] {
        [self.peak_bps]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_load_hits_the_target_mean() {
        let cfg = LrdCrossConfig::for_load(20_000_000, 600);
        let want = 20_000_000.0 * 0.6;
        let got = cfg.mean_load_bps();
        assert!(
            (got - want).abs() / want < 0.01,
            "mean load {got} != target {want}"
        );
        assert!((LrdCrossConfig::hurst() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pareto_scale_reproduces_the_mean() {
        let a = LrdCrossConfig::alpha();
        // mean = alpha * x_min / (alpha - 1)
        let mean = a * LrdCrossConfig::on_x_min_secs() / (a - 1.0);
        assert!((mean - 0.5).abs() < 1e-9, "ON mean {mean} != 0.5 s");
    }

    #[test]
    fn on_bytes_is_exact_integer_math() {
        let cfg = LrdCrossConfig { peak_bps: 8_000_000 };
        // 8 Mbps for 20 ms = 20k bytes.
        assert_eq!(cfg.on_bytes(20_000_000), 20_000);
        // Sub-byte remainders floor.
        assert_eq!(cfg.on_bytes(1), 0);
    }

    #[test]
    fn key_words_distinguish_distinct_shapes() {
        let a = LrdCrossConfig::for_load(20_000_000, 400);
        let b = LrdCrossConfig::for_load(20_000_000, 401);
        assert_ne!(a.key_words(), b.key_words());
        assert_eq!(a.key_words(), a.key_words());
        assert_eq!(LrdCrossConfig::for_load(20_000_000, 0).peak_bps, 0);
    }
}
