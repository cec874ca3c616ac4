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
//! All fields are integers so the config can be embedded verbatim in
//! session cache keys — determinism across `--jobs` and cache hits
//! requires the key to pin every behaviour-affecting bit.

/// An aggregate of identical heavy-tailed on/off sources on the downlink.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LrdCrossConfig {
    /// Number of superposed on/off sources.
    pub sources: u32,
    /// Per-source emission rate while ON, in bits per second.
    pub peak_bps: u64,
    /// Pareto shape of the ON durations, in thousandths (1500 = alpha 1.5).
    /// Long-range dependence requires `1000 < alpha_milli < 2000`.
    pub alpha_milli: u32,
    /// Mean ON duration in milliseconds (sets the Pareto scale `x_min`).
    pub mean_on_ms: u32,
    /// Mean OFF duration in milliseconds (exponential).
    pub mean_off_ms: u32,
}

impl LrdCrossConfig {
    /// A canonical aggregate shape — 16 sources, alpha 1.5 (H = 0.75),
    /// half-second mean bursts, 1.5 s mean gaps — whose per-source peak
    /// rate is sized so the aggregate's mean offered load is
    /// `load_permille / 1000` of `bottleneck_bps`.
    pub fn for_load(bottleneck_bps: u64, load_permille: u32) -> Self {
        let mut cfg = LrdCrossConfig {
            sources: 16,
            peak_bps: 0,
            alpha_milli: 1500,
            mean_on_ms: 500,
            mean_off_ms: 1500,
        };
        // mean load = sources * peak * duty; duty = on / (on + off) = 1/4.
        let load_bps = bottleneck_bps as u128 * load_permille as u128 / 1000;
        let duty_num = cfg.mean_on_ms as u128;
        let duty_den = (cfg.mean_on_ms + cfg.mean_off_ms) as u128;
        cfg.peak_bps = (load_bps * duty_den / (duty_num * cfg.sources as u128)) as u64;
        cfg
    }

    /// The Pareto shape as a real number.
    pub fn alpha(&self) -> f64 {
        self.alpha_milli as f64 / 1000.0
    }

    /// The Pareto scale (`x_min`, seconds) that yields `mean_on_ms`:
    /// for alpha > 1 the Pareto mean is `alpha * x_min / (alpha - 1)`.
    pub fn on_x_min_secs(&self) -> f64 {
        let a = self.alpha();
        debug_assert!(a > 1.0, "LRD on/off sources need alpha > 1 for a finite mean");
        self.mean_on_ms as f64 / 1000.0 * (a - 1.0) / a
    }

    /// Mean OFF duration in seconds.
    pub fn mean_off_secs(&self) -> f64 {
        self.mean_off_ms as f64 / 1000.0
    }

    /// Long-run fraction of time each source spends ON.
    pub fn duty_cycle(&self) -> f64 {
        self.mean_on_ms as f64 / (self.mean_on_ms + self.mean_off_ms) as f64
    }

    /// Mean offered load of the whole aggregate, in bits per second.
    pub fn mean_load_bps(&self) -> f64 {
        self.sources as f64 * self.peak_bps as f64 * self.duty_cycle()
    }

    /// The Hurst parameter Taqqu's theorem predicts for the aggregate:
    /// `H = (3 - alpha) / 2`, in (0.5, 1) for alpha in (1, 2).
    pub fn hurst(&self) -> f64 {
        (3.0 - self.alpha()) / 2.0
    }

    /// Bytes one source emits over `ns` nanoseconds of an ON period
    /// (integer arithmetic; used for the engine's chunked emissions).
    pub fn on_bytes(&self, ns: u64) -> u64 {
        (self.peak_bps as u128 * ns as u128 / 8_000_000_000) as u64
    }

    /// The config's identity as cache-key words: callers hashing a session
    /// spec embed these three words (plus a presence flag) so two sessions
    /// differing only in cross-traffic shape can never collide.
    pub fn key_words(&self) -> [u64; 3] {
        [
            (self.sources as u64) << 32 | self.alpha_milli as u64,
            self.peak_bps,
            (self.mean_on_ms as u64) << 32 | self.mean_off_ms as u64,
        ]
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
        assert!((cfg.hurst() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pareto_scale_reproduces_the_mean() {
        let cfg = LrdCrossConfig::for_load(20_000_000, 300);
        // mean = alpha * x_min / (alpha - 1)
        let mean = cfg.alpha() * cfg.on_x_min_secs() / (cfg.alpha() - 1.0);
        assert!((mean - 0.5).abs() < 1e-9, "ON mean {mean} != 0.5 s");
    }

    #[test]
    fn on_bytes_is_exact_integer_math() {
        let cfg = LrdCrossConfig {
            sources: 1,
            peak_bps: 8_000_000,
            alpha_milli: 1500,
            mean_on_ms: 500,
            mean_off_ms: 1500,
        };
        // 8 Mbps for 20 ms = 20k bytes.
        assert_eq!(cfg.on_bytes(20_000_000), 20_000);
        // Sub-byte remainders floor.
        assert_eq!(cfg.on_bytes(1), 0);
    }

    #[test]
    fn key_words_distinguish_distinct_shapes() {
        let a = LrdCrossConfig::for_load(20_000_000, 400);
        let mut b = a;
        b.alpha_milli = 1200;
        let mut c = a;
        c.mean_off_ms = 1501;
        assert_ne!(a.key_words(), b.key_words());
        assert_ne!(a.key_words(), c.key_words());
        assert_eq!(a.key_words(), a.key_words());
    }
}
