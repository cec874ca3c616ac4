//! Equations (1)–(4): moments of the aggregate streaming rate.

/// Mean aggregate data rate, Eq. (3): `E[R] = λ · E[e] · E[L]` — bits per
/// second when `lambda` is sessions/second, `mean_encoding_bps` bits/second
/// and `mean_duration_secs` seconds.
///
/// The paper assumes `e` and `L` independent (E\[S\] = E\[e\]·E\[L\]); pass the
/// true `E[e·L]` as `mean_encoding_bps * mean_duration_secs` if they are
/// correlated in your population.
pub fn aggregate_mean_bps(lambda: f64, mean_encoding_bps: f64, mean_duration_secs: f64) -> f64 {
    assert!(lambda >= 0.0 && mean_encoding_bps >= 0.0 && mean_duration_secs >= 0.0);
    lambda * mean_encoding_bps * mean_duration_secs
}

/// Variance of the aggregate rate for constant-rate downloads, Eq. (4):
/// `V_R = λ · E[e] · E[L] · E[G]` (bits²/s²).
///
/// §6.1 shows the same value holds for ON-OFF strategies whose ON-rate is
/// `G`: pausing a transfer stretches it in time without changing
/// `∫ X²(u) du`.
pub fn aggregate_variance(
    lambda: f64,
    mean_encoding_bps: f64,
    mean_duration_secs: f64,
    mean_download_rate_bps: f64,
) -> f64 {
    assert!(mean_download_rate_bps >= 0.0);
    lambda * mean_encoding_bps * mean_duration_secs * mean_download_rate_bps
}

/// One component of a heterogeneous population: a class of sessions
/// (e.g. one streaming strategy, one vantage point, one service tier)
/// with its own encoding/duration/download-rate means and its share of
/// arrivals.
#[derive(Clone, Copy, Debug)]
pub struct MixComponent {
    /// Relative arrival weight (need not be normalised).
    pub weight: f64,
    /// Mean encoding rate `E[e]` of this class, bits/second.
    pub mean_encoding_bps: f64,
    /// Mean video duration `E[L]` of this class, seconds.
    pub mean_duration_secs: f64,
    /// Mean download (ON) rate `E[G]` of this class, bits/second.
    pub mean_download_rate_bps: f64,
}

/// Eqs. (3)/(4) for a weighted mixture of session classes: `(E[R], V_R)`.
///
/// Arrivals are Poisson at total rate `lambda`; an arrival belongs to
/// component `c` with probability `w_c / Σw`. Conditioning on the class,
/// `E[R] = λ·Σ ŵ_c·E_c[e]·E_c[L]` and `V_R = λ·Σ ŵ_c·E_c[e]·E_c[L]·E_c[G]`
/// — the per-class strategy *shape* never enters (§6.1's
/// strategy-independence holds per component), so a mixture of bulk, short-
/// and long-cycle classes is exactly as analysable as a pure population.
///
/// # Panics
/// If no component has positive weight, or any field is negative.
pub fn mix_aggregate_moments(lambda: f64, components: &[MixComponent]) -> (f64, f64) {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    let total: f64 = components.iter().map(|c| c.weight).sum();
    assert!(total > 0.0, "mix must have positive total weight");
    let mut mean = 0.0;
    let mut var = 0.0;
    for c in components {
        assert!(
            c.weight >= 0.0
                && c.mean_encoding_bps >= 0.0
                && c.mean_duration_secs >= 0.0
                && c.mean_download_rate_bps >= 0.0,
            "mix component fields must be non-negative"
        );
        let share = c.weight / total;
        let el = c.mean_encoding_bps * c.mean_duration_secs;
        mean += share * el;
        var += share * el * c.mean_download_rate_bps;
    }
    (lambda * mean, lambda * var)
}

/// The link-dimensioning rule of §6.1: `E[R] + α·√V_R`, where `α ≥ 1`
/// controls tolerable bandwidth violations.
pub fn provisioned_capacity(mean_bps: f64, variance: f64, alpha: f64) -> f64 {
    assert!(alpha >= 0.0, "alpha must be non-negative");
    assert!(variance >= 0.0, "variance must be non-negative");
    mean_bps + alpha * variance.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_lambda_times_size() {
        // 2 sessions/s x 1 Mbps x 300 s = 600 Mbps of aggregate traffic.
        let m = aggregate_mean_bps(2.0, 1e6, 300.0);
        assert_eq!(m, 600e6);
    }

    #[test]
    fn variance_scales_linearly_in_encoding_rate() {
        // §6.1 point 3: doubling the encoding rate doubles mean AND
        // variance, so the coefficient of variation sqrt(V)/E shrinks —
        // higher-rate traffic is *smoother*.
        let (lambda, dur, g) = (1.0, 240.0, 10e6);
        let m1 = aggregate_mean_bps(lambda, 1e6, dur);
        let v1 = aggregate_variance(lambda, 1e6, dur, g);
        let m2 = aggregate_mean_bps(lambda, 2e6, dur);
        let v2 = aggregate_variance(lambda, 2e6, dur, g);
        assert_eq!(m2, 2.0 * m1);
        assert_eq!(v2, 2.0 * v1);
        let cv1 = v1.sqrt() / m1;
        let cv2 = v2.sqrt() / m2;
        assert!(cv2 < cv1, "higher encoding rate must smooth the aggregate");
    }

    #[test]
    fn provisioning_adds_alpha_sigma() {
        let capacity = provisioned_capacity(100e6, 25e12, 2.0);
        assert_eq!(capacity, 100e6 + 2.0 * 5e6);
    }

    #[test]
    fn zero_rate_population_is_degenerate() {
        assert_eq!(aggregate_mean_bps(5.0, 0.0, 100.0), 0.0);
        assert_eq!(aggregate_variance(5.0, 0.0, 100.0, 1e6), 0.0);
    }

    #[test]
    fn homogeneous_mix_reduces_to_pure_closed_forms() {
        let c = MixComponent {
            weight: 4.0,
            mean_encoding_bps: 1e6,
            mean_duration_secs: 240.0,
            mean_download_rate_bps: 10e6,
        };
        let (mean, var) = mix_aggregate_moments(2.0, &[c, c, c]);
        assert_eq!(mean, aggregate_mean_bps(2.0, 1e6, 240.0));
        assert_eq!(var, aggregate_variance(2.0, 1e6, 240.0, 10e6));
    }

    #[test]
    fn mix_moments_are_weight_averaged() {
        // Two equal-weight classes: a light one contributing nothing and a
        // heavy one — moments are the average of the pure populations.
        let zero = MixComponent {
            weight: 1.0,
            mean_encoding_bps: 0.0,
            mean_duration_secs: 100.0,
            mean_download_rate_bps: 1e6,
        };
        let heavy = MixComponent {
            weight: 1.0,
            mean_encoding_bps: 2e6,
            mean_duration_secs: 300.0,
            mean_download_rate_bps: 8e6,
        };
        let (mean, var) = mix_aggregate_moments(1.0, &[zero, heavy]);
        assert_eq!(mean, 0.5 * aggregate_mean_bps(1.0, 2e6, 300.0));
        assert_eq!(var, 0.5 * aggregate_variance(1.0, 2e6, 300.0, 8e6));
    }

    #[test]
    fn mix_weights_need_not_be_normalised() {
        let c = |w: f64| MixComponent {
            weight: w,
            mean_encoding_bps: 1e6,
            mean_duration_secs: 200.0,
            mean_download_rate_bps: 5e6,
        };
        let (m1, v1) = mix_aggregate_moments(3.0, &[c(1.0), c(2.0)]);
        let (m2, v2) = mix_aggregate_moments(3.0, &[c(10.0), c(20.0)]);
        assert!((m1 - m2).abs() < 1e-6 && (v1 - v2).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn empty_mix_is_rejected() {
        let _ = mix_aggregate_moments(1.0, &[]);
    }
}
