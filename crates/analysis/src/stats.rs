//! Statistics utilities used across the figure reproductions: empirical
//! CDFs, quantiles, moments, and Pearson correlation.

/// An empirical cumulative distribution function over `f64` samples.
///
/// Stores the sorted samples; evaluation and quantiles are exact with
/// respect to the sample set.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. Non-finite samples are rejected.
    ///
    /// # Panics
    /// Panics if any sample is NaN or infinite.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "CDF samples must be finite"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Cdf { sorted: samples }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), by the nearest-rank method.
    ///
    /// The nearest rank is `⌈q·n⌉`, computed with a tolerance: `q·n` can
    /// round just *above* the exact integer in binary floating point
    /// (`0.1 * 30.0 == 3.0000000000000004`), and a bare `ceil` would then
    /// return rank 4 where the method defines rank 3.
    ///
    /// # Panics
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        // Absolute tolerance: q·n carries at most a few ULPs of error, far
        // below 1e-9 for any sample count that fits in memory; ranks are
        // ≥ 1 apart, so the nudge can never skip past a legitimate rank.
        let rank = (q * n as f64 - 1e-9).ceil().max(1.0) as usize;
        self.sorted[rank.min(n) - 1]
    }

    /// The median (0.5-quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        mean(&self.sorted)
    }

    /// `(x, F(x))` pairs for plotting — one point per sample, as in the
    /// paper's staircase CDF figures.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Pearson correlation coefficient between paired samples.
///
/// Returns 0 when either variable is constant (correlation undefined).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation needs paired samples");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_sim::SimRng;

    #[test]
    fn cdf_fraction_and_quantiles() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.points(), vec![(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]);
        assert_eq!(cdf.median(), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
    }

    #[test]
    fn cdf_points_form_staircase() {
        let cdf = Cdf::new(vec![10.0, 20.0]);
        assert_eq!(cdf.points(), vec![(10.0, 0.5), (20.0, 1.0)]);
    }

    #[test]
    fn cdf_median_odd_count() {
        let cdf = Cdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(cdf.median(), 3.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn cdf_rejects_nan() {
        Cdf::new(vec![f64::NAN]);
    }

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn correlation_of_linear_data_is_one() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        assert!((pearson_correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson_correlation(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_constant_is_zero() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(pearson_correlation(&xs, &ys), 0.0);
    }

    /// Nearest-rank quantiles at the decimal fractions whose product with
    /// the sample count rounds just above an integer in binary floating
    /// point (`0.1 * 30.0 == 3.0000000000000004`, and friends). The rank
    /// must be exactly `q·n` there, not `q·n + 1`.
    #[test]
    fn quantile_decimal_fraction_rounding_traps() {
        for n in [10usize, 30, 100] {
            // Samples 1.0, 2.0, …, n as f64: the rank-k sample is k.
            let cdf = Cdf::new((1..=n).map(|i| i as f64).collect());
            for q in [0.1, 0.3, 0.7] {
                let exact_rank = (q * n as f64).round() as usize;
                assert_eq!(
                    cdf.quantile(q),
                    exact_rank as f64,
                    "q = {q}, n = {n}: expected rank {exact_rank}"
                );
            }
        }
        // The issue's marquee case, spelled out.
        let cdf = Cdf::new((1..=30).map(|i| i as f64).collect());
        assert_eq!(cdf.quantile(0.1), 3.0, "0.1-quantile of 30 samples is rank 3");
        // Values that genuinely land between ranks still round up.
        assert_eq!(cdf.quantile(0.11), 4.0, "⌈0.11 * 30⌉ = ⌈3.3⌉ = 4");
    }

    /// Quantile is monotone in q and brackets the sample range, over a
    /// deterministic sweep of seeded random samples (formerly a proptest).
    #[test]
    fn quantile_monotone_random_samples() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0xCDF_0000 + seed);
            let n = 1 + rng.choose_index(200);
            let samples: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1e6, 1e6)).collect();
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let cdf = Cdf::new(samples);
            let q1 = rng.uniform();
            let q2 = rng.uniform();
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            assert!(cdf.quantile(lo) <= cdf.quantile(hi), "seed {seed}");
            assert_eq!(cdf.quantile(0.0), min, "seed {seed}");
            assert_eq!(cdf.quantile(1.0), max, "seed {seed}");
        }
    }

    /// The plotted fractions form a valid CDF: samples and fractions both
    /// monotone, every fraction in (0, 1], the last one exactly 1.
    #[test]
    fn fraction_monotone_random_samples() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0xF8AC_0000 + seed);
            let n = 1 + rng.choose_index(200);
            let samples: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1e6, 1e6)).collect();
            let points = Cdf::new(samples).points();
            assert_eq!(points.len(), n, "seed {seed}");
            assert!(points.iter().all(|&(_, f)| f > 0.0 && f <= 1.0), "seed {seed}");
            assert!(points.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1), "seed {seed}");
            assert_eq!(points[n - 1].1, 1.0, "seed {seed}");
        }
    }

    /// Correlation is symmetric and bounded for random paired data.
    #[test]
    fn correlation_bounded_random_pairs() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x00C0_0000 + seed);
            let n = 2 + rng.choose_index(98);
            let xs: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1e3, 1e3)).collect();
            let ys: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1e3, 1e3)).collect();
            let r = pearson_correlation(&xs, &ys);
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "seed {seed}: r = {r}");
            let r2 = pearson_correlation(&ys, &xs);
            assert!((r - r2).abs() < 1e-9, "seed {seed}");
        }
    }
}
