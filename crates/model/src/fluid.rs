//! Monte-Carlo fluid superposition of streaming sessions.
//!
//! Sessions arrive as a Poisson process; each downloads its video using one
//! of the three strategies, modelled at fluid granularity (the instantaneous
//! download rate is `G` during ON periods, 0 during OFF periods). Sampling
//! the summed rate on a grid yields the empirical mean and variance of the
//! aggregate traffic, which the tests compare against the closed forms of
//! Eqs. (3)/(4) — including the §6.1 claim that the moments do not depend on
//! the strategy.

use vstream_sim::SimRng;

/// Which fluid shape a session uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FluidStrategy {
    /// One continuous transfer at rate `G` (no ON-OFF cycles).
    Bulk,
    /// Buffering burst, then periodic blocks of the given size at average
    /// rate `k·e` (short or long cycles — only the block size differs).
    OnOff {
        /// Block bytes per cycle.
        block_bytes: u64,
        /// Accumulation ratio (average steady rate = k · e).
        accumulation: f64,
        /// Playback seconds buffered up front.
        buffer_playback_secs: f64,
    },
}

impl FluidStrategy {
    /// The paper's YouTube-Flash short cycles.
    pub fn short_cycles() -> Self {
        FluidStrategy::OnOff {
            block_bytes: 64 * 1024,
            accumulation: 1.25,
            buffer_playback_secs: 40.0,
        }
    }

    /// Chrome/Android-style long cycles.
    pub fn long_cycles() -> Self {
        FluidStrategy::OnOff {
            block_bytes: 8 << 20,
            accumulation: 1.25,
            buffer_playback_secs: 40.0,
        }
    }
}

/// The random session population (all quantities sampled independently).
#[derive(Clone, Debug)]
pub struct PopulationModel {
    /// Session arrival rate, per second.
    pub lambda: f64,
    /// Encoding rate range (uniform), bits per second.
    pub encoding_bps: (f64, f64),
    /// Video duration range (uniform), seconds.
    pub duration_secs: (f64, f64),
    /// End-to-end available bandwidth per session (uniform), bits per
    /// second. Must exceed the accumulation-scaled encoding rate for the
    /// ON-OFF shapes to be well defined (the paper's overprovisioning
    /// assumption).
    pub bandwidth_bps: (f64, f64),
}

impl PopulationModel {
    /// Closed-form mean of the aggregate rate for this population (Eq. 3).
    pub fn expected_mean_bps(&self) -> f64 {
        let e = (self.encoding_bps.0 + self.encoding_bps.1) / 2.0;
        let l = (self.duration_secs.0 + self.duration_secs.1) / 2.0;
        self.lambda * e * l
    }

    /// Closed-form variance of the aggregate rate (Eq. 4).
    pub fn expected_variance(&self) -> f64 {
        let e = (self.encoding_bps.0 + self.encoding_bps.1) / 2.0;
        let l = (self.duration_secs.0 + self.duration_secs.1) / 2.0;
        let g = (self.bandwidth_bps.0 + self.bandwidth_bps.1) / 2.0;
        self.lambda * e * l * g
    }
}

/// One session's contribution as piecewise-constant rate intervals.
struct Session {
    /// `(start_sec, end_sec, rate_bps)` intervals, relative to time 0.
    intervals: Vec<(f64, f64, f64)>,
}

impl Session {
    fn build(strategy: FluidStrategy, arrival: f64, e: f64, l: f64, g: f64) -> Session {
        let size_bits = e * l;
        let mut intervals = Vec::new();
        match strategy {
            FluidStrategy::Bulk => {
                intervals.push((arrival, arrival + size_bits / g, g));
            }
            FluidStrategy::OnOff {
                block_bytes,
                accumulation,
                buffer_playback_secs,
            } => {
                let buffer_bits = (e * buffer_playback_secs).min(size_bits);
                let mut t = arrival;
                intervals.push((t, t + buffer_bits / g, g));
                t += buffer_bits / g;
                let mut remaining = size_bits - buffer_bits;
                let block_bits = (block_bytes * 8) as f64;
                // Steady state: one block per cycle at average rate k*e.
                let cycle = block_bits / (accumulation * e);
                while remaining > 0.0 {
                    let this_block = block_bits.min(remaining);
                    let on = this_block / g;
                    intervals.push((t, t + on, g));
                    t += cycle.max(on);
                    remaining -= this_block;
                }
            }
        }
        Session { intervals }
    }
}

/// The fluid Monte-Carlo simulator.
pub struct FluidSim {
    population: PopulationModel,
    strategy: FluidStrategy,
}

impl FluidSim {
    /// Creates a simulator for a population and a single strategy.
    pub fn new(population: PopulationModel, strategy: FluidStrategy) -> Self {
        assert!(population.lambda > 0.0, "arrival rate must be positive");
        assert!(
            population.bandwidth_bps.0 >= population.encoding_bps.1 * 1.3,
            "population violates the overprovisioning assumption"
        );
        FluidSim { population, strategy }
    }

    /// Runs the superposition over `horizon_secs`, sampling the aggregate
    /// rate every `dt_secs`. Returns the sampled rates (bits per second),
    /// with warm-up and cool-down windows (one max-duration each) trimmed so
    /// the process is stationary over the returned samples.
    pub(crate) fn run(&self, seed: u64, horizon_secs: f64, dt_secs: f64) -> Vec<f64> {
        assert!(dt_secs > 0.0 && horizon_secs > 0.0);
        let p = &self.population;
        let warmup = p.duration_secs.1 * 1.1;
        let total = horizon_secs + 2.0 * warmup;
        let mut rng = SimRng::new(seed);

        let n_samples = (total / dt_secs) as usize;
        let mut rates = vec![0.0f64; n_samples];

        // Poisson arrivals over the full window.
        let mut t = 0.0;
        loop {
            t += rng.exponential(p.lambda);
            if t >= total {
                break;
            }
            let e = rng.uniform_range(p.encoding_bps.0, p.encoding_bps.1);
            let l = rng.uniform_range(p.duration_secs.0, p.duration_secs.1);
            let g = rng.uniform_range(p.bandwidth_bps.0, p.bandwidth_bps.1);
            let session = Session::build(self.strategy, t, e, l, g);
            for (s, e_t, rate) in session.intervals {
                let first = (s / dt_secs).ceil() as usize;
                let last = (e_t / dt_secs).floor() as usize;
                let end = last.min(n_samples.saturating_sub(1));
                for r in rates.iter_mut().take(end + 1).skip(first) {
                    *r += rate;
                }
            }
        }

        let skip = (warmup / dt_secs) as usize;
        let keep = (horizon_secs / dt_secs) as usize;
        rates.into_iter().skip(skip).take(keep).collect()
    }

    /// Empirical `(mean, variance)` of the sampled aggregate rate.
    pub fn moments(&self, seed: u64, horizon_secs: f64, dt_secs: f64) -> (f64, f64) {
        let (m, v, _) = self.moments3(seed, horizon_secs, dt_secs);
        (m, v)
    }

    /// Empirical `(mean, variance, third central moment)` of the aggregate
    /// rate. The paper notes (§6.1) that the Barakat framework extends the
    /// strategy-independence result to higher moments; `moments3` lets the
    /// extension bench verify that empirically for the skewness.
    pub fn moments3(&self, seed: u64, horizon_secs: f64, dt_secs: f64) -> (f64, f64, f64) {
        let samples = self.run(seed, horizon_secs, dt_secs);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let m3 = samples.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        (mean, var, m3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> PopulationModel {
        PopulationModel {
            lambda: 2.0,
            encoding_bps: (0.5e6, 1.5e6),
            duration_secs: (120.0, 360.0),
            bandwidth_bps: (5e6, 15e6),
        }
    }

    #[test]
    fn bulk_mean_matches_closed_form() {
        let sim = FluidSim::new(population(), FluidStrategy::Bulk);
        let (mean, _) = sim.moments(1, 4000.0, 0.5);
        let expected = population().expected_mean_bps();
        let err = (mean - expected).abs() / expected;
        assert!(err < 0.05, "mean {mean:.3e} vs expected {expected:.3e}");
    }

    #[test]
    fn bulk_variance_matches_closed_form() {
        let sim = FluidSim::new(population(), FluidStrategy::Bulk);
        let (_, var) = sim.moments(2, 6000.0, 0.5);
        let expected = population().expected_variance();
        let err = (var - expected).abs() / expected;
        assert!(err < 0.15, "var {var:.3e} vs expected {expected:.3e}");
    }

    #[test]
    fn moments_are_strategy_independent() {
        // §6.1's headline result, checked empirically.
        let pop = population();
        let (mean_bulk, var_bulk) =
            FluidSim::new(pop.clone(), FluidStrategy::Bulk).moments(3, 6000.0, 0.5);
        let (mean_short, var_short) =
            FluidSim::new(pop.clone(), FluidStrategy::short_cycles()).moments(3, 6000.0, 0.5);
        let (mean_long, var_long) =
            FluidSim::new(pop, FluidStrategy::long_cycles()).moments(3, 6000.0, 0.5);

        for (m, name) in [(mean_short, "short"), (mean_long, "long")] {
            let err = (m - mean_bulk).abs() / mean_bulk;
            assert!(err < 0.05, "{name} mean deviates: {m:.3e} vs {mean_bulk:.3e}");
        }
        for (v, name) in [(var_short, "short"), (var_long, "long")] {
            let err = (v - var_bulk).abs() / var_bulk;
            assert!(err < 0.2, "{name} variance deviates: {v:.3e} vs {var_bulk:.3e}");
        }
    }

    #[test]
    fn doubling_lambda_doubles_mean() {
        let mut pop = population();
        let sim1 = FluidSim::new(pop.clone(), FluidStrategy::Bulk);
        let (m1, _) = sim1.moments(4, 3000.0, 0.5);
        pop.lambda = 4.0;
        let sim2 = FluidSim::new(pop, FluidStrategy::Bulk);
        let (m2, _) = sim2.moments(4, 3000.0, 0.5);
        let ratio = m2 / m1;
        assert!((ratio - 2.0).abs() < 0.15, "ratio = {ratio:.3}");
    }

    #[test]
    fn third_moment_is_strategy_independent() {
        let pop = population();
        let (_, _, m3_bulk) =
            FluidSim::new(pop.clone(), FluidStrategy::Bulk).moments3(8, 6000.0, 0.5);
        let (_, _, m3_short) =
            FluidSim::new(pop, FluidStrategy::short_cycles()).moments3(8, 6000.0, 0.5);
        // Third central moments are positive (bursty superposition) and
        // agree across strategies within MC noise.
        assert!(m3_bulk > 0.0);
        let err = (m3_short - m3_bulk).abs() / m3_bulk;
        assert!(err < 0.4, "m3 bulk {m3_bulk:.3e} vs short {m3_short:.3e}");
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = FluidSim::new(population(), FluidStrategy::short_cycles());
        assert_eq!(sim.run(9, 500.0, 1.0), sim.run(9, 500.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "overprovisioning")]
    fn rejects_underprovisioned_population() {
        let pop = PopulationModel {
            lambda: 1.0,
            encoding_bps: (1e6, 4e6),
            duration_secs: (60.0, 120.0),
            bandwidth_bps: (2e6, 3e6),
        };
        let _ = FluidSim::new(pop, FluidStrategy::Bulk);
    }
}
