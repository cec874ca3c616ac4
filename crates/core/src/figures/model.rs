//! The §6 model results: aggregate-traffic moments (validated by Monte
//! Carlo), the smoothing effect of higher encoding rates, and the
//! interruption-waste analysis.

use vstream_model::{
    aggregate_mean_bps, aggregate_variance, full_download_duration_threshold, unused_bytes,
    FluidSim, FluidStrategy, PopulationModel,
};
use vstream_sim::{par_indexed, SimRng};

use crate::figures::MC_HORIZON_SECS;
use crate::report::{FigureData, Series, TableData};

fn population(lambda: f64) -> PopulationModel {
    PopulationModel {
        lambda,
        encoding_bps: (0.5e6, 1.5e6),
        duration_secs: (120.0, 360.0),
        bandwidth_bps: (5e6, 15e6),
    }
}

/// §6.1: closed-form vs Monte-Carlo moments of the aggregate rate, per
/// strategy, over a λ sweep, each Monte Carlo over 4 000 s (`MC_HORIZON_SECS`).
/// Demonstrates Eq. (3)/(4) and the strategy-independence result.
pub fn model_aggregate_moments(seed: u64) -> TableData {
    const LAMBDAS: [f64; 3] = [0.5, 1.0, 2.0];
    let strategies = [
        ("no ON-OFF", FluidStrategy::Bulk),
        ("short ON-OFF", FluidStrategy::short_cycles()),
        ("long ON-OFF", FluidStrategy::long_cycles()),
    ];
    // Every (λ, strategy) Monte-Carlo intentionally reuses the root seed
    // (same arrival process throughout); the nine rows run as one parallel
    // batch and are collected in sweep order.
    let rows = par_indexed(
        LAMBDAS.len() * strategies.len(),
        crate::session::default_jobs(),
        |j| {
            let lambda = LAMBDAS[j / strategies.len()];
            let (name, strategy) = strategies[j % strategies.len()];
            let pop = population(lambda);
            let mean_cf = pop.expected_mean_bps();
            let var_cf = pop.expected_variance();
            let sim = FluidSim::new(pop, strategy);
            let (mean, var) = sim.moments(seed, MC_HORIZON_SECS, 0.5);
            vec![
                format!("{lambda:.1}"),
                name.to_string(),
                format!("{:.1}", mean_cf / 1e6),
                format!("{:.1}", mean / 1e6),
                format!("{:.3}", var_cf / 1e12),
                format!("{:.3}", var / 1e12),
            ]
        },
    );
    TableData {
        id: "model-agg",
        title: "Aggregate traffic moments: closed form (Eq. 3/4) vs Monte Carlo".into(),
        headers: vec![
            "lambda (1/s)".into(),
            "strategy".into(),
            "E[R] closed (Mbps)".into(),
            "E[R] MC (Mbps)".into(),
            "V_R closed (Tb2/s2)".into(),
            "V_R MC (Tb2/s2)".into(),
        ],
        rows,
    }
}

/// §6.1 point 3: increasing the encoding rate increases the mean linearly
/// but *smooths* the aggregate (coefficient of variation falls as 1/√e).
pub fn model_smoothing() -> FigureData {
    let lambda = 1.0;
    let (dur, g) = (240.0, 10e6);
    let points: Vec<(f64, f64)> = (1..=10)
        .map(|i| {
            let e = i as f64 * 0.5e6;
            let mean = aggregate_mean_bps(lambda, e, dur);
            let var = aggregate_variance(lambda, e, dur, g);
            (e / 1e6, var.sqrt() / mean)
        })
        .collect();
    FigureData {
        id: "model-smooth",
        title: "Coefficient of variation of aggregate traffic vs encoding rate".into(),
        x_label: "encoding_rate_mbps",
        y_label: "coeff_of_variation",
        series: vec![Series::new("sqrt(V_R)/E[R]", points)],
    }
}

/// §6.2: the interruption-waste analysis. Returns
/// 1. the Eq. (7) numeric example (the 53.3 s threshold),
/// 2. wasted bytes vs watched fraction β for the three strategies'
///    buffering/accumulation parameters.
pub fn model_interruption_waste(seed: u64) -> (f64, FigureData) {
    let threshold = full_download_duration_threshold(40.0, 1.25, 0.2);

    // Strategy parameter sets: (label, buffered playback seconds,
    // accumulation). Bulk downloads everything immediately: model as a huge
    // buffer.
    let cases = [
        ("No ON-OFF (bulk)", 1e9, 1.0),
        ("Short ON-OFF (Flash: 40 s, k=1.25)", 40.0, 1.25),
        ("Long ON-OFF (Chrome: ~80 s, k=1.25)", 80.0, 1.25),
    ];
    let mut rng = SimRng::new(seed);
    // A fixed sampled video population, shared across strategies.
    let videos: Vec<(f64, f64)> = (0..2000)
        .map(|_| {
            (
                rng.uniform_range(0.5e6, 1.5e6),
                rng.uniform_range(60.0, 600.0),
            )
        })
        .collect();

    let mut series = Vec::new();
    for (label, buffer_secs, k) in cases {
        let points: Vec<(f64, f64)> = (1..=19)
            .map(|i| {
                let beta = i as f64 * 0.05;
                let mean_waste_mb = videos
                    .iter()
                    .map(|&(e, l)| unused_bytes(e, l, buffer_secs, k, beta))
                    .sum::<f64>()
                    / videos.len() as f64
                    / 1e6;
                (beta, mean_waste_mb)
            })
            .collect();
        series.push(Series::new(label, points));
    }
    (
        threshold,
        FigureData {
            id: "model-waste",
            title: "Mean unused bytes per session vs watched fraction (Eq. 8/9)".into(),
            x_label: "watched_fraction_beta",
            y_label: "unused_mb_per_session",
            series,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_table_mc_matches_closed_form() {
        let t = model_aggregate_moments(51);
        assert_eq!(t.rows.len(), 9);
        for row in &t.rows {
            let mean_cf: f64 = row[2].parse().unwrap();
            let mean_mc: f64 = row[3].parse().unwrap();
            let err = (mean_mc - mean_cf).abs() / mean_cf;
            assert!(err < 0.1, "{row:?}: mean error {err:.2}");
            let var_cf: f64 = row[4].parse().unwrap();
            let var_mc: f64 = row[5].parse().unwrap();
            let verr = (var_mc - var_cf).abs() / var_cf;
            assert!(verr < 0.3, "{row:?}: variance error {verr:.2}");
        }
    }

    #[test]
    fn smoothing_curve_is_decreasing() {
        let fig = model_smoothing();
        let pts = &fig.series[0].points;
        assert!(pts.windows(2).all(|w| w[1].1 < w[0].1));
        // CV falls as 1/sqrt(e): doubling e divides CV by sqrt(2).
        let ratio = pts[1].1 / pts[3].1; // e=1 vs e=2
        assert!((ratio - 2f64.sqrt()).abs() < 0.01);
    }

    #[test]
    fn interruption_threshold_and_ordering() {
        let (threshold, fig) = model_interruption_waste(53);
        assert!((threshold - 53.333).abs() < 0.01);
        // At beta = 0.2 (index 3), bulk wastes the most, short the least.
        let waste_at = |idx: usize| fig.series[idx].points[3].1;
        let bulk = waste_at(0);
        let short = waste_at(1);
        let long = waste_at(2);
        assert!(bulk > long, "bulk {bulk:.1} <= long {long:.1}");
        assert!(long > short, "long {long:.1} <= short {short:.1}");
    }

    #[test]
    fn waste_decreases_as_people_watch_more() {
        let (_, fig) = model_interruption_waste(55);
        for s in &fig.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last < first, "{}: waste should fall with beta", s.label);
        }
    }
}
