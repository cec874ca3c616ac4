//! The steady-state block-size and accumulation-ratio figures: 4, 5, 6(b),
//! 7(b), and 12.

use vstream_analysis::Cdf;
use vstream_net::NetworkProfile;
use vstream_workload::{Client, Container, Dataset};

use crate::figures::{cell_query, cell_specs, Run};
use crate::report::{FigureData, Series};
use crate::session::SessionSpec;

/// Block sizes and accumulation ratios pooled over `n` sessions of one cell
/// on one profile.
///
/// Each session's engine seed is derived from its identity
/// `(client, container, profile, index)` via [`cell_specs`], not drawn from
/// a shared RNG, so the sessions are order-independent, run as a parallel
/// batch, and coincide with other figures sampling the same cell.
fn steady_state_samples(
    client: Client,
    container: Container,
    dataset: Dataset,
    profile: NetworkProfile,
    run: &mut Run,
    n: usize,
) -> (Vec<f64>, Vec<f64>) {
    let specs: Vec<SessionSpec> = cell_specs(client, container, dataset, profile, run.seed, n);
    let per_session = run.query(&specs, &cell_query());
    let mut blocks = Vec::new();
    let mut ratios = Vec::new();
    for (i, reply) in per_session.into_iter().enumerate() {
        let Some(reply) = reply else { continue };
        let analysis = reply.answer.onoff.as_ref().expect("onoff queried");
        blocks.extend(
            analysis
                .steady_state_block_sizes()
                .into_iter()
                .map(|b| b as f64),
        );
        let phases = reply.answer.phases.as_ref().expect("phases queried");
        ratios.extend(phases.accumulation_ratio(specs[i].video.encoding_bps as f64));
    }
    (blocks, ratios)
}

/// The two per-network CDF figures of one cell, ids `(block, ratio)`: block
/// sizes in kB and accumulation ratios.
fn per_profile_figures(
    (id_block, id_ratio): (&'static str, &'static str),
    title: &str,
    client: Client,
    container: Container,
    dataset: Dataset,
    run: &mut Run,
    n: usize,
) -> (FigureData, FigureData) {
    let mut block_series = Vec::new();
    let mut ratio_series = Vec::new();
    for profile in NetworkProfile::ALL {
        let (blocks, ratios) =
            steady_state_samples(client, container, dataset, profile, run, n);
        let blocks_scaled: Vec<f64> = blocks.iter().map(|b| b / 1e3).collect();
        block_series.push(Series::new(profile.label(), Cdf::new(blocks_scaled).points()));
        ratio_series.push(Series::new(profile.label(), Cdf::new(ratios).points()));
    }
    (
        FigureData {
            id: id_block,
            title: format!("{title}: block size (CDF per network)"),
            x_label: "block_size_kb",
            y_label: "cdf",
            series: block_series,
        },
        FigureData {
            id: id_ratio,
            title: format!("{title}: accumulation ratio (CDF per network)"),
            x_label: "accumulation_ratio",
            y_label: "cdf",
            series: ratio_series,
        },
    )
}

/// Fig. 4: the Flash steady state — 64 kB dominant block size (a) and an
/// accumulation ratio of ≈1.25 (b), on all four networks.
pub fn fig4_flash_steady_state(run: &mut Run, n: usize) -> (FigureData, FigureData) {
    per_profile_figures(
        ("fig4a", "fig4b"),
        "Flash steady state",
        Client::Firefox,
        Container::Flash,
        Dataset::YouFlash,
        run,
        n,
    )
}

/// Fig. 5: the HTML5-on-IE steady state — 256 kB dominant blocks (a) and an
/// accumulation ratio near one (b).
pub fn fig5_html5_steady_state(run: &mut Run, n: usize) -> (FigureData, FigureData) {
    per_profile_figures(
        ("fig5a", "fig5b"),
        "HTML5 on Internet Explorer steady state",
        Client::InternetExplorer,
        Container::Html5,
        Dataset::YouHtml,
        run,
        n,
    )
}

/// Fig. 6(b): block sizes for the long-cycle clients — Chrome on the four
/// networks plus Android on the Research network, all above 2.5 MB.
pub fn fig6b_long_blocks(run: &mut Run, n: usize) -> FigureData {
    let mut series = Vec::new();
    for profile in NetworkProfile::ALL {
        let (blocks, _) = steady_state_samples(
            Client::Chrome,
            Container::Html5,
            Dataset::YouHtml,
            profile,
            run,
            n,
        );
        let label = match profile {
            NetworkProfile::Research => "Rsrch. (Cr)".to_string(),
            p => p.label().to_string(),
        };
        series.push(Series::new(
            label,
            Cdf::new(blocks.iter().map(|b| b / 1e6).collect()).points(),
        ));
    }
    let (android_blocks, _) = steady_state_samples(
        Client::Android,
        Container::Html5,
        Dataset::YouMob,
        NetworkProfile::Research,
        run,
        n,
    );
    series.push(Series::new(
        "Rsrch. (And.)",
        Cdf::new(android_blocks.iter().map(|b| b / 1e6).collect()).points(),
    ));
    FigureData {
        id: "fig6b",
        title: "Long ON-OFF cycles: block size (CDF)".into(),
        x_label: "block_size_mb",
        y_label: "cdf",
        series,
    }
}

/// Fig. 7(b): iPad mean block size vs encoding rate — the block grows with
/// the rate.
pub fn fig7b_ipad_block_vs_rate(run: &mut Run, n: usize) -> FigureData {
    let specs: Vec<SessionSpec> = cell_specs(
        Client::Ipad,
        Container::Html5,
        Dataset::YouMob,
        NetworkProfile::Research,
        run.seed,
        n,
    );
    let mut points: Vec<(f64, f64)> = run.query(&specs, &cell_query())
        .into_iter()
        .enumerate()
        .filter_map(|(i, reply)| {
            let reply = reply?;
            let blocks = reply
                .answer
                .onoff
                .as_ref()
                .expect("onoff queried")
                .steady_state_block_sizes();
            if blocks.is_empty() {
                return None;
            }
            let mean = blocks.iter().sum::<u64>() as f64 / blocks.len() as f64;
            Some((specs[i].video.encoding_bps as f64 / 1e6, mean / 1e3))
        })
        .collect();
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    FigureData {
        id: "fig7b",
        title: "iPad: mean block size vs encoding rate".into(),
        x_label: "encoding_rate_mbps",
        y_label: "mean_block_size_kb",
        series: vec![Series::new("Video", points)],
    }
}

/// Fig. 12: Netflix block sizes — PC (Academic/Home) and iPad in (a), mostly
/// below 2.5 MB; Android in (b), larger.
pub fn fig12_netflix_blocks(run: &mut Run, n: usize) -> (FigureData, FigureData) {
    let mut cdf_for = |client: Client, profile: NetworkProfile| -> Vec<(f64, f64)> {
        let (blocks, _) =
            steady_state_samples(client, Container::Silverlight, Dataset::NetPc, profile, run, n);
        Cdf::new(blocks.iter().map(|b| b / 1e6).collect()).points()
    };
    let short = FigureData {
        id: "fig12a",
        title: "Netflix block sizes: short ON-OFF clients (CDF)".into(),
        x_label: "block_size_mb",
        y_label: "cdf",
        series: vec![
            Series::new("PC Acad.", cdf_for(Client::Firefox, NetworkProfile::Academic)),
            Series::new("PC Home", cdf_for(Client::Firefox, NetworkProfile::Home)),
            Series::new("iPad Acad.", cdf_for(Client::Ipad, NetworkProfile::Academic)),
        ],
    };
    let long = FigureData {
        id: "fig12b",
        title: "Netflix block sizes: Android (CDF)".into(),
        x_label: "block_size_mb",
        y_label: "cdf",
        series: vec![Series::new(
            "Android Acad.",
            cdf_for(Client::Android, NetworkProfile::Academic),
        )],
    };
    (short, long)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::test_run;

    fn median_x(series: &Series) -> f64 {
        series.points[series.points.len() / 2].0
    }

    #[test]
    fn fig4_blocks_are_64kb_ratio_125() {
        let (blocks, ratios) = fig4_flash_steady_state(&mut test_run(21), 4);
        // Research network (first series): dominant block 64 kB.
        let m = median_x(&blocks.series[0]);
        assert!((55.0..=75.0).contains(&m), "median Flash block {m:.0} kB");
        let k = median_x(&ratios.series[0]);
        assert!((1.1..=1.4).contains(&k), "median accumulation {k:.2}");
    }

    #[test]
    fn fig5_blocks_are_256kb_ratio_near_one() {
        let (blocks, ratios) = fig5_html5_steady_state(&mut test_run(23), 4);
        let m = median_x(&blocks.series[0]);
        assert!((220.0..=290.0).contains(&m), "median HTML5 block {m:.0} kB");
        let k = median_x(&ratios.series[0]);
        assert!((0.85..=1.25).contains(&k), "median accumulation {k:.2}");
    }

    #[test]
    fn fig6b_blocks_exceed_2_5mb() {
        let fig = fig6b_long_blocks(&mut test_run(25), 3);
        assert_eq!(fig.series.len(), 5);
        // Research/Chrome median above the 2.5 MB boundary.
        let m = median_x(&fig.series[0]);
        assert!(m > 2.5, "median Chrome block {m:.1} MB");
        let android = median_x(&fig.series[4]);
        assert!(android > 2.5, "median Android block {android:.1} MB");
    }

    #[test]
    fn fig7b_block_grows_with_rate() {
        let fig = fig7b_ipad_block_vs_rate(&mut test_run(27), 8);
        let pts = &fig.series[0].points;
        assert!(pts.len() >= 4, "too few sessions produced blocks");
        // Correlation between rate and block size is positive and strong.
        let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
        let corr = vstream_analysis::pearson_correlation(&xs, &ys);
        assert!(corr > 0.6, "rate/block correlation {corr:.2}");
    }

    #[test]
    fn fig12_netflix_pc_below_android_above() {
        let (short, long) = fig12_netflix_blocks(&mut test_run(29), 2);
        let pc = median_x(&short.series[0]);
        assert!(pc < 2.5, "median Netflix PC block {pc:.2} MB");
        let android = median_x(&long.series[0]);
        assert!(android > 2.5, "median Netflix Android block {android:.2} MB");
    }
}
