//! Fig. 8 (bulk download rate vs encoding rate) and Fig. 9 (the ack-clock
//! test).

use vstream_analysis::{pearson_correlation, AnalysisConfig, AnalysisFold, Cdf};
use vstream_net::NetworkProfile;
use vstream_sim::derive_seed;
use vstream_workload::{Client, Container, Dataset};

use crate::figures::{long_video, CustomPaced, Run, CAPTURE};
use crate::query::SessionQuery;
use crate::report::{FigureData, Series};
use crate::session::SessionSpec;

/// Fig. 8: for bulk (no ON-OFF) sessions the download rate is set by the
/// available bandwidth, not the encoding rate. Returns the scatter plus the
/// rate/download-rate correlation (the paper reports none visible).
pub fn fig8_bulk_rates(run: &mut Run, n: usize) -> (FigureData, f64) {
    let specs: Vec<SessionSpec> = (0..n)
        .map(|i| {
            SessionSpec::new(
                Client::Firefox, // any browser: Flash HD is browser-independent
                Container::FlashHd,
                Dataset::YouHd.sample_indexed(run.seed, i as u64),
                NetworkProfile::Research,
                derive_seed(run.seed, &[0xF16, i as u64]),
                CAPTURE,
            )
        })
        .collect();
    let query = SessionQuery::default().totals();
    let points: Vec<(f64, f64)> = run.query(&specs, &query)
        .into_iter()
        .enumerate()
        .filter_map(|(i, reply)| {
            let totals = reply?.answer.totals?;
            let duration = totals.duration.as_secs_f64();
            if duration <= 0.0 {
                return None;
            }
            let rate_mbps = totals.total_downloaded as f64 * 8.0 / duration / 1e6;
            Some((specs[i].video.encoding_bps as f64 / 1e6, rate_mbps))
        })
        .collect();
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    let corr = pearson_correlation(&xs, &ys);
    (
        FigureData {
            id: "fig8",
            title: "No ON-OFF cycles: download rate vs encoding rate (Flash HD)".into(),
            x_label: "encoding_rate_mbps",
            y_label: "download_rate_mbps",
            series: vec![Series::new("Video", points)],
        },
        corr,
    )
}

/// Fig. 9: the ack-clock test — CDF of the bytes received back-to-back
/// within the first RTT of each steady-state ON period, per application.
/// Entire blocks arriving within one RTT mean the congestion window was not
/// reset across the OFF period.
pub fn fig9_ack_clock(run: &mut Run) -> FigureData {
    let cases: [(&str, Client, Container, u64); 5] = [
        ("Flash", Client::Firefox, Container::Flash, 1_000_000),
        ("Int. Explorer", Client::InternetExplorer, Container::Html5, 1_000_000),
        ("Chrome", Client::Chrome, Container::Html5, 1_200_000),
        ("Android", Client::Android, Container::Html5, 1_200_000),
        ("iPad", Client::Ipad, Container::Html5, 1_500_000),
    ];
    // Seeds are already identity-indexed (seed + i); the five cells run as
    // one parallel batch.
    let specs: Vec<SessionSpec> = cases
        .iter()
        .enumerate()
        .map(|(i, &(_, client, container, rate))| {
            SessionSpec::new(
                client,
                container,
                long_video(i as u64, rate),
                NetworkProfile::Research,
                run.seed.wrapping_add(i as u64),
                CAPTURE,
            )
        })
        .collect();
    let query = SessionQuery::default().ack_clock();
    let per_case = run.query(&specs, &query);
    let mut series = Vec::new();
    for (case, reply) in cases.iter().zip(per_case) {
        let samples = reply
            .expect("valid cell")
            .answer
            .first_rtt_bytes
            .expect("ack clock queried");
        if samples.is_empty() {
            continue;
        }
        let kb: Vec<f64> = samples.iter().map(|&b| b as f64 / 1e3).collect();
        series.push(Series::new(case.0, Cdf::new(kb).points()));
    }
    FigureData {
        id: "fig9",
        title: "Ack clock: bytes received in the first RTT of ON periods (CDF)".into(),
        x_label: "amount_back_to_back_kb",
        y_label: "cdf",
        series,
    }
}

/// The Fig. 9 ablation the paper could not run: the same measurement with
/// servers that *do* reset their congestion window after idle periods
/// (RFC 5681 §4.1). Returns `(median first-RTT kB without reset, with
/// reset)` for the Flash strategy — quantifying how much burstiness the
/// missing ack clock adds.
pub fn fig9_idle_reset_ablation(run: &Run) -> (f64, f64) {
    use vstream_app::strategies::{ServerPacedConfig, ServerPacedLogic};
    use vstream_sim::SimDuration;
    use vstream_tcp::TcpConfig;

    use crate::session::{par_sessions, run_engine};

    let seed = run.seed;
    let cfg = AnalysisConfig::default();
    // Both runs share the seed (identical network conditions).
    let medians = par_sessions(2, run.jobs, |scratch, i| {
        let idle_reset = i == 1;
        let path = NetworkProfile::Research.build_path();
        let capture = SimDuration::from_secs(120);
        // The server-paced session with the server's TCP carrying the
        // idle-reset switch.
        let mut logic = CustomPaced {
            inner: ServerPacedLogic::new(ServerPacedConfig::default(), long_video(1, 1_000_000)),
            client_cfg: TcpConfig::default().with_recv_buffer(4 << 20),
            server_cfg: TcpConfig::default()
                .with_recv_buffer(256 * 1024)
                .with_idle_cwnd_reset(idle_reset),
        };
        let mut fold = AnalysisFold::new(cfg.clone()).with_ack_clock(path.base_rtt());
        let switch = if idle_reset { "on" } else { "off" };
        let stem = || format!("fig9-idle-reset-{switch}-s{seed}");
        run_engine(path, seed, capture, scratch, &mut logic, &mut fold, stem);
        let samples = fold.finish().first_rtt_bytes.expect("ack clock requested");
        let kb: Vec<f64> = samples.iter().map(|&b| b as f64 / 1e3).collect();
        if kb.is_empty() {
            return 0.0;
        }
        Cdf::new(kb).median()
    });
    (medians[0], medians[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::test_run;

    #[test]
    fn fig8_download_rate_uncorrelated_with_encoding() {
        let (fig, corr) = fig8_bulk_rates(&mut test_run(31), 8);
        let pts = &fig.series[0].points;
        assert!(pts.len() >= 6);
        // All downloads run at tens of Mbps regardless of encoding rate.
        for &(rate, dl) in pts {
            assert!(
                dl > 4.0 * rate || dl > 20.0,
                "video at {rate:.1} Mbps downloaded at only {dl:.1} Mbps"
            );
        }
        assert!(corr.abs() < 0.6, "correlation {corr:.2} should be weak");
    }

    #[test]
    fn fig9_flash_blocks_arrive_back_to_back() {
        let fig = fig9_ack_clock(&mut test_run(33));
        let flash = fig
            .series
            .iter()
            .find(|s| s.label == "Flash")
            .expect("Flash series present");
        // The entire 64 kB block lands within one RTT: median ≈ 64 kB, far
        // above the ~5.8 kB an RFC 5681-restarted window would allow.
        let median = flash.points[flash.points.len() / 2].0;
        assert!(
            (55.0..=75.0).contains(&median),
            "median Flash first-RTT amount {median:.0} kB"
        );
    }

    #[test]
    fn fig9_applications_differ() {
        let fig = fig9_ack_clock(&mut test_run(35));
        assert!(fig.series.len() >= 4);
        // Long-cycle clients (Chrome/Android) receive far more in the first
        // RTT than Flash's 64 kB blocks.
        let median = |label: &str| -> Option<f64> {
            let s = fig.series.iter().find(|s| s.label == label)?;
            Some(s.points[s.points.len() / 2].0)
        };
        let flash = median("Flash").unwrap();
        if let Some(chrome) = median("Chrome") {
            assert!(chrome > flash, "Chrome {chrome:.0} kB <= Flash {flash:.0} kB");
        }
    }

    #[test]
    fn idle_reset_ablation_restores_ack_clock() {
        let (no_reset, with_reset) = fig9_idle_reset_ablation(&test_run(37));
        // Without reset the whole 64 kB block is back-to-back; with reset
        // only the restart window (4 MSS ≈ 5.8 kB) arrives in the first RTT.
        assert!(no_reset > 50.0, "no-reset median {no_reset:.1} kB");
        assert!(
            with_reset < no_reset / 3.0,
            "idle reset should shrink the burst: {with_reset:.1} vs {no_reset:.1} kB"
        );
    }
}
