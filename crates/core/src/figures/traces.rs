//! The representative-trace figures: 1, 2, 6(a), 7(a), and 10.

use vstream_net::NetworkProfile;
use vstream_sim::{SimDuration, SimTime};
use vstream_workload::{Client, Container};

use crate::figures::{long_video, Run, CAPTURE};
use crate::query::{SessionQuery, SessionReply};
use crate::report::{FigureData, Series};
use crate::session::SessionSpec;

/// The queried download series of one session, in `(secs, MB)`.
fn download_mb(reply: &SessionReply) -> Vec<(f64, f64)> {
    reply.answer.download_mb.clone().expect("download queried")
}

/// The queried receive-window series, scaled by `1/div` bytes.
fn window_scaled(reply: &SessionReply, div: f64) -> Vec<(f64, f64)> {
    reply
        .answer
        .window_series
        .as_ref()
        .expect("window queried")
        .iter()
        .map(|&(t, w): &(SimTime, u64)| (t.as_secs_f64(), w as f64 / div))
        .collect()
}

/// Fig. 1: the phases of a video download — buffering phase, then ON-OFF
/// cycles in the steady state. One server-paced (Flash) session.
pub fn fig1_phases(run: &mut Run) -> FigureData {
    let query = SessionQuery::default().download(SimDuration::from_millis(50));
    let mut outs = run.query(
        &[SessionSpec::new(
            Client::Firefox,
            Container::Flash,
            long_video(1, 1_000_000),
            NetworkProfile::Research,
            run.seed,
            SimDuration::from_secs(60),
        )],
        &query,
    );
    let out = outs.pop().flatten().expect("valid cell");
    FigureData {
        id: "fig1",
        title: "Phases of video download (server-paced Flash session)".into(),
        x_label: "time_s",
        y_label: "download_mb",
        series: vec![Series::new("Download amount", download_mb(&out))],
    }
}

/// Fig. 2: short ON-OFF cycles. Download amount (a) and the client's
/// advertised receive window (b) for one Flash and one HTML5-on-IE session.
/// The Flash window never empties (server-side pacing); the HTML5 window
/// periodically collapses to zero (client-side pacing).
pub fn fig2_short_onoff(run: &mut Run) -> (FigureData, FigureData) {
    let window = SimDuration::from_secs(10);
    let query = SessionQuery::default()
        .download(SimDuration::from_millis(20))
        .window(0);
    // Identity-indexed seeds (seed, seed + 1): the two sessions run as one
    // parallel batch.
    let mut outs = run.query(
        &[
            SessionSpec::new(
                Client::InternetExplorer,
                Container::Flash,
                long_video(1, 1_500_000),
                NetworkProfile::Research,
                run.seed,
                window,
            ),
            SessionSpec::new(
                Client::InternetExplorer,
                Container::Html5,
                long_video(2, 1_500_000),
                NetworkProfile::Research,
                run.seed.wrapping_add(1),
                window,
            ),
        ],
        &query,
    );
    let html5 = outs.pop().flatten().expect("valid cell");
    let flash = outs.pop().flatten().expect("valid cell");

    let download = FigureData {
        id: "fig2a",
        title: "Short ON-OFF cycles: download amount".into(),
        x_label: "time_s",
        y_label: "download_mb",
        series: vec![
            Series::new("HTML5 (IE)", download_mb(&html5)),
            Series::new("Flash (IE)", download_mb(&flash)),
        ],
    };

    let window_fig = FigureData {
        id: "fig2b",
        title: "Short ON-OFF cycles: TCP receive window".into(),
        x_label: "time_s",
        y_label: "recv_window_kb",
        series: vec![
            Series::new("HTML5 (IE)", window_scaled(&html5, 1e3)),
            Series::new("Flash (IE)", window_scaled(&flash, 1e3)),
        ],
    };
    (download, window_fig)
}

/// Fig. 6(a): long ON-OFF cycles — download amount and receive window for a
/// Chrome HTML5 session. OFF periods last tens of seconds and the window
/// empties between pulls.
pub fn fig6a_long_onoff(run: &mut Run) -> FigureData {
    let query = SessionQuery::default()
        .download(SimDuration::from_millis(200))
        .window(0);
    let mut outs = run.query(
        &[SessionSpec::new(
            Client::Chrome,
            Container::Html5,
            long_video(1, 1_200_000),
            NetworkProfile::Research,
            run.seed,
            CAPTURE,
        )],
        &query,
    );
    let out = outs.pop().flatten().expect("valid cell");
    FigureData {
        id: "fig6a",
        title: "Long ON-OFF cycles (Chrome): download amount and receive window".into(),
        x_label: "time_s",
        y_label: "mb",
        series: vec![
            Series::new("Down. Amt.", download_mb(&out)),
            Series::new("Recv. Wnd", window_scaled(&out, 1e6)),
        ],
    }
}

/// Fig. 7(a): the iPad's mixture of strategies — two videos with different
/// encoding rates produce different patterns (many-connection periodic
/// buffering vs short cycles).
pub fn fig7a_ipad_traces(run: &mut Run) -> FigureData {
    let window = SimDuration::from_secs(50);
    let query = SessionQuery::default().download(SimDuration::from_millis(100));
    let mut outs = run.query(
        &[
            SessionSpec::new(
                Client::Ipad,
                Container::Html5,
                long_video(1, 2_500_000),
                NetworkProfile::Research,
                run.seed,
                window,
            ),
            SessionSpec::new(
                Client::Ipad,
                Container::Html5,
                long_video(2, 400_000),
                NetworkProfile::Research,
                run.seed.wrapping_add(1),
                window,
            ),
        ],
        &query,
    );
    let video2 = outs.pop().flatten().expect("valid cell");
    let video1 = outs.pop().flatten().expect("valid cell");
    FigureData {
        id: "fig7a",
        title: "iPad: different streaming patterns for two videos".into(),
        x_label: "time_s",
        y_label: "download_mb",
        series: vec![
            Series::new("Video1 (2.5 Mbps)", download_mb(&video1)),
            Series::new("Video2 (0.4 Mbps)", download_mb(&video2)),
        ],
    }
}

/// Fig. 10: Netflix traces — short ON-OFF cycles for PC and iPad (a), long
/// cycles for Android (b). All on the Academic network, as measured.
pub fn fig10_netflix_traces(run: &mut Run) -> (FigureData, FigureData) {
    let query = SessionQuery::default().download(SimDuration::from_millis(200));
    let mut outs = run.query(
        &[
            SessionSpec::new(
                Client::Firefox,
                Container::Silverlight,
                long_video(1, 3_000_000),
                NetworkProfile::Academic,
                run.seed,
                SimDuration::from_secs(100),
            ),
            SessionSpec::new(
                Client::Ipad,
                Container::Silverlight,
                long_video(2, 1_600_000),
                NetworkProfile::Academic,
                run.seed.wrapping_add(1),
                SimDuration::from_secs(100),
            ),
            SessionSpec::new(
                Client::Android,
                Container::Silverlight,
                long_video(3, 1_600_000),
                NetworkProfile::Academic,
                run.seed.wrapping_add(2),
                SimDuration::from_secs(150),
            ),
        ],
        &query,
    );
    let android = outs.pop().flatten().expect("valid cell");
    let ipad = outs.pop().flatten().expect("valid cell");
    let pc = outs.pop().flatten().expect("valid cell");

    let short = FigureData {
        id: "fig10a",
        title: "Netflix: short ON-OFF cycles (PC and iPad, Academic)".into(),
        x_label: "time_s",
        y_label: "download_mb",
        series: vec![
            Series::new("PC Acad.", download_mb(&pc)),
            Series::new("iPad Acad.", download_mb(&ipad)),
        ],
    };
    let long = FigureData {
        id: "fig10b",
        title: "Netflix: long ON-OFF cycles (Android, Academic)".into(),
        x_label: "time_s",
        y_label: "download_mb",
        series: vec![Series::new("Android Acad.", download_mb(&android))],
    };
    (short, long)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::test_run;
    use vstream_analysis::{AnalysisConfig, OnOffAnalysis};

    #[test]
    fn fig1_shows_buffering_then_steps() {
        let fig = fig1_phases(&mut test_run(1));
        let s = &fig.series[0];
        assert!(s.points.len() > 10);
        // Monotone non-decreasing cumulative download.
        assert!(s.points.windows(2).all(|w| w[1].1 >= w[0].1));
        // ~40 s of 1 Mbps = 5 MB buffering, plus steady state.
        let total = s.points.last().unwrap().1;
        assert!(total > 5.0, "downloaded {total:.1} MB");
    }

    #[test]
    fn fig2_flash_window_stays_open_html5_hits_zero() {
        let (_, windows) = fig2_short_onoff(&mut test_run(2));
        let html5 = &windows.series[0];
        let flash = &windows.series[1];
        assert!(
            html5.points.iter().any(|&(_, w)| w == 0.0),
            "HTML5 window never reached zero"
        );
        let flash_min = flash.points.iter().map(|&(_, w)| w).fold(f64::MAX, f64::min);
        assert!(flash_min > 0.0, "Flash window emptied: {flash_min}");
    }

    #[test]
    fn fig6a_has_long_off_periods() {
        let fig = fig6a_long_onoff(&mut test_run(3));
        // Reconstruct gaps from the download series: at least one OFF gap
        // beyond 20 s.
        let s = &fig.series[0];
        let max_gap = s
            .points
            .windows(2)
            .map(|w| w[1].0 - w[0].0)
            .fold(0.0f64, f64::max);
        assert!(max_gap > 20.0, "longest gap {max_gap:.1} s");
    }

    #[test]
    fn fig10_netflix_shapes() {
        let (short, long) = fig10_netflix_traces(&mut test_run(4));
        assert_eq!(short.series.len(), 2);
        // PC downloads much more than iPad in the same window (50 vs 10 MB
        // buffering).
        let pc_total = short.series[0].points.last().unwrap().1;
        let ipad_total = short.series[1].points.last().unwrap().1;
        assert!(
            pc_total > 2.0 * ipad_total,
            "PC {pc_total:.0} MB vs iPad {ipad_total:.0} MB"
        );
        assert!(long.series[0].points.last().unwrap().1 > 30.0);
    }

    #[test]
    fn fig7a_high_rate_video_uses_more_connections() {
        // Not directly visible in the figure data, so re-run the cells.
        let v1 = SessionSpec::new(
            Client::Ipad,
            Container::Html5,
            long_video(1, 2_500_000),
            NetworkProfile::Research,
            5,
            SimDuration::from_secs(50),
        )
        .run()
        .unwrap();
        let a = OnOffAnalysis::from_trace(&v1.trace, &AnalysisConfig::default());
        assert!(v1.connections >= 5);
        assert!(a.cycles.len() >= 3);
    }
}
