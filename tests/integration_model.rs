//! Cross-validation between the packet-level simulator and the §6 analytic
//! model: the same quantities measured two independent ways must agree.

use vstream::SessionSpec;
use vstream_analysis::{AnalysisConfig, SessionPhases};
use vstream_app::Video;
use vstream_model::{full_download_duration_threshold, unused_bytes};
use vstream_net::NetworkProfile;
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

#[test]
fn packet_level_waste_matches_closed_form() {
    // Flash strategy, 1 Mbps, 360 s video, viewer quits at beta = 0.25
    // (90 s). Closed form: downloaded playback = min(40 + 1.25*90, 360)
    // = 152.5 s; waste = 62.5 s of playback = 7.8 MB.
    let video = Video::new(1, 1_000_000, SimDuration::from_secs(360));
    let out = SessionSpec::new(
        Client::Firefox,
        Container::Flash,
        video,
        NetworkProfile::Research,
        51,
        SimDuration::from_secs(180),
    )
    .interrupted(SimDuration::from_secs(90))
    .run()
    .unwrap();
    let downloaded = out.trace.total_downloaded() as f64;
    let watched = video.playback_bytes(90.0) as f64;
    let measured_waste = (downloaded - watched) / 1e6;

    let predicted = unused_bytes(1e6, 360.0, 40.0, 1.25, 0.25) / 1e6;
    let err = (measured_waste - predicted).abs() / predicted;
    assert!(
        err < 0.2,
        "measured waste {measured_waste:.2} MB vs Eq. (8) {predicted:.2} MB"
    );
}

#[test]
fn eq7_threshold_verified_by_simulation() {
    // Eq. (7): with B' = 40 s and k = 1.25, a viewer watching 20% fully
    // downloads any video shorter than 53.3 s. Check both sides of the
    // boundary in packet-level simulation.
    let threshold = full_download_duration_threshold(40.0, 1.25, 0.2);
    assert!((threshold - 53.333).abs() < 0.01);

    // 45 s video, watched 9 s: fully downloaded.
    let short = Video::new(1, 1_000_000, SimDuration::from_secs(45));
    let out = SessionSpec::new(
        Client::Firefox,
        Container::Flash,
        short,
        NetworkProfile::Research,
        53,
        SimDuration::from_secs(60),
    )
    .interrupted(SimDuration::from_secs(9))
    .run()
    .unwrap();
    assert_eq!(
        out.trace.total_downloaded(),
        short.size_bytes(),
        "a 45 s video must be fully downloaded before a 9 s interrupt"
    );

    // 200 s video, watched 40 s: interrupted well before completion.
    let long = Video::new(1, 1_000_000, SimDuration::from_secs(200));
    let out = SessionSpec::new(
        Client::Firefox,
        Container::Flash,
        long,
        NetworkProfile::Research,
        53,
        SimDuration::from_secs(180),
    )
    .interrupted(SimDuration::from_secs(40))
    .run()
    .unwrap();
    assert!(
        out.trace.total_downloaded() < long.size_bytes(),
        "a 200 s video must not be fully downloaded after 40 s"
    );
}

#[test]
fn steady_state_rate_matches_model_assumption() {
    // The model assumes the steady-state download rate is k * e. Verify the
    // packet-level Flash session delivers that rate.
    let video = Video::new(1, 800_000, SimDuration::from_secs(2400));
    let out = SessionSpec::new(
        Client::Firefox,
        Container::Flash,
        video,
        NetworkProfile::Research,
        57,
        SimDuration::from_secs(180),
    )
    .run()
    .unwrap();
    let phases = SessionPhases::from_trace(&out.trace, &AnalysisConfig::default());
    let rate = phases.steady_state_rate_bps.expect("steady state exists");
    let expected = 1.25 * 800_000.0;
    let err = (rate - expected).abs() / expected;
    assert!(err < 0.1, "steady rate {rate:.0} vs k*e = {expected:.0}");
}
