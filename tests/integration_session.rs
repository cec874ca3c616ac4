//! End-to-end integration: full streaming sessions through the public API,
//! crossing every crate (workload → app → tcp → net → capture → analysis).

use vstream::prelude::*;

const CAPTURE: SimDuration = SimDuration::from_secs(180);

fn long_video(rate: u64) -> Video {
    Video::new(1, rate, SimDuration::from_secs(2400))
}

#[test]
fn flash_session_end_to_end() {
    let out = run_cell(
        Client::InternetExplorer,
        Container::Flash,
        long_video(1_000_000),
        NetworkProfile::Research,
        101,
        CAPTURE,
    )
    .unwrap();

    let cfg = AnalysisConfig::default();
    assert_eq!(classify(&out.trace, &cfg), Strategy::ShortCycles);

    let phases = SessionPhases::from_trace(&out.trace, &cfg);
    // ~40 s of playback buffered, k ~ 1.25.
    let playback = phases.buffered_playback_time(1e6);
    assert!((30.0..=50.0).contains(&playback), "buffered {playback:.0} s");
    let k = phases.accumulation_ratio(1e6).unwrap();
    assert!((1.05..=1.45).contains(&k), "k = {k:.2}");

    // Total download over 180 s ~ buffering + 140 s * 1.25 Mbps.
    let mb = out.trace.total_downloaded() as f64 / 1e6;
    assert!((20.0..=35.0).contains(&mb), "downloaded {mb:.1} MB");

    // The player saw smooth playback.
    assert_eq!(out.player_stats().stalls, 0);
}

#[test]
fn every_vantage_point_reproduces_flash_blocks() {
    // The 64 kB dominant block size holds on all four networks (Fig. 4a).
    for profile in NetworkProfile::ALL {
        let out = run_cell(
            Client::Firefox,
            Container::Flash,
            long_video(800_000),
            profile,
            103,
            CAPTURE,
        )
        .unwrap();
        let analysis =
            vstream_analysis::OnOffAnalysis::from_trace(&out.trace, &AnalysisConfig::default());
        let blocks = analysis.steady_state_block_sizes();
        assert!(!blocks.is_empty(), "{profile}: no steady state detected");
        let cdf = Cdf::new(blocks.iter().map(|&b| b as f64).collect());
        let median = cdf.median();
        assert!(
            (50_000.0..=90_000.0).contains(&median),
            "{profile}: median block {median:.0} B"
        );
    }
}

#[test]
fn lossy_network_shows_retransmissions_like_the_paper() {
    // §5.1.1: Residence median retransmission rate 1.02 %. Check the
    // simulated rate lands in the right regime (an order of magnitude, not
    // a point estimate — one session is one sample).
    let out = run_cell(
        Client::Firefox,
        Container::Html5, // bulk: lots of packets for a stable estimate
        Video::new(1, 2_000_000, SimDuration::from_secs(240)),
        NetworkProfile::Residence,
        107,
        CAPTURE,
    )
    .unwrap();
    let retx_rate = |out: &CellOutcome| {
        let mut totals = vstream_analysis::TotalsFold::new();
        out.trace.replay(&mut totals);
        totals.finish().retransmission_rate
    };
    let rate = retx_rate(&out);
    assert!(
        (0.003..=0.04).contains(&rate),
        "Residence retransmission rate {rate:.4} (paper: ~0.0102)"
    );

    let out_research = run_cell(
        Client::Firefox,
        Container::Html5,
        Video::new(1, 2_000_000, SimDuration::from_secs(240)),
        NetworkProfile::Research,
        107,
        CAPTURE,
    )
    .unwrap();
    assert!(
        retx_rate(&out_research) < rate,
        "Research must be cleaner than Residence"
    );
}

#[test]
fn underprovisioned_path_degenerates_to_bulk_like_transfer() {
    // §3: no OFF periods when the available bandwidth is at or below the
    // target rate — here a 6 Mbps HD stream into a 7.7 Mbps ADSL line with
    // k=1.25 target 7.5 Mbps ≈ the line rate.
    let out = run_cell(
        Client::Firefox,
        Container::Flash,
        long_video(6_000_000),
        NetworkProfile::Residence,
        109,
        SimDuration::from_secs(120),
    )
    .unwrap();
    let analysis =
        vstream_analysis::OnOffAnalysis::from_trace(&out.trace, &AnalysisConfig::default());
    // Loss-induced RTO gaps may appear, but no sustained cycle structure:
    // OFF time is a tiny fraction of the session.
    let off_total: f64 = analysis
        .off_durations()
        .iter()
        .map(|d| d.as_secs_f64())
        .sum();
    assert!(
        off_total < 10.0,
        "sustained OFF periods on a saturated path: {off_total:.1} s"
    );
}

#[test]
fn player_stalls_when_bandwidth_is_insufficient() {
    // A 9 Mbps HD video cannot stream over 7.7 Mbps ADSL: the player must
    // stall (accumulation ratio < 1, §3).
    let out = run_cell(
        Client::Firefox,
        Container::FlashHd,
        Video::new(1, 9_000_000, SimDuration::from_secs(300)),
        NetworkProfile::Residence,
        113,
        CAPTURE,
    )
    .unwrap();
    assert!(
        out.player_stats().stalls > 0,
        "player should stall on an underprovisioned path"
    );
}

#[test]
fn netflix_multibitrate_prefetch_is_visible() {
    let out = run_cell(
        Client::Firefox,
        Container::Silverlight,
        long_video(3_000_000),
        NetworkProfile::Academic,
        127,
        CAPTURE,
    )
    .unwrap();
    // Many connections: probes + striped buffering + per-block connections.
    assert!(out.connections > 10, "connections = {}", out.connections);
    // The trace shows all of them.
    let conns: std::collections::BTreeSet<u32> = out.trace.records().map(|p| p.conn).collect();
    assert_eq!(conns.len(), out.connections);
}

#[test]
fn interruption_reduces_download() {
    let video = long_video(1_500_000);
    let full = run_cell(
        Client::Chrome,
        Container::Html5,
        video,
        NetworkProfile::Research,
        131,
        CAPTURE,
    )
    .unwrap();
    let cut = vstream::session::run_cell_interrupted(
        Client::Chrome,
        Container::Html5,
        video,
        NetworkProfile::Research,
        131,
        CAPTURE,
        SimDuration::from_secs(30),
    )
    .unwrap();
    assert!(cut.trace.total_downloaded() < full.trace.total_downloaded());
    assert!(cut.trace.total_downloaded() > 0);
}
