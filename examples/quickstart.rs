//! Quickstart: stream one video, watch the three phases appear, classify
//! the strategy — the whole pipeline of the paper in ~40 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use vstream::SessionSpec;
use vstream_analysis::{classify, AnalysisConfig, SessionPhases, TotalsFold};
use vstream_app::Video;
use vstream_net::NetworkProfile;
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

fn main() {
    // A ten-minute, 1 Mbps video — the paper's default-resolution YouTube
    // case — streamed over Flash from the Research network vantage point.
    let video = Video::new(0, 1_000_000, SimDuration::from_secs(600));
    let outcome = SessionSpec::new(
        Client::Firefox,
        Container::Flash,
        video,
        NetworkProfile::Research,
        42,
        SimDuration::from_secs(120),
    )
    .run()
    .expect("a browser playing Flash is a valid Table 1 cell");

    // The capture is what tcpdump would have recorded on the viewing
    // machine; every reduction over it is a fold fed by a replay.
    let trace = &outcome.trace;
    let mut totals = TotalsFold::new();
    trace.replay(&mut totals);
    let totals = totals.finish();
    println!(
        "captured {} packets, {:.1} MB downloaded over {:.0} s",
        totals.packets,
        totals.total_downloaded as f64 / 1e6,
        totals.duration.as_secs_f64()
    );

    // Decompose into buffering and steady-state phases (§4).
    let cfg = AnalysisConfig::default();
    let phases = SessionPhases::from_trace(trace, &cfg);
    println!(
        "buffering phase: {:.1} MB = {:.0} s of playback",
        phases.buffering_bytes as f64 / 1e6,
        phases.buffered_playback_time(video.encoding_bps as f64)
    );
    if let Some(k) = phases.accumulation_ratio(video.encoding_bps as f64) {
        println!("accumulation ratio k = {k:.2} (the paper measures 1.25)");
    }

    // Classify the streaming strategy (§3).
    let strategy = classify(trace, &cfg);
    println!("strategy: {strategy}");

    // And the player's side of the story.
    let stats = outcome.logic.player().stats();
    println!(
        "player: started after {:?}, {} stalls",
        stats.startup_delay, stats.stalls
    );
}
