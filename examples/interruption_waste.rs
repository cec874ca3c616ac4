//! How many bytes are wasted when viewers lose interest? (§6.2)
//!
//! Most streaming sessions are abandoned early — the paper cites campus
//! measurements where 60 % of videos are watched for less than a fifth of
//! their duration. This example measures the downloaded-but-unwatched bytes
//! per strategy, both in packet-level simulation and with the Eq. (8)/(9)
//! closed forms.
//!
//! Run with: `cargo run --release --example interruption_waste`

use vstream::SessionSpec;
use vstream_analysis::TotalsFold;
use vstream_app::Video;
use vstream_model::{full_download_duration_threshold, unused_bytes};
use vstream_net::NetworkProfile;
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

fn main() {
    // A six-minute 1.2 Mbps video abandoned 20 % of the way in (72 s).
    let video = Video::new(0, 1_200_000, SimDuration::from_secs(360));
    let watch = SimDuration::from_secs(72);
    let watched_bytes = video.playback_bytes(72.0);

    println!("Packet-level simulation: viewer quits after 72 s (beta = 0.2)\n");
    for (name, client, container) in [
        ("No ON-OFF (Firefox HTML5)", Client::Firefox, Container::Html5),
        ("Long ON-OFF (Chrome)     ", Client::Chrome, Container::Html5),
        ("Short ON-OFF (Flash)     ", Client::Firefox, Container::Flash),
    ] {
        let out = SessionSpec::new(
            client,
            container,
            video,
            NetworkProfile::Research,
            11,
            SimDuration::from_secs(180),
        )
        .interrupted(watch)
        .run()
        .unwrap();
        let mut totals = TotalsFold::new();
        out.trace.replay(&mut totals);
        let downloaded = totals.finish().total_downloaded;
        let wasted = downloaded.saturating_sub(watched_bytes);
        println!(
            "  {name}: downloaded {:>5.1} MB, wasted {:>5.1} MB ({:.0}%)",
            downloaded as f64 / 1e6,
            wasted as f64 / 1e6,
            100.0 * wasted as f64 / downloaded as f64
        );
    }

    println!("\nClosed form (Eq. 8): unused bytes for the same scenario");
    for (name, buffer_secs, k) in [
        ("No ON-OFF ", 1e9, 1.0), // bulk: 'infinite' buffering phase
        ("Long cycles", 80.0, 1.25),
        ("Short cycles", 40.0, 1.25),
    ] {
        let waste = unused_bytes(1.2e6, 360.0, buffer_secs, k, 0.2);
        println!("  {name}: {:.1} MB", waste / 1e6);
    }

    // Eq. (7): which videos are fully downloaded despite the interrupt?
    let threshold = full_download_duration_threshold(40.0, 1.25, 0.2);
    println!(
        "\nEq. (7): with 40 s buffering and k = 1.25, every video shorter than \
         {threshold:.1} s\nis fully downloaded even though the viewer watches only 20% of it."
    );
}
