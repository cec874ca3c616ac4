//! Streams the same video through every Table 1 cell and prints the
//! strategy matrix next to the paper's — the headline result of the paper
//! regenerated in one command.
//!
//! Run with: `cargo run --release --example strategy_comparison`

use vstream::figures::{table1_strategy_matrix, Run};
use vstream::SessionSpec;
use vstream_analysis::TotalsFold;
use vstream_app::Video;
use vstream_net::NetworkProfile;
use vstream_sim::{default_jobs, SimDuration};
use vstream_workload::{table1_expected, Client, Container};

fn main() {
    println!("Running every application x container combination (this streams");
    println!("16 sessions of 180 simulated seconds each)...\n");

    let mut run = Run { seed: 2026, jobs: default_jobs(), qoe: None };
    let (table, cells) = table1_strategy_matrix(&mut run);
    println!("{}", table.to_text());

    println!("Paper's Table 1 for comparison:");
    for client in Client::ALL {
        let row: Vec<String> = Container::ALL
            .iter()
            .map(|&container| {
                table1_expected(client, container)
                    .map(|s| s.table_label().to_string())
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        println!("  {:<18} {}", client.label(), row.join("  "));
    }

    let matched = cells.iter().filter(|c| c.matches()).count();
    println!("\n{matched}/{} cells match the paper.", cells.len());

    // The deeper point of §5.3: a population shift between containers or
    // applications changes the traffic mix. Show the per-strategy traffic
    // profile for one video.
    println!("\nWhy it matters — same video, different traffic shapes:");
    let video = Video::new(0, 1_200_000, SimDuration::from_secs(1200));
    for (name, client, container) in [
        ("Flash (short cycles)  ", Client::Firefox, Container::Flash),
        ("Firefox HTML5 (bulk)  ", Client::Firefox, Container::Html5),
        ("Chrome HTML5 (long)   ", Client::Chrome, Container::Html5),
    ] {
        let out = SessionSpec::new(
            client,
            container,
            video,
            NetworkProfile::Research,
            7,
            SimDuration::from_secs(120),
        )
        .run()
        .unwrap();
        let mut totals = TotalsFold::new();
        out.trace.replay(&mut totals);
        println!(
            "  {name} downloaded {:>6.1} MB in 120 s across {} connection(s)",
            totals.finish().total_downloaded as f64 / 1e6,
            out.connections
        );
    }
}
