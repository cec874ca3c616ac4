//! Streams a Netflix session, inspects the capture like a measurement
//! researcher would — per-connection summaries, throughput timeline, cycle
//! structure — and exports it as a pcap file for Wireshark.
//!
//! Run with: `cargo run --release --example trace_inspector`

use std::fs::File;

use vstream::SessionSpec;
use vstream_analysis::{
    classify, AnalysisConfig, OnOffAnalysis, SummariesFold, ThroughputFold, TotalsFold,
};
use vstream_app::Video;
use vstream_capture::pcap::write_pcap;
use vstream_net::NetworkProfile;
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

fn main() {
    // A Netflix PC session on the Academic network (the paper's §5.2
    // vantage point for Netflix).
    let video = Video::new(0, 3_000_000, SimDuration::from_secs(2400));
    let out = SessionSpec::new(
        Client::Firefox,
        Container::Silverlight,
        video,
        NetworkProfile::Academic,
        7,
        SimDuration::from_secs(120),
    )
    .run()
    .unwrap();
    let trace = &out.trace;

    // Every reduction over the capture is a fold fed by a replay.
    let mut totals = TotalsFold::new();
    let mut summaries = SummariesFold::new();
    let mut timeline = ThroughputFold::new(SimDuration::from_secs(2));
    trace.replay(&mut totals);
    trace.replay(&mut summaries);
    trace.replay(&mut timeline);
    let totals = totals.finish();

    println!("=== capture summary ===");
    println!(
        "{} packets, {:.1} MB unique / {:.1} MB raw, retx rate {:.2}%",
        totals.packets,
        totals.total_downloaded as f64 / 1e6,
        totals.total_raw_downloaded as f64 / 1e6,
        totals.retransmission_rate * 100.0
    );

    println!("\n=== per-connection view (the paper's §5.2.2 observation: many connections) ===");
    let summaries = summaries.finish();
    println!("{} TCP connections:", summaries.len());
    for s in summaries.iter().take(12) {
        println!(
            "  conn {:>2}: {:>8.2} s -> {:>8.2} s, {:>8.2} MB",
            s.conn,
            s.first_seen.as_secs_f64(),
            s.last_seen.as_secs_f64(),
            s.unique_bytes as f64 / 1e6
        );
    }
    if summaries.len() > 12 {
        println!("  ... and {} more", summaries.len() - 12);
    }

    println!("\n=== throughput timeline (2 s bins) ===");
    for (t, bps) in timeline.finish().iter().take(20) {
        let bars = (bps / 2e6) as usize;
        println!("  {:>6.1} s | {:<40} {:.1} Mbps", t.as_secs_f64(), "#".repeat(bars.min(40)), bps / 1e6);
    }

    println!("\n=== cycle structure ===");
    let analysis = OnOffAnalysis::from_trace(trace, &AnalysisConfig::default());
    println!(
        "{} ON periods, {} OFF periods; strategy: {}",
        analysis.cycles.len(),
        analysis.off_periods.len(),
        classify(trace, &AnalysisConfig::default())
    );

    let path = std::env::temp_dir().join("netflix_session.pcap");
    write_pcap(trace, File::create(&path).expect("create pcap")).expect("write pcap");
    println!("\nwrote {} ({} packets) — open it in Wireshark", path.display(), trace.len());
}
