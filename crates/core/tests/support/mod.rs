//! The seeded session generator shared by `flight_recorder.rs` and
//! `abr_switches.rs`: one spec per (seed, strategy shape).

#![allow(dead_code)] // each suite uses its own subset

use vstream::SessionSpec;
use vstream_app::Video;
use vstream_net::NetworkProfile;
use vstream_sim::SimDuration;
use vstream_workload::{Client, Container};

/// One session shape per strategy family the matrix contains.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Server-paced 64 kB blocks (Flash on a desktop browser).
    ServerPaced,
    /// Client-pull with large reads (HTML5 in IE).
    ClientPull,
    /// Netflix buffer-targeted pulls (Silverlight).
    Netflix,
    /// iPad range requests over repeated connections.
    Range,
    /// Android's throttled pull.
    AndroidPull,
    /// A server-paced session the viewer abandons after 3 s.
    Interrupted,
    /// The DASH rate-adaptation extension client (outside Table 1).
    Dash,
}

pub const SHAPES: [Shape; 7] = [
    Shape::ServerPaced,
    Shape::ClientPull,
    Shape::Netflix,
    Shape::Range,
    Shape::AndroidPull,
    Shape::Interrupted,
    Shape::Dash,
];

/// Builds the spec for one (seed, shape) point. Identities vary with the
/// seed so the sessions are not six reruns of one cell.
pub fn spec_for(seed: u64, shape: Shape) -> SessionSpec {
    let video = Video::new(seed + 1, 1_000_000, SimDuration::from_secs(600));
    let capture = SimDuration::from_secs(10);
    let (client, container, profile) = match shape {
        Shape::ServerPaced => (Client::Firefox, Container::Flash, NetworkProfile::Research),
        Shape::ClientPull => {
            (Client::InternetExplorer, Container::Html5, NetworkProfile::Residence)
        }
        Shape::Netflix => (Client::Chrome, Container::Silverlight, NetworkProfile::Academic),
        Shape::Range => (Client::Ipad, Container::Html5, NetworkProfile::Home),
        Shape::AndroidPull => (Client::Android, Container::Html5, NetworkProfile::Research),
        Shape::Interrupted => (Client::Firefox, Container::FlashHd, NetworkProfile::Residence),
        Shape::Dash => (Client::Dash, Container::Html5, NetworkProfile::Home),
    };
    let spec = SessionSpec::new(client, container, video, profile, 1000 + seed, capture);
    match shape {
        Shape::Interrupted => spec.interrupted(SimDuration::from_secs(3)),
        _ => spec,
    }
}
