//! The streaming-strategy implementations (one per behaviour the paper
//! observed) plus the user-interruption wrapper.

mod abr;
mod bulk;
mod client_pull;
mod interrupt;
mod netflix;
mod range_request;
mod server_paced;

pub use abr::{AbrLogic, ABR_LADDER, ABR_SEGMENT_MS};
pub use bulk::BulkLogic;
pub use client_pull::{ClientPullConfig, ClientPullLogic};
pub use interrupt::InterruptAfter;
pub use netflix::{NetflixConfig, NetflixLogic, NetflixMode};
pub use range_request::RangeRequestLogic;
pub use server_paced::{ServerPacedConfig, ServerPacedLogic};

use vstream_sim::SimDuration;

use crate::video::Video;

/// Default player startup threshold: two seconds of content (clamped to the
/// video size). Every strategy's viewer starts playback here except
/// Netflix's, which waits for 4 s (`NetflixLogic::new`); the client-pull and
/// range-request buffer targets are sized above it.
pub(crate) fn startup_threshold(video: &Video) -> u64 {
    video.playback_bytes(2.0).min(video.size_bytes()).max(1)
}

/// Common default for server-side TCP: a large enough receive buffer that
/// the client's request direction never stalls, and a congestion window
/// capped at a 2011-era server send buffer (~1 MB). The cap matters for
/// fidelity: without it, every multi-megabyte client-pull burst overshoots
/// the bottleneck queue by megabytes, loses its tail against a closed
/// receive window, and collapses cwnd by RTO — destroying the persistent
/// congestion window whose absence of reset Fig. 9 demonstrates.
pub(crate) fn server_tcp() -> vstream_tcp::TcpConfig {
    let mut cfg = vstream_tcp::TcpConfig::default().with_recv_buffer(256 * 1024);
    cfg.max_cwnd = 1 << 20;
    cfg
}

/// Time to move (or play) `bytes` at `bps`, as exact integer tick math:
/// `ns = bytes × 8e9 / bps` in u128, rounded to the nearest nanosecond.
/// Every strategy pacing timer goes through this instead of
/// `SimDuration::from_secs_f64(bytes·8/bps)`, whose double rounding
/// (f64 quotient, then ns conversion) made timer deltas depend on float
/// representation rather than on the rates alone.
pub(crate) fn rate_delay(bytes: u64, bps: u64) -> SimDuration {
    debug_assert!(bps > 0, "rate must be positive");
    let ns = (bytes as u128 * 8_000_000_000u128 + bps as u128 / 2) / bps as u128;
    SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
}
