//! Bulk transfer: the *no ON-OFF cycles* strategy (§5.1.4).
//!
//! Neither side throttles: the server writes the whole video, the client
//! reads greedily, and the transfer runs at the end-to-end available
//! bandwidth — a plain TCP file transfer. The paper observes this for HTML5
//! on Firefox and for Flash HD videos, and notes its costs: large receive
//! buffers and maximal unused bytes on user interruption (Table 2).

use vstream_tcp::TcpConfig;

use crate::engine::{Engine, SessionLogic};
use crate::strategies::{server_tcp, startup_threshold};
use crate::video::Video;
use crate::viewer::Viewer;

/// Session logic for bulk (unpaced) streaming.
#[derive(Clone)]
pub struct BulkLogic {
    video: Video,
    /// The player and counters; bulk transfers pace no blocks.
    viewer: Viewer,
    /// Time the download completed, if it did.
    pub(crate) completed_at: Option<vstream_sim::SimTime>,
}

impl BulkLogic {
    /// Creates the logic for one video.
    pub fn new(video: Video) -> Self {
        BulkLogic {
            video,
            viewer: Viewer::new(&video, startup_threshold(&video)),
            completed_at: None,
        }
    }
}

impl SessionLogic for BulkLogic {
    fn on_start(&mut self, eng: &mut Engine) {
        // A large receive buffer: the client never pushes back (flow control
        // is not the limit for bulk transfer on an overprovisioned path).
        let client_cfg = TcpConfig::default().with_recv_buffer(8 << 20);
        eng.open_connection(client_cfg, server_tcp());
    }

    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        eng.server_write(conn, self.video.size_bytes());
        eng.server_close(conn);
    }

    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        self.viewer.read(eng, conn, u64::MAX);
    }

    fn on_eof(&mut self, eng: &mut Engine, _conn: usize) {
        self.completed_at = Some(eng.now());
    }

    fn viewer(&self) -> Option<&Viewer> {
        Some(&self.viewer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testing::{engine, run_traced};
    use vstream_capture::Trace;
    use vstream_analysis::{classify, AnalysisConfig, SessionPhases, Strategy};
    use vstream_net::NetworkProfile;
    use vstream_sim::SimDuration;

    fn run(video: Video, profile: NetworkProfile, secs: u64) -> (Trace, BulkLogic) {
        let mut eng = engine(profile.build_path(), 19, SimDuration::from_secs(secs));
        let mut logic = BulkLogic::new(video);
        (run_traced(&mut eng, &mut logic), logic)
    }

    #[test]
    fn classified_as_no_onoff() {
        let video = Video::new(1, 2_000_000, SimDuration::from_secs(300));
        let (trace, logic) = run(video, NetworkProfile::Research, 180);
        assert_eq!(classify(&trace, &AnalysisConfig::default()), Strategy::NoOnOff);
        assert_eq!(logic.viewer.read_total(), video.size_bytes());
    }

    #[test]
    fn download_rate_tracks_bandwidth_not_encoding_rate() {
        // Fig. 8: two videos with very different encoding rates download at
        // (roughly) the same rate — the available bandwidth.
        let slow = Video::new(1, 500_000, SimDuration::from_secs(240));
        let fast = Video::new(2, 4_000_000, SimDuration::from_secs(30));
        let (_, l1) = run(slow, NetworkProfile::Research, 180);
        let (_, l2) = run(fast, NetworkProfile::Research, 180);
        let t1 = l1.completed_at.expect("slow video incomplete").as_secs_f64();
        let t2 = l2.completed_at.expect("fast video incomplete").as_secs_f64();
        let rate1 = slow.size_bytes() as f64 * 8.0 / t1;
        let rate2 = fast.size_bytes() as f64 * 8.0 / t2;
        // Both should be tens of Mbps; the ratio of download rates must be
        // far smaller than the 8x ratio of encoding rates.
        assert!(rate1 > 10e6 && rate2 > 10e6, "rates: {rate1:.0} / {rate2:.0}");
        assert!((rate1 / rate2 - 1.0).abs() < 0.5);
    }

    #[test]
    fn no_steady_state_phase() {
        let video = Video::new(1, 2_000_000, SimDuration::from_secs(300));
        let (trace, _) = run(video, NetworkProfile::Research, 180);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        assert!(!phases.has_steady_state());
        assert_eq!(phases.buffering_bytes, video.size_bytes());
    }

    #[test]
    fn completes_even_on_slow_lossy_path() {
        let video = Video::new(1, 700_000, SimDuration::from_secs(120));
        let (_, logic) = run(video, NetworkProfile::Residence, 180);
        assert_eq!(logic.viewer.read_total(), video.size_bytes());
        assert!(logic.viewer.player().has_started());
    }

    #[test]
    fn player_buffers_entire_remainder() {
        // Table 2: bulk transfer implies a large receive-side buffer.
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(300));
        let (_, logic) = run(video, NetworkProfile::Research, 180);
        // Nearly the whole video sits in the buffer shortly after start.
        assert!(
            logic.viewer.player().stats().peak_buffer_bytes > video.size_bytes() * 9 / 10,
            "peak buffer = {}",
            logic.viewer.player().stats().peak_buffer_bytes
        );
    }
}
