//! Server-paced streaming: the YouTube-over-Flash behaviour (§5.1.1).
//!
//! The server pushes a startup burst worth a fixed amount of *playback time*
//! (the paper measures ≈40 s, with a 0.85 correlation between buffering
//! amount and encoding rate), then writes one block (64 kB) per period,
//! where the period is chosen so the average steady-state rate is
//! `accumulation × encoding_rate` (the paper measures k ≈ 1.25). The client
//! reads greedily — the pacing is entirely server-side, which is why the
//! receive window never empties in Fig. 2(b)'s Flash curve.

use vstream_sim::SimDuration;
use vstream_tcp::TcpConfig;

use crate::engine::{Engine, SessionLogic};
use crate::strategies::{server_tcp, startup_threshold};
use crate::video::Video;
use crate::viewer::Viewer;

/// Steady-state block size in bytes (YouTube Flash: 64 kB).
const BLOCK_BYTES: u64 = 64 * 1024;

/// Client receive buffer. Large: the client is not the throttle.
const CLIENT_RECV_BUFFER: u64 = 4 << 20;

/// The two parameters of the server-paced strategy that `ext-stalls` varies.
#[derive(Clone, Debug)]
pub struct ServerPacedConfig {
    /// Playback seconds pushed during the buffering phase (YouTube: 40 s).
    pub buffer_playback_secs: f64,
    /// Target accumulation ratio (YouTube Flash: 1.25).
    pub accumulation: f64,
}

impl Default for ServerPacedConfig {
    fn default() -> Self {
        ServerPacedConfig {
            buffer_playback_secs: 40.0,
            accumulation: 1.25,
        }
    }
}

/// Session logic for server-paced streaming.
#[derive(Clone)]
pub struct ServerPacedLogic {
    cfg: ServerPacedConfig,
    video: Video,
    /// The player and counters; a block is one steady-state write (an ON
    /// period after the startup burst).
    viewer: Viewer,
    conn: usize,
    /// Bytes queued to TCP so far.
    sent: u64,
}

const BLOCK_TIMER: u32 = 1;

impl ServerPacedLogic {
    /// Creates the logic for one video.
    pub fn new(cfg: ServerPacedConfig, video: Video) -> Self {
        ServerPacedLogic {
            cfg,
            video,
            viewer: Viewer::new(&video, startup_threshold(&video)),
            conn: 0,
            sent: 0,
        }
    }

    fn block_interval(&self) -> SimDuration {
        // block / (k * e) seconds per block. Intentionally float: the
        // accumulation ratio k is a real-valued target (1.25, 0.95, …), so
        // the period has no exact integer form — see DESIGN.md §14 for the
        // float-vs-integer pacing audit.
        SimDuration::from_secs_f64(
            BLOCK_BYTES as f64 * 8.0 / (self.cfg.accumulation * self.video.encoding_bps as f64),
        )
    }

    fn write_next(&mut self, eng: &mut Engine, bytes: u64) {
        let remaining = self.video.size_bytes() - self.sent;
        let n = bytes.min(remaining);
        if n > 0 {
            eng.server_write(self.conn, n);
            self.sent += n;
        }
        if self.sent >= self.video.size_bytes() {
            eng.server_close(self.conn);
        } else {
            eng.schedule_app_timer(self.block_interval(), BLOCK_TIMER);
        }
    }
}

impl SessionLogic for ServerPacedLogic {
    fn on_start(&mut self, eng: &mut Engine) {
        let client_cfg = TcpConfig::default().with_recv_buffer(CLIENT_RECV_BUFFER);
        self.conn = eng.open_connection(client_cfg, server_tcp());
    }

    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        debug_assert_eq!(conn, self.conn);
        let burst = self.video.playback_bytes(self.cfg.buffer_playback_secs);
        self.write_next(eng, burst);
    }

    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        debug_assert_eq!(id, BLOCK_TIMER);
        self.viewer.count_block(eng);
        self.write_next(eng, BLOCK_BYTES);
    }

    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        self.viewer.read(eng, conn, u64::MAX);
    }

    fn viewer(&self) -> Option<&Viewer> {
        Some(&self.viewer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testing::{engine, run_traced};
    use vstream_capture::{TapDirection, Trace, FLAG_FIN};
    use vstream_analysis::{classify, AnalysisConfig, SessionPhases, Strategy, WindowFold};
    use vstream_net::NetworkProfile;
    use vstream_sim::SimDuration;

    fn run(video: Video, secs: u64) -> (Trace, ServerPacedLogic) {
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            11,
            SimDuration::from_secs(secs),
        );
        let mut logic = ServerPacedLogic::new(ServerPacedConfig::default(), video);
        (run_traced(&mut eng, &mut logic), logic)
    }

    #[test]
    fn produces_short_onoff_cycles() {
        // 1 Mbps, 600 s video — far longer than the 180 s capture.
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(600));
        let (trace, _) = run(video, 180);
        let strategy = classify(&trace, &AnalysisConfig::default());
        assert_eq!(strategy, Strategy::ShortCycles);
    }

    #[test]
    fn buffering_phase_holds_40s_of_playback() {
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(600));
        let (trace, _) = run(video, 180);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        assert!(phases.has_steady_state());
        let playback = phases.buffered_playback_time(1_000_000.0);
        assert!(
            (35.0..=45.0).contains(&playback),
            "buffered playback = {playback:.1} s (expected ~40)"
        );
    }

    #[test]
    fn steady_state_blocks_are_64kb() {
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(600));
        let (trace, _) = run(video, 180);
        let analysis = vstream_analysis::OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        let blocks = analysis.steady_state_block_sizes();
        assert!(blocks.len() > 100, "expected many cycles, got {}", blocks.len());
        let cdf = vstream_analysis::Cdf::new(blocks.iter().map(|&b| b as f64).collect());
        let median = cdf.median();
        assert!(
            (60_000.0..=70_000.0).contains(&median),
            "median block = {median}"
        );
    }

    #[test]
    fn accumulation_ratio_is_125() {
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(600));
        let (trace, _) = run(video, 180);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        let k = phases.accumulation_ratio(1_000_000.0).unwrap_or(f64::NAN);
        assert!((1.1..=1.4).contains(&k), "k = {k:.3}");
    }

    #[test]
    fn degenerate_sessions_reduce_to_sentinels() {
        // Zero-packet (1 ns capture) and sub-second sessions must flow
        // through the reduction set without a panic.
        for (seed, capture) in [(31, SimDuration::from_nanos(1)), (37, SimDuration::from_millis(700))] {
            let video = Video::new(1, 1_000_000, SimDuration::from_secs(600));
            let mut eng = engine(NetworkProfile::Research.build_path(), seed, capture);
            let mut logic = ServerPacedLogic::new(ServerPacedConfig::default(), video);
            let trace = run_traced(&mut eng, &mut logic);
            let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
            // No steady state yet: the ratio is a sentinel, not a panic.
            assert!(phases.accumulation_ratio(1_000_000.0).is_none());
            let mut wnd = WindowFold::new(0);
            trace.replay(&mut wnd);
            let wnd = wnd.finish();
            let _ = wnd.iter().map(|&(_, w)| w).max().unwrap_or(0);
        }
    }

    #[test]
    fn short_video_completes_and_closes() {
        // 30 s video: fully pushed in the initial burst.
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(30));
        let (trace, logic) = run(video, 180);
        assert_eq!(logic.viewer.read_total(), video.size_bytes());
        assert!(trace
            .records()
            .any(|p| p.dir() == TapDirection::Incoming && p.flags & FLAG_FIN != 0));
    }

    #[test]
    fn player_never_stalls_on_fast_network() {
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(120));
        let (_, logic) = run(video, 180);
        assert!(logic.viewer.player().has_started());
        assert_eq!(logic.viewer.player().stats().stalls, 0);
    }
}
