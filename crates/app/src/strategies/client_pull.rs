//! Client-pull streaming: the HTML5 behaviours (§5.1.1 and §5.1.2).
//!
//! The server is a dumb bulk sender — it writes the whole file and closes.
//! The *client* paces the transfer: it reads greedily until an initial
//! buffer target is reached, then stops reading. The TCP receive buffer
//! fills, the advertised window collapses to zero, and the server falls
//! silent — the empty-receive-window sawtooth of Fig. 2(b). Once playback
//! has consumed one block's worth, the client drains a block from the
//! socket, the window reopens, and the server bursts the next block.
//!
//! Block size decides the strategy class: Internet Explorer pulls 256 kB
//! (*short cycles*, Fig. 5); Chrome and the Android application pull
//! multi-megabyte blocks (*long cycles*, Fig. 6).

use vstream_sim::SimDuration;
use vstream_tcp::TcpConfig;

use crate::engine::{Engine, SessionLogic};
use crate::strategies::{rate_delay, server_tcp, startup_threshold};
use crate::video::Video;
use crate::viewer::Viewer;

/// Parameters of the client-pull strategy.
#[derive(Clone, Debug)]
pub struct ClientPullConfig {
    /// Bytes downloaded greedily before pull-pacing starts (IE/Chrome:
    /// 10–15 MB; Android: 4–8 MB).
    pub(crate) initial_target_bytes: u64,
    /// Bytes drained from the socket per pull (IE: 256 kB; Chrome ≈ 8–10 MB;
    /// Android ≈ 4 MB).
    pub block_bytes: u64,
}

impl ClientPullConfig {
    /// The Internet Explorer HTML5 behaviour: ~12 MB initial buffer, 256 kB
    /// blocks.
    pub fn internet_explorer() -> Self {
        ClientPullConfig {
            initial_target_bytes: 12 << 20,
            block_bytes: 256 * 1024,
        }
    }

    /// The Chrome HTML5 behaviour: ~12 MB downloaded before the first OFF
    /// period (4 MB read by the application plus the 8 MB socket buffer),
    /// ~8 MB blocks.
    pub fn chrome() -> Self {
        ClientPullConfig {
            initial_target_bytes: 4 << 20,
            block_bytes: 8 << 20,
        }
    }

    /// The native Android YouTube application: 4–8 MB downloaded during
    /// buffering, ~4 MB blocks.
    pub fn android() -> Self {
        ClientPullConfig {
            initial_target_bytes: 2 << 20,
            block_bytes: 4 << 20,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Greedy reads until the initial target.
    Buffering,
    /// Pull one block per playback period.
    Steady,
    /// Everything read.
    Done,
}

/// Session logic for client-pull streaming.
#[derive(Clone)]
pub struct ClientPullLogic {
    cfg: ClientPullConfig,
    video: Video,
    /// The player and counters; a block is one steady-state pull (an ON
    /// period after buffering).
    viewer: Viewer,
    conn: usize,
    phase: Phase,
    pull_timer_armed: bool,
}

const PULL_TIMER: u32 = 1;

impl ClientPullLogic {
    /// Creates the logic for one video.
    pub fn new(cfg: ClientPullConfig, video: Video) -> Self {
        ClientPullLogic {
            cfg,
            video,
            viewer: Viewer::new(&video, startup_threshold(&video)),
            conn: 0,
            phase: Phase::Buffering,
            pull_timer_armed: false,
        }
    }

    /// The steady-state player-buffer target. At least one block above the
    /// startup threshold, so a block-sized pull is always eventually
    /// possible even when the block exceeds the initial download target.
    fn steady_target(&self) -> u64 {
        self.cfg
            .initial_target_bytes
            .max(self.cfg.block_bytes + startup_threshold(&self.video))
    }

    /// The player-buffer room needed before the next pull.
    fn room(&self) -> u64 {
        self.steady_target().saturating_sub(self.viewer.player().buffer_bytes())
    }

    fn arm_pull_timer(&mut self, eng: &mut Engine) {
        if self.pull_timer_armed || self.phase != Phase::Steady {
            return;
        }
        // Time until playback frees one block of room.
        let needed = self.cfg.block_bytes.saturating_sub(self.room());
        let delay = rate_delay(needed, self.video.encoding_bps).max(SimDuration::from_millis(1));
        eng.schedule_app_timer(delay, PULL_TIMER);
        self.pull_timer_armed = true;
    }

    fn pull(&mut self, eng: &mut Engine) {
        self.viewer.count_block(eng);
        self.viewer.read(eng, self.conn, self.cfg.block_bytes);
        if self.viewer.read_total() >= self.video.size_bytes() {
            self.phase = Phase::Done;
        } else {
            self.arm_pull_timer(eng);
        }
    }
}

impl SessionLogic for ClientPullLogic {
    fn on_start(&mut self, eng: &mut Engine) {
        // The receive buffer is the pull granularity: one block fits, so a
        // full buffer advertises a zero window until the player drains it.
        let recv = self.cfg.block_bytes.max(64 * 1024);
        let client_cfg = TcpConfig::default().with_recv_buffer(recv);
        self.conn = eng.open_connection(client_cfg, server_tcp());
    }

    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        eng.server_write(conn, self.video.size_bytes());
        eng.server_close(conn);
    }

    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        match self.phase {
            Phase::Buffering => {
                self.viewer.read(eng, conn, u64::MAX);
                let read = self.viewer.read_total();
                if read >= self.cfg.initial_target_bytes.min(self.video.size_bytes()) {
                    self.phase = if read >= self.video.size_bytes() {
                        Phase::Done
                    } else {
                        Phase::Steady
                    };
                    self.arm_pull_timer(eng);
                }
            }
            // In the steady state, arrivals sit in the receive buffer until
            // the pull timer drains them.
            Phase::Steady | Phase::Done => {}
        }
    }

    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        debug_assert_eq!(id, PULL_TIMER);
        self.pull_timer_armed = false;
        self.viewer.advance(eng);
        if self.room() >= self.cfg.block_bytes {
            self.pull(eng);
        } else {
            self.arm_pull_timer(eng);
        }
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
    use vstream_analysis::{
        classify, AnalysisConfig, OnOffAnalysis, SessionPhases, Strategy, WindowFold,
    };
    use vstream_net::NetworkProfile;

    fn run(cfg: ClientPullConfig, video: Video, secs: u64) -> (Trace, ClientPullLogic) {
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            13,
            SimDuration::from_secs(secs),
        );
        let mut logic = ClientPullLogic::new(cfg, video);
        (run_traced(&mut eng, &mut logic), logic)
    }

    fn long_video() -> Video {
        // 1.5 Mbps, 20 minutes: cannot complete within the capture.
        Video::new(1, 1_500_000, SimDuration::from_secs(1200))
    }

    #[test]
    fn ie_produces_short_cycles() {
        let (trace, _) = run(ClientPullConfig::internet_explorer(), long_video(), 180);
        assert_eq!(classify(&trace, &AnalysisConfig::default()), Strategy::ShortCycles);
    }

    #[test]
    fn ie_blocks_are_256kb() {
        let (trace, _) = run(ClientPullConfig::internet_explorer(), long_video(), 180);
        let analysis = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        let blocks = analysis.steady_state_block_sizes();
        assert!(!blocks.is_empty());
        let cdf = vstream_analysis::Cdf::new(blocks.iter().map(|&b| b as f64).collect());
        let median = cdf.median();
        assert!(
            (230_000.0..=290_000.0).contains(&median),
            "median block = {median}"
        );
    }

    #[test]
    fn chrome_produces_long_cycles() {
        let (trace, _) = run(ClientPullConfig::chrome(), long_video(), 180);
        assert_eq!(classify(&trace, &AnalysisConfig::default()), Strategy::LongCycles);
    }

    #[test]
    fn receive_window_collapses_to_zero() {
        let (trace, _) = run(ClientPullConfig::internet_explorer(), long_video(), 180);
        let mut wnd = WindowFold::new(0);
        trace.replay(&mut wnd);
        let wnd = wnd.finish();
        assert!(
            wnd.iter().any(|&(_, w)| w == 0),
            "advertised window never reached zero"
        );
        // And it reopens after pulls. (`unwrap_or(0)`: the reduction must
        // stay total — an empty window series is a sentinel, not a panic.)
        let max_w = wnd.iter().map(|&(_, w)| w).max().unwrap_or(0);
        assert!(max_w >= 256 * 1024);
    }

    #[test]
    fn buffering_amount_is_initial_target() {
        let (trace, _) = run(ClientPullConfig::internet_explorer(), long_video(), 180);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        let mb = phases.buffering_bytes as f64 / 1e6;
        assert!(
            (10.0..=16.0).contains(&mb),
            "buffering amount = {mb:.1} MB (expected 10-15)"
        );
    }

    #[test]
    fn accumulation_ratio_is_about_one() {
        let (trace, _) = run(ClientPullConfig::internet_explorer(), long_video(), 180);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        let k = phases.accumulation_ratio(1_500_000.0).unwrap_or(f64::NAN);
        assert!((0.85..=1.2).contains(&k), "k = {k:.3}");
    }

    #[test]
    fn no_pacing_when_bandwidth_below_rate() {
        // On a path slower than the encoding rate there are no OFF periods:
        // the client is always hungry (§3: "we do not observe OFF periods
        // when the end-to-end available bandwidth is less than or equal to
        // the average data transfer rate").
        let video = Video::new(1, 9_000_000, SimDuration::from_secs(600));
        let mut eng = engine(
            NetworkProfile::Residence.build_path(), // 7.7 Mbps < 9 Mbps
            17,
            SimDuration::from_secs(60),
        );
        let mut logic = ClientPullLogic::new(ClientPullConfig::internet_explorer(), video);
        let trace = run_traced(&mut eng, &mut logic);
        let analysis = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        // Allow an RTO-artifact gap or two on the lossy Residence path, but
        // there must be no periodic OFF pattern.
        assert!(
            analysis.off_periods.len() <= 2,
            "unexpected OFF periods: {}",
            analysis.off_periods.len()
        );
    }

    #[test]
    fn short_video_downloads_fully() {
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(60));
        let (_, logic) = run(ClientPullConfig::internet_explorer(), video, 180);
        assert_eq!(logic.viewer.read_total(), video.size_bytes());
    }

    #[test]
    fn android_profile_is_long_cycles_with_smaller_buffer() {
        let (trace, _) = run(ClientPullConfig::android(), long_video(), 180);
        assert_eq!(classify(&trace, &AnalysisConfig::default()), Strategy::LongCycles);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        let mb = phases.buffering_bytes as f64 / 1e6;
        assert!((4.0..=9.0).contains(&mb), "buffering = {mb:.1} MB (expected 4-8)");
    }

    #[test]
    fn zero_packet_session_reductions_are_total() {
        // A capture so short the handshake never completes: the trace is
        // empty and every reduction must hand back its sentinel instead of
        // panicking the whole figure.
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            19,
            SimDuration::from_nanos(1),
        );
        let mut logic = ClientPullLogic::new(ClientPullConfig::internet_explorer(), long_video());
        let trace = run_traced(&mut eng, &mut logic);
        let mut wnd = WindowFold::new(0);
        trace.replay(&mut wnd);
        let wnd = wnd.finish();
        assert_eq!(wnd.iter().map(|&(_, w)| w).max().unwrap_or(0), 0);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        assert!(phases.accumulation_ratio(1_500_000.0).is_none());
        assert_eq!(phases.total_bytes, 0);
        assert_eq!(logic.viewer.read_total(), 0);
    }

    #[test]
    fn sub_second_session_reductions_are_total() {
        // Half a second of capture: buffering never completes, there is no
        // steady state, and the reductions degrade to sentinels.
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            23,
            SimDuration::from_millis(500),
        );
        let mut logic = ClientPullLogic::new(ClientPullConfig::internet_explorer(), long_video());
        let trace = run_traced(&mut eng, &mut logic);
        let mut wnd = WindowFold::new(0);
        trace.replay(&mut wnd);
        let wnd = wnd.finish();
        let _ = wnd.iter().map(|&(_, w)| w).max().unwrap_or(0);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        assert!(phases.accumulation_ratio(1_500_000.0).is_none());
        let analysis = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        assert!(analysis.steady_state_block_sizes().is_empty());
    }

    #[test]
    fn incoming_data_stops_between_pulls() {
        let (trace, _) = run(ClientPullConfig::internet_explorer(), long_video(), 120);
        // Between pulls the server is silent: verify an inter-packet gap
        // close to the pull period exists.
        let gaps = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        assert!(gaps.has_off_periods());
    }
}
