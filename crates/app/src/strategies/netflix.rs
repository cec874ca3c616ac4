//! Netflix streaming (§5.2).
//!
//! Netflix (Silverlight on PCs, native applications on mobile devices)
//! differs from YouTube in three measured ways:
//!
//! 1. **Multi-bitrate prefetch.** When a session starts, fragments of *all*
//!    available encoding rates are downloaded (Akhshabi et al., cited in
//!    §5.2.1), which is why PC buffering amounts are ≈50 MB while the iPad —
//!    hypothesised to use a subset of rates — shows ≈10 MB.
//! 2. **Many TCP connections.** PCs and iPads fetch each steady-state block
//!    on a fresh connection; a fresh connection starts in slow start, which
//!    restores the ack clock the long-lived YouTube connections lack
//!    (§5.2.2).
//! 3. **Android pulls a single connection** with multi-megabyte blocks —
//!    long ON-OFF cycles (Fig. 10b) and an ≈40 MB buffering phase.

use vstream_sim::SimDuration;
use vstream_tcp::TcpConfig;

use crate::engine::{Engine, SessionLogic};
use crate::strategies::{rate_delay, server_tcp};
use crate::video::{rate_bytes_ms, Video};
use crate::viewer::Viewer;

/// Playback milliseconds of each non-selected rate prefetched during
/// buffering, on every client.
const PROBE_FRAGMENT_MS: u64 = 10_000;

/// Whole milliseconds for a seconds-valued config knob. The configs keep
/// human-readable f64 seconds; all byte sizing happens in integer ms.
fn secs_ms(secs: f64) -> u64 {
    (secs * 1000.0).round() as u64
}

/// Which Netflix client is simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetflixMode {
    /// Silverlight in any browser: short cycles, fresh connection per block.
    Pc,
    /// Native iPad application: like PC but with a subset of encoding rates.
    Ipad,
    /// Native Android application: single connection, long cycles.
    Android,
}

/// Parameters of a Netflix session.
#[derive(Clone, Debug)]
pub struct NetflixConfig {
    /// Client device.
    pub mode: NetflixMode,
    /// Encoding rates available for this title, bits per second. Fragments
    /// of every rate are prefetched during buffering.
    pub(crate) available_rates: Vec<u64>,
    /// The rate selected for playback (Netflix picks it from the available
    /// bandwidth; the workload crate decides).
    pub(crate) selected_rate: u64,
    /// Seconds of the selected rate buffered before steady state.
    pub buffer_playback_secs: f64,
    /// Seconds of playback per steady-state block.
    pub(crate) block_playback_secs: f64,
    /// Connections used in parallel for the selected-rate buffering burst.
    /// Netflix stripes the buffering phase across several connections,
    /// which keeps its aggregate throughput high on lossy paths (one
    /// loss-limited Reno flow would crawl).
    pub(crate) buffering_connections: u32,
}

impl NetflixConfig {
    /// The PC (Silverlight) behaviour: five rates, deep buffer.
    pub fn pc() -> Self {
        NetflixConfig {
            mode: NetflixMode::Pc,
            available_rates: vec![500_000, 1_000_000, 1_600_000, 2_200_000, 3_000_000],
            selected_rate: 3_000_000,
            buffer_playback_secs: 110.0,
            block_playback_secs: 4.0,
            buffering_connections: 6,
        }
    }

    /// The native iPad application: subset of rates, shallower buffer.
    pub fn ipad() -> Self {
        NetflixConfig {
            mode: NetflixMode::Ipad,
            available_rates: vec![500_000, 1_000_000, 1_600_000],
            selected_rate: 1_600_000,
            buffer_playback_secs: 40.0,
            block_playback_secs: 4.0,
            buffering_connections: 4,
        }
    }

    /// The native Android application: single connection, long cycles.
    pub fn android() -> Self {
        NetflixConfig {
            mode: NetflixMode::Android,
            available_rates: vec![500_000, 1_000_000, 1_600_000],
            selected_rate: 1_600_000,
            buffer_playback_secs: 160.0,
            block_playback_secs: 20.0,
            buffering_connections: 1,
        }
    }

    /// Bytes of non-selected-rate fragments prefetched during buffering:
    /// the reference the tests hold the session's probe reads to. Integer
    /// `bits × ms / 8000` sizing, as the session's fragments are sized.
    #[cfg(test)]
    fn probe_bytes(&self) -> u64 {
        self.available_rates
            .iter()
            .filter(|&&r| r != self.selected_rate)
            .map(|&r| rate_bytes_ms(r, PROBE_FRAGMENT_MS))
            .sum()
    }

    /// Bytes of the selected rate buffered before steady state.
    pub(crate) fn buffer_bytes(&self) -> u64 {
        rate_bytes_ms(self.selected_rate, secs_ms(self.buffer_playback_secs))
    }

    /// Steady-state block size in bytes.
    pub(crate) fn block_bytes(&self) -> u64 {
        rate_bytes_ms(self.selected_rate, secs_ms(self.block_playback_secs))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnKind {
    /// Prefetch fragment of a non-selected rate (bytes are overhead).
    Probe,
    /// Selected-rate content.
    Content,
}

/// Session logic for Netflix streaming.
#[derive(Clone)]
pub struct NetflixLogic {
    cfg: NetflixConfig,
    video: Video,
    /// The player and counters, fed and counted by selected-rate content
    /// only (probe bytes go to `probe_read`). A block is one steady-state
    /// content block (a fresh connection on PC/iPad, a paced drain on
    /// Android); probes and the buffering burst are excluded.
    viewer: Viewer,
    /// Per-connection bookkeeping: what each open connection carries.
    conns: Vec<(ConnKind, u64)>,
    /// Selected-rate bytes requested so far.
    content_offset: u64,
    /// The single Android connection, once opened.
    android_conn: Option<usize>,
    /// Probe (non-selected-rate) bytes read — pure overhead.
    pub(crate) probe_read: u64,
    pull_armed: bool,
}

const PULL_TIMER: u32 = 1;

impl NetflixLogic {
    /// Creates the logic for one title. The `video` duration applies to the
    /// selected rate; its `encoding_bps` is overridden by the selected rate.
    pub fn new(cfg: NetflixConfig, duration: SimDuration) -> Self {
        let video = Video::new(0, cfg.selected_rate, duration);
        // Netflix starts playback at 4 s of content, not at the
        // `startup_threshold` (2 s) every other strategy's viewer uses.
        let startup = video.playback_bytes(4.0).min(video.size_bytes()).max(1);
        NetflixLogic {
            cfg,
            video,
            viewer: Viewer::new(&video, startup),
            conns: Vec::new(),
            content_offset: 0,
            android_conn: None,
            probe_read: 0,
            pull_armed: false,
        }
    }

    fn client_tcp(&self) -> TcpConfig {
        match self.cfg.mode {
            // PC/iPad read greedily per connection; the connection carries
            // exactly one block, so the buffer just needs headroom.
            NetflixMode::Pc | NetflixMode::Ipad => TcpConfig::default().with_recv_buffer(2 << 20),
            // Android paces by draining blocks from a single socket, so the
            // receive buffer is the block granularity.
            NetflixMode::Android => {
                TcpConfig::default().with_recv_buffer(self.cfg.block_bytes().max(64 * 1024))
            }
        }
    }

    fn open_transfer(&mut self, eng: &mut Engine, kind: ConnKind, bytes: u64) -> usize {
        let conn = eng.open_connection(self.client_tcp(), server_tcp());
        debug_assert_eq!(conn, self.conns.len());
        self.conns.push((kind, bytes));
        conn
    }

    fn request_next_block(&mut self, eng: &mut Engine) {
        let remaining = self.video.size_bytes().saturating_sub(self.content_offset);
        if remaining == 0 {
            return;
        }
        let chunk = self.cfg.block_bytes().min(remaining);
        self.content_offset += chunk;
        self.viewer.count_block(eng);
        self.open_transfer(eng, ConnKind::Content, chunk);
    }

    /// True while selected-rate content remains to fetch (PC/iPad: to
    /// request; Android: to drain from the single connection).
    fn content_remaining(&self) -> bool {
        match self.cfg.mode {
            NetflixMode::Pc | NetflixMode::Ipad => self.content_offset < self.video.size_bytes(),
            NetflixMode::Android => self.viewer.read_total() < self.video.size_bytes(),
        }
    }

    /// Arms the pull timer for when the player has room for the next block.
    fn arm_pull(&mut self, eng: &mut Engine) {
        if self.pull_armed || !self.content_remaining() {
            return;
        }
        self.viewer.advance(eng);
        let room = self.cfg.buffer_bytes().saturating_sub(self.viewer.player().buffer_bytes());
        let needed = self.cfg.block_bytes().saturating_sub(room);
        let delay = rate_delay(needed, self.cfg.selected_rate).max(SimDuration::from_millis(5));
        eng.schedule_app_timer(delay, PULL_TIMER);
        self.pull_armed = true;
    }
}

impl SessionLogic for NetflixLogic {
    fn on_start(&mut self, eng: &mut Engine) {
        // Prefetch fragments of every non-selected rate, in parallel.
        let probes: Vec<u64> = self
            .cfg
            .available_rates
            .iter()
            .filter(|&&r| r != self.cfg.selected_rate)
            .map(|&r| rate_bytes_ms(r, PROBE_FRAGMENT_MS))
            .collect();
        for bytes in probes {
            self.open_transfer(eng, ConnKind::Probe, bytes);
        }
        // The buffering phase of the selected rate.
        match self.cfg.mode {
            NetflixMode::Pc | NetflixMode::Ipad => {
                // Stripe the buffering burst over several connections.
                let burst = self.cfg.buffer_bytes().min(self.video.size_bytes());
                self.content_offset = burst;
                let stripes = self.cfg.buffering_connections.max(1) as u64;
                let per = burst / stripes;
                let mut assigned = 0;
                for i in 0..stripes {
                    let bytes = if i + 1 == stripes { burst - assigned } else { per };
                    assigned += bytes;
                    if bytes > 0 {
                        self.open_transfer(eng, ConnKind::Content, bytes);
                    }
                }
            }
            NetflixMode::Android => {
                // Single long-lived connection; the server sends everything
                // and the client paces by draining blocks.
                let conn = self.open_transfer(eng, ConnKind::Content, self.video.size_bytes());
                self.android_conn = Some(conn);
                self.content_offset = self.video.size_bytes();
            }
        }
    }

    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        let (_, bytes) = self.conns[conn];
        eng.server_write(conn, bytes);
        eng.server_close(conn);
    }

    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        let (kind, _) = self.conns[conn];
        match (self.cfg.mode, kind) {
            (_, ConnKind::Probe) => {
                self.probe_read += eng.client_read(conn, u64::MAX);
            }
            (NetflixMode::Pc | NetflixMode::Ipad, ConnKind::Content) => {
                self.viewer.read(eng, conn, u64::MAX);
            }
            (NetflixMode::Android, ConnKind::Content) => {
                // Greedy only during the buffering phase; once the pull
                // timer paces the session, arrivals wait in the socket.
                if self.viewer.player().buffer_bytes() < self.cfg.buffer_bytes() && !self.pull_armed {
                    self.viewer.read(eng, conn, u64::MAX);
                    if self.viewer.player().buffer_bytes() >= self.cfg.buffer_bytes() {
                        self.arm_pull(eng);
                    }
                }
            }
        }
    }

    fn on_eof(&mut self, eng: &mut Engine, conn: usize) {
        let (kind, _) = self.conns[conn];
        if kind == ConnKind::Content && matches!(self.cfg.mode, NetflixMode::Pc | NetflixMode::Ipad) {
            // The block finished; schedule the next when the player has room.
            self.arm_pull(eng);
        }
    }

    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        debug_assert_eq!(id, PULL_TIMER);
        self.pull_armed = false;
        self.viewer.advance(eng);
        let room = self.cfg.buffer_bytes().saturating_sub(self.viewer.player().buffer_bytes());
        match self.cfg.mode {
            NetflixMode::Pc | NetflixMode::Ipad => {
                if room >= self.cfg.block_bytes() {
                    self.request_next_block(eng);
                } else {
                    self.arm_pull(eng);
                }
            }
            NetflixMode::Android => {
                let conn = self.android_conn.expect("android connection open");
                if room >= self.cfg.block_bytes() {
                    self.viewer.count_block(eng);
                    self.viewer.read(eng, conn, self.cfg.block_bytes());
                }
                self.arm_pull(eng);
            }
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
    use vstream_analysis::{classify, AnalysisConfig, OnOffAnalysis, SessionPhases, Strategy};
    use vstream_net::NetworkProfile;

    fn run(cfg: NetflixConfig, secs: u64) -> (Engine, Trace, NetflixLogic) {
        let mut eng = engine(
            NetworkProfile::Academic.build_path(),
            29,
            SimDuration::from_secs(secs),
        );
        // A 40-minute title: never completes within the capture.
        let mut logic = NetflixLogic::new(cfg, SimDuration::from_secs(2400));
        let trace = run_traced(&mut eng, &mut logic);
        (eng, trace, logic)
    }

    #[test]
    fn pc_buffering_is_about_50mb() {
        let (_, trace, _) = run(NetflixConfig::pc(), 180);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        let mb = phases.buffering_bytes as f64 / 1e6;
        assert!((40.0..=60.0).contains(&mb), "PC buffering = {mb:.1} MB");
    }

    #[test]
    fn ipad_buffering_is_about_10mb() {
        let (_, trace, _) = run(NetflixConfig::ipad(), 180);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        let mb = phases.buffering_bytes as f64 / 1e6;
        assert!((7.0..=16.0).contains(&mb), "iPad buffering = {mb:.1} MB");
    }

    #[test]
    fn android_buffering_is_about_40mb() {
        let (_, trace, _) = run(NetflixConfig::android(), 180);
        let phases = SessionPhases::from_trace(&trace, &AnalysisConfig::default());
        let mb = phases.buffering_bytes as f64 / 1e6;
        assert!((30.0..=50.0).contains(&mb), "Android buffering = {mb:.1} MB");
    }

    #[test]
    fn pc_is_short_cycles_android_is_long() {
        let (_, trace_pc, _) = run(NetflixConfig::pc(), 180);
        assert_eq!(
            classify(&trace_pc, &AnalysisConfig::default()),
            Strategy::ShortCycles
        );
        let (_, trace_android, _) = run(NetflixConfig::android(), 180);
        assert_eq!(
            classify(&trace_android, &AnalysisConfig::default()),
            Strategy::LongCycles
        );
    }

    #[test]
    fn pc_blocks_are_below_2p5mb_but_bigger_than_youtube() {
        let (_, trace, logic) = run(NetflixConfig::pc(), 180);
        assert_eq!(logic.cfg.block_bytes(), 1_500_000);
        let analysis = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        let blocks = analysis.steady_state_block_sizes();
        assert!(!blocks.is_empty());
        let cdf = vstream_analysis::Cdf::new(blocks.iter().map(|&b| b as f64).collect());
        let median = cdf.median();
        assert!(
            (1_000_000.0..2_500_000.0).contains(&median),
            "median Netflix PC block = {median}"
        );
    }

    #[test]
    fn pc_uses_many_connections() {
        let (eng, _, _) = run(NetflixConfig::pc(), 180);
        // 4 probes + buffering + one per steady-state block.
        assert!(
            eng.connection_count() > 10,
            "connections = {}",
            eng.connection_count()
        );
    }

    #[test]
    fn android_uses_few_connections() {
        let (eng, _, _) = run(NetflixConfig::android(), 180);
        // 2 probes + 1 content connection.
        assert!(
            eng.connection_count() <= 3,
            "connections = {}",
            eng.connection_count()
        );
    }

    #[test]
    fn probe_bytes_are_downloaded_but_not_played() {
        let (_, _, logic) = run(NetflixConfig::pc(), 180);
        assert!(logic.probe_read > 0);
        let expected = NetflixConfig::pc().probe_bytes();
        assert_eq!(logic.probe_read, expected);
        // Probe bytes never reach the player: it buffers no more than the
        // playback reads delivered.
        assert!(logic.viewer.player().buffer_bytes() <= logic.viewer.read_total());
    }

    #[test]
    fn player_sustains_playback() {
        let (_, _, logic) = run(NetflixConfig::pc(), 180);
        assert!(logic.viewer.player().has_started());
        assert_eq!(logic.viewer.player().stats().stalls, 0);
    }

    #[test]
    fn shipped_ladders_size_exactly() {
        // The integer rework must reproduce the historical sizes at every
        // shipped ladder rung (they are all exactly divisible).
        let pc = NetflixConfig::pc();
        assert_eq!(pc.block_bytes(), 1_500_000);
        assert_eq!(pc.buffer_bytes(), 41_250_000);
        assert_eq!(pc.probe_bytes(), (500_000 + 1_000_000 + 1_600_000 + 2_200_000) * 10 / 8);
        let ipad = NetflixConfig::ipad();
        assert_eq!(ipad.block_bytes(), 800_000);
        assert_eq!(ipad.buffer_bytes(), 8_000_000);
        let android = NetflixConfig::android();
        assert_eq!(android.block_bytes(), 4_000_000);
        assert_eq!(android.buffer_bytes(), 32_000_000);
    }

    #[test]
    fn odd_rates_floor_without_float_drift() {
        // A rate that is not divisible by 8 bits/byte: 1_000_003 bps for
        // 4 s = 500001.5 B → floor 500001, regardless of how the f64
        // quotient would have rounded.
        let mut cfg = NetflixConfig::pc();
        cfg.selected_rate = 1_000_003;
        assert_eq!(cfg.block_bytes(), 500_001);
        // Probe fragments too: 10 s at 999_999 bps = 1249998.75 B →
        // 1249998.
        cfg.available_rates = vec![999_999, cfg.selected_rate];
        assert_eq!(cfg.probe_bytes(), 1_249_998);
    }
}
