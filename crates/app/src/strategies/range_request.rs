//! Range-request streaming: the iPad behaviour of §5.1.3 (Fig. 7).
//!
//! The native iOS YouTube player fetches the video as a sequence of HTTP
//! range requests, each on a *fresh TCP connection* (the paper saw 37
//! connections in the first 60 s of one session). The range size grows with
//! the encoding rate (Fig. 7b), so low-rate videos show short ON-OFF cycles
//! while high-rate videos show periodic re-buffering with multi-megabyte
//! transfers — the "combination of ON-OFF strategies".

use vstream_sim::SimDuration;
use vstream_tcp::TcpConfig;

use crate::engine::{Engine, SessionLogic};
use crate::strategies::{server_tcp, startup_threshold};
use crate::video::Video;
use crate::viewer::Viewer;

/// Player buffer target in bytes; a new range is requested whenever the
/// buffer has room for a full chunk below this. Above ≈ 2.8 Mbps a deep
/// refill no longer fits under it, and the target grows to hold one
/// (`RangeRequestLogic::target`).
const TARGET_BYTES: u64 = 6 << 20;

/// Seconds of playback per range request; the chunk size is this times the
/// encoding rate — reproducing Fig. 7(b)'s block-size growth.
const CHUNK_PLAYBACK_SECS: f64 = 4.0;

/// Lower bound on the chunk size (the paper's smallest observed transfer is
/// 64 kB).
const MIN_CHUNK_BYTES: u64 = 64 * 1024;

/// Every `DEEP_REFILL_EVERY`-th request re-buffers deeply: one large range
/// instead of a single chunk. This is the "periodic buffering" of Fig. 7(a)'s
/// Video1 and the reason individual iPad connections carried anywhere from
/// 64 kB to 8 MB — and it is what makes high-rate iPad sessions a
/// *combination* of strategies in Table 1.
const DEEP_REFILL_EVERY: u32 = 5;

/// Deep refills request this many chunks in one range, so the deep range
/// grows with the encoding rate like everything else on the iPad.
const DEEP_REFILL_CHUNKS: u64 = 4;

/// Session logic for range-request streaming.
#[derive(Clone)]
pub struct RangeRequestLogic {
    video: Video,
    /// The player and counters; a block is one range request (an ON period
    /// on a fresh connection).
    viewer: Viewer,
    /// Next byte offset to request.
    offset: u64,
    /// Bytes expected on the currently open connection, if any.
    inflight: Option<(usize, u64)>,
    retry_armed: bool,
    /// Ranges requested so far (drives the deep-refill schedule).
    requests_made: u32,
}

const RETRY_TIMER: u32 = 1;

impl RangeRequestLogic {
    /// Creates the logic for one video.
    pub fn new(video: Video) -> Self {
        RangeRequestLogic {
            video,
            viewer: Viewer::new(&video, startup_threshold(&video)),
            offset: 0,
            inflight: None,
            retry_armed: false,
            requests_made: 0,
        }
    }

    /// The chunk size for this video's encoding rate.
    pub(crate) fn chunk_bytes(&self) -> u64 {
        self.video
            .playback_bytes(CHUNK_PLAYBACK_SECS)
            .max(MIN_CHUNK_BYTES)
    }

    /// The player-buffer target: [`TARGET_BYTES`], or one deep refill above
    /// the startup threshold where that is more (above ≈ 2.8 Mbps, where 16 s
    /// of playback outgrows 6 MiB), so every scheduled range eventually
    /// fits — as `ClientPullLogic::steady_target` sizes its pulls.
    fn target(&self) -> u64 {
        let deep = self.chunk_bytes() * DEEP_REFILL_CHUNKS;
        TARGET_BYTES.max(deep + startup_threshold(&self.video))
    }

    fn room(&self) -> u64 {
        self.target().saturating_sub(self.viewer.player().buffer_bytes())
    }

    /// Size of the next range request, honouring the deep-refill schedule.
    fn next_request_bytes(&self) -> u64 {
        let base = self.chunk_bytes();
        if self.requests_made % DEEP_REFILL_EVERY == DEEP_REFILL_EVERY - 1 {
            base * DEEP_REFILL_CHUNKS
        } else {
            base
        }
    }

    fn maybe_request_next(&mut self, eng: &mut Engine) {
        if self.inflight.is_some() || self.offset >= self.video.size_bytes() {
            return;
        }
        self.viewer.advance(eng);
        let chunk = self
            .next_request_bytes()
            .min(self.video.size_bytes() - self.offset);
        if self.room() >= chunk {
            // One fresh connection per range request.
            let client_cfg = TcpConfig::default().with_recv_buffer(1 << 20);
            let conn = eng.open_connection(client_cfg, server_tcp());
            self.inflight = Some((conn, chunk));
            self.requests_made += 1;
            self.viewer.count_block(eng);
        } else if !self.retry_armed {
            // Wait until playback frees enough room.
            let needed = chunk - self.room();
            let delay = crate::strategies::rate_delay(needed, self.video.encoding_bps)
                .max(SimDuration::from_millis(10));
            eng.schedule_app_timer(delay, RETRY_TIMER);
            self.retry_armed = true;
        }
    }
}

impl SessionLogic for RangeRequestLogic {
    fn on_start(&mut self, eng: &mut Engine) {
        self.maybe_request_next(eng);
    }

    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        if let Some((active, chunk)) = self.inflight {
            if conn == active {
                eng.server_write(conn, chunk);
                eng.server_close(conn);
            }
        }
    }

    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        self.viewer.read(eng, conn, u64::MAX);
    }

    fn on_eof(&mut self, eng: &mut Engine, conn: usize) {
        if let Some((active, chunk)) = self.inflight {
            if conn == active {
                self.offset += chunk;
                self.inflight = None;
                self.maybe_request_next(eng);
            }
        }
    }

    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        debug_assert_eq!(id, RETRY_TIMER);
        self.retry_armed = false;
        self.maybe_request_next(eng);
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
    use vstream_analysis::{AnalysisConfig, OnOffAnalysis};
    use vstream_net::NetworkProfile;

    fn run(video: Video, secs: u64) -> (Engine, Trace, RangeRequestLogic) {
        let mut eng = engine(
            NetworkProfile::Research.build_path(),
            23,
            SimDuration::from_secs(secs),
        );
        let mut logic = RangeRequestLogic::new(video);
        let trace = run_traced(&mut eng, &mut logic);
        (eng, trace, logic)
    }

    #[test]
    fn uses_many_connections() {
        // Paper: 37 connections in the first 60 s of one session.
        let video = Video::new(1, 2_500_000, SimDuration::from_secs(900));
        let (eng, _, _) = run(video, 60);
        assert!(
            eng.connection_count() >= 8,
            "only {} connections",
            eng.connection_count()
        );
    }

    #[test]
    fn chunk_size_grows_with_encoding_rate() {
        let slow = RangeRequestLogic::new(Video::new(1, 100_000, SimDuration::from_secs(600)));
        let mid = RangeRequestLogic::new(Video::new(2, 1_000_000, SimDuration::from_secs(600)));
        let fast = RangeRequestLogic::new(Video::new(3, 3_000_000, SimDuration::from_secs(600)));
        assert_eq!(slow.chunk_bytes(), 64 * 1024, "floor applies at low rates");
        assert_eq!(mid.chunk_bytes(), 500_000);
        assert_eq!(fast.chunk_bytes(), 1_500_000);
    }

    #[test]
    fn periodic_buffering_pattern() {
        let video = Video::new(1, 2_000_000, SimDuration::from_secs(900));
        let (_, trace, _) = run(video, 120);
        let analysis = OnOffAnalysis::from_trace(&trace, &AnalysisConfig::default());
        assert!(analysis.has_off_periods(), "expected ON-OFF structure");
        assert!(analysis.cycles.len() >= 3);
    }

    #[test]
    fn downloads_are_sequential_and_complete() {
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(60));
        let (eng, _, logic) = run(video, 180);
        assert_eq!(logic.viewer.read_total(), video.size_bytes());
        // Every connection carried data.
        for conn in 0..eng.connection_count() {
            let (_, server) = eng.connection_stats(conn);
            assert!(server.data_bytes_sent > 0);
        }
    }

    #[test]
    fn high_rate_sessions_request_past_the_first_deep_refill() {
        // At 4 Mbps the fifth range (a deep refill, 16 s = 8 MB) is larger
        // than the 6 MiB target; the target grows to hold it, so the
        // session keeps requesting ranges until the video is read.
        let video = Video::new(1, 4_000_000, SimDuration::from_secs(60));
        let (_, _, logic) = run(video, 180);
        assert_eq!(logic.viewer.read_total(), video.size_bytes());
        assert!(logic.viewer.blocks() > 5, "{} range requests", logic.viewer.blocks());
    }

    #[test]
    fn respects_player_buffer_target() {
        let video = Video::new(1, 2_000_000, SimDuration::from_secs(900));
        let (_, _, logic) = run(video, 120);
        // The buffer never wildly exceeds the target (one chunk of slack).
        let peak = logic.viewer.player().stats().peak_buffer_bytes;
        let bound = TARGET_BYTES + logic.chunk_bytes();
        assert!(peak <= bound, "peak {peak} > bound {bound}");
    }
}
