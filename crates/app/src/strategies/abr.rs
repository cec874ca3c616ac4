//! Adaptive-bitrate (DASH-style) streaming: the rate-adaptation behaviour
//! the paper's Table 1 clients were just beginning to adopt in 2011.
//!
//! The client fetches the video as fixed-playback-length segments, each on
//! a *fresh TCP connection* (the Netflix PC pattern of §5.2.2), and picks
//! each segment's encoding rate from a discrete ladder using two signals:
//!
//! 1. a **throughput estimate** — an EWMA of per-segment delivery rates
//!    (wire bytes over request-to-EOF time), discounted by a safety factor
//!    so transient peaks don't trigger doomed up-switches; and
//! 2. a **buffer-occupancy guard** — below a low watermark the client
//!    abandons the estimate entirely and drops to the lowest rung, the
//!    "panic mode" every production ABR loop ships.
//!
//! Above a target buffer level the client idles between requests, so the
//! wire pattern is the familiar ON-OFF cycle structure of §5.1 with the
//! block size now *varying* with the selected rung. Every rung change is
//! recorded as an
//! [`AppBitrateSwitch`](vstream_obs::trace::EventKind::AppBitrateSwitch)
//! flight-recorder event and counted for the QoE table's switch-rate column.

use vstream_sim::{SimDuration, SimTime};
use vstream_tcp::TcpConfig;

use crate::engine::{Engine, SessionLogic};
use crate::strategies::{rate_delay, server_tcp, startup_threshold};
use crate::video::{rate_bytes_ms, Video};
use crate::viewer::Viewer;

/// Available encoding rates in bits per second, ascending.
pub const ABR_LADDER: [u64; 6] = [350_000, 600_000, 1_000_000, 1_600_000, 2_500_000, 3_800_000];

/// Playback milliseconds per segment (DASH deployments: 2–10 s).
pub const ABR_SEGMENT_MS: u64 = 4_000;

/// Buffer level (milliseconds of playback) above which the client idles
/// instead of requesting the next segment.
const TARGET_BUFFER_MS: u64 = 30_000;

/// Buffer level below which the client panics to the lowest rung.
const LOW_WATERMARK_MS: u64 = 8_000;

/// Fraction of the throughput estimate considered spendable, in thousandths
/// (800 = pick the highest rung ≤ 0.8 × estimate).
const SAFETY_PERMILLE: u32 = 800;

/// EWMA weight of the newest rate sample, in thousandths.
const EWMA_PERMILLE: u32 = 300;

/// Per-connection bookkeeping: one entry per segment request.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// Wire bytes this connection carries.
    wire_bytes: u64,
    /// Playback milliseconds this segment covers (at any rung).
    media_ms: u64,
    /// When the request was issued (fresh connection opened).
    requested_at: SimTime,
}

const REQUEST_TIMER: u32 = 1;

/// Session logic for adaptive-bitrate streaming.
#[derive(Clone)]
pub struct AbrLogic {
    video: Video,
    /// The player and counters. The player is fed in *nominal-rate* bytes
    /// so buffer occupancy measures playback time regardless of which rung
    /// each segment used; `read_total` counts wire bytes (across all
    /// rungs); a block is one segment (an ON period on a fresh
    /// connection); a switch is a rung change after the initial selection.
    viewer: Viewer,
    /// Per-connection segment bookkeeping.
    conns: Vec<Segment>,
    /// The in-flight segment's connection, if any.
    inflight: Option<usize>,
    /// Playback milliseconds requested so far.
    media_offset_ms: u64,
    /// Current ladder rung index.
    rung: usize,
    /// EWMA delivery-rate estimate in bits per second (0 until the first
    /// sample lands; the first segment always uses the lowest rung).
    estimate_bps: f64,
    timer_armed: bool,
}

impl AbrLogic {
    /// Creates the logic for one video. The video's `encoding_bps` is the
    /// *nominal* media rate used for buffer accounting; the wire rate of
    /// each segment comes from the ladder.
    pub fn new(video: Video) -> Self {
        AbrLogic {
            video,
            viewer: Viewer::new(&video, startup_threshold(&video)),
            conns: Vec::new(),
            inflight: None,
            media_offset_ms: 0,
            rung: 0,
            estimate_bps: 0.0,
            timer_armed: false,
        }
    }

    /// The currently selected encoding rate in bits per second.
    pub(crate) fn current_rate(&self) -> u64 {
        ABR_LADDER[self.rung]
    }

    /// Total playback milliseconds of the video.
    fn duration_ms(&self) -> u64 {
        self.video.duration_ms()
    }

    /// Current buffer occupancy in playback milliseconds.
    fn buffer_ms(&self) -> u64 {
        // The player holds nominal-rate bytes, so bytes → ms is exact
        // integer math at the nominal rate.
        (self.viewer.player().buffer_bytes() as u128 * 8_000 / self.video.encoding_bps as u128) as u64
    }

    /// Picks the rung for the next segment and records any switch.
    fn adapt(&mut self, eng: &mut Engine) {
        let next = if self.buffer_ms() < LOW_WATERMARK_MS {
            // Panic mode: the buffer is nearly dry, nothing but the lowest
            // rung is defensible regardless of what the estimate says.
            0
        } else if self.estimate_bps > 0.0 {
            let spendable = self.estimate_bps * SAFETY_PERMILLE as f64 / 1000.0;
            ABR_LADDER
                .iter()
                .rposition(|&r| r as f64 <= spendable)
                .unwrap_or(0)
        } else {
            0
        };
        if next != self.rung && self.viewer.blocks() > 0 {
            self.viewer.count_switch(eng, ABR_LADDER[next], ABR_LADDER[self.rung]);
        }
        self.rung = next;
    }

    /// Requests the next segment now, or arms a timer for when the buffer
    /// has drained to the target.
    fn maybe_request_next(&mut self, eng: &mut Engine) {
        if self.inflight.is_some() || self.media_offset_ms >= self.duration_ms() {
            return;
        }
        self.viewer.advance(eng);
        let buffered = self.buffer_ms();
        if buffered > TARGET_BUFFER_MS && !self.timer_armed {
            // Idle (the OFF period) until playback drains to the target.
            let excess = self.video.playback_bytes_ms(buffered - TARGET_BUFFER_MS);
            let delay = rate_delay(excess, self.video.encoding_bps)
                .max(SimDuration::from_millis(10));
            eng.schedule_app_timer(delay, REQUEST_TIMER);
            self.timer_armed = true;
            return;
        }
        if buffered > TARGET_BUFFER_MS {
            return;
        }
        self.adapt(eng);
        let media_ms = ABR_SEGMENT_MS.min(self.duration_ms() - self.media_offset_ms);
        let wire_bytes = rate_bytes_ms(self.current_rate(), media_ms).max(1);
        let client_cfg = TcpConfig::default().with_recv_buffer(2 << 20);
        let conn = eng.open_connection(client_cfg, server_tcp());
        debug_assert_eq!(conn, self.conns.len());
        self.conns.push(Segment {
            wire_bytes,
            media_ms,
            requested_at: eng.now(),
        });
        self.inflight = Some(conn);
        self.media_offset_ms += media_ms;
        self.viewer.count_block(eng);
    }
}

impl SessionLogic for AbrLogic {
    fn on_start(&mut self, eng: &mut Engine) {
        self.maybe_request_next(eng);
    }

    fn on_established(&mut self, eng: &mut Engine, conn: usize) {
        if self.inflight == Some(conn) {
            let bytes = self.conns[conn].wire_bytes;
            eng.server_write(conn, bytes);
            eng.server_close(conn);
        }
    }

    fn on_data_available(&mut self, eng: &mut Engine, conn: usize) {
        // Read greedily; the player is fed whole segments at EOF (players
        // buffer complete segments before handing them to the decoder).
        self.viewer.read_unplayed(eng, conn, u64::MAX);
    }

    fn on_eof(&mut self, eng: &mut Engine, conn: usize) {
        if self.inflight != Some(conn) {
            return;
        }
        self.inflight = None;
        let seg = self.conns[conn];
        let elapsed = eng.now() - seg.requested_at;
        if elapsed > SimDuration::ZERO {
            let sample = seg.wire_bytes as f64 * 8e9 / elapsed.as_nanos() as f64;
            let w = EWMA_PERMILLE as f64 / 1000.0;
            self.estimate_bps = if self.estimate_bps == 0.0 {
                sample
            } else {
                (1.0 - w) * self.estimate_bps + w * sample
            };
        }
        // Credit the player with the segment's playback time in
        // nominal-rate bytes, whatever rung carried it.
        let bytes = self.video.playback_bytes_ms(seg.media_ms);
        self.viewer.feed(eng, bytes);
        self.maybe_request_next(eng);
    }

    fn on_app_timer(&mut self, eng: &mut Engine, id: u32) {
        debug_assert_eq!(id, REQUEST_TIMER);
        self.timer_armed = false;
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
    use vstream_net::{CrossTraffic, LrdCrossConfig, NetworkProfile};

    fn run_on(
        profile: NetworkProfile,
        lrd: Option<LrdCrossConfig>,
        secs: u64,
        seed: u64,
    ) -> (Trace, AbrLogic) {
        let mut path = profile.build_path();
        if let Some(cfg) = lrd {
            path = path.with_cross_traffic(CrossTraffic::Lrd(cfg), seed);
        }
        let mut eng = engine(path, seed, SimDuration::from_secs(secs));
        let video = Video::new(1, 1_000_000, SimDuration::from_secs(900));
        let mut logic = AbrLogic::new(video);
        (run_traced(&mut eng, &mut logic), logic)
    }

    #[test]
    fn fast_path_climbs_to_the_top_rung() {
        // 100 Mbps research path: the estimate dwarfs the ladder top.
        let (_, logic) = run_on(NetworkProfile::Research, None, 120, 41);
        assert_eq!(logic.current_rate(), 3_800_000, "estimate {}", logic.estimate_bps);
        assert!(logic.viewer.switches() >= 1, "must have climbed from the lowest rung");
        assert!(logic.viewer.player().has_started());
        assert_eq!(logic.viewer.player().stats().stalls, 0);
    }

    #[test]
    fn contended_path_sits_below_the_top_rung() {
        // 20 Mbps Home downlink with ~70% LRD load: ~6 Mbps left on
        // average but burst droughts well below the ladder top.
        let lrd = LrdCrossConfig::for_load(20_000_000, 700);
        let (_, logic) = run_on(NetworkProfile::Home, Some(lrd), 180, 41);
        assert!(
            logic.current_rate() < 3_800_000,
            "picked {} under contention",
            logic.current_rate()
        );
        assert!(logic.viewer.blocks() > 5);
    }

    #[test]
    fn switches_are_counted_and_bounded_by_blocks() {
        let lrd = LrdCrossConfig::for_load(20_000_000, 600);
        let (_, logic) = run_on(NetworkProfile::Home, Some(lrd), 180, 43);
        assert!(logic.viewer.switches() <= logic.viewer.blocks());
        // The first segment's rung choice is not a switch.
        assert!(logic.viewer.blocks() >= 1);
    }

    #[test]
    fn segment_sizing_is_exact_integer_math() {
        // 4 s at each end of the ladder: bits × ms / 8000, exactly.
        assert_eq!(rate_bytes_ms(ABR_LADDER[0], ABR_SEGMENT_MS), 175_000);
        assert_eq!(rate_bytes_ms(ABR_LADDER[5], ABR_SEGMENT_MS), 1_900_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let lrd = LrdCrossConfig::for_load(20_000_000, 500);
        let a = run_on(NetworkProfile::Home, Some(lrd), 120, 47);
        let b = run_on(NetworkProfile::Home, Some(lrd), 120, 47);
        assert_eq!(a.0.len(), b.0.len());
        assert_eq!(a.1.viewer.read_total(), b.1.viewer.read_total());
        assert_eq!(a.1.viewer.switches(), b.1.viewer.switches());
    }

    #[test]
    fn buffer_respects_the_target() {
        let (_, logic) = run_on(NetworkProfile::Research, None, 180, 53);
        // Target 30 s + one 4 s segment of slack, in nominal bytes.
        let bound = logic.video.playback_bytes_ms(34_000);
        let peak = logic.viewer.player().stats().peak_buffer_bytes;
        assert!(peak <= bound, "peak {peak} > bound {bound}");
    }
}
