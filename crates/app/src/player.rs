//! The video player model.
//!
//! A player consumes the downloaded byte stream at the video's encoding
//! rate. Playback starts once a startup threshold is buffered and stalls
//! when the buffer empties (resuming at the same threshold). The model is
//! evaluated lazily: `Player::advance` moves the internal clock, so the
//! session loop only touches the player when something happens.
//!
//! The player supplies the quantities behind the paper's discussion of
//! §5.3/§6: receive-side buffer occupancy (Table 2), stall behaviour under
//! accumulation ratios below one, and unused bytes when the user interrupts
//! playback.
//!
//! A player records its transitions (startup, stall start and end, finish,
//! buffer-level crossings) into the session's flight recorder, which every
//! call that can cause one takes: the strategy passes the engine's
//! (`Engine::recorder`), `None` when the session records nothing.

use vstream_obs::trace::{EventKind, Recorder};
use vstream_obs::Hist;
use vstream_sim::{SimDuration, SimTime};

use crate::engine::record;

/// Playback state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlayState {
    /// Waiting for the startup threshold.
    Initial,
    /// Consuming at the encoding rate.
    Playing,
    /// Buffer ran dry; waiting for the threshold again.
    Stalled,
    /// Reached the end of the video.
    Finished,
}

/// Statistics accumulated by a player over a session.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlayerStats {
    /// Time from session start to first frame.
    pub startup_delay: Option<SimDuration>,
    /// Number of mid-playback stalls detected (incremented when the
    /// buffer runs dry; a final stall the session never resumes from is
    /// counted here but not in [`Self::stalls_completed`]).
    pub stalls: u32,
    /// Stalls that completed — playback resumed before the session ended.
    pub stalls_completed: u32,
    /// Total time spent stalled (excluding initial buffering; completed
    /// stalls only).
    pub stall_time: SimDuration,
    /// Longest completed stall.
    pub stall_max: SimDuration,
    /// Peak buffer occupancy in bytes.
    pub peak_buffer_bytes: u64,
    /// Durations of completed stalls, in milliseconds.
    pub stall_hist: Hist,
}

/// A video player with a byte buffer and threshold-based start/rebuffer
/// logic.
#[derive(Clone, Debug)]
pub struct Player {
    encoding_bps: u64,
    /// Bytes that must be buffered before (re)starting playback.
    startup_bytes: u64,
    /// Total bytes of the video (playback stops here).
    video_bytes: u64,

    /// Bytes fed by the application.
    fed: u64,
    /// Bytes consumed by playback.
    consumed: u64,
    state: PlayState,
    /// Internal clock of the last evaluation.
    clock: SimTime,
    /// When the current stall (or initial wait) began.
    waiting_since: SimTime,
    started_at: Option<SimTime>,
    /// Last power-of-two buffer bucket reported to the flight recorder.
    /// Trace-only state: written only while a recorder is passed in, never
    /// read by playback logic.
    buffer_bucket: u32,
    stats: PlayerStats,
}

impl Player {
    /// Creates an idle player.
    ///
    /// # Panics
    /// Panics if the encoding rate is zero or the startup threshold exceeds
    /// the video size (it could never start).
    pub(crate) fn new(encoding_bps: u64, startup_bytes: u64, video_bytes: u64) -> Self {
        assert!(encoding_bps > 0, "encoding rate must be positive");
        assert!(
            startup_bytes <= video_bytes.max(1),
            "startup threshold larger than the video"
        );
        Player {
            encoding_bps,
            startup_bytes: startup_bytes.max(1),
            video_bytes,
            fed: 0,
            consumed: 0,
            state: PlayState::Initial,
            clock: SimTime::ZERO,
            waiting_since: SimTime::ZERO,
            started_at: None,
            buffer_bucket: 0,
            stats: PlayerStats::default(),
        }
    }

    /// Feeds downloaded bytes into the playback buffer at time `now`.
    pub(crate) fn feed(&mut self, now: SimTime, bytes: u64, mut rec: Option<&mut Recorder>) {
        self.advance(now, rec.as_deref_mut());
        self.fed = (self.fed + bytes).min(self.video_bytes);
        self.stats.peak_buffer_bytes = self.stats.peak_buffer_bytes.max(self.buffer_bytes());
        // A note when the buffer crosses a power-of-two level boundary.
        // The bucket is only touched while a recorder is passed in and
        // nothing in the player reads it, so behaviour is unchanged.
        let level = self.buffer_bytes();
        let bucket = u64::BITS - level.leading_zeros();
        if rec.is_some() && bucket != self.buffer_bucket {
            self.buffer_bucket = bucket;
            record(rec.as_deref_mut(), now, EventKind::AppBufferLevel, level, bucket as u64);
        }
        self.maybe_start(now, rec);
    }

    /// Advances playback to time `now`, consuming buffered bytes.
    pub(crate) fn advance(&mut self, now: SimTime, mut rec: Option<&mut Recorder>) {
        debug_assert!(now >= self.clock, "player clock went backwards");
        if self.state == PlayState::Playing {
            let elapsed = now.duration_since(self.clock);
            let want = bytes_played(self.encoding_bps, elapsed.as_nanos());
            let available = self.fed - self.consumed;
            if want < available {
                self.consumed += want;
            } else {
                // Buffer ran dry part-way through the interval.
                self.consumed = self.fed;
                if self.consumed >= self.video_bytes {
                    self.state = PlayState::Finished;
                    let stalled = self.stats.stall_time.as_nanos();
                    record(rec.as_deref_mut(), now, EventKind::AppFinished, stalled, 0);
                } else {
                    self.state = PlayState::Stalled;
                    // The stall began when the buffer actually emptied.
                    let drain_time = SimDuration::from_secs_f64(
                        available as f64 * 8.0 / self.encoding_bps as f64,
                    );
                    self.waiting_since = self.clock + drain_time;
                    self.stats.stalls += 1;
                    // Detected now; the retroactive start travels in `a`.
                    let began = self.waiting_since.as_nanos();
                    let stalls = self.stats.stalls as u64;
                    record(rec.as_deref_mut(), now, EventKind::AppStallStart, began, stalls);
                }
            }
        }
        self.clock = now;
        self.maybe_start(now, rec);
    }

    fn maybe_start(&mut self, now: SimTime, rec: Option<&mut Recorder>) {
        let threshold_met = self.buffer_bytes() >= self.startup_bytes
            || self.fed >= self.video_bytes && self.buffer_bytes() > 0;
        match self.state {
            PlayState::Initial if threshold_met => {
                self.state = PlayState::Playing;
                self.started_at = Some(now);
                let delay = now.saturating_duration_since(SimTime::ZERO);
                self.stats.startup_delay = Some(delay);
                record(rec, now, EventKind::AppStartup, delay.as_nanos(), 0);
            }
            PlayState::Stalled if threshold_met => {
                self.state = PlayState::Playing;
                let stalled = now.saturating_duration_since(self.waiting_since);
                self.stats.stalls_completed += 1;
                self.stats.stall_time += stalled;
                self.stats.stall_max = self.stats.stall_max.max(stalled);
                self.stats.stall_hist.record(stalled.as_nanos() / 1_000_000);
                let completed = self.stats.stalls_completed as u64;
                record(rec, now, EventKind::AppStallEnd, stalled.as_nanos(), completed);
            }
            _ => {}
        }
    }

    /// Bytes currently buffered (fed but not yet consumed).
    pub(crate) fn buffer_bytes(&self) -> u64 {
        self.fed - self.consumed
    }

    /// True if playback has ever started.
    pub fn has_started(&self) -> bool {
        self.started_at.is_some()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PlayerStats {
        self.stats
    }
}

/// Whole bytes a `bps` stream plays in `ns` nanoseconds: the floor of
/// `bps · ns / 8e9`. The product fits `u64` on every realistic interval
/// (below 18 s at 1 Gbps), so the 128-bit division runs only on overflow;
/// one floor division by 8e9 equals the nested `/ 8 / 1e9`, so both roads
/// give the same bytes.
#[inline]
fn bytes_played(bps: u64, ns: u64) -> u64 {
    match bps.checked_mul(ns) {
        Some(bit_ns) => bit_ns / 8_000_000_000,
        None => (bps as u128 * ns as u128 / 8_000_000_000) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    /// 1 Mbps video: 125 kB per second of playback.
    fn player() -> Player {
        Player::new(1_000_000, 500_000, 12_500_000)
    }

    #[test]
    fn playback_waits_for_threshold() {
        let mut p = player();
        p.feed(t(1.0), 499_999, None);
        assert_ne!(p.state, PlayState::Playing);
        p.feed(t(1.1), 1, None);
        assert_eq!(p.state, PlayState::Playing);
        assert_eq!(p.stats().startup_delay, Some(SimDuration::from_millis(1100)));
    }

    #[test]
    fn consumes_at_encoding_rate() {
        let mut p = player();
        p.feed(t(0.0), 1_000_000, None);
        assert_eq!(p.state, PlayState::Playing);
        p.advance(t(4.0), None);
        // 4 s at 125 kB/s = 500 kB consumed.
        assert_eq!(p.consumed, 500_000);
        assert_eq!(p.buffer_bytes(), 500_000);
    }

    #[test]
    fn stalls_when_buffer_empties() {
        let mut p = player();
        p.feed(t(0.0), 500_000, None); // exactly the threshold = 4 s of video
        p.advance(t(10.0), None);
        assert_ne!(p.state, PlayState::Playing);
        assert_eq!(p.consumed, 500_000);
        assert_eq!(p.stats().stalls, 1);
        // Refill at t=12; the stall ran from t=4 (buffer empty) to t=12.
        p.feed(t(12.0), 500_000, None);
        assert_eq!(p.state, PlayState::Playing);
        assert_eq!(p.stats().stall_time, SimDuration::from_secs(8));
        // The completed stall is also recorded in the duration histogram:
        // 8000 ms lands in the [2^12, 2^13) bucket.
        assert_eq!(p.stats().stall_hist.count(), 1);
        assert_eq!(p.stats().stall_hist.sum(), 8000);
        assert_eq!(p.stats().stall_hist.nonzero().collect::<Vec<_>>(), vec![(13, 1)]);
    }

    #[test]
    fn finishes_at_video_end() {
        let mut p = Player::new(1_000_000, 100_000, 1_250_000); // 10 s video
        p.feed(t(0.0), 1_250_000, None);
        p.advance(t(10.0), None);
        assert_eq!(p.state, PlayState::Finished);
        assert_eq!(p.consumed, 1_250_000);
        p.advance(t(20.0), None);
        assert_eq!(p.consumed, 1_250_000, "no consumption after the end");
    }

    #[test]
    fn tail_starts_even_below_threshold_when_download_complete() {
        // A short video smaller than the threshold must still play once
        // fully downloaded.
        let mut p = Player::new(1_000_000, 400_000, 400_000);
        p.feed(t(0.0), 400_000, None);
        assert_eq!(p.state, PlayState::Playing);
    }

    #[test]
    fn feed_clamps_at_video_size() {
        let mut p = Player::new(1_000_000, 100_000, 1_000_000);
        p.feed(t(0.0), 5_000_000, None);
        assert_eq!(p.fed, 1_000_000);
    }

    #[test]
    fn peak_buffer_is_tracked() {
        let mut p = player();
        p.feed(t(0.0), 2_000_000, None);
        p.advance(t(8.0), None);
        p.feed(t(8.0), 100_000, None);
        assert_eq!(p.stats().peak_buffer_bytes, 2_000_000);
    }

    #[test]
    fn unused_bytes_equals_buffer() {
        let mut p = player();
        p.feed(t(0.0), 2_000_000, None);
        p.advance(t(4.0), None);
        // 500 kB consumed; the 1.5 MB still buffered is what a viewer who
        // walked away now would have downloaded but never watched (§6.2).
        assert_eq!(p.buffer_bytes(), 1_500_000);
    }

    #[test]
    fn incremental_advance_matches_single_advance() {
        let mut a = player();
        let mut b = player();
        a.feed(t(0.0), 3_000_000, None);
        b.feed(t(0.0), 3_000_000, None);
        for i in 1..=100 {
            a.advance(t(i as f64 * 0.1), None);
        }
        b.advance(t(10.0), None);
        assert_eq!(a.consumed, b.consumed);
        assert_eq!(a.buffer_bytes(), b.buffer_bytes());
    }

    #[test]
    fn bytes_played_matches_the_128_bit_formula() {
        let reference = |bps: u64, ns: u64| (bps as u128 * ns as u128 / 8 / 1_000_000_000) as u64;
        let rates = [1, 7, 350_000, 1_000_000, 3_800_000, 999_999_999, 1_000_000_000];
        let intervals = [0, 1, 999, 1_000_000_000, 180_000_000_000];
        for &bps in &rates {
            for &ns in &intervals {
                assert_eq!(bytes_played(bps, ns), reference(bps, ns), "{bps} bps over {ns} ns");
            }
        }
        // Products at, just below and just past `u64::MAX` cross from the
        // 64-bit road to the 128-bit one.
        let bps = 1_000_000_000u64;
        let edge = u64::MAX / bps;
        for ns in [edge - 1, edge, edge + 1, edge + 2] {
            assert_eq!(bytes_played(bps, ns), reference(bps, ns), "{ns} ns at 1 Gbps");
        }
        for (bps, ns) in [(u64::MAX, 1), (1, u64::MAX), (u64::MAX, 2), (2, u64::MAX / 2 + 1)] {
            assert_eq!(bytes_played(bps, ns), reference(bps, ns), "{bps} bps over {ns} ns");
        }
        assert!(bps.checked_mul(edge + 1).is_none());
    }
}
