//! Video metadata.

use vstream_sim::SimDuration;

/// A video as the streaming strategies see it: an encoding rate and a
/// duration (§6 of the paper models a video as exactly this pair; the size
/// is their product).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Video {
    /// Catalogue identifier (for reproducibility of per-video results).
    pub id: u64,
    /// Encoding rate in bits per second.
    pub encoding_bps: u64,
    /// Playback duration.
    pub duration: SimDuration,
}

impl Video {
    /// Creates a video; rates and durations must be positive.
    ///
    /// # Panics
    /// Panics on a zero encoding rate or duration.
    pub fn new(id: u64, encoding_bps: u64, duration: SimDuration) -> Self {
        assert!(encoding_bps > 0, "encoding rate must be positive");
        assert!(!duration.is_zero(), "duration must be positive");
        Video {
            id,
            encoding_bps,
            duration,
        }
    }

    /// Total content size in bytes: `S = e * L` (Table 3 of the paper).
    pub fn size_bytes(&self) -> u64 {
        (self.encoding_bps as u128 * self.duration.as_nanos() as u128 / 8 / 1_000_000_000) as u64
    }

    /// Bytes corresponding to `secs` seconds of playback.
    ///
    /// The seconds are snapped to whole milliseconds and the byte count is
    /// then exact integer arithmetic (`bits × ms / 8000`, floor) — the
    /// float form this replaced could land one byte under the true value
    /// whenever `rate × secs / 8` picked up representation error.
    pub fn playback_bytes(&self, secs: f64) -> u64 {
        assert!(secs >= 0.0, "playback time must be non-negative");
        rate_bytes_ms(self.encoding_bps, (secs * 1000.0).round() as u64)
    }

    /// Bytes corresponding to `ms` milliseconds of playback — the pure
    /// integer form of [`Video::playback_bytes`] for callers that already
    /// account in milliseconds (the ABR segment machinery).
    pub(crate) fn playback_bytes_ms(&self, ms: u64) -> u64 {
        rate_bytes_ms(self.encoding_bps, ms)
    }

    /// The playback duration in whole milliseconds.
    pub(crate) fn duration_ms(&self) -> u64 {
        self.duration.as_nanos() / 1_000_000
    }
}

/// Bytes delivered at `bps` over `ms` milliseconds: `bits × ms / 8000` in
/// u128 (no overflow, no float), rounded toward zero. Strategies size their
/// blocks and probe fragments through this so byte counts are a pure
/// function of the integer rate and duration.
pub(crate) fn rate_bytes_ms(bps: u64, ms: u64) -> u64 {
    (bps as u128 * ms as u128 / 8_000) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_rate_times_duration() {
        // 1 Mbps for 100 s = 12.5 MB.
        let v = Video::new(1, 1_000_000, SimDuration::from_secs(100));
        assert_eq!(v.size_bytes(), 12_500_000);
    }

    #[test]
    fn playback_bytes_converts() {
        let v = Video::new(1, 2_000_000, SimDuration::from_secs(60));
        assert_eq!(v.playback_bytes(40.0), 10_000_000);
        assert_eq!(v.playback_bytes(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "encoding rate must be positive")]
    fn rejects_zero_rate() {
        Video::new(1, 0, SimDuration::from_secs(10));
    }

    #[test]
    fn rate_bytes_is_exact_integer_math() {
        // Whole-second, divisible cases: identical to rate×secs/8.
        assert_eq!(rate_bytes_ms(3_000_000, 4_000), 1_500_000);
        assert_eq!(rate_bytes_ms(1_600_000, 10_000), 2_000_000);
        // Non-divisible: floor, never float-truncation drift.
        assert_eq!(rate_bytes_ms(333_333, 2_000), 83_333); // 83333.25
        assert_eq!(rate_bytes_ms(1, 1), 0);
        // Large rates × long durations stay exact (u128 intermediate).
        assert_eq!(rate_bytes_ms(u64::MAX, 8_000), u64::MAX);
    }
}
