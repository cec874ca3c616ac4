//! Simulated clock types.
//!
//! All simulation time is kept in integer nanoseconds. Integer time makes
//! event ordering exact (no float comparison hazards) while one nanosecond of
//! resolution is far below anything the traffic models can resolve: at the
//! fastest link in the workspace (1 Gbps) a single byte takes 8 ns to
//! serialize.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_MICRO: u64 = 1_000;

/// An instant on the simulated clock, measured from the start of the
/// simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far away"
    /// sentinel for timers that are not armed.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the simulation origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the simulation origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates an instant `millis` milliseconds after the simulation origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates an instant `secs` seconds after the simulation origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_f64_to_nanos(secs))
    }

    /// Nanoseconds since the simulation origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation origin, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so that indicates a scheduling bug.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        match self.0.checked_sub(earlier.0) {
            Some(d) => SimDuration(d),
            None => panic!(
                "duration_since: {earlier} is later than {self}; simulated time went backwards"
            ),
        }
    }

    /// Duration elapsed since `earlier`, or zero if `earlier` is in the
    /// future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_f64_to_nanos(secs))
    }

    /// Length of the duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length of the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self - other`, or zero if `other` is longer.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a float factor.
    ///
    /// # Panics
    /// Panics if `factor` is negative or NaN, or the result overflows.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "mul_f64: factor must be finite and non-negative, got {factor}"
        );
        let nanos = self.0 as f64 * factor;
        assert!(nanos <= u64::MAX as f64, "mul_f64: overflow");
        SimDuration(nanos as u64)
    }

    /// The time it takes to serialize `bytes` bytes onto a link running at
    /// `bits_per_sec`.
    ///
    /// This is the core unit conversion of the packet-level simulator and is
    /// rounded up so that back-to-back transmissions never overlap.
    ///
    /// # Panics
    /// Panics if `bits_per_sec` is zero.
    pub fn transmission(bytes: u64, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "transmission: link rate must be positive");
        // Fast path: for every realistic packet (bits * 1e9 fits in u64,
        // i.e. up to ~2.3 GB) a single u64 division replaces the 128-bit
        // one — this runs once per simulated packet, and `__udivti3` was a
        // measurable slice of the per-event budget. Same rounding, same
        // result.
        if let Some(prod) = bytes
            .checked_mul(8)
            .and_then(|b| b.checked_mul(NANOS_PER_SEC))
        {
            return SimDuration(prod.div_ceil(bits_per_sec));
        }
        let bits = bytes as u128 * 8;
        let nanos = (bits * NANOS_PER_SEC as u128).div_ceil(bits_per_sec as u128);
        assert!(nanos <= u64::MAX as u128, "transmission: overflow");
        SimDuration(nanos as u64)
    }
}

fn secs_f64_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time from secs: value must be finite and non-negative, got {secs}"
    );
    let nanos = secs * NANOS_PER_SEC as f64;
    assert!(nanos <= u64::MAX as f64, "time from secs: overflow");
    nanos as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime + SimDuration overflowed"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration + SimDuration overflowed"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration - SimDuration underflowed"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u32> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u32) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs as u64)
                .expect("SimDuration * u32 overflowed"),
        )
    }
}

impl Div<u32> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u32) -> SimDuration {
        SimDuration(self.0 / rhs as u64)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({self})")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_nanos(2 * NANOS_PER_SEC));
    }

    #[test]
    fn float_round_trip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(250);
        assert_eq!(t + d, SimTime::from_nanos(10_250_000_000));
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 4, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1) / 4, d);
    }

    #[test]
    fn duration_since_is_exact() {
        let a = SimTime::from_nanos(7);
        let b = SimTime::from_nanos(10);
        assert_eq!(b.duration_since(a), SimDuration::from_nanos(3));
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "simulated time went backwards")]
    fn duration_since_panics_on_backwards_time() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 1500 bytes at 1 Gbps = 12 microseconds exactly.
        assert_eq!(
            SimDuration::transmission(1500, 1_000_000_000),
            SimDuration::from_micros(12)
        );
        // 1 byte at 3 bps = 8/3 s, rounded up to the next nanosecond.
        assert_eq!(
            SimDuration::transmission(1, 3),
            SimDuration::from_nanos(2_666_666_667)
        );
    }

    #[test]
    fn transmission_scales_linearly_with_bytes() {
        let one = SimDuration::transmission(1_000, 10_000_000);
        let ten = SimDuration::transmission(10_000, 10_000_000);
        assert_eq!(one * 10, ten);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn transmission_rejects_zero_rate() {
        let _ = SimDuration::transmission(1, 0);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(3_000));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats_as_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_micros(250)), "0.000250s");
    }
}
