//! Virtual time for the discrete-event simulator.
//!
//! Time is tracked as an integer number of nanoseconds so that event ordering
//! is exact and runs are bit-for-bit reproducible. Floating-point seconds are
//! only used at the edges (configuration and reporting).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute point in virtual time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as `f64` (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// actually later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from fractional seconds, rounded to the nearest
    /// nanosecond. NaN and inputs ≤ 0 give zero; +∞ and values beyond the
    /// representable range give [`SimDuration::MAX`] (the saturating
    /// `f64 as u64` cast is the whole rule).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Scale by a float, rounding to the nearest nanosecond. The rule is
    /// [`from_secs_f64`](Self::from_secs_f64)'s: a NaN or ≤ 0 factor gives
    /// zero; a factor of +∞, or a product beyond the representable range,
    /// gives [`SimDuration::MAX`]. Zero stays zero under any factor.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
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
        SimDuration(self.0.saturating_add(rhs.0))
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
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
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
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimDuration::default(), SimDuration::ZERO);
    }

    #[test]
    fn time_difference_saturates() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(10);
        assert_eq!((b - a).as_nanos(), 5);
        assert_eq!((a - b).as_nanos(), 0);
    }

    #[test]
    fn from_secs_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_clamps_garbage() {
        let from = SimDuration::from_secs_f64;
        // NaN and ≤ 0 give zero.
        assert_eq!(from(f64::NAN), SimDuration::ZERO);
        assert_eq!(from(-f64::NAN), SimDuration::ZERO);
        assert_eq!(from(f64::NEG_INFINITY), SimDuration::ZERO);
        assert_eq!(from(-1.0), SimDuration::ZERO);
        assert_eq!(from(-1e-12), SimDuration::ZERO);
        assert_eq!(from(-0.0), SimDuration::ZERO);
        assert_eq!(from(0.0), SimDuration::ZERO);
        // Rounding to the nearest nanosecond.
        assert_eq!(from(0.4e-9), SimDuration::ZERO);
        assert_eq!(from(0.6e-9).as_nanos(), 1);
        // +∞ and overflow give MAX; a value just in range stays exact.
        assert_eq!(from(f64::INFINITY), SimDuration::MAX);
        assert_eq!(from(f64::MAX), SimDuration::MAX);
        assert_eq!(from(1.9e10), SimDuration::MAX);
        assert_eq!(from(1.8e10).as_nanos(), 18_000_000_000_000_000_000);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(1000);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 1500);
        assert_eq!(d.mul_f64(1.0006).as_nanos(), 1001);
        assert_eq!(d.mul_f64(3.0).as_nanos(), 3000);
        // NaN and ≤ 0 give zero.
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NEG_INFINITY), SimDuration::ZERO);
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(-0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        // +∞ and overflow give MAX.
        assert_eq!(d.mul_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(d.mul_f64(f64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
        assert_eq!(SimDuration::MAX.mul_f64(1.0), SimDuration::MAX);
        // Zero stays zero, even under +∞ (0 · ∞ is NaN).
        assert_eq!(SimDuration::ZERO.mul_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::ZERO.mul_f64(5.0), SimDuration::ZERO);
    }

    #[test]
    fn saturating_arithmetic() {
        let big = SimDuration::from_nanos(u64::MAX - 1);
        assert_eq!(big + big, SimDuration::MAX);
        assert_eq!(
            SimDuration::from_nanos(1) - SimDuration::from_nanos(2),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
    }

    #[test]
    fn micros_and_millis() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
    }

    #[test]
    fn display_formats_seconds() {
        let t = SimTime::from_nanos(1_500_000_000);
        assert_eq!(format!("{t}"), "1.500000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_nanos(1) < SimDuration::from_nanos(2));
    }

    #[test]
    fn div_and_mul_scalar() {
        let d = SimDuration::from_nanos(100);
        assert_eq!((d * 3).as_nanos(), 300);
        assert_eq!((d / 4).as_nanos(), 25);
    }
}
