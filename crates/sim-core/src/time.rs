//! Simulated time.
//!
//! The whole simulation runs on a single *true time* axis with nanosecond
//! resolution. Per-node *local* clocks (with offset/drift/jitter) are modelled
//! in `dvc-time` on top of this axis; the engine itself only ever sees
//! [`SimTime`].

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation's true-time axis, in nanoseconds
/// since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds. Durations are unsigned; code
/// that needs signed clock *offsets* (e.g. NTP) works in `i64` nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// Far-future sentinel used for "no deadline".
    pub const NEVER: SimTime = SimTime(u64::MAX);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn from_secs_f64(secs: f64) -> SimTime {
        SimTime((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * NANOS_PER_SEC)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * NANOS_PER_MILLI)
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Saturating difference: `self - earlier`, clamped at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub const fn from_nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * NANOS_PER_MICRO)
    }
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * NANOS_PER_MILLI)
    }
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * NANOS_PER_SEC)
    }
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        debug_assert!(s >= 0.0, "negative duration: {s}");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The time a `bytes`-sized transfer takes at `bytes_per_sec` bandwidth.
    #[inline]
    pub fn for_transfer(bytes: u64, bytes_per_sec: f64) -> SimDuration {
        debug_assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
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
        if self.0 < NANOS_PER_MICRO {
            write!(f, "{}ns", self.0)
        } else if self.0 < NANOS_PER_MILLI {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(1500);
        assert_eq!(t.nanos(), 1_500_000_000);
        assert_eq!(t.as_secs_f64(), 1.5);
        let d = t - SimTime(500_000_000);
        assert_eq!(d, SimDuration::from_secs(1));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(100);
        let b = SimTime(200);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration(100));
    }

    #[test]
    fn transfer_time() {
        // 1 MiB at 1 MiB/s takes one second.
        let d = SimDuration::for_transfer(1 << 20, (1 << 20) as f64);
        assert_eq!(d, SimDuration::from_secs(1));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3u64, SimDuration::from_millis(30));
        assert_eq!(d * 0.5f64, SimDuration::from_millis(5));
        assert_eq!(d / 2, SimDuration::from_millis(5));
    }

    #[test]
    fn display_is_human_scaled() {
        assert_eq!(format!("{}", SimDuration(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(3)), "3.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.000s");
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.5).nanos(), 500_000_000);
        assert_eq!(SimTime::from_secs_f64(2.25).nanos(), 2_250_000_000);
    }
}
