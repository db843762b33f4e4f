//! Time-interval quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::ratio::Ratio;

/// A span of time, stored internally in seconds.
///
/// The model's `T_local`, `T_transfer`, `T_remote`, `T_IO` and `T_pct` are
/// all `TimeDelta`s. Unlike [`std::time::Duration`] this type is signed and
/// fractional, which the analytic model needs (compute budgets can go
/// negative, meaning a deadline is missed).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TimeDelta(f64);

impl TimeDelta {
    /// Zero-length interval.
    pub const ZERO: TimeDelta = TimeDelta(0.0);
    /// Positive infinity: an event that never completes.
    pub const INFINITY: TimeDelta = TimeDelta(f64::INFINITY);

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: f64) -> Self {
        TimeDelta(s)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: f64) -> Self {
        TimeDelta(ms * 1e-3)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: f64) -> Self {
        TimeDelta(us * 1e-6)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: f64) -> Self {
        TimeDelta(ns * 1e-9)
    }

    /// Construct from minutes.
    #[inline]
    pub const fn from_minutes(m: f64) -> Self {
        TimeDelta(m * 60.0)
    }

    /// Construct from hours.
    #[inline]
    pub const fn from_hours(h: f64) -> Self {
        TimeDelta(h * 3600.0)
    }

    /// Value in seconds.
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Value in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Value in nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// True when negative.
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 < 0.0
    }

    /// True when finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Smaller of two intervals.
    #[inline]
    pub fn min(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.min(other.0))
    }

    /// Larger of two intervals.
    #[inline]
    pub fn max(self, other: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.max(other.0))
    }

    /// Absolute difference `|self - other|`.
    #[inline]
    pub fn abs_diff(self, other: TimeDelta) -> TimeDelta {
        TimeDelta((self.0 - other.0).abs())
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Neg for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn neg(self) -> TimeDelta {
        TimeDelta(-self.0)
    }
}

impl Mul<f64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: f64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Mul<TimeDelta> for f64 {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self * rhs.0)
    }
}

impl Mul<Ratio> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: Ratio) -> TimeDelta {
        TimeDelta(self.0 * rhs.value())
    }
}

impl Div<f64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: f64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

/// `TimeDelta / TimeDelta` yields the dimensionless [`Ratio`] — this is how
/// the Streaming Speed Score (Eq. 11) is formed.
impl Div for TimeDelta {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: TimeDelta) -> Ratio {
        Ratio::new(self.0 / rhs.0)
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        TimeDelta(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for TimeDelta {
    /// Humanized formatting: ns, µs, ms, s, or min.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if !self.0.is_finite() {
            return write!(f, "{}", self.0);
        }
        let (value, suffix) = if abs >= 60.0 {
            (self.0 / 60.0, "min")
        // sss-lint: allow(D004, exact zero formats as "0 s"; display branch only)
        } else if abs >= 1.0 || abs == 0.0 {
            (self.0, "s")
        } else if abs >= 1e-3 {
            (self.0 * 1e3, "ms")
        } else if abs >= 1e-6 {
            (self.0 * 1e6, "µs")
        } else {
            (self.0 * 1e9, "ns")
        };
        write!(f, "{:.3} {}", value, suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(TimeDelta::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(TimeDelta::from_micros(2.0).as_nanos(), 2000.0);
        assert_eq!(TimeDelta::from_minutes(2.0).as_secs(), 120.0);
        assert_eq!(TimeDelta::from_hours(1.0).as_secs(), 3600.0);
        assert!((TimeDelta::from_nanos(1.0).as_secs() - 1e-9).abs() < 1e-24);
    }

    #[test]
    fn arithmetic() {
        let a = TimeDelta::from_secs(3.0);
        let b = TimeDelta::from_secs(1.5);
        assert_eq!(a + b, TimeDelta::from_secs(4.5));
        assert_eq!(a - b, TimeDelta::from_secs(1.5));
        assert_eq!(a * 2.0, TimeDelta::from_secs(6.0));
        assert_eq!(a / 2.0, TimeDelta::from_secs(1.5));
        assert!(((a / b).value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_budget_is_representable() {
        let budget = TimeDelta::from_secs(1.0) - TimeDelta::from_secs(6.0);
        assert!(budget.is_sign_negative());
        assert_eq!(budget.as_secs(), -5.0);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(TimeDelta::from_secs(0.16).to_string(), "160.000 ms");
        assert_eq!(TimeDelta::from_secs(5.0).to_string(), "5.000 s");
        assert_eq!(TimeDelta::from_secs(90.0).to_string(), "1.500 min");
        assert_eq!(TimeDelta::from_micros(4.0).to_string(), "4.000 µs");
    }

    #[test]
    fn infinity_sentinel() {
        assert!(!TimeDelta::INFINITY.is_finite());
        assert!(TimeDelta::INFINITY > TimeDelta::from_hours(1e9));
    }
}
