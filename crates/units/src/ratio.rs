//! Dimensionless ratio quantity.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A dimensionless ratio.
///
/// The model has three of these as first-class parameters — `α` (transfer
/// efficiency), `r` (remote-to-local processing), `θ` (I/O overhead) — plus
/// derived ones such as link utilization and the Streaming Speed Score
/// itself. They are all `Ratio`s; semantic constraints (e.g. `α ∈ (0, 1]`,
/// `θ ≥ 1`) are enforced where the parameters are assembled, in
/// `sss_core::ModelParams`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Ratio(f64);

impl Ratio {
    /// The ratio 0.
    pub const ZERO: Ratio = Ratio(0.0);
    /// The ratio 1 (e.g. a perfectly efficient transfer, α = 1).
    pub const ONE: Ratio = Ratio(1.0);

    /// Construct from a raw value.
    #[inline]
    pub const fn new(v: f64) -> Self {
        Ratio(v)
    }

    /// Construct from a percentage (`Ratio::from_percent(64.0)` is 0.64).
    #[inline]
    pub const fn from_percent(pct: f64) -> Self {
        Ratio(pct / 100.0)
    }

    /// Raw value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Value as a percentage.
    #[inline]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// True when finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// True when the value lies in the closed interval `[lo, hi]`.
    #[inline]
    pub fn in_range(self, lo: f64, hi: f64) -> bool {
        self.0 >= lo && self.0 <= hi
    }

    /// Smaller of two ratios.
    #[inline]
    pub fn min(self, other: Ratio) -> Ratio {
        Ratio(self.0.min(other.0))
    }

    /// Larger of two ratios.
    #[inline]
    pub fn max(self, other: Ratio) -> Ratio {
        Ratio(self.0.max(other.0))
    }

    /// Clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: f64, hi: f64) -> Ratio {
        Ratio(self.0.clamp(lo, hi))
    }
}

impl From<f64> for Ratio {
    #[inline]
    fn from(v: f64) -> Self {
        Ratio(v)
    }
}

impl From<Ratio> for f64 {
    #[inline]
    fn from(r: Ratio) -> f64 {
        r.0
    }
}

impl Add for Ratio {
    type Output = Ratio;
    #[inline]
    fn add(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 + rhs.0)
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    #[inline]
    fn sub(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 - rhs.0)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    #[inline]
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 * rhs.0)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 / rhs.0)
    }
}

impl Mul<f64> for Ratio {
    type Output = Ratio;
    #[inline]
    fn mul(self, rhs: f64) -> Ratio {
        Ratio(self.0 * rhs)
    }
}

impl Mul<Ratio> for f64 {
    type Output = Ratio;
    #[inline]
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio(self * rhs.0)
    }
}

impl Div<f64> for Ratio {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: f64) -> Ratio {
        Ratio(self.0 / rhs)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_roundtrip() {
        let u = Ratio::from_percent(64.0);
        assert!((u.value() - 0.64).abs() < 1e-12);
        assert!((u.as_percent() - 64.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(0.5);
        let b = Ratio::new(0.25);
        assert_eq!(a + b, Ratio::new(0.75));
        assert_eq!(a - b, Ratio::new(0.25));
        assert_eq!(a * b, Ratio::new(0.125));
        assert_eq!(a / b, Ratio::new(2.0));
        assert_eq!(a * 2.0, Ratio::ONE);
    }

    #[test]
    fn range_checks() {
        assert!(Ratio::new(0.8).in_range(0.0, 1.0));
        assert!(!Ratio::new(1.2).in_range(0.0, 1.0));
        assert_eq!(Ratio::new(1.5).clamp(0.0, 1.0), Ratio::ONE);
    }

    #[test]
    fn f64_conversions() {
        let r: Ratio = 0.9.into();
        assert_eq!(f64::from(r), 0.9);
    }

    #[test]
    fn min_max() {
        assert_eq!(Ratio::new(0.2).min(Ratio::new(0.4)), Ratio::new(0.2));
        assert_eq!(Ratio::new(0.2).max(Ratio::new(0.4)), Ratio::new(0.4));
    }
}
