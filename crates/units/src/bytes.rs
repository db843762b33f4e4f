//! Data-size quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::rate::Rate;
use crate::ratio::Ratio;
use crate::time::TimeDelta;
use crate::{GIBI, GIGA, KIBI, KILO, MEBI, MEGA, PETA, TERA};

/// An amount of data, stored internally in bytes.
///
/// This is the model's `S_unit` parameter (the paper expresses it in GB).
/// Negative values are representable (differences of sizes) but most APIs
/// in the workspace expect non-negative sizes; see [`Bytes::is_sign_negative`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Bytes(f64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0.0);

    /// Construct from raw bytes.
    #[inline]
    pub const fn from_b(b: f64) -> Self {
        Bytes(b)
    }

    /// Construct from decimal kilobytes (10^3 bytes).
    #[inline]
    pub const fn from_kb(kb: f64) -> Self {
        Bytes(kb * KILO)
    }

    /// Construct from decimal megabytes (10^6 bytes).
    #[inline]
    pub const fn from_mb(mb: f64) -> Self {
        Bytes(mb * MEGA)
    }

    /// Construct from decimal gigabytes (10^9 bytes).
    #[inline]
    pub const fn from_gb(gb: f64) -> Self {
        Bytes(gb * GIGA)
    }

    /// Construct from decimal terabytes (10^12 bytes).
    #[inline]
    pub const fn from_tb(tb: f64) -> Self {
        Bytes(tb * TERA)
    }

    /// Construct from decimal petabytes (10^15 bytes).
    #[inline]
    pub const fn from_pb(pb: f64) -> Self {
        Bytes(pb * PETA)
    }

    /// Construct from binary kibibytes (2^10 bytes).
    #[inline]
    pub const fn from_kib(kib: f64) -> Self {
        Bytes(kib * KIBI)
    }

    /// Construct from binary mebibytes (2^20 bytes).
    #[inline]
    pub const fn from_mib(mib: f64) -> Self {
        Bytes(mib * MEBI)
    }

    /// Construct from binary gibibytes (2^30 bytes).
    #[inline]
    pub const fn from_gib(gib: f64) -> Self {
        Bytes(gib * GIBI)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_b(self) -> f64 {
        self.0
    }

    /// Value in decimal megabytes.
    #[inline]
    pub fn as_mb(self) -> f64 {
        self.0 / MEGA
    }

    /// Value in decimal gigabytes.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 / GIGA
    }

    /// Value in decimal terabytes.
    #[inline]
    pub fn as_tb(self) -> f64 {
        self.0 / TERA
    }

    /// True when the stored value is negative.
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 < 0.0
    }

    /// True when the stored value is finite (not NaN/inf).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// The larger of two sizes.
    #[inline]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    /// Clamp to the `[lo, hi]` interval.
    #[inline]
    pub fn clamp(self, lo: Bytes, hi: Bytes) -> Bytes {
        Bytes(self.0.clamp(lo.0, hi.0))
    }

    /// Absolute difference `|self - other|`, useful in tolerance checks.
    #[inline]
    pub fn abs_diff(self, other: Bytes) -> Bytes {
        Bytes((self.0 - other.0).abs())
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Neg for Bytes {
    type Output = Bytes;
    #[inline]
    fn neg(self) -> Bytes {
        Bytes(-self.0)
    }
}

impl Mul<f64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: f64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Mul<Bytes> for f64 {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Bytes) -> Bytes {
        Bytes(self * rhs.0)
    }
}

impl Mul<Ratio> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Ratio) -> Bytes {
        Bytes(self.0 * rhs.value())
    }
}

impl Div<f64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn div(self, rhs: f64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

/// `Bytes / Bytes` yields the dimensionless [`Ratio`].
impl Div for Bytes {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: Bytes) -> Ratio {
        Ratio::new(self.0 / rhs.0)
    }
}

/// `Bytes / Rate` yields the time to move the data at that rate.
impl Div<Rate> for Bytes {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: Rate) -> TimeDelta {
        TimeDelta::from_secs(self.0 / rhs.as_bytes_per_sec())
    }
}

/// `Bytes / TimeDelta` yields the average rate over that interval.
impl Div<TimeDelta> for Bytes {
    type Output = Rate;
    #[inline]
    fn div(self, rhs: TimeDelta) -> Rate {
        Rate::from_bytes_per_sec(self.0 / rhs.as_secs())
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    /// Humanized decimal formatting: picks B, kB, MB, GB, TB or PB.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        let (value, suffix) = if abs >= PETA {
            (self.0 / PETA, "PB")
        } else if abs >= TERA {
            (self.0 / TERA, "TB")
        } else if abs >= GIGA {
            (self.0 / GIGA, "GB")
        } else if abs >= MEGA {
            (self.0 / MEGA, "MB")
        } else if abs >= KILO {
            (self.0 / KILO, "kB")
        } else {
            (self.0, "B")
        };
        write!(f, "{:.3} {}", value, suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(Bytes::from_kb(1.0).as_b(), 1e3);
        assert_eq!(Bytes::from_mb(1.0).as_b(), 1e6);
        assert_eq!(Bytes::from_gb(1.0).as_b(), 1e9);
        assert_eq!(Bytes::from_tb(1.0).as_b(), 1e12);
        assert_eq!(Bytes::from_pb(1.0).as_b(), 1e15);
        assert_eq!(Bytes::from_kib(1.0).as_b(), 1024.0);
        assert_eq!(Bytes::from_mib(1.0).as_b(), 1048576.0);
        assert_eq!(Bytes::from_gib(1.0).as_b(), 1073741824.0);
    }

    #[test]
    fn arithmetic() {
        let a = Bytes::from_mb(3.0);
        let b = Bytes::from_mb(1.5);
        assert_eq!(a + b, Bytes::from_mb(4.5));
        assert_eq!(a - b, Bytes::from_mb(1.5));
        assert_eq!(a * 2.0, Bytes::from_mb(6.0));
        assert_eq!(2.0 * a, Bytes::from_mb(6.0));
        assert_eq!(a / 3.0, Bytes::from_mb(1.0));
        assert!(((a / b).value() - 2.0).abs() < 1e-12);
        assert_eq!(-a, Bytes::from_mb(-3.0));
    }

    #[test]
    fn assign_ops() {
        let mut a = Bytes::from_gb(1.0);
        a += Bytes::from_gb(0.5);
        assert_eq!(a, Bytes::from_gb(1.5));
        a -= Bytes::from_gb(1.0);
        assert_eq!(a, Bytes::from_gb(0.5));
    }

    #[test]
    fn division_by_rate_gives_time() {
        let t = Bytes::from_gb(1.0) / Rate::from_gigabytes_per_sec(2.0);
        assert!((t.as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn division_by_time_gives_rate() {
        let r = Bytes::from_gb(1.0) / TimeDelta::from_secs(2.0);
        assert!((r.as_gigabytes_per_sec() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sum_iterator() {
        let total: Bytes = (0..4).map(|i| Bytes::from_mb(i as f64)).sum();
        assert_eq!(total, Bytes::from_mb(6.0));
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(Bytes::from_b(512.0).to_string(), "512.000 B");
        assert_eq!(Bytes::from_kb(2.0).to_string(), "2.000 kB");
        assert_eq!(Bytes::from_gb(12.6).to_string(), "12.600 GB");
        assert_eq!(Bytes::from_tb(40.0).to_string(), "40.000 TB");
    }

    #[test]
    fn min_max_clamp() {
        let a = Bytes::from_mb(1.0);
        let b = Bytes::from_mb(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Bytes::from_mb(5.0).clamp(a, b), b);
        assert_eq!(Bytes::from_mb(0.5).clamp(a, b), a);
    }

    #[test]
    fn serde_transparent() {
        let b = Bytes::from_gb(0.5);
        let json = serde_json::to_string(&b).unwrap();
        assert_eq!(json, "500000000.0");
        let back: Bytes = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
    }
}
