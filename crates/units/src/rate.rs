//! Data-rate quantity.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::bytes::Bytes;
use crate::ratio::Ratio;
use crate::time::TimeDelta;
use crate::{GIGA, KILO, MEGA, TERA};

/// A data rate, stored internally in **bytes per second**.
///
/// This covers both of the paper's rate parameters: link bandwidth `Bw`
/// (quoted in GBps or Gbps) and the effective transfer rate `R_transfer`.
/// The bit/byte distinction is the paper's most error-prone conversion, so
/// both families of constructors/accessors are provided and named
/// unambiguously (`gbps` = gigaBITs/s, `gigabytes_per_sec` = gigaBYTEs/s).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Rate(f64);

impl Rate {
    /// Zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// Construct from bytes per second.
    #[inline]
    pub const fn from_bytes_per_sec(bps: f64) -> Self {
        Rate(bps)
    }

    /// Construct from megabytes per second (10^6 B/s).
    #[inline]
    pub const fn from_megabytes_per_sec(mbps: f64) -> Self {
        Rate(mbps * MEGA)
    }

    /// Construct from gigabytes per second (10^9 B/s).
    #[inline]
    pub const fn from_gigabytes_per_sec(gbps: f64) -> Self {
        Rate(gbps * GIGA)
    }

    /// Construct from terabytes per second (10^12 B/s).
    #[inline]
    pub const fn from_terabytes_per_sec(tbps: f64) -> Self {
        Rate(tbps * TERA)
    }

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bits_per_sec(bps: f64) -> Self {
        Rate(bps / 8.0)
    }

    /// Construct from kilobits per second (10^3 bit/s).
    #[inline]
    pub const fn from_kbps(kbps: f64) -> Self {
        Rate(kbps * KILO / 8.0)
    }

    /// Construct from megabits per second (10^6 bit/s).
    #[inline]
    pub const fn from_mbps(mbps: f64) -> Self {
        Rate(mbps * MEGA / 8.0)
    }

    /// Construct from gigabits per second (10^9 bit/s).
    #[inline]
    pub const fn from_gbps(gbps: f64) -> Self {
        Rate(gbps * GIGA / 8.0)
    }

    /// Construct from terabits per second (10^12 bit/s).
    #[inline]
    pub const fn from_tbps(tbps: f64) -> Self {
        Rate(tbps * TERA / 8.0)
    }

    /// Value in bytes per second.
    #[inline]
    pub const fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Value in megabytes per second.
    #[inline]
    pub fn as_megabytes_per_sec(self) -> f64 {
        self.0 / MEGA
    }

    /// Value in gigabytes per second.
    #[inline]
    pub fn as_gigabytes_per_sec(self) -> f64 {
        self.0 / GIGA
    }

    /// Value in gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.0 * 8.0 / GIGA
    }

    /// True when finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// True when negative.
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Smaller of two rates.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// Larger of two rates.
    #[inline]
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl AddAssign for Rate {
    #[inline]
    fn add_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Sub for Rate {
    type Output = Rate;
    #[inline]
    fn sub(self, rhs: Rate) -> Rate {
        Rate(self.0 - rhs.0)
    }
}

impl SubAssign for Rate {
    #[inline]
    fn sub_assign(&mut self, rhs: Rate) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: f64) -> Rate {
        Rate(self.0 * rhs)
    }
}

impl Mul<Rate> for f64 {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: Rate) -> Rate {
        Rate(self * rhs.0)
    }
}

/// `α · Bw` — scaling a bandwidth by the transfer-efficiency coefficient
/// gives the effective transfer rate (Eq. 5 denominator).
impl Mul<Ratio> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: Ratio) -> Rate {
        Rate(self.0 * rhs.value())
    }
}

impl Mul<Rate> for Ratio {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: Rate) -> Rate {
        Rate(self.value() * rhs.0)
    }
}

/// `Rate · TimeDelta` yields the volume moved in that interval.
impl Mul<TimeDelta> for Rate {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: TimeDelta) -> Bytes {
        Bytes::from_b(self.0 * rhs.as_secs())
    }
}

impl Mul<Rate> for TimeDelta {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Rate) -> Bytes {
        Bytes::from_b(self.as_secs() * rhs.0)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn div(self, rhs: f64) -> Rate {
        Rate(self.0 / rhs)
    }
}

/// `R_transfer / Bw` — the transfer-efficiency coefficient α.
impl Div for Rate {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: Rate) -> Ratio {
        Ratio::new(self.0 / rhs.0)
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        Rate(iter.map(|r| r.0).sum())
    }
}

impl fmt::Display for Rate {
    /// Displays in bit-oriented network units (kbps/Mbps/Gbps/Tbps), the
    /// convention for link speeds throughout the paper.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.0 * 8.0;
        let abs = bits.abs();
        let (value, suffix) = if abs >= TERA {
            (bits / TERA, "Tbps")
        } else if abs >= GIGA {
            (bits / GIGA, "Gbps")
        } else if abs >= MEGA {
            (bits / MEGA, "Mbps")
        } else if abs >= KILO {
            (bits / KILO, "kbps")
        } else {
            (bits, "bps")
        };
        write!(f, "{:.3} {}", value, suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_byte_duality() {
        let r = Rate::from_gbps(25.0);
        assert!((r.as_gigabytes_per_sec() - 3.125).abs() < 1e-12);
        let r2 = Rate::from_gigabytes_per_sec(4.0);
        assert!((r2.as_gbps() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(Rate::from_mbps(8.0).as_bytes_per_sec(), 1e6);
        assert_eq!(Rate::from_kbps(8.0).as_bytes_per_sec(), 1e3);
        assert_eq!(Rate::from_tbps(8.0).as_bytes_per_sec(), 1e12);
        assert_eq!(Rate::from_bits_per_sec(8.0).as_bytes_per_sec(), 1.0);
        assert_eq!(Rate::from_megabytes_per_sec(1.0).as_bytes_per_sec(), 1e6);
        assert_eq!(Rate::from_terabytes_per_sec(1.0).as_bytes_per_sec(), 1e12);
    }

    #[test]
    fn rate_times_time_is_bytes() {
        let moved = Rate::from_gigabytes_per_sec(2.0) * TimeDelta::from_secs(3.0);
        assert_eq!(moved, Bytes::from_gb(6.0));
        let moved2 = TimeDelta::from_secs(3.0) * Rate::from_gigabytes_per_sec(2.0);
        assert_eq!(moved2, Bytes::from_gb(6.0));
    }

    #[test]
    fn alpha_from_rate_ratio() {
        // α = R_transfer / Bw
        let alpha = Rate::from_gbps(20.0) / Rate::from_gbps(25.0);
        assert!((alpha.value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn effective_rate_from_alpha() {
        let eff = Rate::from_gbps(25.0) * Ratio::new(0.8);
        assert!((eff.as_gbps() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Rate::from_gbps(10.0);
        let b = Rate::from_gbps(5.0);
        assert_eq!(a + b, Rate::from_gbps(15.0));
        assert_eq!(a - b, Rate::from_gbps(5.0));
        assert_eq!(a * 2.0, Rate::from_gbps(20.0));
        assert_eq!(a / 2.0, Rate::from_gbps(5.0));
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn display_network_units() {
        assert_eq!(Rate::from_gbps(25.0).to_string(), "25.000 Gbps");
        assert_eq!(Rate::from_mbps(240.0).to_string(), "240.000 Mbps");
        assert_eq!(Rate::from_tbps(1.0).to_string(), "1.000 Tbps");
    }

    #[test]
    fn sum_rates() {
        let total: Rate = (1..=3).map(|i| Rate::from_gbps(i as f64)).sum();
        assert_eq!(total, Rate::from_gbps(6.0));
    }
}
