//! Compute-work quantities: FLOP counts, FLOP rates, and computational
//! intensity (the model's `C` coefficient, FLOP per byte of data).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::bytes::Bytes;
use crate::ratio::Ratio;
use crate::time::TimeDelta;
use crate::{GIGA, MEGA, PETA, TERA};

/// A count of floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Flops(f64);

impl Flops {
    /// Zero operations.
    pub const ZERO: Flops = Flops(0.0);

    /// Construct from a raw operation count.
    #[inline]
    pub const fn from_flop(f: f64) -> Self {
        Flops(f)
    }

    /// Construct from gigaFLOP (10^9 operations).
    #[inline]
    pub const fn from_gflop(g: f64) -> Self {
        Flops(g * GIGA)
    }

    /// Construct from teraFLOP (10^12 operations).
    #[inline]
    pub const fn from_tflop(t: f64) -> Self {
        Flops(t * TERA)
    }

    /// Construct from petaFLOP (10^15 operations).
    #[inline]
    pub const fn from_pflop(p: f64) -> Self {
        Flops(p * PETA)
    }

    /// Raw operation count.
    #[inline]
    pub const fn as_flop(self) -> f64 {
        self.0
    }

    /// Value in teraFLOP.
    #[inline]
    pub fn as_tflop(self) -> f64 {
        self.0 / TERA
    }

    /// True when finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

/// A compute rate in floating-point operations per second.
///
/// The model's `R_local` and `R_remote` parameters (quoted in TFLOPS).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FlopRate(f64);

impl FlopRate {
    /// Zero rate.
    pub const ZERO: FlopRate = FlopRate(0.0);

    /// Construct from operations per second.
    #[inline]
    pub const fn from_flops(f: f64) -> Self {
        FlopRate(f)
    }

    /// Construct from megaFLOPS.
    #[inline]
    pub const fn from_mflops(m: f64) -> Self {
        FlopRate(m * MEGA)
    }

    /// Construct from gigaFLOPS.
    #[inline]
    pub const fn from_gflops(g: f64) -> Self {
        FlopRate(g * GIGA)
    }

    /// Construct from teraFLOPS.
    #[inline]
    pub const fn from_tflops(t: f64) -> Self {
        FlopRate(t * TERA)
    }

    /// Construct from petaFLOPS.
    #[inline]
    pub const fn from_pflops(p: f64) -> Self {
        FlopRate(p * PETA)
    }

    /// Value in operations per second.
    #[inline]
    pub const fn as_flops(self) -> f64 {
        self.0
    }

    /// Value in teraFLOPS.
    #[inline]
    pub fn as_tflops(self) -> f64 {
        self.0 / TERA
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
}

/// Computational intensity: operations required per byte of data.
///
/// The model's `C` coefficient. The paper quotes it in FLOP/GB; internally
/// it is FLOP per byte.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ComputeIntensity(f64);

impl ComputeIntensity {
    /// Zero intensity (pure data movement, no compute).
    pub const ZERO: ComputeIntensity = ComputeIntensity(0.0);

    /// Construct from FLOP per byte.
    #[inline]
    pub const fn from_flop_per_byte(f: f64) -> Self {
        ComputeIntensity(f)
    }

    /// Construct from FLOP per gigabyte (the paper's unit for `C`).
    #[inline]
    pub const fn from_flop_per_gb(f: f64) -> Self {
        ComputeIntensity(f / GIGA)
    }

    /// Construct from teraFLOP per gigabyte — the natural unit when reading
    /// Table 3 ("34 TF to analyse each 2 GB second of data" is 17 TF/GB).
    #[inline]
    pub const fn from_tflop_per_gb(t: f64) -> Self {
        ComputeIntensity(t * TERA / GIGA)
    }

    /// Value in FLOP per byte.
    #[inline]
    pub const fn as_flop_per_byte(self) -> f64 {
        self.0
    }

    /// Value in teraFLOP per gigabyte.
    #[inline]
    pub fn as_tflop_per_gb(self) -> f64 {
        self.0 * GIGA / TERA
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
}

// --- Flops arithmetic ---

impl Add for Flops {
    type Output = Flops;
    #[inline]
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    #[inline]
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

impl Sub for Flops {
    type Output = Flops;
    #[inline]
    fn sub(self, rhs: Flops) -> Flops {
        Flops(self.0 - rhs.0)
    }
}

impl SubAssign for Flops {
    #[inline]
    fn sub_assign(&mut self, rhs: Flops) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Flops {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: f64) -> Flops {
        Flops(self.0 * rhs)
    }
}

impl Mul<Flops> for f64 {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: Flops) -> Flops {
        Flops(self * rhs.0)
    }
}

impl Div<f64> for Flops {
    type Output = Flops;
    #[inline]
    fn div(self, rhs: f64) -> Flops {
        Flops(self.0 / rhs)
    }
}

impl Div for Flops {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: Flops) -> Ratio {
        Ratio::new(self.0 / rhs.0)
    }
}

/// `C·S / R` — work divided by compute rate yields processing time
/// (the heart of Eq. 3 and Eq. 6).
impl Div<FlopRate> for Flops {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: FlopRate) -> TimeDelta {
        TimeDelta::from_secs(self.0 / rhs.0)
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        Flops(iter.map(|x| x.0).sum())
    }
}

// --- FlopRate arithmetic ---

impl Add for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn add(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self.0 + rhs.0)
    }
}

impl Sub for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn sub(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self.0 - rhs.0)
    }
}

impl Mul<f64> for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn mul(self, rhs: f64) -> FlopRate {
        FlopRate(self.0 * rhs)
    }
}

impl Mul<FlopRate> for f64 {
    type Output = FlopRate;
    #[inline]
    fn mul(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self * rhs.0)
    }
}

/// `r · R_local` — scaling local compute by the remote-processing
/// coefficient gives the remote rate (Eq. 6 denominator).
impl Mul<Ratio> for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn mul(self, rhs: Ratio) -> FlopRate {
        FlopRate(self.0 * rhs.value())
    }
}

impl Mul<FlopRate> for Ratio {
    type Output = FlopRate;
    #[inline]
    fn mul(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self.value() * rhs.0)
    }
}

impl Div<f64> for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn div(self, rhs: f64) -> FlopRate {
        FlopRate(self.0 / rhs)
    }
}

/// `R_remote / R_local` — the remote-processing coefficient r.
impl Div for FlopRate {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: FlopRate) -> Ratio {
        Ratio::new(self.0 / rhs.0)
    }
}

/// `FlopRate · TimeDelta` yields work performed.
impl Mul<TimeDelta> for FlopRate {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: TimeDelta) -> Flops {
        Flops(self.0 * rhs.as_secs())
    }
}

// --- ComputeIntensity arithmetic ---

/// `C · S_unit` — intensity times data size yields total work.
impl Mul<Bytes> for ComputeIntensity {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: Bytes) -> Flops {
        Flops(self.0 * rhs.as_b())
    }
}

impl Mul<ComputeIntensity> for Bytes {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: ComputeIntensity) -> Flops {
        Flops(rhs.0 * self.as_b())
    }
}

impl Mul<f64> for ComputeIntensity {
    type Output = ComputeIntensity;
    #[inline]
    fn mul(self, rhs: f64) -> ComputeIntensity {
        ComputeIntensity(self.0 * rhs)
    }
}

impl Div<f64> for ComputeIntensity {
    type Output = ComputeIntensity;
    #[inline]
    fn div(self, rhs: f64) -> ComputeIntensity {
        ComputeIntensity(self.0 / rhs)
    }
}

impl Div for ComputeIntensity {
    type Output = Ratio;
    #[inline]
    fn div(self, rhs: ComputeIntensity) -> Ratio {
        Ratio::new(self.0 / rhs.0)
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        let (value, suffix) = if abs >= PETA {
            (self.0 / PETA, "PFLOP")
        } else if abs >= TERA {
            (self.0 / TERA, "TFLOP")
        } else if abs >= GIGA {
            (self.0 / GIGA, "GFLOP")
        } else {
            (self.0, "FLOP")
        };
        write!(f, "{:.3} {}", value, suffix)
    }
}

impl fmt::Display for FlopRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        let (value, suffix) = if abs >= PETA {
            (self.0 / PETA, "PFLOPS")
        } else if abs >= TERA {
            (self.0 / TERA, "TFLOPS")
        } else if abs >= GIGA {
            (self.0 / GIGA, "GFLOPS")
        } else {
            (self.0, "FLOPS")
        };
        write!(f, "{:.3} {}", value, suffix)
    }
}

impl fmt::Display for ComputeIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} TFLOP/GB", self.as_tflop_per_gb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_coherent_scattering_work() {
        // Table 3: coherent scattering needs 34 TF for each second of a
        // 2 GB/s stream, i.e. 17 TFLOP per GB.
        let c = ComputeIntensity::from_tflop_per_gb(17.0);
        let s = Bytes::from_gb(2.0);
        let work = c * s;
        assert!((work.as_tflop() - 34.0).abs() < 1e-9);
    }

    #[test]
    fn work_over_rate_is_time() {
        // 34 TFLOP on a 34 TFLOPS machine takes exactly one second.
        let t = Flops::from_tflop(34.0) / FlopRate::from_tflops(34.0);
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn remote_coefficient() {
        let r = FlopRate::from_tflops(100.0) / FlopRate::from_tflops(10.0);
        assert!((r.value() - 10.0).abs() < 1e-12);
        let remote = FlopRate::from_tflops(10.0) * Ratio::new(10.0);
        assert_eq!(remote, FlopRate::from_tflops(100.0));
    }

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(Flops::from_gflop(1.0).as_flop(), 1e9);
        assert_eq!(Flops::from_pflop(1.0).as_flop(), 1e15);
        assert_eq!(FlopRate::from_mflops(1.0).as_flops(), 1e6);
        assert_eq!(FlopRate::from_gflops(1.0).as_flops(), 1e9);
        assert_eq!(FlopRate::from_pflops(1.0).as_tflops(), 1e3);
        assert_eq!(
            ComputeIntensity::from_flop_per_gb(1e9).as_flop_per_byte(),
            1.0
        );
    }

    #[test]
    fn intensity_units() {
        let c = ComputeIntensity::from_tflop_per_gb(17.0);
        assert!((c.as_flop_per_byte() - 17e3).abs() < 1e-9);
    }

    #[test]
    fn flops_arithmetic() {
        let a = Flops::from_tflop(3.0);
        let b = Flops::from_tflop(1.0);
        assert_eq!(a + b, Flops::from_tflop(4.0));
        assert_eq!(a - b, Flops::from_tflop(2.0));
        assert_eq!(a * 2.0, Flops::from_tflop(6.0));
        assert_eq!(a / 3.0, Flops::from_tflop(1.0));
        assert!(((a / b).value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rate_times_time_is_work() {
        let w = FlopRate::from_tflops(2.0) * TimeDelta::from_secs(3.0);
        assert_eq!(w, Flops::from_tflop(6.0));
    }

    #[test]
    fn display() {
        assert_eq!(Flops::from_tflop(34.0).to_string(), "34.000 TFLOP");
        assert_eq!(FlopRate::from_tflops(20.0).to_string(), "20.000 TFLOPS");
        assert_eq!(
            ComputeIntensity::from_tflop_per_gb(17.0).to_string(),
            "17.000 TFLOP/GB"
        );
    }
}
