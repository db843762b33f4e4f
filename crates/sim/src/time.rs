//! Simulation clocks.
//!
//! Two instant types cover the repo's two simulation worlds:
//!
//! * [`SimTime`] — integer nanoseconds. Integer time makes event ordering
//!   exact and runs reproducible across platforms; `f64` seconds are
//!   converted at the boundary only. The packet-level network simulator
//!   runs on this clock.
//! * [`Seconds`] — totally-ordered `f64` seconds. The staging-pipeline
//!   simulator computes with the exact `f64` arithmetic of its analytic
//!   reference recurrences, so its event clock must not round times to a
//!   grid; a total order over finite non-negative floats is enough.
//!
//! Both clocks, the bandwidth traces and the fleet's water-filler accept
//! an instant or an amount through one predicate, [`non_negative_finite`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};
use sss_units::TimeDelta;

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable instant (~584 simulated years).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds, saturating at [`SimTime::MAX`]
    /// (an overflowing count cannot wrap back into the simulated past).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Construct from whole milliseconds, saturating at [`SimTime::MAX`].
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Construct from fractional seconds (rounded to the nearest ns).
    ///
    /// # Panics
    /// Panics on negative or non-finite input: simulated time starts at 0.
    pub fn from_secs(s: f64) -> Self {
        assert!(
            non_negative_finite(s),
            "SimTime must be non-negative and finite, got {s}"
        );
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier` as a [`TimeDelta`].
    #[inline]
    pub fn since(self, earlier: SimTime) -> TimeDelta {
        TimeDelta::from_secs(self.0.saturating_sub(earlier.0) as f64 / 1e9)
    }

    /// Convert a (non-negative) [`TimeDelta`] into an offset, rounding to ns.
    ///
    /// # Panics
    /// Panics on negative or non-finite deltas.
    pub fn delta_to_nanos(d: TimeDelta) -> u64 {
        let s = d.as_secs();
        assert!(
            non_negative_finite(s),
            "cannot schedule a negative/non-finite delay: {s}"
        );
        (s * 1e9).round() as u64
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    /// Advance by `rhs` nanoseconds (saturating).
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_add(rhs))
    }
}

impl Add<TimeDelta> for SimTime {
    type Output = SimTime;
    /// Advance by a (non-negative) time delta.
    #[inline]
    fn add(self, rhs: TimeDelta) -> SimTime {
        self + SimTime::delta_to_nanos(rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 = self.0.saturating_add(rhs);
    }
}

impl Sub for SimTime {
    type Output = TimeDelta;
    /// Saturating difference as a [`TimeDelta`].
    #[inline]
    fn sub(self, rhs: SimTime) -> TimeDelta {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs())
    }
}

/// Whether `x` is a valid instant or amount: non-negative and finite.
///
/// Accepts exactly what `x >= 0.0 && x.is_finite()` accepts: both zeros
/// and every finite positive value, but no negative value, infinity or
/// NaN. It is written as a range test because that compiles to two
/// floating-point compares, while rustc lowers the `is_finite` form to
/// LLVM's `is.fpclass`, whose integer expansion costs about twenty
/// instructions on every checked instant of a per-frame chain. The range
/// form is also the one clippy's `manual_range_contains` asks for.
///
/// ```
/// use sss_sim::non_negative_finite;
///
/// assert!(non_negative_finite(0.0) && non_negative_finite(f64::MAX));
/// assert!(!non_negative_finite(-1.0) && !non_negative_finite(f64::INFINITY));
/// assert!(!non_negative_finite(f64::NAN));
/// ```
#[inline]
pub fn non_negative_finite(x: f64) -> bool {
    (0.0..=f64::MAX).contains(&x)
}

/// A totally-ordered instant in fractional seconds.
///
/// The order is `f64::total_cmp`, so any finite values compare exactly as
/// their arithmetic does; the constructor rejects NaN (which would break
/// the `Ord` contract) and negative times (simulation starts at 0). There
/// is no serde form: every `Seconds` comes through [`Seconds::new`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Simulation epoch.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Construct from fractional seconds.
    ///
    /// # Panics
    /// Panics on negative or non-finite input.
    #[inline]
    pub fn new(s: f64) -> Self {
        assert!(
            non_negative_finite(s),
            "Seconds must be non-negative and finite, got {s}"
        );
        Seconds(s)
    }

    /// The raw value in seconds.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl PartialEq for Seconds {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for Seconds {}
impl PartialOrd for Seconds {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Seconds {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(SimTime::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimTime::from_secs(0.0), SimTime::ZERO);
    }

    #[test]
    fn overflowing_constructors_saturate() {
        // u64::MAX µs is ~18 × the representable ns range: the old
        // unchecked multiply wrapped into the simulated past.
        assert_eq!(SimTime::from_micros(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX), SimTime::MAX);
        // The largest exactly-representable inputs still convert.
        assert_eq!(
            SimTime::from_micros(u64::MAX / 1_000).as_nanos(),
            (u64::MAX / 1_000) * 1_000
        );
        assert_eq!(
            SimTime::from_millis(u64::MAX / 1_000_000).as_nanos(),
            (u64::MAX / 1_000_000) * 1_000_000
        );
        // One past the boundary saturates instead of wrapping.
        assert_eq!(SimTime::from_micros(u64::MAX / 1_000 + 1), SimTime::MAX);
        assert_eq!(SimTime::from_millis(u64::MAX / 1_000_000 + 1), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panics() {
        let _ = SimTime::from_secs(-0.1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + 500u64;
        assert_eq!(t.as_nanos(), 10_000_500);
        let dt = SimTime::from_millis(26) - SimTime::from_millis(10);
        assert!((dt.as_millis() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn subtraction_saturates() {
        let dt = SimTime::from_millis(1) - SimTime::from_millis(5);
        assert_eq!(dt.as_secs(), 0.0);
    }

    #[test]
    fn delta_roundtrip() {
        let d = TimeDelta::from_millis(16.0);
        assert_eq!(SimTime::delta_to_nanos(d), 16_000_000);
        let t = SimTime::ZERO + d;
        assert_eq!(t.since(SimTime::ZERO).as_millis(), 16.0);
    }

    #[test]
    fn ordering_is_exact() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(SimTime::from_nanos(5), SimTime::from_nanos(5));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(160).to_string(), "t=0.160000s");
    }

    /// The predicate's accept set, at the edges of each class: both
    /// zeros, the smallest subnormal and normal, one and the largest
    /// finite value pass; the negative subnormal, a negative value, both
    /// infinities and NaN of either sign fail.
    #[test]
    fn non_negative_finite_accepts_exactly_the_finite_non_negatives() {
        for (x, want) in [
            (0.0, true),
            (-0.0, true),
            (5e-324, true),
            (f64::MIN_POSITIVE, true),
            (1.0, true),
            (f64::MAX, true),
            (-5e-324, false),
            (-1.0, false),
            (f64::INFINITY, false),
            (f64::NEG_INFINITY, false),
            (f64::NAN, false),
            (-f64::NAN, false),
        ] {
            assert_eq!(non_negative_finite(x), want, "{x:e}");
            assert_eq!(x >= 0.0 && x.is_finite(), want, "{x:e}: the long form");
        }
    }

    #[test]
    fn seconds_total_order() {
        assert!(Seconds::new(1.0) < Seconds::new(2.0));
        assert_eq!(Seconds::new(5.0), Seconds::new(5.0));
        assert_eq!(Seconds::ZERO.value(), 0.0);
        assert_eq!(Seconds::new(0.25).to_string(), "t=0.250000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn seconds_rejects_negative() {
        let _ = Seconds::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn seconds_rejects_nan() {
        let _ = Seconds::new(f64::NAN);
    }
}
