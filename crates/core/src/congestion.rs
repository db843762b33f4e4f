//! Utilization → worst-case-inflation curves.
//!
//! The case study reads worst-case transfer times off Figure 2(a) at the
//! workload's utilization (64% → 1.2 s, 96% → 6 s). [`CongestionCurve`]
//! does that interpolation from any set of measurements. The queueing-
//! theoretic reference [`MM1Reference`] provides the closed-form baseline
//! the paper's future work points at ("extend the model to incorporate
//! concurrency, queuing effects").

use serde::{Deserialize, Serialize};
use sss_units::Ratio;

/// A general piecewise-linear curve over strictly-increasing x values.
///
/// [`CongestionCurve`] specializes this to SSS semantics; `Curve1D` is
/// the raw tool for any measured relation (e.g. utilization → worst
/// batch-completion seconds, which the §5 case study reads directly off
/// Figure 2(a)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve1D {
    points: Vec<(f64, f64)>,
}

impl Curve1D {
    /// Build from points. Returns `None` for fewer than two points,
    /// non-finite values, or duplicate x after sorting.
    pub fn from_points(mut points: Vec<(f64, f64)>) -> Option<Self> {
        if points.len() < 2 {
            return None;
        }
        if points.iter().any(|(x, y)| !x.is_finite() || !y.is_finite()) {
            return None;
        }
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        if points.windows(2).any(|w| w[0].0 >= w[1].0) {
            return None;
        }
        Some(Curve1D { points })
    }

    /// The underlying points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Replace y values with their running maximum — the conservative
    /// monotone envelope. Measured worst-case curves are monotone in load
    /// physically; interleaved measurement series (different P values at
    /// similar utilizations) can make the raw data jitter downward, which
    /// would extrapolate nonsensically.
    pub fn monotone_envelope(mut self) -> Self {
        let mut running = f64::NEG_INFINITY;
        for (_, y) in &mut self.points {
            running = running.max(*y);
            *y = running;
        }
        self
    }

    /// Interpolated value: clamps below the first point, extrapolates
    /// linearly along the final segment above the last.
    pub fn at(&self, x: f64) -> f64 {
        let pts = &self.points;
        let first = pts[0];
        let last = pts[pts.len() - 1];
        if x <= first.0 {
            first.1
        } else if x >= last.0 {
            let prev = pts[pts.len() - 2];
            let slope = (last.1 - prev.1) / (last.0 - prev.0);
            last.1 + slope * (x - last.0)
        } else {
            let i = pts.partition_point(|(u, _)| *u <= x);
            let (x0, y0) = pts[i - 1];
            let (x1, y1) = pts[i];
            y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        }
    }
}

/// Piecewise-linear interpolation of measured (utilization, SSS) points.
///
/// ```
/// use sss_core::CongestionCurve;
/// let curve = CongestionCurve::from_points(vec![
///     (0.16, 2.0), (0.64, 1.9), (0.92, 26.0), (1.2, 52.0),
/// ]).unwrap();
/// let mid = curve.sss_at(0.78).value();
/// assert!(mid > 1.9 && mid < 26.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionCurve(Curve1D);

impl CongestionCurve {
    /// Build from measurement points. Returns `None` when fewer than two
    /// points are given, any value is non-finite, any SSS is below 1, or
    /// utilizations are not strictly increasing after sorting.
    pub fn from_points(points: Vec<(f64, f64)>) -> Option<Self> {
        if points.iter().any(|&(u, s)| s < 1.0 || u < 0.0) {
            return None;
        }
        Curve1D::from_points(points).map(CongestionCurve)
    }

    /// The (utilization, SSS) points, sorted by utilization.
    pub fn points(&self) -> &[(f64, f64)] {
        self.0.points()
    }

    /// Interpolated SSS at a utilization. Clamps below the first point;
    /// extrapolates linearly beyond the last (congestion keeps growing),
    /// never returning less than 1.
    pub fn sss_at(&self, utilization: f64) -> Ratio {
        Ratio::new(self.0.at(utilization).max(1.0))
    }
}

/// M/M/1 response-time inflation: `T/T_service = 1/(1−ρ)`.
///
/// The simplest closed-form view of why mean transfer time must blow up
/// as utilization ρ → 1 even *before* worst-case effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MM1Reference;

impl MM1Reference {
    /// Mean response-time inflation factor at utilization `rho`.
    /// Returns `f64::INFINITY` at or beyond saturation.
    pub fn inflation(&self, rho: f64) -> f64 {
        if rho >= 1.0 {
            f64::INFINITY
        } else if rho <= 0.0 {
            1.0
        } else {
            1.0 / (1.0 - rho)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> CongestionCurve {
        CongestionCurve::from_points(vec![(0.16, 2.0), (0.64, 7.5), (0.92, 26.0), (1.1, 52.0)])
            .unwrap()
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(CongestionCurve::from_points(vec![(0.5, 2.0)]).is_none());
        assert!(CongestionCurve::from_points(vec![(0.5, 2.0), (0.5, 3.0)]).is_none());
        assert!(CongestionCurve::from_points(vec![(0.1, 0.5), (0.5, 2.0)]).is_none());
        assert!(CongestionCurve::from_points(vec![(0.1, f64::NAN), (0.5, 2.0)]).is_none());
    }

    #[test]
    fn interpolates_between_points() {
        let c = curve();
        // Midpoint of (0.16, 2.0) and (0.64, 7.5).
        let mid = c.sss_at(0.40).value();
        assert!((mid - 4.75).abs() < 1e-9);
        // Exact points return themselves.
        assert!((c.sss_at(0.64).value() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn clamps_below_and_extrapolates_above() {
        let c = curve();
        assert_eq!(c.sss_at(0.01).value(), 2.0);
        // Beyond the last point: linear continuation of the last segment.
        let beyond = c.sss_at(1.3).value();
        assert!(beyond > 52.0);
    }

    #[test]
    fn never_below_one() {
        let c = CongestionCurve::from_points(vec![(0.9, 10.0), (1.0, 1.0)]).unwrap();
        // Steeply *falling* curve extrapolates negative; clamp holds.
        assert!(c.sss_at(2.0).value() >= 1.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let c = CongestionCurve::from_points(vec![(0.9, 26.0), (0.2, 2.0)]).unwrap();
        assert_eq!(c.points()[0].0, 0.2);
    }

    #[test]
    fn mm1_blows_up_at_saturation() {
        let q = MM1Reference;
        assert_eq!(q.inflation(0.0), 1.0);
        assert!((q.inflation(0.5) - 2.0).abs() < 1e-12);
        assert!((q.inflation(0.9) - 10.0).abs() < 1e-9);
        assert_eq!(q.inflation(1.0), f64::INFINITY);
    }

    #[test]
    fn mm1_asymptote_at_zero_load() {
        let q = MM1Reference;
        // ρ → 0⁺: inflation converges to 1 (no queueing at all)...
        assert!((q.inflation(1e-12) - 1.0).abs() < 1e-9);
        assert!((q.inflation(1e-6) - 1.0).abs() < 1e-5);
        // ...and the boundary/clamped values agree with the limit.
        assert_eq!(q.inflation(0.0), 1.0);
        assert_eq!(q.inflation(-0.5), 1.0);
    }

    #[test]
    fn mm1_asymptote_at_saturation() {
        let q = MM1Reference;
        // ρ → 1⁻: inflation grows without bound as 1/(1 − ρ), strictly
        // monotonically.
        let mut last = 0.0;
        for k in 1..=12 {
            let rho = 1.0 - 10f64.powi(-k);
            let inflation = q.inflation(rho);
            assert!(
                (inflation - 10f64.powi(k)).abs() <= 1e-3 * 10f64.powi(k),
                "1/(1-ρ) law broken at ρ = {rho}: {inflation}"
            );
            assert!(inflation > last);
            last = inflation;
        }
        // At and beyond saturation the queue is unstable: infinite mean.
        assert_eq!(q.inflation(1.0), f64::INFINITY);
        assert_eq!(q.inflation(1.5), f64::INFINITY);
    }

    // --- Curve1D ---

    #[test]
    fn curve1d_rejects_degenerate() {
        assert!(Curve1D::from_points(vec![(0.1, 1.0)]).is_none());
        assert!(Curve1D::from_points(vec![(0.1, 1.0), (0.1, 2.0)]).is_none());
        assert!(Curve1D::from_points(vec![(0.1, f64::INFINITY), (0.2, 1.0)]).is_none());
    }

    #[test]
    fn curve1d_interpolates_and_extrapolates() {
        let c = Curve1D::from_points(vec![(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]).unwrap();
        assert_eq!(c.at(-1.0), 1.0); // clamp below
        assert!((c.at(0.5) - 2.0).abs() < 1e-12);
        assert!((c.at(3.0) - 7.0).abs() < 1e-12); // extrapolate
    }

    #[test]
    fn curve1d_monotone_envelope() {
        let c = Curve1D::from_points(vec![(0.0, 1.0), (1.0, 5.0), (2.0, 3.0), (3.0, 6.0)])
            .unwrap()
            .monotone_envelope();
        let ys: Vec<f64> = c.points().iter().map(|(_, y)| *y).collect();
        assert_eq!(ys, vec![1.0, 5.0, 5.0, 6.0]);
        // Extrapolation beyond a flat-then-rising envelope stays sane.
        assert!(c.at(4.0) >= 6.0);
    }

    #[test]
    fn curve1d_allows_sub_one_values() {
        // Unlike CongestionCurve, raw curves may carry sub-second worst
        // times (y < 1).
        let c = Curve1D::from_points(vec![(0.16, 0.3), (0.9, 5.0)]).unwrap();
        assert!((c.at(0.16) - 0.3).abs() < 1e-12);
    }
}
