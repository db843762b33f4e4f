//! Streaming moment estimates (Welford's online algorithm).

use serde::{Deserialize, Serialize};

/// Single-pass count / mean / M2 / min / max accumulator.
///
/// Numerically stable for long streams (Welford's update), `O(1)` memory.
/// Used by the load generator to summarize per-transfer completion times
/// without retaining every sample. `m2`, the running sum of squared
/// deviations from the mean, has no accessor: it is part of the serialized
/// form (the frontier's per-slice `gain`), where variance is `m2 / count`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build a summary from a slice in one call.
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.record(x);
        }
        s
    }

    /// Add one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `NaN` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Smallest observation; `+inf` when empty.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation — the paper's `T_worst`; `-inf` when empty.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn known_values() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.m2 / s.count() as f64 - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.m2, 0.0);
    }
}
