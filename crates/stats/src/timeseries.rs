//! Interface-counter style byte accounting.
//!
//! The paper's methodology collects "network-level metrics (interface
//! byte/packet counters)" and reports measured utilization. [`RateSeries`]
//! reproduces that: byte arrivals are binned into fixed windows, from which
//! per-window rates and overall utilization follow.

use serde::{Deserialize, Serialize};

/// Byte arrivals accumulated into fixed-width time bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSeries {
    bin_width_s: f64,
    bins: Vec<f64>,
}

impl RateSeries {
    /// Create a series with the given bin width in seconds.
    ///
    /// # Panics
    /// Panics when `bin_width_s` is not strictly positive and finite.
    pub fn new(bin_width_s: f64) -> Self {
        assert!(
            bin_width_s > 0.0 && bin_width_s.is_finite(),
            "bin width must be positive, got {bin_width_s}"
        );
        RateSeries {
            bin_width_s,
            bins: Vec::new(),
        }
    }

    /// Bin width in seconds.
    #[inline]
    pub fn bin_width_s(&self) -> f64 {
        self.bin_width_s
    }

    /// Record `bytes` observed at time `t_s` (seconds from epoch 0).
    /// Negative times are clamped to bin 0.
    pub fn record(&mut self, t_s: f64, bytes: f64) {
        let idx = if t_s <= 0.0 {
            0
        } else {
            (t_s / self.bin_width_s) as usize
        };
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += bytes;
    }

    /// Number of bins (highest populated index + 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Bytes-per-second for each bin.
    pub fn rates(&self) -> Vec<f64> {
        self.bins.iter().map(|b| b / self.bin_width_s).collect()
    }

    /// Mean rate over the observed span (bytes per second); 0 when empty.
    pub fn mean_rate(&self) -> f64 {
        if self.bins.is_empty() {
            0.0
        } else {
            self.total_bytes() / (self.bins.len() as f64 * self.bin_width_s)
        }
    }

    /// Mean utilization of a link with `capacity_bytes_per_s`, over the
    /// observed span. This is the x-axis of Figure 2.
    pub fn utilization(&self, capacity_bytes_per_s: f64) -> f64 {
        self.mean_rate() / capacity_bytes_per_s
    }

    /// Utilization over a fixed horizon `[0, horizon_s]` regardless of when
    /// traffic stopped — the honest denominator for a 10 s experiment whose
    /// queue drains early.
    pub fn utilization_over(&self, capacity_bytes_per_s: f64, horizon_s: f64) -> f64 {
        if horizon_s <= 0.0 {
            return 0.0;
        }
        self.total_bytes() / (capacity_bytes_per_s * horizon_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_width_rejected() {
        let _ = RateSeries::new(0.0);
    }

    #[test]
    fn binning() {
        let mut s = RateSeries::new(1.0);
        s.record(0.5, 100.0);
        s.record(0.9, 50.0);
        s.record(2.1, 200.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.rates(), vec![150.0, 0.0, 200.0]);
        assert_eq!(s.total_bytes(), 350.0);
    }

    #[test]
    fn negative_time_clamped() {
        let mut s = RateSeries::new(1.0);
        s.record(-5.0, 10.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_bytes(), 10.0);
    }

    #[test]
    fn mean_rate_spans_the_bins() {
        let mut s = RateSeries::new(0.5);
        s.record(0.0, 100.0); // bin 0 → 200 B/s
        s.record(0.6, 300.0); // bin 1 → 600 B/s
        assert_eq!(s.mean_rate(), 400.0);
    }

    #[test]
    fn utilization_against_capacity() {
        let mut s = RateSeries::new(1.0);
        for t in 0..10 {
            s.record(t as f64 + 0.5, 16.0e9 / 10.0); // 16 Gb total over 10 s
        }
        // Each 1 s bin holds 1.6e9 bytes, so the mean rate is 1.6e9 B/s.
        let cap = 25.0e9 / 8.0; // 25 Gbps in bytes/s
        let u = s.utilization(cap);
        assert!((u - 1.6e9 / cap).abs() < 1e-12);
    }

    #[test]
    fn utilization_over_fixed_horizon() {
        let mut s = RateSeries::new(1.0);
        s.record(0.5, 500.0);
        // Traffic only in the first second, horizon 10 s.
        assert!((s.utilization_over(100.0, 10.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization_over(100.0, 0.0), 0.0);
    }

    #[test]
    fn empty_series() {
        let s = RateSeries::new(1.0);
        assert!(s.is_empty());
        assert_eq!(s.mean_rate(), 0.0);
    }
}
