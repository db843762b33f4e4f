//! The tail digest the paper reports: P50 / P90 / P99 / max.

use serde::{Deserialize, Serialize};

use crate::Ecdf;

/// Tail-latency digest of a sample of completion times.
///
/// Figure 3's commentary singles out "non-linear increases at the P90 and
/// P99 levels"; [`TailMetrics::tail_inflation`] quantifies exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TailMetrics {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum observation.
    pub min: f64,
    /// Median (P50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observation — the paper's `T_worst`.
    pub max: f64,
}

impl TailMetrics {
    /// Compute the digest; `None` for empty or NaN-containing input.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let ecdf = Ecdf::from_samples(samples.to_vec())?;
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Some(TailMetrics {
            count: samples.len(),
            mean,
            min: ecdf.min(),
            p50: ecdf.quantile(0.5),
            p90: ecdf.quantile(0.9),
            p99: ecdf.quantile(0.99),
            max: ecdf.max(),
        })
    }

    /// `P99 / P50` — how much worse the 1%-tail is than the typical case.
    /// Values near 1 mean a well-behaved distribution; congested transfers
    /// in the paper exhibit large inflation.
    pub fn tail_inflation(&self) -> f64 {
        self.p99 / self.p50
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(TailMetrics::from_samples(&[]).is_none());
    }

    #[test]
    fn uniform_grid() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let t = TailMetrics::from_samples(&xs).unwrap();
        assert_eq!(t.count, 100);
        assert!((t.mean - 50.5).abs() < 1e-12);
        assert_eq!(t.min, 1.0);
        assert_eq!(t.max, 100.0);
        assert!((t.p50 - 50.5).abs() < 1e-9);
        assert!((t.p90 - 90.1).abs() < 1e-9);
        assert!((t.p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn tail_inflation_flat_distribution() {
        let t = TailMetrics::from_samples(&[2.0; 50]).unwrap();
        assert!((t.tail_inflation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_inflation_congested_distribution() {
        // 95 fast transfers at 0.2 s, a few congested stragglers: the
        // pattern of Figure 3.
        let mut xs = vec![0.2; 95];
        xs.extend_from_slice(&[2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = TailMetrics::from_samples(&xs).unwrap();
        assert!(t.tail_inflation() > 10.0);
    }
}
