//! `T_pct` under stochastic transfer conditions.
//!
//! The paper's future work: "extend the model to incorporate ...
//! variability in network and compute performance". Here the transfer
//! efficiency α is drawn from a distribution, and the induced
//! distribution of `T_pct` is summarized — turning the point decision
//! into a probabilistic one ("remote meets the deadline 93% of the
//! time"), which is what a tail-latency-aware facility actually needs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use sss_units::{Ratio, TimeDelta};

use crate::model::CompletionModel;
use crate::params::ModelParams;

/// Distribution of the transfer-efficiency coefficient α.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransferEfficiencyDistribution {
    /// Deterministic α (degenerate distribution).
    Fixed(f64),
    /// Uniform on `[lo, hi] ⊂ (0, 1]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Truncated normal on `(0, 1]`: samples are redrawn until valid.
    TruncatedNormal {
        /// Mean of the underlying normal.
        mean: f64,
        /// Standard deviation of the underlying normal.
        sd: f64,
    },
}

impl TransferEfficiencyDistribution {
    /// Validate the distribution's parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TransferEfficiencyDistribution::Fixed(a) => {
                if !(0.0 < a && a <= 1.0) {
                    return Err(format!("fixed alpha must be in (0,1], got {a}"));
                }
            }
            TransferEfficiencyDistribution::Uniform { lo, hi } => {
                if !(0.0 < lo && lo <= hi && hi <= 1.0) {
                    return Err(format!("uniform bounds invalid: [{lo}, {hi}]"));
                }
            }
            TransferEfficiencyDistribution::TruncatedNormal { mean, sd } => {
                if !(0.0 < mean && mean <= 1.0) || sd < 0.0 || !sd.is_finite() {
                    return Err(format!("truncated normal invalid: mean {mean}, sd {sd}"));
                }
            }
        }
        Ok(())
    }

    /// Draw one α.
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            TransferEfficiencyDistribution::Fixed(a) => a,
            TransferEfficiencyDistribution::Uniform { lo, hi } => {
                if lo == hi {
                    lo
                } else {
                    rng.random_range(lo..hi)
                }
            }
            TransferEfficiencyDistribution::TruncatedNormal { mean, sd } => {
                // sss-lint: allow(D004, sd=0 degenerates to a point mass; exact test intended)
                if sd == 0.0 {
                    return mean;
                }
                // Box–Muller with rejection outside (0, 1].
                loop {
                    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.random_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    let a = mean + sd * z;
                    if 0.0 < a && a <= 1.0 {
                        return a;
                    }
                }
            }
        }
    }
}

/// Summary of a Monte-Carlo `T_pct` study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloOutcome {
    /// Number of draws.
    pub samples: usize,
    /// Mean `T_pct`.
    pub mean: TimeDelta,
    /// Median `T_pct`.
    pub p50: TimeDelta,
    /// 90th percentile.
    pub p90: TimeDelta,
    /// 99th percentile.
    pub p99: TimeDelta,
    /// Worst draw.
    pub max: TimeDelta,
    /// Fraction of draws in which remote beats local.
    pub prob_remote_wins: f64,
    /// The sampled `T_pct` values in seconds (sorted ascending).
    pub t_pct_s: Vec<f64>,
}

impl MonteCarloOutcome {
    /// Run the study: draw α `n` times, evaluate `T_pct` for each.
    ///
    /// Returns `None` when `n == 0` or the distribution is invalid.
    pub fn run(
        params: &ModelParams,
        dist: TransferEfficiencyDistribution,
        n: usize,
        seed: u64,
    ) -> Option<MonteCarloOutcome> {
        if n == 0 || dist.validate().is_err() {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let t_local = CompletionModel::new(*params).t_local().as_secs();
        let mut drawn = *params;
        let mut t_pct_s: Vec<f64> = (0..n)
            .map(|_| {
                drawn.alpha = Ratio::new(dist.sample(&mut rng));
                CompletionModel::new(drawn).t_pct().as_secs()
            })
            .collect();
        let wins = t_pct_s.iter().filter(|t| **t < t_local).count();
        t_pct_s.sort_by(f64::total_cmp);
        let ecdf = sss_stats::Ecdf::from_samples(t_pct_s.clone()).expect("non-empty, NaN-free");
        Some(MonteCarloOutcome {
            samples: n,
            mean: TimeDelta::from_secs(t_pct_s.iter().sum::<f64>() / n as f64),
            p50: TimeDelta::from_secs(ecdf.quantile(0.5)),
            p90: TimeDelta::from_secs(ecdf.quantile(0.9)),
            p99: TimeDelta::from_secs(ecdf.quantile(0.99)),
            max: TimeDelta::from_secs(ecdf.max()),
            prob_remote_wins: wins as f64 / n as f64,
            t_pct_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

    fn params() -> ModelParams {
        ModelParams::builder()
            .data_unit(Bytes::from_gb(2.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(100.0))
            .bandwidth(Rate::from_gbps(25.0))
            .alpha(Ratio::new(0.8))
            .build()
            .unwrap()
    }

    #[test]
    fn fixed_distribution_is_degenerate() {
        let out = MonteCarloOutcome::run(
            &params(),
            TransferEfficiencyDistribution::Fixed(0.8),
            100,
            1,
        )
        .unwrap();
        assert!((out.max.as_secs() - out.p50.as_secs()).abs() < 1e-12);
        // Equals the deterministic model.
        let det = CompletionModel::new(params()).t_pct().as_secs();
        assert!((out.mean.as_secs() - det).abs() < 1e-12);
    }

    #[test]
    fn uniform_spread_orders_quantiles() {
        let out = MonteCarloOutcome::run(
            &params(),
            TransferEfficiencyDistribution::Uniform { lo: 0.2, hi: 1.0 },
            5000,
            2,
        )
        .unwrap();
        assert!(out.p50 <= out.p90);
        assert!(out.p90 <= out.p99);
        assert!(out.p99 <= out.max);
        // Worst case bounded by the lowest α: T_pct(0.2).
        let mut worst = params();
        worst.alpha = Ratio::new(0.2);
        let bound = CompletionModel::new(worst).t_pct().as_secs();
        assert!(out.max.as_secs() <= bound + 1e-9);
    }

    #[test]
    fn deterministic_for_seed() {
        let d = TransferEfficiencyDistribution::TruncatedNormal {
            mean: 0.7,
            sd: 0.15,
        };
        let a = MonteCarloOutcome::run(&params(), d, 500, 42).unwrap();
        let b = MonteCarloOutcome::run(&params(), d, 500, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn remote_always_wins_here() {
        // With r = 10 and decent α, remote wins for every draw.
        let out = MonteCarloOutcome::run(
            &params(),
            TransferEfficiencyDistribution::Uniform { lo: 0.5, hi: 1.0 },
            1000,
            4,
        )
        .unwrap();
        assert_eq!(out.prob_remote_wins, 1.0);
    }

    #[test]
    fn rejects_invalid() {
        assert!(MonteCarloOutcome::run(
            &params(),
            TransferEfficiencyDistribution::Fixed(1.5),
            100,
            1
        )
        .is_none());
        assert!(MonteCarloOutcome::run(
            &params(),
            TransferEfficiencyDistribution::Uniform { lo: 0.5, hi: 0.2 },
            100,
            1
        )
        .is_none());
        assert!(MonteCarloOutcome::run(
            &params(),
            TransferEfficiencyDistribution::Fixed(0.5),
            0,
            1
        )
        .is_none());
    }

    #[test]
    fn truncated_normal_within_bounds() {
        let out = MonteCarloOutcome::run(
            &params(),
            TransferEfficiencyDistribution::TruncatedNormal { mean: 0.9, sd: 0.3 },
            2000,
            5,
        )
        .unwrap();
        // All draws valid α → all T_pct finite and positive.
        assert!(out.t_pct_s.iter().all(|t| t.is_finite() && *t > 0.0));
    }
}
