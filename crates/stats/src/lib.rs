//! Tail-latency statistics for the stream-score measurement framework.
//!
//! The paper's central methodological argument is that **average-oriented
//! measurement misleads**: "optimizing for maximum average throughput while
//! ignoring tail latency leads to systematic failures in time-sensitive
//! applications" (§1), and Figure 3 shows flow-completion times whose P90
//! and P99 grow non-linearly. This crate provides the estimators the
//! measurement methodology needs:
//!
//! * [`Summary`] — streaming count/mean/min/max.
//! * [`Ecdf`] — exact empirical CDF with interpolated quantiles
//!   (Figure 3).
//! * [`TailMetrics`] — the P50/P90/P99/max digest the paper reports.
//! * [`bootstrap_ci`] — seeded bootstrap confidence intervals for the
//!   worst-case estimators.
//! * [`RateSeries`] — interface-counter style byte accounting, producing
//!   the measured-utilization axis of Figure 2.
//!
//! # Example
//!
//! Distill a sample of flow-completion times into the paper's digest:
//!
//! ```
//! use sss_stats::TailMetrics;
//!
//! // 99 well-behaved transfers and one congested straggler.
//! let mut fct_s: Vec<f64> = (0..99).map(|i| 0.16 + 0.001 * i as f64).collect();
//! fct_s.push(9.4);
//!
//! let tail = TailMetrics::from_samples(&fct_s).unwrap();
//! assert!(tail.p50 < 0.3);
//! assert_eq!(tail.max, 9.4);
//! // The worst case is ~44x the typical case: exactly the average-vs-tail
//! // gap the paper's measurement methodology is built around.
//! assert!(tail.max / tail.p50 > 40.0);
//! ```

mod bootstrap;
mod ecdf;
mod summary;
mod tail;
mod timeseries;

pub use bootstrap::{bootstrap_ci, BootstrapCi};
pub use ecdf::Ecdf;
pub use summary::Summary;
pub use tail::TailMetrics;
pub use timeseries::RateSeries;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any quantile of an ECDF lies within [min, max] of the data.
        #[test]
        fn quantile_bounded(mut xs in proptest::collection::vec(-1e9f64..1e9, 1..200), q in 0.0f64..=1.0) {
            let ecdf = Ecdf::from_samples(xs.clone()).unwrap();
            let v = ecdf.quantile(q);
            xs.sort_by(f64::total_cmp);
            prop_assert!(v >= xs[0] - 1e-9);
            prop_assert!(v <= xs[xs.len() - 1] + 1e-9);
        }

        /// Quantiles are monotone non-decreasing in q.
        #[test]
        fn quantile_monotone(xs in proptest::collection::vec(-1e9f64..1e9, 1..200),
                             q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let ecdf = Ecdf::from_samples(xs.clone()).unwrap();
            prop_assert!(ecdf.quantile(lo) <= ecdf.quantile(hi) + 1e-9);
        }

        /// The ECDF evaluated at any point lies in [0, 1] and is monotone.
        #[test]
        fn ecdf_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                         a in -2e6f64..2e6, b in -2e6f64..2e6) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let ecdf = Ecdf::from_samples(xs.clone()).unwrap();
            let fa = ecdf.eval(lo);
            let fb = ecdf.eval(hi);
            prop_assert!((0.0..=1.0).contains(&fa));
            prop_assert!((0.0..=1.0).contains(&fb));
            prop_assert!(fa <= fb);
        }

        /// Welford mean matches the naive mean.
        #[test]
        fn summary_mean_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
            let mut s = Summary::new();
            for &x in &xs { s.record(x); }
            let naive = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((s.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        }
    }
}
