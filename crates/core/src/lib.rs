//! The *To Stream or Not to Stream* decision model (SC-W '25).
//!
//! Everything in Section 3 of the paper, plus the analyses built on it:
//!
//! * [`ModelParams`] — the seven model parameters (`S_unit`, `C`,
//!   `R_local`, `R_remote`, `Bw`, `α`, `θ`) with their semantic
//!   constraints enforced at construction.
//! * [`CompletionModel`] — Eq. 3–10: `T_local`, `T_transfer`, `T_remote`,
//!   `T_IO`, and the total processing-completion time `T_pct`; its scalar
//!   kernels are the one evaluator behind [`decide`], Monte Carlo and the
//!   frontier.
//! * [`StreamingSpeedScore`] — Eq. 11: worst-case over theoretical
//!   transfer time, measured under controlled congestion.
//! * [`decision`] — the stream / stay-local verdict, feasibility checks,
//!   analytic break-even boundaries and (α, r) regime maps.
//! * [`frontier`] — break-even frontier maps over arbitrary parameter
//!   axes: coarse-grid classification plus adaptive bisection refinement.
//! * [`tiers`] — the case study's latency tiers (real-time < 1 s, near
//!   real-time < 10 s, quasi real-time < 1 min).
//! * [`delay`] — the Kurose–Ross delay decomposition (Eq. 1) and the
//!   "computing continuum" approximation (Eq. 2) the paper critiques.
//! * [`congestion`] — utilization → worst-case-inflation curves: empirical
//!   interpolation from measurements plus an M/M/1 reference (the
//!   paper's announced future work on queueing effects).
//! * [`montecarlo`] — `T_pct` under stochastic transfer efficiency
//!   (the announced future work on variability).
//! * [`scenario`] — named facility workloads: LCLS-II (Table 3), APS,
//!   DELERIA/FRIB, LHC.
//!
//! # Example
//!
//! The paper's Table 3 coherent-scattering workload, end to end:
//!
//! ```
//! use sss_core::{decide, BreakEven, Decision, ModelParams};
//! use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};
//!
//! let params = ModelParams::builder()
//!     .data_unit(Bytes::from_gb(2.0))
//!     .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
//!     .local_rate(FlopRate::from_tflops(10.0))
//!     .remote_rate(FlopRate::from_tflops(340.0))
//!     .bandwidth(Rate::from_gbps(25.0))
//!     .alpha(Ratio::new(0.8))
//!     .build()
//!     .unwrap();
//!
//! let report = decide(&params);
//! assert_eq!(report.decision, Decision::RemoteStream);
//!
//! // Where the decision would flip back to local:
//! let be = BreakEven::of(&params);
//! assert!(be.r_star.unwrap().value() > 1.0);
//! ```

#![warn(missing_docs)]

pub mod congestion;
pub mod contention;
pub mod decision;
pub mod delay;
pub mod frontier;
pub mod model;
pub mod montecarlo;
pub mod params;
pub mod planner;
pub mod scenario;
pub mod sensitivity;
pub mod sss;
pub mod tiers;

pub use congestion::{CongestionCurve, Curve1D, MM1Reference};
pub use contention::{contended_decision, ContentionSummary};
pub use decision::{
    decide, decide_batch, verdict, BreakEven, Decision, DecisionReport, RegimeMap, Verdict,
};
pub use delay::{ContinuumApproximation, DelayDecomposition};
pub use frontier::{
    AlphaJitter, Axis, AxisParam, BoundaryPoint, Edge, FrontierCell, FrontierMap, FrontierSlice,
    FrontierSpec,
};
pub use model::CompletionModel;
pub use montecarlo::{MonteCarloOutcome, TransferEfficiencyDistribution};
pub use params::{ModelParams, ModelParamsBuilder, ParamError};
pub use planner::{plan_for_tier, Plan};
pub use scenario::{edit_distance, nearest_within, Scenario, ScenarioSpec};
pub use sensitivity::Sensitivity;
pub use sss::StreamingSpeedScore;
pub use tiers::{Tier, TierReport};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

    fn arb_params() -> impl Strategy<Value = ModelParams> {
        (
            0.01f64..100.0,  // S_unit GB
            0.1f64..100.0,   // C TF/GB
            0.1f64..1000.0,  // R_local TFLOPS
            0.1f64..10000.0, // R_remote TFLOPS
            1.0f64..400.0,   // Bw Gbps
            0.05f64..1.0,    // alpha
            1.0f64..20.0,    // theta
        )
            .prop_map(|(s, c, rl, rr, bw, a, th)| {
                ModelParams::builder()
                    .data_unit(Bytes::from_gb(s))
                    .intensity(ComputeIntensity::from_tflop_per_gb(c))
                    .local_rate(FlopRate::from_tflops(rl))
                    .remote_rate(FlopRate::from_tflops(rr))
                    .bandwidth(Rate::from_gbps(bw))
                    .alpha(Ratio::new(a))
                    .theta(Ratio::new(th))
                    .build()
                    .expect("generated params valid")
            })
    }

    proptest! {
        /// T_pct decreases (weakly) as transfer efficiency α improves.
        #[test]
        fn tpct_monotone_in_alpha(p in arb_params(), bump in 0.0f64..0.5) {
            let m = CompletionModel::new(p);
            let mut better = p;
            better.alpha = Ratio::new((p.alpha.value() + bump).min(1.0));
            let m2 = CompletionModel::new(better);
            prop_assert!(m2.t_pct().as_secs() <= m.t_pct().as_secs() + 1e-12);
        }

        /// T_pct increases (weakly) with the I/O overhead θ.
        #[test]
        fn tpct_monotone_in_theta(p in arb_params(), bump in 0.0f64..10.0) {
            let m = CompletionModel::new(p);
            let mut worse = p;
            worse.theta = Ratio::new(p.theta.value() + bump);
            let m2 = CompletionModel::new(worse);
            prop_assert!(m2.t_pct().as_secs() >= m.t_pct().as_secs() - 1e-12);
        }

        /// T_remote decreases as the remote machine gets faster.
        #[test]
        fn tremote_monotone_in_r(p in arb_params(), factor in 1.0f64..10.0) {
            let m = CompletionModel::new(p);
            let mut faster = p;
            faster.remote_rate = p.remote_rate * factor;
            let m2 = CompletionModel::new(faster);
            prop_assert!(m2.t_remote().as_secs() <= m.t_remote().as_secs() + 1e-12);
        }

        /// Eq. 9 and Eq. 10 agree: θ·T_transfer + T_remote equals the
        /// closed form.
        #[test]
        fn eq9_equals_eq10(p in arb_params()) {
            let m = CompletionModel::new(p);
            let lhs = m.t_pct().as_secs();
            let rhs = p.theta.value() * m.t_transfer().as_secs() + m.t_remote().as_secs();
            prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
        }

        /// The decision is consistent with comparing the two times.
        #[test]
        fn decision_consistent(p in arb_params()) {
            let report = decide(&p);
            let m = CompletionModel::new(p);
            match report.decision {
                Decision::Local => {
                    prop_assert!(m.t_local().as_secs() <= m.t_pct().as_secs() + 1e-12)
                }
                Decision::RemoteStream => {
                    prop_assert!(m.t_pct().as_secs() < m.t_local().as_secs() + 1e-9)
                }
                Decision::Infeasible => {
                    prop_assert!(p.required_stream_rate() > p.effective_rate());
                }
            }
        }

        /// The break-even r* really is the flip point of the decision.
        #[test]
        fn breakeven_r_flips_decision(p in arb_params()) {
            let be = BreakEven::of(&p);
            if let Some(r_star) = be.r_star {
                prop_assume!(r_star.value() > 1e-6 && r_star.value() < 1e6);
                let mut just_below = p;
                just_below.remote_rate = p.local_rate * (r_star.value() * 0.99);
                let mut just_above = p;
                just_above.remote_rate = p.local_rate * (r_star.value() * 1.01);
                let below = CompletionModel::new(just_below);
                let above = CompletionModel::new(just_above);
                // Below r*: local wins; above r*: remote wins.
                prop_assert!(below.t_local().as_secs() <= below.t_pct().as_secs() + 1e-9);
                prop_assert!(above.t_pct().as_secs() <= above.t_local().as_secs() + 1e-9);
            }
        }
    }
}
