//! The case study's latency tiers (§5) and tier-feasibility evaluation.

use std::fmt;

use serde::{Deserialize, Serialize};
use sss_units::{FlopRate, Ratio, TimeDelta};

use crate::model::CompletionModel;
use crate::params::ModelParams;

/// Operational latency tier for the total processing-completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tier {
    /// Tier 1 (real-time analysis): `T_pct` < 1 s.
    RealTime,
    /// Tier 2 (near real-time analysis): `T_pct` < 10 s.
    NearRealTime,
    /// Tier 3 (quasi real-time analysis): `T_pct` < 1 min.
    QuasiRealTime,
    /// Beyond Tier 3: offline analysis only.
    Offline,
}

impl Tier {
    /// The tier's completion-time budget (`None` for offline).
    pub fn budget(&self) -> Option<TimeDelta> {
        match self {
            Tier::RealTime => Some(TimeDelta::from_secs(1.0)),
            Tier::NearRealTime => Some(TimeDelta::from_secs(10.0)),
            Tier::QuasiRealTime => Some(TimeDelta::from_secs(60.0)),
            Tier::Offline => None,
        }
    }

    /// Classify a completion time into its tier.
    // sss-lint: allow(U001, library callers of the prelude's Tier: the paper's section 5 tier of a completion time)
    pub fn classify(t: TimeDelta) -> Tier {
        let s = t.as_secs();
        if s < 1.0 {
            Tier::RealTime
        } else if s < 10.0 {
            Tier::NearRealTime
        } else if s < 60.0 {
            Tier::QuasiRealTime
        } else {
            Tier::Offline
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Tier::RealTime => "Tier 1 (real-time, <1 s)",
            Tier::NearRealTime => "Tier 2 (near real-time, <10 s)",
            Tier::QuasiRealTime => "Tier 3 (quasi real-time, <1 min)",
            Tier::Offline => "offline (>1 min)",
        };
        f.write_str(name)
    }
}

/// Tier evaluation of a workload under worst-case transfer conditions —
/// the §5 analysis ("worst-case data streaming time 1.2 s ... leaving
/// 8.8 s for the analysis").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierReport {
    /// The tier evaluated against.
    pub tier: Tier,
    /// Worst-case transfer time used (from the Streaming Speed Score).
    pub worst_transfer: TimeDelta,
    /// Remote compute time.
    pub t_remote: TimeDelta,
    /// Worst-case total: `θ·T_worst + T_remote`.
    pub worst_t_pct: TimeDelta,
    /// Budget remaining for computation after the worst-case transfer
    /// (negative when the transfer alone blows the budget).
    pub compute_budget: TimeDelta,
    /// Minimum remote compute rate that would still meet the tier given
    /// the worst-case transfer; `None` when no rate can (budget already
    /// spent on transfer).
    pub required_remote_rate: Option<FlopRate>,
    /// Whether the workload meets the tier remotely, worst case.
    pub feasible: bool,
}

impl TierReport {
    /// Evaluate `params` against `tier`, bounding the transfer by the
    /// measured Streaming Speed Score `sss` (worst case = `SSS ×
    /// S_unit/Bw`).
    ///
    /// Returns `None` for [`Tier::Offline`] (no budget to evaluate).
    pub fn evaluate(params: &ModelParams, sss: Ratio, tier: Tier) -> Option<TierReport> {
        let budget = tier.budget()?;
        let m = CompletionModel::new(*params);
        let t_theoretical = params.data_unit / params.bandwidth;
        let worst_transfer = t_theoretical * sss;
        let worst_t_pct = m.t_pct_worst_case(sss);
        let compute_budget = budget - worst_transfer * params.theta;
        let work = params.intensity * params.data_unit;
        let required_remote_rate = (compute_budget.as_secs() > 0.0)
            .then(|| FlopRate::from_flops(work.as_flop() / compute_budget.as_secs()));
        Some(TierReport {
            tier,
            worst_transfer,
            t_remote: m.t_remote(),
            worst_t_pct,
            compute_budget,
            required_remote_rate,
            feasible: worst_t_pct <= budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_units::{Bytes, ComputeIntensity, Rate};

    #[test]
    fn budgets_match_paper() {
        assert_eq!(Tier::RealTime.budget().unwrap().as_secs(), 1.0);
        assert_eq!(Tier::NearRealTime.budget().unwrap().as_secs(), 10.0);
        assert_eq!(Tier::QuasiRealTime.budget().unwrap().as_secs(), 60.0);
        assert!(Tier::Offline.budget().is_none());
    }

    #[test]
    fn classification_edges() {
        assert_eq!(
            Tier::classify(TimeDelta::from_millis(999.0)),
            Tier::RealTime
        );
        assert_eq!(
            Tier::classify(TimeDelta::from_secs(1.0)),
            Tier::NearRealTime
        );
        assert_eq!(
            Tier::classify(TimeDelta::from_secs(9.99)),
            Tier::NearRealTime
        );
        assert_eq!(
            Tier::classify(TimeDelta::from_secs(10.0)),
            Tier::QuasiRealTime
        );
        assert_eq!(Tier::classify(TimeDelta::from_secs(61.0)), Tier::Offline);
    }

    #[test]
    fn tier_ordering() {
        assert!(Tier::RealTime < Tier::NearRealTime);
        assert!(Tier::NearRealTime < Tier::QuasiRealTime);
        assert!(Tier::QuasiRealTime < Tier::Offline);
    }

    fn coherent_scattering() -> ModelParams {
        // §5: 2 GB/s workload, 34 TF of offline analysis per second of
        // data, 25 Gbps link.
        ModelParams::builder()
            .data_unit(Bytes::from_gb(2.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(34.0))
            .bandwidth(Rate::from_gbps(25.0))
            .alpha(sss_units::Ratio::new(0.8))
            .build()
            .unwrap()
    }

    #[test]
    fn paper_case_study_tier2_budget() {
        // §5: worst-case streaming time 1.2 s at 64% utilization leaves
        // 8.8 s of the Tier-2 budget. 1.2 s on a 0.64 s theoretical
        // transfer is SSS = 1.875.
        let report = TierReport::evaluate(
            &coherent_scattering(),
            Ratio::new(1.875),
            Tier::NearRealTime,
        )
        .unwrap();
        assert!((report.worst_transfer.as_secs() - 1.2).abs() < 1e-9);
        assert!((report.compute_budget.as_secs() - 8.8).abs() < 1e-9);
        // 34 TF of work in 8.8 s needs ≈ 3.86 TFLOPS.
        let need = report.required_remote_rate.unwrap().as_tflops();
        assert!((need - 34.0 / 8.8).abs() < 1e-9);
        assert!(report.feasible);
    }

    #[test]
    fn severe_congestion_blows_tier1() {
        // SSS 31 → worst transfer ≈ 19.8 s: even Tier 2 fails.
        let report =
            TierReport::evaluate(&coherent_scattering(), Ratio::new(31.0), Tier::NearRealTime)
                .unwrap();
        assert!(!report.feasible);
        assert!(report.compute_budget.is_sign_negative());
        assert!(report.required_remote_rate.is_none());
    }

    #[test]
    fn offline_tier_yields_none() {
        assert!(
            TierReport::evaluate(&coherent_scattering(), Ratio::new(2.0), Tier::Offline).is_none()
        );
    }

    #[test]
    fn display_names() {
        assert!(Tier::RealTime.to_string().contains("Tier 1"));
        assert!(Tier::Offline.to_string().contains("offline"));
    }
}
