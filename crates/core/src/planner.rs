//! Facility planning: the model run backwards.
//!
//! §6 promises "practical recommendations for facility decision-making".
//! The forward model answers *"will this workload meet its tier?"* with a
//! [`TierReport`]; the planner answers *"what would it take?"* — the
//! minimum link bandwidth, remote compute, or transfer efficiency that
//! brings a workload inside its latency tier under a measured congestion
//! curve. Every operating point it weighs, the current one and each
//! candidate bandwidth, is one [`TierReport::evaluate`] at the SSS the
//! curve reads at that point's utilization.

use serde::{Deserialize, Serialize};
use sss_units::{FlopRate, Rate, TimeDelta};

use crate::congestion::CongestionCurve;
use crate::decision::{verdict, Decision};
use crate::params::ModelParams;
use crate::tiers::{Tier, TierReport};

/// What a workload needs to meet a tier, holding everything else fixed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The tier planned for.
    pub tier: Tier,
    /// Worst-case `T_pct` at the current parameters (via the curve).
    pub current_worst_t_pct: TimeDelta,
    /// True when the workload already meets the tier, worst case.
    pub already_feasible: bool,
    /// Minimum remote compute rate that meets the tier at the current
    /// network; `None` when no finite rate can (transfer alone blows the
    /// budget).
    pub min_remote_rate: Option<FlopRate>,
    /// Minimum link bandwidth that meets the tier with the current
    /// remote compute, assuming the congestion curve's *shape* carries
    /// over (utilization re-evaluated at each candidate bandwidth);
    /// `None` when even a 100× link does not help.
    pub min_bandwidth: Option<Rate>,
}

/// Compute a [`Plan`] for `params` against `tier`, using `curve` to map
/// utilization to worst-case inflation (Eq. 11 applied at each operating
/// point). Returns `None` for [`Tier::Offline`].
pub fn plan_for_tier(params: &ModelParams, curve: &CongestionCurve, tier: Tier) -> Option<Plan> {
    let report = |p: &ModelParams| TierReport::evaluate(p, curve.sss_at(utilization(p)), tier);
    let now = report(params)?;
    let with_link = |bw_factor: f64| {
        let mut p = *params;
        p.bandwidth = params.bandwidth * bw_factor;
        p
    };
    let meets = |p: &ModelParams| report(p).is_some_and(|r| r.feasible);

    // Worst-case T_pct is monotone non-increasing in bandwidth (the
    // utilization falls, the curve value falls, the theoretical time
    // falls). A workload that meets the tier bisects down to 1% of its
    // link for the headroom, where a candidate must also carry the stream
    // at all; one that misses it bisects up to 100×.
    let min_bandwidth = if now.feasible {
        let holds = |f: f64| {
            let p = with_link(f);
            verdict(&p).decision != Decision::Infeasible && meets(&p)
        };
        let factor = if holds(0.01) {
            0.01
        } else {
            bisect(0.01, 1.0, holds)
        };
        Some(params.bandwidth * factor)
    } else if meets(&with_link(100.0)) {
        Some(params.bandwidth * bisect(1.0, 100.0, |f| meets(&with_link(f))))
    } else {
        None
    };

    Some(Plan {
        tier,
        current_worst_t_pct: now.worst_t_pct,
        already_feasible: now.feasible,
        min_remote_rate: now.required_remote_rate,
        min_bandwidth,
    })
}

/// The link utilization the workload's sustained stream causes: the
/// point at which the congestion curve is read.
fn utilization(params: &ModelParams) -> f64 {
    params.required_stream_rate().as_bytes_per_sec() / params.bandwidth.as_bytes_per_sec()
}

/// Bisect a predicate that fails at `lo` and holds at `hi` with 60
/// halvings, returning the upper end of the final bracket.
fn bisect(mut lo: f64, mut hi: f64, meets: impl Fn(f64) -> bool) -> f64 {
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_units::{Bytes, ComputeIntensity, Ratio};

    fn curve() -> CongestionCurve {
        CongestionCurve::from_points(vec![(0.16, 2.0), (0.64, 2.2), (0.9, 10.0), (1.1, 50.0)])
            .unwrap()
    }

    /// The tier report the planner weighs at an operating point.
    fn report(p: &ModelParams, tier: Tier) -> TierReport {
        TierReport::evaluate(p, curve().sss_at(utilization(p)), tier).unwrap()
    }

    fn params(remote_tf: f64, bw_gbps: f64) -> ModelParams {
        ModelParams::builder()
            .data_unit(Bytes::from_gb(2.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(remote_tf))
            .bandwidth(Rate::from_gbps(bw_gbps))
            .alpha(Ratio::new(0.8))
            .build()
            .unwrap()
    }

    #[test]
    fn offline_tier_unplannable() {
        assert!(plan_for_tier(&params(340.0, 25.0), &curve(), Tier::Offline).is_none());
    }

    #[test]
    fn feasible_workload_reports_headroom() {
        let plan = plan_for_tier(&params(340.0, 25.0), &curve(), Tier::NearRealTime).unwrap();
        assert!(plan.already_feasible);
        // It could meet the tier with less link than it has.
        let min_bw = plan.min_bandwidth.unwrap();
        assert!(min_bw < Rate::from_gbps(25.0));
        // ... but the reported minimum really does still meet the tier.
        let mut squeezed = params(340.0, 25.0);
        squeezed.bandwidth = min_bw * 1.01;
        assert!(report(&squeezed, Tier::NearRealTime).feasible);
    }

    #[test]
    fn compute_starved_workload_needs_rate() {
        // 1 TFLOPS remote: 34 TFLOP takes 34 s — misses Tier 2 on compute.
        let p = params(1.0, 25.0);
        let plan = plan_for_tier(&p, &curve(), Tier::NearRealTime).unwrap();
        assert!(!plan.already_feasible);
        let need = plan.min_remote_rate.unwrap();
        // Check: with the planned rate the workload meets the tier.
        let mut fixed = p;
        fixed.remote_rate = need * 1.001;
        assert!(
            report(&fixed, Tier::NearRealTime).feasible,
            "planned rate {} insufficient",
            need
        );
    }

    #[test]
    fn network_starved_workload_needs_bandwidth() {
        // A 17 Gbps link at 94% utilization: deep in the congested knee.
        let p = params(340.0, 17.0);
        let plan = plan_for_tier(&p, &curve(), Tier::RealTime).unwrap();
        assert!(!plan.already_feasible);
        if let Some(bw) = plan.min_bandwidth {
            let mut fixed = p;
            fixed.bandwidth = bw * 1.01;
            assert!(report(&fixed, Tier::RealTime).feasible);
            assert!(bw > p.bandwidth);
        }
    }

    #[test]
    fn hopeless_budget_reports_none() {
        // Tier 1 with a transfer that alone takes > 1 s even at 100×
        // bandwidth? With utilization → 0 the curve floor is SSS 2, so
        // T_worst = 2·S/Bw; at 100×25 Gbps that's ~5 ms — feasible. Use a
        // huge data unit instead so even 2.5 Tbps can't move it in 1 s.
        let mut p = params(340.0, 25.0);
        p.data_unit = Bytes::from_tb(1.0);
        let plan = plan_for_tier(&p, &curve(), Tier::RealTime).unwrap();
        assert!(!plan.already_feasible);
        assert!(plan.min_bandwidth.is_none(), "1 TB in <1 s needs >2.5 Tbps");
        assert!(plan.min_remote_rate.is_none());
    }

    #[test]
    fn worst_transfer_uses_curve_at_operating_point() {
        let p = params(340.0, 25.0);
        // Utilization = 2 GB/s over 3.125 GB/s = 64% → SSS 2.2.
        assert!((utilization(&p) - 0.64).abs() < 1e-12);
        let w = report(&p, Tier::NearRealTime).worst_transfer;
        assert!((w.as_secs() - 2.2 * 0.64).abs() < 1e-9);
    }
}
