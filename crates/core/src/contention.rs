//! Contention-adjusted decisions: re-judging an idle-WAN verdict against
//! a completion time **realized under load**.
//!
//! The closed-form model (Eq. 3–10) prices the network as a private
//! `α·Bw` link. In a shared facility the same session queues for a DTN
//! slot and splits the WAN with concurrent campaigns, so its realized
//! `T_pct` can only be equal or worse. The comparison takes two pieces:
//!
//! * the model's own rule, [`judge`](crate::judge), fed the realized
//!   `T_pct` in place of the analytic one, with the workload's required
//!   and effective rates and the analytic `T_local` (the local path has
//!   no network in it, so its closed form stays exact under contention).
//!   Feasibility is a rate property of the workload and its link, so an
//!   `Infeasible` verdict stands regardless of load;
//! * a **mispredict** is an idle-WAN `RemoteStream` verdict that
//!   contention pushed past `T_local` (the only direction a verdict can
//!   flip: realized completion is never faster than the closed form);
//!   [`ContentionSummary`] aggregates mispredicts and slowdowns over a
//!   group of sessions (one scenario, one policy cell, a whole fleet).

use serde::{Deserialize, Serialize};

/// Mispredict and slowdown aggregates over a group of sessions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentionSummary {
    /// Sessions aggregated.
    pub sessions: usize,
    /// Sessions whose idle-WAN decision differs from the contended one.
    pub mispredicts: usize,
    /// `mispredicts / sessions` (0 for an empty group).
    pub mispredict_rate: f64,
    /// Mean `realized T_pct / model T_pct` (1 for an empty group).
    pub mean_slowdown: f64,
    /// Largest slowdown in the group (1 for an empty group).
    pub max_slowdown: f64,
}

impl ContentionSummary {
    /// Aggregate `(mispredict, slowdown)` outcomes, one per session.
    pub fn from_outcomes(outcomes: &[(bool, f64)]) -> Self {
        if outcomes.is_empty() {
            return ContentionSummary {
                sessions: 0,
                mispredicts: 0,
                mispredict_rate: 0.0,
                mean_slowdown: 1.0,
                max_slowdown: 1.0,
            };
        }
        let n = outcomes.len();
        let mispredicts = outcomes.iter().filter(|(m, _)| *m).count();
        let sum: f64 = outcomes.iter().map(|(_, s)| s).sum();
        ContentionSummary {
            sessions: n,
            mispredicts,
            mispredict_rate: mispredicts as f64 / n as f64,
            mean_slowdown: sum / n as f64,
            max_slowdown: outcomes.iter().map(|(_, s)| *s).fold(1.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{judge, verdict, Decision};
    use crate::params::ModelParams;
    use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio, TimeDelta};

    /// The model's rule at `p` with `realized` in place of the analytic
    /// `T_pct`.
    fn rejudge(p: &ModelParams, realized: f64) -> Decision {
        let model = verdict(p);
        judge(
            p.required_stream_rate(),
            p.effective_rate(),
            model.t_local,
            TimeDelta::from_secs(realized),
        )
    }

    fn streaming_params() -> ModelParams {
        // The paper's flagship workload: remote streaming wins cleanly.
        ModelParams::builder()
            .data_unit(Bytes::from_gb(2.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(340.0))
            .bandwidth(Rate::from_gbps(25.0))
            .alpha(Ratio::new(0.8))
            .theta(Ratio::ONE)
            .build()
            .unwrap()
    }

    #[test]
    fn realized_below_local_streams() {
        let p = streaming_params();
        let model = verdict(&p);
        assert_eq!(model.decision, Decision::RemoteStream);
        assert_eq!(rejudge(&p, model.t_pct.as_secs()), Decision::RemoteStream);
        let just_below = model.t_local.as_secs().next_down();
        assert_eq!(rejudge(&p, just_below), Decision::RemoteStream);
    }

    #[test]
    fn realized_at_or_past_local_is_local() {
        let p = streaming_params();
        let t_local = verdict(&p).t_local.as_secs();
        assert_eq!(rejudge(&p, t_local), Decision::Local, "a tie is local");
        assert_eq!(rejudge(&p, t_local * 2.0), Decision::Local);
    }

    #[test]
    fn infeasible_stays_infeasible_under_any_load() {
        let p = ModelParams::builder()
            .data_unit(Bytes::from_gb(4.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(1.0))
            .local_rate(FlopRate::from_tflops(1.0))
            .remote_rate(FlopRate::from_tflops(100.0))
            .bandwidth(Rate::from_gbps(1.0))
            .alpha(Ratio::new(0.5))
            .theta(Ratio::ONE)
            .build()
            .unwrap();
        assert_eq!(verdict(&p).decision, Decision::Infeasible);
        for realized in [0.0, 1e-6, verdict(&p).t_local.as_secs(), 1e9] {
            assert_eq!(rejudge(&p, realized), Decision::Infeasible, "{realized}");
        }
    }

    #[test]
    fn summary_aggregates_and_handles_empty_groups() {
        let s = ContentionSummary::from_outcomes(&[(false, 1.0), (true, 3.0), (false, 2.0)]);
        assert_eq!(s.sessions, 3);
        assert_eq!(s.mispredicts, 1);
        assert!((s.mispredict_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_slowdown - 2.0).abs() < 1e-12);
        assert!((s.max_slowdown - 3.0).abs() < 1e-12);

        let empty = ContentionSummary::from_outcomes(&[]);
        assert_eq!(empty.sessions, 0);
        assert_eq!(empty.mispredict_rate, 0.0);
        assert_eq!(empty.mean_slowdown, 1.0);
    }
}
