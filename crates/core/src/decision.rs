//! The stream-or-not decision and its break-even boundaries. The
//! regime maps of contribution (1), where the decision flips across a
//! plane of parameters, are `sss-loadgen`'s frontier maps.

use serde::{Deserialize, Serialize};
use sss_units::{Rate, Ratio, TimeDelta};

use crate::model::{kernel, CompletionModel};
use crate::params::ModelParams;

/// The verdict for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Local processing completes no later than the remote path.
    Local,
    /// Remote streaming yields a strictly lower completion time.
    RemoteStream,
    /// The workload's sustained data rate exceeds the effective link
    /// rate — remote real-time processing is impossible regardless of
    /// compute (the Liquid Scattering situation: "4 GB/s (32 Gbps) would
    /// be unfeasible because it is higher than our link capacity").
    Infeasible,
}

/// Full decision output with the numbers that drove it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionReport {
    /// The verdict.
    pub decision: Decision,
    /// Eq. 3 local completion time.
    pub t_local: TimeDelta,
    /// Eq. 10 remote completion time.
    pub t_pct: TimeDelta,
    /// `T_local / T_pct`.
    pub gain: Ratio,
    /// `1 − T_pct/T_local` (negative when remote is slower).
    pub reduction: f64,
    /// Sustained rate the workload demands.
    pub required_rate: Rate,
    /// Effective rate the network can deliver (`α·Bw`).
    pub effective_rate: Rate,
    /// Human-readable justification, one line per consideration.
    pub reasons: Vec<String>,
}

/// The verdict and the two completion times it weighs: the numbers of
/// a [`DecisionReport`] that a caller re-judging the verdict reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The verdict.
    pub decision: Decision,
    /// Eq. 3 local completion time.
    pub t_local: TimeDelta,
    /// Eq. 10 remote completion time.
    pub t_pct: TimeDelta,
}

impl Verdict {
    /// The gain of going remote, `T_local / T_pct`, from the two times
    /// already evaluated: guarded like [`CompletionModel::gain`], and the
    /// same bits.
    pub fn gain(&self) -> Ratio {
        Ratio::new(kernel::guarded_ratio(
            self.t_local.as_secs(),
            self.t_pct.as_secs(),
        ))
    }
}

/// The model's decision rule, from rates and times already in hand:
/// infeasible when the demanded sustained rate exceeds the effective
/// link rate, otherwise remote streaming exactly when `t_pct` is
/// strictly below `t_local`.
///
/// [`verdict`] feeds it the closed form. The trace replay and the fleet
/// feed it a simulated or realized `T_pct` (and the replay a trace's mean
/// effective rate), so they grade the model by its own rule. Every
/// decision in the workspace comes from this one function.
#[inline]
pub fn judge(required: Rate, effective: Rate, t_local: TimeDelta, t_pct: TimeDelta) -> Decision {
    if required.as_bytes_per_sec() > effective.as_bytes_per_sec() {
        Decision::Infeasible
    } else if t_pct.as_secs() < t_local.as_secs() {
        Decision::RemoteStream
    } else {
        Decision::Local
    }
}

/// Apply the §3 model: the verdict [`decide`] justifies, without the
/// prose.
pub fn verdict(params: &ModelParams) -> Verdict {
    let m = CompletionModel::new(*params);
    let t_local = m.t_local();
    let t_pct = m.t_pct();
    let decision = judge(
        params.required_stream_rate(),
        params.effective_rate(),
        t_local,
        t_pct,
    );
    Verdict {
        decision,
        t_local,
        t_pct,
    }
}

/// Apply the §3 model and produce a decision with its justification:
/// the [`verdict`], the numbers around it and the prose built on them.
pub fn decide(params: &ModelParams) -> DecisionReport {
    let m = CompletionModel::new(*params);
    let judged = verdict(params);
    let Verdict {
        decision,
        t_local,
        t_pct,
    } = judged;
    let gain = judged.gain();
    let reduction = m.reduction();
    let required = params.required_stream_rate();
    let effective = params.effective_rate();
    let mut reasons = Vec::new();

    match decision {
        Decision::Infeasible => reasons.push(format!(
            "required sustained rate {required} exceeds effective link rate {effective} \
             (α = {} on {}): remote real-time processing is infeasible",
            params.alpha, params.bandwidth
        )),
        Decision::RemoteStream => reasons.push(format!(
            "remote completion {t_pct} beats local {t_local} (gain {:.2}×, {:.1}% reduction)",
            gain.value(),
            reduction * 100.0
        )),
        Decision::Local => reasons.push(format!(
            "local completion {t_local} is no worse than remote {t_pct}; \
             keep the analysis at the instrument"
        )),
    }
    if params.theta.value() > 1.0 {
        reasons.push(format!(
            "file I/O inflates the transfer by θ = {}; a streaming path (θ = 1) would \
             save {}",
            params.theta,
            m.t_io()
        ));
    }

    DecisionReport {
        decision,
        t_local,
        t_pct,
        gain,
        reduction,
        required_rate: required,
        effective_rate: effective,
        reasons,
    }
}

/// [`decide`] over a slice of workloads, in order.
pub fn decide_batch(params: &[ModelParams]) -> Vec<DecisionReport> {
    params.iter().map(decide).collect()
}

/// Analytic break-even boundaries: where the decision flips.
///
/// Derived from `T_local = θ·T_transfer + T_remote`:
///
/// * `r* = 1 / (1 − θ·T_transfer/T_local)` — the minimum remote-to-local
///   compute ratio for remote to win (`None` when the transfer alone
///   already exceeds the local time: no amount of remote compute helps).
/// * `α* = θ·S / (Bw · T_local·(1 − 1/r))` — the minimum transfer
///   efficiency (`None` when `r ≤ 1`; values above 1 mean no achievable
///   efficiency suffices).
/// * `θ_max = T_local·(1 − 1/r) · α·Bw / S` — the largest I/O overhead
///   remote processing tolerates (`None` when `r ≤ 1`).
/// * `bw_min = θ·S / (α · T_local·(1 − 1/r))` — the smallest link
///   bandwidth that still lets remote win (`None` when `r ≤ 1`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakEven {
    /// Minimum `r` for remote to win.
    pub r_star: Option<Ratio>,
    /// Minimum `α` for remote to win (may exceed 1 = unattainable).
    pub alpha_star: Option<Ratio>,
    /// Maximum tolerable `θ`.
    pub theta_max: Option<Ratio>,
    /// Minimum bandwidth for remote to win.
    pub bw_min: Option<Rate>,
}

impl BreakEven {
    /// Compute all boundaries for a parameter set.
    pub fn of(params: &ModelParams) -> Self {
        let m = CompletionModel::new(*params);
        let t_local = m.t_local().as_secs();
        let t_transfer = m.t_transfer().as_secs();
        let theta = params.theta.value();
        let r = params.r().value();

        // r*: remote compute needed given the transfer cost.
        let r_star = {
            let budget = 1.0 - theta * t_transfer / t_local;
            (budget > 0.0).then(|| Ratio::new(1.0 / budget))
        };

        // The compute-side headroom fraction (1 − 1/r): what part of
        // T_local remains for moving data after remote compute.
        let headroom = 1.0 - 1.0 / r;
        let s = params.data_unit.as_b();
        let bw = params.bandwidth.as_bytes_per_sec();
        let alpha = params.alpha.value();

        let alpha_star =
            (headroom > 0.0).then(|| Ratio::new(theta * s / (bw * t_local * headroom)));
        let theta_max = (headroom > 0.0).then(|| Ratio::new(t_local * headroom * alpha * bw / s));
        let bw_min = (headroom > 0.0)
            .then(|| Rate::from_bytes_per_sec(theta * s / (alpha * t_local * headroom)));

        BreakEven {
            r_star,
            alpha_star,
            theta_max,
            bw_min,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_units::{Bytes, ComputeIntensity, FlopRate};

    fn params(r_remote_tf: f64, alpha: f64, theta: f64) -> ModelParams {
        ModelParams::builder()
            .data_unit(Bytes::from_gb(2.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(r_remote_tf))
            .bandwidth(Rate::from_gbps(25.0))
            .alpha(Ratio::new(alpha))
            .theta(Ratio::new(theta))
            .build()
            .unwrap()
    }

    #[test]
    fn fast_remote_wins() {
        let report = decide(&params(340.0, 0.8, 1.0));
        assert_eq!(report.decision, Decision::RemoteStream);
        assert!(report.gain.value() > 1.0);
        assert!(report.reduction > 0.0);
        assert!(!report.reasons.is_empty());
    }

    #[test]
    fn slow_remote_stays_local() {
        // Feasible stream (20 Gbps effective vs 16 Gbps required), but the
        // remote machine is barely faster and file I/O doubles the
        // transfer: T_pct = 2×0.8 + 34/11 ≈ 4.7 s vs T_local = 3.4 s.
        let report = decide(&params(11.0, 0.8, 2.0));
        assert_eq!(report.decision, Decision::Local);
        assert!(report.reduction <= 0.0);
    }

    #[test]
    fn liquid_scattering_is_infeasible() {
        // 4 GB/s demanded on a 25 Gbps (3.125 GB/s) link.
        let p = ModelParams::builder()
            .data_unit(Bytes::from_gb(4.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(5.0))
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(100.0))
            .bandwidth(Rate::from_gbps(25.0))
            .alpha(Ratio::new(1.0))
            .build()
            .unwrap();
        let report = decide(&p);
        assert_eq!(report.decision, Decision::Infeasible);
        assert!(report.reasons[0].contains("infeasible"));
    }

    #[test]
    fn theta_reason_appears_for_file_paths() {
        let report = decide(&params(340.0, 0.8, 2.0));
        assert!(report.reasons.iter().any(|r| r.contains("θ")));
    }

    #[test]
    fn breakeven_r_star_hand_computed() {
        // T_local = 3.4 s; θ·T_transfer = 0.8 s → budget = 1 − 0.8/3.4;
        // r* = 1/(1 − 0.23529) = 1.3077.
        let be = BreakEven::of(&params(100.0, 0.8, 1.0));
        let r_star = be.r_star.unwrap().value();
        assert!((r_star - 1.0 / (1.0 - 0.8 / 3.4)).abs() < 1e-9);
    }

    #[test]
    fn breakeven_none_when_transfer_dominates() {
        // θ·T_transfer = 4 × (2/0.625) ... make transfer alone exceed
        // T_local: α = 0.05 → T_transfer = 12.8 s > 3.4 s.
        let be = BreakEven::of(&params(100.0, 0.05, 1.0));
        assert!(be.r_star.is_none());
    }

    #[test]
    fn breakeven_theta_max_consistency() {
        let p = params(100.0, 0.8, 1.0);
        let be = BreakEven::of(&p);
        let theta_max = be.theta_max.unwrap();
        // At θ = θ_max the two paths tie.
        let mut tied = p;
        tied.theta = theta_max;
        let m = CompletionModel::new(tied);
        assert!((m.t_local().as_secs() - m.t_pct().as_secs()).abs() < 1e-9);
    }

    #[test]
    fn breakeven_bw_min_consistency() {
        let p = params(100.0, 0.8, 1.0);
        let be = BreakEven::of(&p);
        let mut tied = p;
        tied.bandwidth = be.bw_min.unwrap();
        let m = CompletionModel::new(tied);
        assert!((m.t_local().as_secs() - m.t_pct().as_secs()).abs() < 1e-9);
    }

    #[test]
    fn breakeven_alpha_star_consistency() {
        let p = params(100.0, 0.8, 1.0);
        let be = BreakEven::of(&p);
        let alpha_star = be.alpha_star.unwrap();
        assert!(alpha_star.value() <= 1.0, "should be attainable here");
        let mut tied = p;
        tied.alpha = alpha_star;
        let m = CompletionModel::new(tied);
        assert!((m.t_local().as_secs() - m.t_pct().as_secs()).abs() < 1e-9);
    }

    #[test]
    fn breakeven_none_for_slower_remote() {
        // r < 1: remote compute is slower; no α/θ/bw can rescue it when
        // combined with any transfer cost.
        let be = BreakEven::of(&params(5.0, 0.8, 1.0));
        assert!(be.alpha_star.is_none());
        assert!(be.theta_max.is_none());
        assert!(be.bw_min.is_none());
    }

    #[test]
    fn decide_batch_matches_pointwise_decide() {
        // All three regimes in one wave, including the θ reason line.
        let workloads = vec![
            params(340.0, 0.8, 1.0),  // RemoteStream
            params(11.0, 0.8, 2.0),   // Local, θ > 1
            params(100.0, 0.05, 1.0), // transfer-starved
            params(340.0, 0.2, 1.5),  // infeasible (0.625 GB/s effective)
        ];
        let batched = decide_batch(&workloads);
        assert_eq!(batched.len(), workloads.len());
        for (p, b) in workloads.iter().zip(&batched) {
            let scalar = decide(p);
            assert_eq!(*b, scalar, "reports must match byte for byte");
            assert_eq!(
                serde_json::to_string(b).unwrap(),
                serde_json::to_string(&scalar).unwrap()
            );
        }
    }

    #[test]
    fn decide_batch_empty_is_empty() {
        assert!(decide_batch(&[]).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sss_units::{Bytes, ComputeIntensity, FlopRate};

    /// Wide-but-valid parameter sets, including the `C = 0` corner the
    /// gain guard exists for (one draw in eight zeroes the intensity).
    fn arb_params() -> impl Strategy<Value = ModelParams> {
        (
            1e-3f64..1e4,  // S_unit GB
            0u32..8,       // 0 → zero intensity (pure movement)
            1e-3f64..1e3,  // C TF/GB otherwise
            1e-2f64..1e4,  // R_local TFLOPS
            1e-2f64..1e5,  // R_remote TFLOPS
            1e-1f64..1e3,  // Bw Gbps
            0.01f64..=1.0, // alpha
            1.0f64..50.0,  // theta
        )
            .prop_map(|(s, zero, c, rl, rr, bw, a, th)| {
                let c = if zero == 0 { 0.0 } else { c };
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
        /// [`verdict`] and [`Verdict::gain`], which the frontier evaluates
        /// once per point, match `decide` and `CompletionModel::gain` bit
        /// for bit *at* the decision boundary: each workload is pinned to
        /// its break-even remote rate r* (and a hair either side), where
        /// `T_pct` and `T_local` are as close as f64 lets them be.
        #[test]
        fn parity_at_the_decision_boundary(p in arb_params(), pick in 0usize..5) {
            let nudge = [1.0f64, 1.0 - 1e-15, 1.0 + 1e-15, 0.999, 1.001][pick];
            let Some(r_star) = BreakEven::of(&p).r_star else {
                return Ok(());
            };
            prop_assume!(r_star.value().is_finite() && r_star.value() < 1e9);
            let mut tied = p;
            tied.remote_rate = p.local_rate * (r_star.value() * nudge);
            prop_assume!(tied.validated().is_ok());
            let judged = verdict(&tied);
            let (decision, gain) = (judged.decision, judged.gain().value());
            prop_assert_eq!(decision, decide(&tied).decision);
            prop_assert_eq!(gain.to_bits(),
                CompletionModel::new(tied).gain().value().to_bits());
        }
    }
}
