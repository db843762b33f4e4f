//! The completion-time model: Eq. 3 through Eq. 10.

use serde::{Deserialize, Serialize};
use sss_units::{Ratio, TimeDelta};

use crate::params::ModelParams;

/// The scalar kernels behind every evaluation: plain `f64` arithmetic in
/// base units (bytes, FLOP/byte, FLOPS, bytes/s), written once so
/// [`CompletionModel`], [`decide`](crate::decision::decide), Monte Carlo
/// and the frontier cannot drift apart.
pub(crate) mod kernel {
    /// Eq. 3 — `T_local = C·S/R_local`, seconds.
    #[inline(always)]
    pub(crate) fn t_local(s: f64, c: f64, rl: f64) -> f64 {
        (c * s) / rl
    }

    /// Eq. 5 — `T_transfer = S/(α·Bw)`, seconds.
    #[inline(always)]
    pub(crate) fn t_transfer(s: f64, bw: f64, a: f64) -> f64 {
        s / (bw * a)
    }

    /// Eq. 6 — `T_remote = C·S/R_remote`, seconds.
    #[inline(always)]
    pub(crate) fn t_remote(s: f64, c: f64, rr: f64) -> f64 {
        (c * s) / rr
    }

    /// Eq. 9/10 — `T_pct = θ·T_transfer + T_remote`, seconds.
    #[inline(always)]
    pub(crate) fn t_pct(s: f64, c: f64, rr: f64, bw: f64, a: f64, th: f64) -> f64 {
        t_transfer(s, bw, a) * th + t_remote(s, c, rr)
    }

    /// `num/den`, guarded against the zero-adjacent corners: a `0/0` tie
    /// reads as 1 (the paths are equally fast) and `x/0` saturates to
    /// `f64::MAX` instead of `inf`, so gains and reductions stay finite
    /// for every constructible parameter set (e.g. `C = 0` workloads).
    #[inline(always)]
    pub(crate) fn guarded_ratio(num: f64, den: f64) -> f64 {
        // sss-lint: allow(D004, exact-zero guard keeps 0/0 and x/0 finite)
        if den == 0.0 {
            // sss-lint: allow(D004, 0/0 is defined as ratio 1; exact test intended)
            if num == 0.0 {
                1.0
            } else {
                f64::MAX
            }
        } else {
            num / den
        }
    }

    /// `T_local / T_pct` with the zero guard (> 1 means remote wins).
    #[inline(always)]
    pub(crate) fn gain(s: f64, c: f64, rl: f64, rr: f64, bw: f64, a: f64, th: f64) -> f64 {
        guarded_ratio(t_local(s, c, rl), t_pct(s, c, rr, bw, a, th))
    }

    /// `1 − T_pct/T_local` with the zero guard (negative when remote is
    /// slower).
    #[inline(always)]
    pub(crate) fn reduction(s: f64, c: f64, rl: f64, rr: f64, bw: f64, a: f64, th: f64) -> f64 {
        1.0 - guarded_ratio(t_pct(s, c, rr, bw, a, th), t_local(s, c, rl))
    }
}

/// Evaluates the paper's completion-time equations for one parameter set.
///
/// ```
/// use sss_core::{CompletionModel, ModelParams};
/// use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};
///
/// // Coherent-scattering-like workload on a 25 Gbps link.
/// let p = ModelParams::builder()
///     .data_unit(Bytes::from_gb(2.0))
///     .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
///     .local_rate(FlopRate::from_tflops(10.0))
///     .remote_rate(FlopRate::from_tflops(340.0))
///     .bandwidth(Rate::from_gbps(25.0))
///     .alpha(Ratio::new(0.8))
///     .theta(Ratio::ONE)
///     .build()
///     .unwrap();
/// let m = CompletionModel::new(p);
/// // Local: 34 TF on 10 TFLOPS = 3.4 s. Remote: 0.8 s transfer + 0.1 s compute.
/// assert!((m.t_local().as_secs() - 3.4).abs() < 1e-9);
/// assert!(m.t_pct() < m.t_local());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletionModel {
    params: ModelParams,
}

impl CompletionModel {
    /// Wrap a parameter set.
    pub fn new(params: ModelParams) -> Self {
        CompletionModel { params }
    }

    /// The wrapped parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The kernels' seven raw arguments, in base units.
    #[inline(always)]
    fn raw(&self) -> (f64, f64, f64, f64, f64, f64, f64) {
        let p = &self.params;
        (
            p.data_unit.as_b(),
            p.intensity.as_flop_per_byte(),
            p.local_rate.as_flops(),
            p.remote_rate.as_flops(),
            p.bandwidth.as_bytes_per_sec(),
            p.alpha.value(),
            p.theta.value(),
        )
    }

    /// Eq. 3 — `T_local = C·S_unit / R_local`.
    pub fn t_local(&self) -> TimeDelta {
        let (s, c, rl, ..) = self.raw();
        TimeDelta::from_secs(kernel::t_local(s, c, rl))
    }

    /// Eq. 5 — `T_transfer = S_unit / (α·Bw)`.
    pub fn t_transfer(&self) -> TimeDelta {
        let (s, _, _, _, bw, a, _) = self.raw();
        TimeDelta::from_secs(kernel::t_transfer(s, bw, a))
    }

    /// Eq. 6 — `T_remote = C·S_unit / (r·R_local) = C·S_unit / R_remote`.
    pub fn t_remote(&self) -> TimeDelta {
        let (s, c, _, rr, ..) = self.raw();
        TimeDelta::from_secs(kernel::t_remote(s, c, rr))
    }

    /// `T_IO` from Eq. 7/8 — `(θ − 1)·T_transfer`.
    pub fn t_io(&self) -> TimeDelta {
        self.t_transfer() * (self.params.theta.value() - 1.0)
    }

    /// Eq. 9/10 — total processing-completion time for the remote path:
    /// `T_pct = θ·S_unit/(α·Bw) + C·S_unit/(r·R_local)`.
    pub fn t_pct(&self) -> TimeDelta {
        let (s, c, _, rr, bw, a, th) = self.raw();
        TimeDelta::from_secs(kernel::t_pct(s, c, rr, bw, a, th))
    }

    /// The gain of going remote: `T_local / T_pct` (> 1 means remote
    /// wins). The conclusion calls this "a gain function based on three
    /// core parameters: α, r and θ".
    ///
    /// Guarded against the zero-adjacent corners: a `0/0` tie (both paths
    /// instantaneous) reads as 1, and a zero `T_pct` with positive
    /// `T_local` saturates to `f64::MAX` — never `inf` or `NaN`.
    pub fn gain(&self) -> Ratio {
        let (s, c, rl, rr, bw, a, th) = self.raw();
        Ratio::new(kernel::gain(s, c, rl, rr, bw, a, th))
    }

    /// Completion-time reduction from going remote, as a fraction of the
    /// local time: `1 − T_pct/T_local` (negative when remote is slower).
    ///
    /// Guarded like [`CompletionModel::gain`]: a zero `T_local` (e.g. a
    /// `C = 0` pure-movement workload) yields a large negative finite
    /// value rather than `-inf`, and a `0/0` tie yields exactly 0.
    pub fn reduction(&self) -> f64 {
        let (s, c, rl, rr, bw, a, th) = self.raw();
        kernel::reduction(s, c, rl, rr, bw, a, th)
    }

    /// Worst-case variant of Eq. 9: replace the average-case transfer
    /// time with `SSS × T_theoretical` (§4.1's argument that worst-case
    /// latency should drive feasibility). `sss` is the measured
    /// Streaming Speed Score, `t_theoretical = S_unit/Bw`.
    pub fn t_pct_worst_case(&self, sss: Ratio) -> TimeDelta {
        let t_theoretical = self.params.data_unit / self.params.bandwidth;
        t_theoretical * sss * self.params.theta + self.t_remote()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate};

    fn params(alpha: f64, theta: f64) -> ModelParams {
        ModelParams::builder()
            .data_unit(Bytes::from_gb(2.0))
            .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(100.0))
            .bandwidth(Rate::from_gbps(25.0))
            .alpha(Ratio::new(alpha))
            .theta(Ratio::new(theta))
            .build()
            .unwrap()
    }

    #[test]
    fn eq3_local_time() {
        // 34 TFLOP / 10 TFLOPS = 3.4 s.
        let m = CompletionModel::new(params(0.8, 1.0));
        assert!((m.t_local().as_secs() - 3.4).abs() < 1e-9);
    }

    #[test]
    fn eq5_transfer_time() {
        // 2 GB at 0.8 × 25 Gbps = 2 GB / 2.5 GBps = 0.8 s.
        let m = CompletionModel::new(params(0.8, 1.0));
        assert!((m.t_transfer().as_secs() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn eq6_remote_time() {
        // 34 TFLOP / 100 TFLOPS = 0.34 s.
        let m = CompletionModel::new(params(0.8, 1.0));
        assert!((m.t_remote().as_secs() - 0.34).abs() < 1e-9);
    }

    #[test]
    fn eq7_io_overhead() {
        // θ = 1.5 → T_IO = 0.5 × T_transfer = 0.4 s.
        let m = CompletionModel::new(params(0.8, 1.5));
        assert!((m.t_io().as_secs() - 0.4).abs() < 1e-9);
        // θ = 1 → no I/O overhead (pure streaming).
        let s = CompletionModel::new(params(0.8, 1.0));
        assert_eq!(s.t_io().as_secs(), 0.0);
    }

    #[test]
    fn eq10_closed_form() {
        // T_pct = 1.5 × 0.8 + 0.34 = 1.54 s.
        let m = CompletionModel::new(params(0.8, 1.5));
        assert!((m.t_pct().as_secs() - 1.54).abs() < 1e-9);
    }

    #[test]
    fn gain_and_reduction() {
        let m = CompletionModel::new(params(0.8, 1.0));
        // T_local 3.4 vs T_pct 1.14: gain ≈ 2.98, reduction ≈ 66%.
        assert!((m.gain().value() - 3.4 / 1.14).abs() < 1e-9);
        assert!((m.reduction() - (1.0 - 1.14 / 3.4)).abs() < 1e-12);
    }

    #[test]
    fn worst_case_uses_sss() {
        let m = CompletionModel::new(params(0.8, 1.0));
        // T_theoretical = 2 GB / 3.125 GB/s = 0.64 s; SSS 7.5 → 4.8 s +
        // 0.34 s remote = 5.14 s.
        let t = m.t_pct_worst_case(Ratio::new(7.5));
        assert!((t.as_secs() - 5.14).abs() < 1e-9);
        // SSS = 1 with α = 1 equals the average-case model.
        let ideal = CompletionModel::new(params(1.0, 1.0));
        assert!(
            (ideal.t_pct_worst_case(Ratio::ONE).as_secs() - ideal.t_pct().as_secs()).abs() < 1e-12
        );
    }

    #[test]
    fn zero_intensity_keeps_gain_and_reduction_finite() {
        // C = 0 (pure data movement) is constructible: T_local = 0 while
        // T_pct > 0. The naive ratios would be 0/x and x/0.
        let p = ModelParams::builder()
            .data_unit(Bytes::from_gb(2.0))
            .intensity(ComputeIntensity::ZERO)
            .local_rate(FlopRate::from_tflops(10.0))
            .remote_rate(FlopRate::from_tflops(100.0))
            .bandwidth(Rate::from_gbps(25.0))
            .alpha(Ratio::new(0.8))
            .build()
            .unwrap();
        let m = CompletionModel::new(p);
        assert_eq!(m.t_local().as_secs(), 0.0);
        assert!(m.t_pct().as_secs() > 0.0);
        assert_eq!(m.gain().value(), 0.0, "local is instantaneous: no gain");
        assert!(m.reduction().is_finite(), "reduction must not be -inf");
        assert!(m.reduction() < 0.0, "remote is strictly slower here");
    }

    #[test]
    fn zero_adjacent_tie_reads_as_parity() {
        // Both times zero (C = 0 with an unvalidated infinite-bandwidth
        // mutation) must read as a tie, not NaN.
        let mut p = params(1.0, 1.0);
        p.intensity = ComputeIntensity::ZERO;
        p.data_unit = Bytes::from_b(f64::MIN_POSITIVE);
        p.bandwidth = Rate::from_bytes_per_sec(f64::MAX);
        let m = CompletionModel::new(p);
        assert_eq!(m.t_local().as_secs(), 0.0);
        assert_eq!(m.t_pct().as_secs(), 0.0);
        assert_eq!(m.gain().value(), 1.0);
        assert_eq!(m.reduction(), 0.0);
        assert!(!m.gain().value().is_nan());
    }

    #[test]
    fn zero_t_pct_saturates_gain() {
        // Fields are public, so a zero-T_pct point is constructible by
        // mutation; the guard saturates instead of returning inf.
        let mut p = params(1.0, 1.0);
        p.remote_rate = FlopRate::from_flops(f64::INFINITY);
        p.bandwidth = Rate::from_bytes_per_sec(f64::INFINITY);
        let m = CompletionModel::new(p);
        assert_eq!(m.t_pct().as_secs(), 0.0);
        assert!(m.t_local().as_secs() > 0.0);
        assert_eq!(m.gain().value(), f64::MAX);
        assert!(m.gain().is_finite() && m.reduction().is_finite());
    }

    #[test]
    fn streaming_beats_file_based_via_theta() {
        let stream = CompletionModel::new(params(0.8, 1.0));
        let file = CompletionModel::new(params(0.8, 3.0));
        assert!(stream.t_pct() < file.t_pct());
    }
}
