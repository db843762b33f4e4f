//! Batched, struct-of-arrays evaluation of the completion-time model.
//!
//! Every consumer of Eq. 3–10 that touches more than a handful of
//! operating points — the Monte-Carlo α study, the break-even frontier,
//! the scenario suite, the HTTP micro-batcher — used to construct a
//! [`CompletionModel`](crate::CompletionModel) per point and thread the
//! typed-wrapper arithmetic through it. This module is the batched core
//! they now share:
//!
//! * [`ParamsBatch`] — the seven parameters as flat `f64` columns in base
//!   units (bytes, FLOP/byte, FLOPS, bytes/s), one row per operating
//!   point;
//! * [`BatchEvaluator`] — allocation-free kernels (`t_local_into`,
//!   `t_pct_into`, `gain_into`, `decide_into`, ...) that stream the
//!   columns into caller-provided buffers, written as plain indexed loops
//!   over slices so the compiler can auto-vectorize them;
//! * [`ParamsBatch::chunks`] — a splitter producing contiguous
//!   [`BatchView`]s, so a thread pool can fan fixed-size chunks while the
//!   caller reassembles results in order (position-derived seeds make the
//!   output independent of the fan-out).
//!
//! The scalar path is the same arithmetic at `n = 1`:
//! [`CompletionModel`](crate::CompletionModel) delegates to the very
//! kernels the batch loops inline, so the two paths are **bit-identical**
//! by construction (a property the parity proptests assert down to the
//! decision boundaries).
//!
//! # Example
//!
//! ```
//! use sss_core::batch::{BatchEvaluator, ParamsBatch};
//! use sss_core::{CompletionModel, Decision, ModelParams};
//! use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};
//!
//! let base = ModelParams::builder()
//!     .data_unit(Bytes::from_gb(2.0))
//!     .intensity(ComputeIntensity::from_tflop_per_gb(17.0))
//!     .local_rate(FlopRate::from_tflops(10.0))
//!     .remote_rate(FlopRate::from_tflops(340.0))
//!     .bandwidth(Rate::from_gbps(25.0))
//!     .alpha(Ratio::new(0.8))
//!     .build()
//!     .unwrap();
//!
//! // A 64-point α sweep as one batch.
//! let mut batch = ParamsBatch::broadcast(&base, 64);
//! for (i, a) in batch.alpha_mut().iter_mut().enumerate() {
//!     *a = 0.2 + 0.0125 * i as f64;
//! }
//!
//! let mut t_pct = vec![0.0; batch.len()];
//! let mut decisions = vec![Decision::Local; batch.len()];
//! let eval = BatchEvaluator;
//! eval.t_pct_into(batch.view(), &mut t_pct);
//! eval.decide_into(batch.view(), &mut decisions);
//!
//! // Bit-identical to the scalar reference at every point.
//! let scalar = CompletionModel::new(batch.get(63));
//! assert_eq!(t_pct[63], scalar.t_pct().as_secs());
//! assert_eq!(decisions[63], Decision::RemoteStream);
//! ```

use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

use crate::decision::Decision;
use crate::params::ModelParams;

/// The scalar kernels both evaluation paths share: plain `f64` arithmetic
/// in base units (bytes, FLOP/byte, FLOPS, bytes/s), written once so the
/// `n = 1` wrapper ([`CompletionModel`](crate::CompletionModel)) and the
/// batch loops cannot drift apart.
pub(crate) mod kernel {
    use crate::decision::Decision;

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
        // sss-lint: allow(D004, exact-zero guard mirrors the scalar kernel bit for bit)
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

    /// The three-way verdict from already-evaluated times: infeasible
    /// when the demanded sustained rate (`S` bytes per second) exceeds
    /// the effective link rate `α·Bw`, otherwise a strict
    /// `T_pct < T_local` comparison. Every decision branch in the crate —
    /// scalar, fused, and columnar — funnels through this one function.
    #[inline(always)]
    pub(crate) fn verdict(s: f64, effective: f64, t_local: f64, t_pct: f64) -> Decision {
        if s > effective {
            Decision::Infeasible
        } else if t_pct < t_local {
            Decision::RemoteStream
        } else {
            Decision::Local
        }
    }

    /// The stream-or-not verdict from raw parameters.
    #[inline(always)]
    pub(crate) fn decide(s: f64, c: f64, rl: f64, rr: f64, bw: f64, a: f64, th: f64) -> Decision {
        verdict(s, bw * a, t_local(s, c, rl), t_pct(s, c, rr, bw, a, th))
    }
}

/// A struct-of-arrays batch of model parameter sets: seven flat `f64`
/// columns in base units, one row per operating point.
///
/// Rows are appended with [`ParamsBatch::push`] (or built wholesale via
/// [`ParamsBatch::from_params`] / [`ParamsBatch::broadcast`]) and
/// evaluated through [`BatchEvaluator`] kernels over [`BatchView`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamsBatch {
    data_unit: Vec<f64>,
    intensity: Vec<f64>,
    local_rate: Vec<f64>,
    remote_rate: Vec<f64>,
    bandwidth: Vec<f64>,
    alpha: Vec<f64>,
    theta: Vec<f64>,
}

impl ParamsBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ParamsBatch::default()
    }

    /// An empty batch with room for `n` rows per column.
    pub fn with_capacity(n: usize) -> Self {
        ParamsBatch {
            data_unit: Vec::with_capacity(n),
            intensity: Vec::with_capacity(n),
            local_rate: Vec::with_capacity(n),
            remote_rate: Vec::with_capacity(n),
            bandwidth: Vec::with_capacity(n),
            alpha: Vec::with_capacity(n),
            theta: Vec::with_capacity(n),
        }
    }

    /// Columnize a slice of parameter sets.
    pub fn from_params(params: &[ModelParams]) -> Self {
        let mut batch = ParamsBatch::with_capacity(params.len());
        for p in params {
            batch.push(p);
        }
        batch
    }

    /// `n` identical rows of `base` — the natural start for sweeps that
    /// then overwrite one column (e.g. Monte-Carlo α draws through
    /// [`ParamsBatch::alpha_mut`]).
    pub fn broadcast(base: &ModelParams, n: usize) -> Self {
        let mut batch = ParamsBatch::with_capacity(n);
        for _ in 0..n {
            batch.push(base);
        }
        batch
    }

    /// Append one row.
    pub fn push(&mut self, p: &ModelParams) {
        self.data_unit.push(p.data_unit.as_b());
        self.intensity.push(p.intensity.as_flop_per_byte());
        self.local_rate.push(p.local_rate.as_flops());
        self.remote_rate.push(p.remote_rate.as_flops());
        self.bandwidth.push(p.bandwidth.as_bytes_per_sec());
        self.alpha.push(p.alpha.value());
        self.theta.push(p.theta.value());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data_unit.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data_unit.is_empty()
    }

    /// Drop all rows, keeping the column allocations for reuse.
    pub fn clear(&mut self) {
        self.data_unit.clear();
        self.intensity.clear();
        self.local_rate.clear();
        self.remote_rate.clear();
        self.bandwidth.clear();
        self.alpha.clear();
        self.theta.clear();
    }

    /// Reconstruct row `i` as a typed parameter set.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> ModelParams {
        ModelParams {
            data_unit: Bytes::from_b(self.data_unit[i]),
            intensity: ComputeIntensity::from_flop_per_byte(self.intensity[i]),
            local_rate: FlopRate::from_flops(self.local_rate[i]),
            remote_rate: FlopRate::from_flops(self.remote_rate[i]),
            bandwidth: Rate::from_bytes_per_sec(self.bandwidth[i]),
            alpha: Ratio::new(self.alpha[i]),
            theta: Ratio::new(self.theta[i]),
        }
    }

    /// Mutable access to the α column (for in-place draws and sweeps).
    pub fn alpha_mut(&mut self) -> &mut [f64] {
        &mut self.alpha
    }

    /// A view over all rows.
    pub fn view(&self) -> BatchView<'_> {
        BatchView {
            data_unit: &self.data_unit,
            intensity: &self.intensity,
            local_rate: &self.local_rate,
            remote_rate: &self.remote_rate,
            bandwidth: &self.bandwidth,
            alpha: &self.alpha,
            theta: &self.theta,
        }
    }

    /// Split the batch into contiguous views of at most `chunk` rows, in
    /// row order — the unit of fan-out for a thread pool. Reassembling
    /// per-chunk results in chunk order reproduces the unsplit output
    /// exactly, whatever `chunk` is.
    ///
    /// # Panics
    /// Panics when `chunk == 0`.
    pub fn chunks(&self, chunk: usize) -> impl Iterator<Item = BatchView<'_>> {
        assert!(chunk > 0, "chunk size must be positive");
        let n = self.len();
        (0..n.div_ceil(chunk)).map(move |k| {
            let lo = k * chunk;
            let hi = (lo + chunk).min(n);
            BatchView {
                data_unit: &self.data_unit[lo..hi],
                intensity: &self.intensity[lo..hi],
                local_rate: &self.local_rate[lo..hi],
                remote_rate: &self.remote_rate[lo..hi],
                bandwidth: &self.bandwidth[lo..hi],
                alpha: &self.alpha[lo..hi],
                theta: &self.theta[lo..hi],
            }
        })
    }
}

/// A borrowed window over a [`ParamsBatch`]'s columns: what the
/// [`BatchEvaluator`] kernels consume, and what
/// [`ParamsBatch::chunks`] hands to pool workers.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    /// `S_unit` column, bytes.
    pub data_unit: &'a [f64],
    /// `C` column, FLOP per byte.
    pub intensity: &'a [f64],
    /// `R_local` column, FLOPS.
    pub local_rate: &'a [f64],
    /// `R_remote` column, FLOPS.
    pub remote_rate: &'a [f64],
    /// `Bw` column, bytes per second.
    pub bandwidth: &'a [f64],
    /// `α` column.
    pub alpha: &'a [f64],
    /// `θ` column.
    pub theta: &'a [f64],
}

impl<'a> BatchView<'a> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.data_unit.len()
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data_unit.is_empty()
    }

    /// Every column cut to exactly `n` rows. The kernels index the
    /// returned slices with provably in-bounds subscripts, which lets the
    /// compiler drop the per-column bounds checks and auto-vectorize the
    /// arithmetic loops (the division throughput is the whole ballgame).
    #[inline]
    fn cols(&self, n: usize) -> Cols<'a> {
        Cols {
            s: &self.data_unit[..n],
            c: &self.intensity[..n],
            rl: &self.local_rate[..n],
            rr: &self.remote_rate[..n],
            bw: &self.bandwidth[..n],
            a: &self.alpha[..n],
            th: &self.theta[..n],
        }
    }
}

/// The seven columns, all cut to one shared length.
struct Cols<'a> {
    s: &'a [f64],
    c: &'a [f64],
    rl: &'a [f64],
    rr: &'a [f64],
    bw: &'a [f64],
    a: &'a [f64],
    th: &'a [f64],
}

/// Checks the output buffer length once so the kernel loops can index
/// without bounds anxiety (and the optimizer can drop the checks).
macro_rules! check_len {
    ($view:expr, $out:expr) => {
        assert_eq!(
            $view.len(),
            $out.len(),
            "output buffer length must match the batch"
        );
    };
}

/// Allocation-free batched kernels over [`BatchView`] columns.
///
/// Every method writes one value per row into a caller-provided buffer;
/// nothing is allocated and the loops are plain indexed passes over `f64`
/// slices, which the compiler auto-vectorizes. Each kernel computes
/// exactly what the same-named [`CompletionModel`](crate::CompletionModel)
/// method computes — the scalar path *is* these kernels at `n = 1`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchEvaluator;

// The indexed loops are deliberate: every kernel indexes up to seven
// parallel column slices plus the output with one provably in-bounds
// subscript, which is the shape the auto-vectorizer digests best; the
// iterator-zip equivalent of a 7-way lockstep walk is strictly less
// readable and no faster.
#[allow(clippy::needless_range_loop)]
impl BatchEvaluator {
    /// Eq. 3 `T_local` per row, seconds.
    pub fn t_local_into(&self, b: BatchView<'_>, out: &mut [f64]) {
        check_len!(b, out);
        let x = b.cols(out.len());
        for i in 0..out.len() {
            out[i] = kernel::t_local(x.s[i], x.c[i], x.rl[i]);
        }
    }

    /// Eq. 5 `T_transfer` per row, seconds.
    pub fn t_transfer_into(&self, b: BatchView<'_>, out: &mut [f64]) {
        check_len!(b, out);
        let x = b.cols(out.len());
        for i in 0..out.len() {
            out[i] = kernel::t_transfer(x.s[i], x.bw[i], x.a[i]);
        }
    }

    /// Eq. 6 `T_remote` per row, seconds.
    pub fn t_remote_into(&self, b: BatchView<'_>, out: &mut [f64]) {
        check_len!(b, out);
        let x = b.cols(out.len());
        for i in 0..out.len() {
            out[i] = kernel::t_remote(x.s[i], x.c[i], x.rr[i]);
        }
    }

    /// Eq. 9/10 `T_pct` per row, seconds.
    pub fn t_pct_into(&self, b: BatchView<'_>, out: &mut [f64]) {
        check_len!(b, out);
        let x = b.cols(out.len());
        for i in 0..out.len() {
            out[i] = kernel::t_pct(x.s[i], x.c[i], x.rr[i], x.bw[i], x.a[i], x.th[i]);
        }
    }

    /// `T_local / T_pct` per row (guarded; > 1 means remote wins).
    pub fn gain_into(&self, b: BatchView<'_>, out: &mut [f64]) {
        check_len!(b, out);
        let x = b.cols(out.len());
        for i in 0..out.len() {
            out[i] = kernel::gain(x.s[i], x.c[i], x.rl[i], x.rr[i], x.bw[i], x.a[i], x.th[i]);
        }
    }

    /// `1 − T_pct/T_local` per row (guarded; negative when remote loses).
    pub fn reduction_into(&self, b: BatchView<'_>, out: &mut [f64]) {
        check_len!(b, out);
        let x = b.cols(out.len());
        for i in 0..out.len() {
            out[i] = kernel::reduction(x.s[i], x.c[i], x.rl[i], x.rr[i], x.bw[i], x.a[i], x.th[i]);
        }
    }

    /// The stream-or-not verdict per row.
    pub fn decide_into(&self, b: BatchView<'_>, out: &mut [Decision]) {
        check_len!(b, out);
        let x = b.cols(out.len());
        for i in 0..out.len() {
            out[i] = kernel::decide(x.s[i], x.c[i], x.rl[i], x.rr[i], x.bw[i], x.a[i], x.th[i]);
        }
    }

    /// Verdict *and* gain per row in one pass — the frontier grid's hot
    /// loop, sharing the `T_local`/`T_pct` intermediates between the two
    /// outputs instead of recomputing them.
    ///
    /// Internally the rows stream through small stack blocks: a pure
    /// arithmetic pass fills the block's `T_local`/`T_pct` (branch-free,
    /// so the divisions auto-vectorize), then a branchy pass folds them
    /// into verdicts and guarded gains. Same expressions, same bits.
    pub fn classify_into(&self, b: BatchView<'_>, decisions: &mut [Decision], gains: &mut [f64]) {
        check_len!(b, decisions);
        check_len!(b, gains);
        let n = gains.len();
        let x = b.cols(n);
        let mut t_local = [0.0f64; BLOCK];
        let mut t_pct = [0.0f64; BLOCK];
        let mut start = 0;
        while start < n {
            let len = (n - start).min(BLOCK);
            let (tl, tp) = (&mut t_local[..len], &mut t_pct[..len]);
            let (s, c) = (&x.s[start..start + len], &x.c[start..start + len]);
            let (rl, rr) = (&x.rl[start..start + len], &x.rr[start..start + len]);
            let (bw, a) = (&x.bw[start..start + len], &x.a[start..start + len]);
            let th = &x.th[start..start + len];
            for k in 0..len {
                tl[k] = kernel::t_local(s[k], c[k], rl[k]);
                tp[k] = kernel::t_pct(s[k], c[k], rr[k], bw[k], a[k], th[k]);
            }
            let d = &mut decisions[start..start + len];
            let g = &mut gains[start..start + len];
            for k in 0..len {
                d[k] = kernel::verdict(s[k], bw[k] * a[k], tl[k], tp[k]);
                g[k] = kernel::guarded_ratio(tl[k], tp[k]);
            }
            start += len;
        }
    }
}

/// Rows per stack block in the fused kernels: enough to amortize the
/// split between the vectorizable arithmetic pass and the branchy
/// verdict pass, small enough that the block scratch stays in L1.
const BLOCK: usize = 512;

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::decision::{decide, decide_batch, BreakEven};
    use crate::model::CompletionModel;
    use proptest::prelude::*;
    use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

    /// Wide-but-valid parameter sets, including the `C = 0` corner the
    /// gain/reduction guards exist for (one draw in eight zeroes the
    /// intensity).
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
        /// Every kernel column is bit-for-bit equal to the scalar
        /// `CompletionModel` path over random batches.
        #[test]
        fn batch_columns_match_scalar_bitwise(ps in
            proptest::collection::vec(arb_params(), 1..48)) {
            let batch = ParamsBatch::from_params(&ps);
            let n = batch.len();
            let eval = BatchEvaluator;
            let mut buf = vec![0.0; n];
            let mut decisions = vec![Decision::Local; n];
            let mut gains = vec![0.0; n];

            eval.t_local_into(batch.view(), &mut buf);
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(buf[i].to_bits(),
                    CompletionModel::new(*p).t_local().as_secs().to_bits());
            }
            eval.t_transfer_into(batch.view(), &mut buf);
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(buf[i].to_bits(),
                    CompletionModel::new(*p).t_transfer().as_secs().to_bits());
            }
            eval.t_remote_into(batch.view(), &mut buf);
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(buf[i].to_bits(),
                    CompletionModel::new(*p).t_remote().as_secs().to_bits());
            }
            eval.t_pct_into(batch.view(), &mut buf);
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(buf[i].to_bits(),
                    CompletionModel::new(*p).t_pct().as_secs().to_bits());
            }
            eval.gain_into(batch.view(), &mut buf);
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(buf[i].to_bits(),
                    CompletionModel::new(*p).gain().value().to_bits());
            }
            eval.reduction_into(batch.view(), &mut buf);
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(buf[i].to_bits(),
                    CompletionModel::new(*p).reduction().to_bits());
            }
            eval.classify_into(batch.view(), &mut decisions, &mut gains);
            for (i, p) in ps.iter().enumerate() {
                prop_assert_eq!(decisions[i], decide(p).decision);
                prop_assert_eq!(gains[i].to_bits(),
                    CompletionModel::new(*p).gain().value().to_bits());
            }
        }

        /// Full report parity: `decide_batch` is `decide` mapped, down to
        /// the serialized bytes.
        #[test]
        fn decide_batch_matches_decide(ps in
            proptest::collection::vec(arb_params(), 1..24)) {
            let batched = decide_batch(&ps);
            for (p, b) in ps.iter().zip(&batched) {
                let scalar = decide(p);
                prop_assert_eq!(b, &scalar);
                prop_assert_eq!(serde_json::to_string(b).unwrap(),
                    serde_json::to_string(&scalar).unwrap());
            }
        }

        /// Parity holds *at* the decision boundary: pin each workload to
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
            let batch = ParamsBatch::from_params(&[tied]);
            let mut decisions = [Decision::Local];
            let mut gains = [0.0];
            BatchEvaluator.classify_into(batch.view(), &mut decisions, &mut gains);
            prop_assert_eq!(decisions[0], decide(&tied).decision);
            prop_assert_eq!(gains[0].to_bits(),
                CompletionModel::new(tied).gain().value().to_bits());
        }

        /// Chunked evaluation reassembles to the unsplit bytes for any
        /// chunk size.
        #[test]
        fn chunking_is_invisible(ps in proptest::collection::vec(arb_params(), 1..48),
                                 chunk in 1usize..64) {
            let batch = ParamsBatch::from_params(&ps);
            let mut whole = vec![0.0; batch.len()];
            BatchEvaluator.t_pct_into(batch.view(), &mut whole);
            let mut stitched = Vec::with_capacity(batch.len());
            for view in batch.chunks(chunk) {
                let mut part = vec![0.0; view.len()];
                BatchEvaluator.t_pct_into(view, &mut part);
                stitched.extend(part);
            }
            prop_assert_eq!(whole, stitched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::decide;
    use crate::model::CompletionModel;
    use sss_units::{Bytes, ComputeIntensity, FlopRate, Rate, Ratio};

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

    fn spread() -> Vec<ModelParams> {
        let mut out = Vec::new();
        for i in 0..32 {
            let alpha = 0.05 + 0.0296 * i as f64;
            let theta = 1.0 + 0.3 * (i % 7) as f64;
            out.push(params(alpha.min(1.0), theta));
        }
        out
    }

    #[test]
    fn roundtrips_rows() {
        let ps = spread();
        let batch = ParamsBatch::from_params(&ps);
        assert_eq!(batch.len(), ps.len());
        assert!(!batch.is_empty());
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(batch.get(i), *p);
        }
    }

    #[test]
    fn kernels_match_scalar_model_bit_for_bit() {
        let ps = spread();
        let batch = ParamsBatch::from_params(&ps);
        let n = batch.len();
        let eval = BatchEvaluator;
        let mut t_local = vec![0.0; n];
        let mut t_transfer = vec![0.0; n];
        let mut t_remote = vec![0.0; n];
        let mut t_pct = vec![0.0; n];
        let mut gain = vec![0.0; n];
        let mut reduction = vec![0.0; n];
        let mut decisions = vec![Decision::Local; n];
        eval.t_local_into(batch.view(), &mut t_local);
        eval.t_transfer_into(batch.view(), &mut t_transfer);
        eval.t_remote_into(batch.view(), &mut t_remote);
        eval.t_pct_into(batch.view(), &mut t_pct);
        eval.gain_into(batch.view(), &mut gain);
        eval.reduction_into(batch.view(), &mut reduction);
        eval.decide_into(batch.view(), &mut decisions);
        for (i, p) in ps.iter().enumerate() {
            let m = CompletionModel::new(*p);
            assert_eq!(t_local[i], m.t_local().as_secs());
            assert_eq!(t_transfer[i], m.t_transfer().as_secs());
            assert_eq!(t_remote[i], m.t_remote().as_secs());
            assert_eq!(t_pct[i], m.t_pct().as_secs());
            assert_eq!(gain[i], m.gain().value());
            assert_eq!(reduction[i], m.reduction());
            assert_eq!(decisions[i], decide(p).decision);
        }
    }

    #[test]
    fn classify_fuses_decide_and_gain() {
        let ps = spread();
        let batch = ParamsBatch::from_params(&ps);
        let n = batch.len();
        let eval = BatchEvaluator;
        let mut fused_d = vec![Decision::Local; n];
        let mut fused_g = vec![0.0; n];
        eval.classify_into(batch.view(), &mut fused_d, &mut fused_g);
        let mut split_d = vec![Decision::Local; n];
        let mut split_g = vec![0.0; n];
        eval.decide_into(batch.view(), &mut split_d);
        eval.gain_into(batch.view(), &mut split_g);
        assert_eq!(fused_d, split_d);
        assert_eq!(fused_g, split_g);
    }

    #[test]
    fn chunks_cover_all_rows_in_order() {
        let ps = spread();
        let batch = ParamsBatch::from_params(&ps);
        for chunk in [1, 5, 32, 100] {
            let views: Vec<BatchView<'_>> = batch.chunks(chunk).collect();
            let total: usize = views.iter().map(BatchView::len).sum();
            assert_eq!(total, batch.len(), "chunk {chunk}");
            // Evaluating chunk-by-chunk reproduces the unsplit pass.
            let eval = BatchEvaluator;
            let mut whole = vec![0.0; batch.len()];
            eval.t_pct_into(batch.view(), &mut whole);
            let mut stitched = Vec::new();
            for v in views {
                let mut part = vec![0.0; v.len()];
                eval.t_pct_into(v, &mut part);
                stitched.extend(part);
            }
            assert_eq!(whole, stitched);
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let batch = ParamsBatch::broadcast(&params(0.8, 1.0), 4);
        let _ = batch.chunks(0).count();
    }

    #[test]
    #[should_panic(expected = "output buffer length")]
    fn mismatched_buffer_rejected() {
        let batch = ParamsBatch::broadcast(&params(0.8, 1.0), 4);
        let mut out = vec![0.0; 3];
        BatchEvaluator.t_pct_into(batch.view(), &mut out);
    }

    #[test]
    fn broadcast_then_alpha_sweep() {
        let mut batch = ParamsBatch::broadcast(&params(0.8, 1.0), 8);
        for (i, a) in batch.alpha_mut().iter_mut().enumerate() {
            *a = 0.1 + 0.1 * i as f64;
        }
        let mut t_pct = vec![0.0; 8];
        BatchEvaluator.t_pct_into(batch.view(), &mut t_pct);
        // Higher α (weakly) shortens the remote path.
        for w in t_pct.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn clear_keeps_capacity_semantics() {
        let mut batch = ParamsBatch::broadcast(&params(0.8, 1.0), 8);
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&params(0.5, 2.0));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.get(0), params(0.5, 2.0));
    }
}
