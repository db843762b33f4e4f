//! Exact empirical cumulative distribution function.

use serde::{Deserialize, Serialize};

/// Empirical CDF over a finite sample, as plotted in the paper's Figure 3
/// ("Cumulative probability distribution of Total transfer time").
///
/// Construction sorts the samples once (`O(n log n)`); evaluation and
/// quantile queries are then `O(log n)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples, sorted in place. Returns `None` when the input
    /// is empty or contains NaN (a NaN completion time indicates a harness
    /// bug and must not silently poison quantiles).
    ///
    /// Two samples equal under [`f64::total_cmp`] have the same bits, so
    /// the unstable sort orders them as a stable one would.
    pub fn from_samples(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
            return None;
        }
        samples.sort_unstable_by(f64::total_cmp);
        Some(Ecdf { sorted: samples })
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty inputs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted sample values.
    #[inline]
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Smallest sample.
    #[inline]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample — `T_worst` in the paper's terminology.
    #[inline]
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// `F(x)`: fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        // partition_point returns the count of elements <= x because the
        // array is sorted and the predicate is monotone.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / n as f64
    }

    /// Linearly-interpolated quantile (type-7, the R/NumPy default).
    /// `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        type7(q, self.sorted.len(), |lo, hi| {
            (self.sorted[lo], self.sorted[hi])
        })
    }

    /// The `(x, F(x))` step points, ready for plotting Figure 3.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Median shorthand.
    #[inline]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The type-7 quantile `q`, clamped to `[0, 1]`, of `n ≥ 1` samples:
/// `order(lo, hi)` returns the order statistics at ranks `lo` and `hi`,
/// where `hi` is `lo` or `lo + 1`, and they are interpolated. The one
/// home of the rank and interpolation arithmetic behind
/// [`Ecdf::quantile`] and [`select_quantiles`].
fn type7(q: f64, n: usize, order: impl FnOnce(usize, usize) -> (f64, f64)) -> f64 {
    let h = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let (at_lo, at_hi) = order(lo, hi);
    if lo == hi {
        at_lo
    } else {
        let w = h - lo as f64;
        at_lo * (1.0 - w) + at_hi * w
    }
}

/// The type-7 quantiles `qs`, which must ascend, of `samples`, bit for
/// bit as [`Ecdf::quantile`] gives them, without sorting: each quantile's
/// lower order statistic is selected (`select_nth_unstable_by` on
/// [`f64::total_cmp`]) from the samples the previous selection left at or
/// above its own, and the upper one, when it interpolates, is the least of
/// the selection's right partition. `O(n)` a quantile; reorders
/// `samples`. `None` for an empty sample or one holding a NaN, as
/// [`Ecdf::from_samples`].
///
/// # Panics
/// Panics when `qs` descend.
///
/// ```
/// use sss_stats::{select_quantiles, Ecdf};
///
/// let mut xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
/// let ecdf = Ecdf::from_samples(xs.clone()).unwrap();
/// let [p50, p90] = select_quantiles(&mut xs, [0.5, 0.9]).unwrap();
/// assert_eq!((p50, p90), (ecdf.quantile(0.5), ecdf.quantile(0.9)));
/// ```
pub fn select_quantiles<const N: usize>(samples: &mut [f64], qs: [f64; N]) -> Option<[f64; N]> {
    if samples.is_empty() || samples.iter().any(|x| x.is_nan()) {
        return None;
    }
    let n = samples.len();
    let mut from = 0;
    Some(qs.map(|q| {
        type7(q, n, |lo, hi| {
            assert!(lo >= from, "quantiles must ascend: rank {lo} after {from}");
            let (_, &mut at_lo, right) =
                samples[from..].select_nth_unstable_by(lo - from, f64::total_cmp);
            from = lo;
            let at_hi = if hi > lo {
                right
                    .iter()
                    .copied()
                    .min_by(f64::total_cmp)
                    .expect("an upper rank lies in the right partition")
            } else {
                at_lo
            };
            (at_lo, at_hi)
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert!(Ecdf::from_samples(Vec::new()).is_none());
        assert!(Ecdf::from_samples(vec![1.0, f64::NAN]).is_none());
    }

    #[test]
    fn eval_steps() {
        let e = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn interpolated_quantiles() {
        let e = Ecdf::from_samples(vec![10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.25), 20.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
        // Between ranks: interpolate.
        assert!((e.quantile(0.1) - 14.0).abs() < 1e-12);
        assert_eq!(e.median(), 30.0);
    }

    #[test]
    fn single_sample() {
        let e = Ecdf::from_samples(vec![7.0]).unwrap();
        assert_eq!(e.quantile(0.3), 7.0);
        assert_eq!(e.min(), 7.0);
        assert_eq!(e.max(), 7.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let e = Ecdf::from_samples(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.samples(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn curve_reaches_one() {
        let e = Ecdf::from_samples(vec![0.2, 0.5, 5.0]).unwrap();
        let c = e.curve();
        assert_eq!(c.len(), 3);
        assert_eq!(c.last().unwrap().1, 1.0);
        assert_eq!(c[0], (0.2, 1.0 / 3.0));
    }

    #[test]
    fn q_clamped() {
        let e = Ecdf::from_samples(vec![1.0, 2.0]).unwrap();
        assert_eq!(e.quantile(-0.5), 1.0);
        assert_eq!(e.quantile(1.5), 2.0);
    }

    /// The quantiles of the unstable in-place sort are those of the copy
    /// and stable sort it replaced, bit for bit: on samples with ties, on
    /// both zeros (which `total_cmp` orders, −0 first), and at one and two
    /// samples.
    #[test]
    fn quantiles_match_the_copying_stable_sort() {
        let sets: [&[f64]; 6] = [
            &[7.0],
            &[2.0, 1.0],
            &[0.0, -0.0],
            &[3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 0.5, 3.0],
            &[0.0, -0.0, 1.5, -0.0, 0.0, -2.0, 1.5, 0.0],
            &[
                1e-300,
                5e-324,
                1e300,
                5e-324,
                1e-300,
                f64::INFINITY,
                2.0,
                2.0,
                2.0,
            ],
        ];
        for samples in sets {
            let mut stable = samples.to_vec();
            stable.sort_by(f64::total_cmp);
            let old = Ecdf { sorted: stable };
            let new = Ecdf::from_samples(samples.to_vec()).unwrap();
            let bits = |e: &Ecdf| e.samples().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&new), bits(&old), "{samples:?}");
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(
                    new.quantile(q).to_bits(),
                    old.quantile(q).to_bits(),
                    "{samples:?} at {q}"
                );
            }
        }
    }

    /// Selected quantiles against the sorted ECDF's, as bits.
    fn assert_selection_matches(samples: &[f64], qs: [f64; 4]) {
        let ecdf = Ecdf::from_samples(samples.to_vec()).unwrap();
        let mut shuffled = samples.to_vec();
        let got = select_quantiles(&mut shuffled, qs).unwrap();
        for (q, got) in qs.into_iter().zip(got) {
            assert_eq!(
                got.to_bits(),
                ecdf.quantile(q).to_bits(),
                "{samples:?} at {q}"
            );
        }
    }

    /// One and two samples, and quantiles whose rank is a whole number,
    /// where the lower order statistic is the answer: 0.25 of five
    /// samples is rank 1 exactly. An empty sample or a NaN gives none.
    #[test]
    fn selected_quantiles_cover_the_small_and_whole_rank_cases() {
        assert_selection_matches(&[7.0], [0.0, 0.3, 0.99, 1.0]);
        assert_selection_matches(&[2.0, -0.0], [0.0, 0.5, 0.75, 1.0]);
        assert_selection_matches(&[0.0, -0.0], [0.0, 0.25, 0.5, 1.0]);
        let five = [3.0, 1.0, 3.0, 0.0, -0.0];
        assert_eq!(0.25 * (five.len() - 1) as f64, 1.0);
        assert_selection_matches(&five, [0.0, 0.25, 0.5, 1.0]);
        assert_selection_matches(&five, [0.25, 0.25, 0.25, 0.25]);
        assert_eq!(select_quantiles(&mut [], [0.5]), None);
        assert_eq!(select_quantiles(&mut [1.0, f64::NAN], [0.5]), None);
    }

    #[test]
    #[should_panic(expected = "quantiles must ascend")]
    fn descending_quantiles_panic() {
        let _ = select_quantiles(&mut [1.0, 2.0, 3.0, 4.0], [0.9, 0.1]);
    }

    proptest! {
        /// Selection answers as the sort, bit for bit, on samples of 1 to
        /// 300 drawn from a few values, so they tie often, both zeros
        /// among them, at four ascending quantiles, the ends included.
        #[test]
        fn selected_quantiles_match_the_sorted_ecdf_bit_for_bit(
            picks in proptest::collection::vec(0usize..7, 1..300),
            inner in proptest::collection::vec(0.0f64..=1.0, 2..=2),
            ends in 0usize..4,
        ) {
            const VALUES: [f64; 7] = [-0.0, 0.0, 1.0, 1.5, 1e300, 5e-324, -2.0];
            let samples: Vec<f64> = picks.iter().map(|&k| VALUES[k]).collect();
            let (a, b) = (inner[0].min(inner[1]), inner[0].max(inner[1]));
            let qs = match ends {
                0 => [0.0, a, b, 1.0],
                1 => [0.0, 0.0, a, b],
                2 => [a, b, 1.0, 1.0],
                _ => [a, a, b, b],
            };
            assert_selection_matches(&samples, qs);
        }
    }

    #[test]
    fn long_tail_p99_exceeds_p50() {
        // Synthetic long-tail sample like Figure 3: mostly fast, few slow.
        let mut xs = vec![0.2; 95];
        xs.extend_from_slice(&[1.0, 2.0, 3.0, 5.0, 8.0]);
        let e = Ecdf::from_samples(xs).unwrap();
        assert!(e.quantile(0.99) > 10.0 * e.quantile(0.5));
    }
}
