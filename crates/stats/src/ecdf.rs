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
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let h = q * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let w = h - lo as f64;
            self.sorted[lo] * (1.0 - w) + self.sorted[hi] * w
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn long_tail_p99_exceeds_p50() {
        // Synthetic long-tail sample like Figure 3: mostly fast, few slow.
        let mut xs = vec![0.2; 95];
        xs.extend_from_slice(&[1.0, 2.0, 3.0, 5.0, 8.0]);
        let e = Ecdf::from_samples(xs).unwrap();
        assert!(e.quantile(0.99) > 10.0 * e.quantile(0.5));
    }
}
