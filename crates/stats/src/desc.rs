//! Descriptive statistics and empirical CDFs.

use serde::{Deserialize, Serialize};

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); NaN for fewer than two
/// observations.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|x| (x - m).powi(2)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Quantile with linear interpolation between order statistics
/// (type-7, the R/numpy default). `q` is clamped to [0, 1]. NaN for empty
/// input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// Quantile over an already-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let ranks = QuantileRanks::new(sorted.len(), q);
    ranks.blend(sorted[ranks.lo], sorted[ranks.hi])
}

/// Where a type-7 quantile of `n > 0` sorted values reads: the two
/// (0-based) order statistics and the interpolation weight of the upper.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuantileRanks {
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    frac: f64,
}

impl QuantileRanks {
    pub(crate) fn new(n: usize, q: f64) -> Self {
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        QuantileRanks {
            lo,
            hi: pos.ceil() as usize,
            frac: pos - lo as f64,
        }
    }

    /// The quantile, given the values of the order statistics at `lo`
    /// and `hi`.
    pub(crate) fn blend(&self, lo_v: f64, hi_v: f64) -> f64 {
        if self.lo == self.hi {
            lo_v
        } else {
            lo_v * (1.0 - self.frac) + hi_v * self.frac
        }
    }
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Weighted quantile with the Harrell–Davis-free "sorted cumulative
/// weight" definition: sort by value, walk the cumulative normalised
/// weight, return the first value whose cumulative weight reaches `q`.
/// Weights must be non-negative; NaN for empty/degenerate input.
pub fn weighted_quantile(xs: &[f64], weights: &[f64], q: f64) -> f64 {
    if xs.is_empty() || xs.len() != weights.len() {
        return f64::NAN;
    }
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    if total <= 0.0 {
        return f64::NAN;
    }
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in weighted_quantile"));
    let q = q.clamp(0.0, 1.0);
    let mut cumulative = 0.0;
    for &i in &order {
        cumulative += weights[i].max(0.0) / total;
        if cumulative >= q {
            return xs[i];
        }
    }
    xs[order[order.len() - 1]]
}

/// Weighted median.
pub fn weighted_median(xs: &[f64], weights: &[f64]) -> f64 {
    weighted_quantile(xs, weights, 0.5)
}

/// Empirical CDF: returns `(sorted values, cumulative probabilities)`,
/// where probability `i` is `(i+1)/n` — the fraction of observations at or
/// below the value. Suitable for plotting Figures 4 and 6.
pub fn ecdf(xs: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ecdf input"));
    let n = sorted.len();
    let probs = (0..n).map(|i| (i + 1) as f64 / n as f64).collect();
    (sorted, probs)
}

/// Fraction of observations strictly below `threshold`.
pub fn fraction_below(xs: &[f64], threshold: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().filter(|&&x| x < threshold).count() as f64 / xs.len() as f64
}

/// A five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample. Returns `None` for empty input.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Some(Summary {
            n: sorted.len(),
            mean: mean(&sorted),
            sd: stddev(&sorted),
            min: sorted[0],
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            p75: quantile_sorted(&sorted, 0.75),
            p90: quantile_sorted(&sorted, 0.90),
            max: sorted[sorted.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn empty_inputs_are_nan() {
        assert!(mean(&[]).is_nan());
        assert!(stddev(&[1.0]).is_nan());
        assert!(median(&[]).is_nan());
        assert!(quantile(&[], 0.5).is_nan());
        assert!(fraction_below(&[], 1.0).is_nan());
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -1.0), 1.0);
        assert_eq!(quantile(&xs, 2.0), 2.0);
    }

    #[test]
    fn ecdf_properties() {
        let xs = [5.0, 1.0, 3.0];
        let (vals, probs) = ecdf(&xs);
        assert_eq!(vals, vec![1.0, 3.0, 5.0]);
        assert_eq!(probs, vec![1.0 / 3.0, 2.0 / 3.0, 1.0]);
    }

    #[test]
    fn fraction_below_counts_strictly() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((fraction_below(&xs, 3.0) - 0.5).abs() < 1e-12);
        assert_eq!(fraction_below(&xs, 0.5), 0.0);
        assert_eq!(fraction_below(&xs, 10.0), 1.0);
    }

    #[test]
    fn weighted_quantile_reduces_to_plain_with_unit_weights() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let w = [1.0; 5];
        assert_eq!(weighted_median(&xs, &w), 3.0);
        assert_eq!(weighted_quantile(&xs, &w, 0.0), 1.0);
        assert_eq!(weighted_quantile(&xs, &w, 1.0), 5.0);
    }

    #[test]
    fn weighted_quantile_respects_weights() {
        // Nearly all mass on the value 10.
        let xs = [1.0, 10.0];
        let w = [0.01, 0.99];
        assert_eq!(weighted_median(&xs, &w), 10.0);
        let w2 = [0.99, 0.01];
        assert_eq!(weighted_median(&xs, &w2), 1.0);
    }

    #[test]
    fn weighted_quantile_degenerate_inputs() {
        assert!(weighted_quantile(&[], &[], 0.5).is_nan());
        assert!(weighted_quantile(&[1.0], &[], 0.5).is_nan());
        assert!(weighted_quantile(&[1.0], &[0.0], 0.5).is_nan());
        assert!(weighted_quantile(&[1.0, 2.0], &[-1.0, 1.0], 0.5) == 2.0);
    }

    #[test]
    fn summary_is_ordered() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(s.p25 < s.median && s.median < s.p75 && s.p75 < s.p90);
        assert!((s.median - 50.5).abs() < 1e-12);
    }
}
