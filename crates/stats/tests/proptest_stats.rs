//! Property-based tests for the statistics substrate.

use dohperf_stats::prelude::*;
use dohperf_stats::resample::{bootstrap_ci, median_ci, ConfidenceInterval};
use proptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(xs in finite_vec(1..200), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo);
        let b = quantile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    /// The median is translation-equivariant.
    #[test]
    fn median_translation(xs in finite_vec(1..100), shift in -1e5f64..1e5) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((median(&shifted) - (median(&xs) + shift)).abs() < 1e-6);
    }

    /// The ECDF is a valid distribution function: probabilities ascend to 1
    /// and values are sorted.
    #[test]
    fn ecdf_valid(xs in finite_vec(1..200)) {
        let (vals, probs) = ecdf(&xs);
        prop_assert_eq!(vals.len(), xs.len());
        prop_assert!((probs[probs.len() - 1] - 1.0).abs() < 1e-12);
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        for w in probs.windows(2) {
            prop_assert!(w[0] < w[1] + 1e-12);
        }
    }

    /// Mean lies within [min, max].
    #[test]
    fn mean_bounded(xs in finite_vec(1..100)) {
        let m = mean(&xs);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }

    /// Matrix inverse roundtrips for random well-conditioned matrices
    /// (diagonally dominant by construction).
    #[test]
    fn inverse_roundtrip(vals in proptest::collection::vec(-1.0f64..1.0, 9)) {
        let mut rows = Vec::new();
        for i in 0..3 {
            let mut row: Vec<f64> = (0..3).map(|j| vals[i * 3 + j]).collect();
            row[i] += 5.0; // diagonal dominance ensures invertibility
            rows.push(row);
        }
        let m = Matrix::from_rows(&rows);
        let inv = m.inverse().expect("diagonally dominant matrix is invertible");
        let prod = m.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod[(i, j)] - expect).abs() < 1e-8);
            }
        }
    }

    /// OLS on noiseless data recovers the generating coefficients for any
    /// slope/intercept.
    #[test]
    fn ols_recovers_exact_line(b0 in -100.0f64..100.0, b1 in -100.0f64..100.0) {
        let mut reg = OlsRegression::new(&["x"]);
        for i in 0..30 {
            let x = i as f64;
            reg.push(&[x], b0 + b1 * x);
        }
        let fit = reg.fit().unwrap();
        prop_assert!((fit.coef("(intercept)").unwrap().estimate - b0).abs() < 1e-6);
        prop_assert!((fit.coef("x").unwrap().estimate - b1).abs() < 1e-6);
    }

    /// normal_cdf is monotone and bounded.
    #[test]
    fn normal_cdf_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
        prop_assert!(normal_cdf(lo) >= 0.0 && normal_cdf(hi) <= 1.0);
    }

    /// MinMax scaling maps observed data into [0,1].
    #[test]
    fn minmax_in_unit_interval(rows in proptest::collection::vec(finite_vec(3..4), 2..50)) {
        if let Some(s) = MinMaxScaler::fit(&rows) {
            for row in &rows {
                for v in s.transform(row) {
                    prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
                }
            }
        }
    }
}

/// Samples for the bootstrap equivalence check: continuous values, or
/// heavy ties drawn from the first one to five values of a palette — the
/// second palette mixes the two signed zeros, which `median_ci` hands to
/// the generic path.
fn bootstrap_sample() -> impl Strategy<Value = Vec<f64>> {
    const PALETTES: [[f64; 5]; 2] = [[3.0, 1.0, 2.5, 1e6, -4.0], [0.0, -0.0, 7.25, -2.0, 0.0]];
    prop_oneof![
        finite_vec(1..401),
        (
            0usize..2,
            proptest::collection::vec(0usize..5, 1..401),
            1usize..6,
        )
            .prop_map(|(palette, picks, width)| {
                picks
                    .iter()
                    .map(|&p| PALETTES[palette][p % width])
                    .collect()
            }),
    ]
}

fn ci_bits(ci: Option<ConfidenceInterval>) -> Option<[u64; 4]> {
    ci.map(|ci| [ci.estimate, ci.lo, ci.hi, ci.level].map(f64::to_bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The rank-count `median_ci` is bit-identical to the generic
    /// sort-per-resample bootstrap of the median it replaces.
    #[test]
    fn median_ci_matches_generic_bootstrap(
        xs in bootstrap_sample(),
        level in prop_oneof![Just(0.90), Just(0.95), Just(0.99)],
        seed in any::<u64>(),
    ) {
        let fast = median_ci(&xs, level, seed);
        prop_assert!(fast.is_some());
        prop_assert_eq!(ci_bits(fast), ci_bits(bootstrap_ci(&xs, median, 1000, level, seed)));
    }

    /// Both paths reject empty input and levels outside [0, 1) alike.
    #[test]
    fn median_ci_rejects_what_bootstrap_rejects(
        xs in prop_oneof![Just(Vec::new()), finite_vec(1..20)],
        level in prop_oneof![Just(1.0), Just(1.5), Just(-0.05), Just(f64::NAN), 0.0f64..1.0],
        seed in any::<u64>(),
    ) {
        let fast = median_ci(&xs, level, seed);
        prop_assert_eq!(fast.is_none(), xs.is_empty() || !(0.0..1.0).contains(&level));
        prop_assert_eq!(ci_bits(fast), ci_bits(bootstrap_ci(&xs, median, 1000, level, seed)));
    }
}
