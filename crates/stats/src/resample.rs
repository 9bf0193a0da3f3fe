//! Resampling inference: bootstrap confidence intervals.
//!
//! The paper reports point estimates; for robustness the reproduction adds
//! percentile-bootstrap confidence intervals on medians and other
//! statistics, with a deterministic internal PRNG (xorshift) so reports
//! are reproducible without threading an RNG through the analyses.
//!
//! [`bootstrap_ci`] is the generic path: it copies each resample into a
//! buffer and applies the statistic, which for a median means a full sort
//! per resample. [`median_ci`] gets the same interval from a **rank-count
//! kernel**. It stable-sorts the sample once, recording each value's rank.
//! For every resample it draws the same `n` indices from the same
//! xorshift stream, in the same order, but only counts how often each rank
//! was drawn. The k-th order statistic of the resample is then
//! `sorted[r]` for the first rank `r` whose running count exceeds `k`, and
//! the median blends the two order statistics `desc::quantile_sorted`
//! reads with its own formula. Every value is the same f64, so the
//! interval is bit-identical. Each resample costs O(n), with no sort and
//! no f64 buffer; the draw loop, one xorshift step and one modulo per
//! index, is the floor. The index stream must stay as it is: a different
//! range reduction would draw other indices and move the interval. The
//! one case rank counts cannot see is a sample holding both signed zeros,
//! whose tied order statistic takes its sign from the draw order; such
//! samples take the generic path.

use crate::desc::QuantileRanks;
use serde::{Deserialize, Serialize};

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// The statistic on the original sample.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.lo..=self.hi).contains(&value)
    }
}

/// Percentile bootstrap for an arbitrary statistic.
///
/// `resamples` of 1,000–2,000 are plenty for 95% intervals. Deterministic:
/// the same inputs always produce the same interval.
pub fn bootstrap_ci<F>(
    xs: &[f64],
    statistic: F,
    resamples: usize,
    level: f64,
    seed: u64,
) -> Option<ConfidenceInterval>
where
    F: Fn(&[f64]) -> f64,
{
    percentile_bootstrap(xs, level, resamples, seed, || {
        let statistic = &statistic;
        let mut buffer = vec![0.0; xs.len()];
        let resample = move |rng: &mut XorShift| {
            for slot in buffer.iter_mut() {
                *slot = xs[rng.next_index(xs.len())];
            }
            statistic(&buffer)
        };
        (statistic(xs), resample)
    })
}

/// Resamples behind every [`median_ci`].
const MEDIAN_RESAMPLES: usize = 1000;

/// Bootstrap CI for the median — the workhorse for latency summaries.
///
/// Bit-identical to `bootstrap_ci(xs, desc::median, 1000, level, seed)`,
/// computed with the rank-count kernel (module docs) in O(n) per resample.
pub fn median_ci(xs: &[f64], level: f64, seed: u64) -> Option<ConfidenceInterval> {
    // A stable sort keeps equal values in draw order, so when both signed
    // zeros are present the bits of a tied order statistic depend on which
    // zero was drawn first — something rank counts cannot see. Such samples
    // (and any too long for u32 counts) take the generic path.
    let mixed_zeros = xs.iter().any(|x| x.to_bits() == 0.0f64.to_bits())
        && xs.iter().any(|x| x.to_bits() == (-0.0f64).to_bits());
    if mixed_zeros || u32::try_from(xs.len()).is_err() {
        return bootstrap_ci(xs, crate::desc::median, MEDIAN_RESAMPLES, level, seed);
    }
    percentile_bootstrap(xs, level, MEDIAN_RESAMPLES, seed, || {
        let mut kernel = RankCounts::new(xs);
        let estimate = kernel.median_of_sample();
        (estimate, move |rng: &mut XorShift| {
            kernel.resample_median(rng)
        })
    })
}

/// The percentile bootstrap shared by [`bootstrap_ci`] and [`median_ci`]:
/// validate the input, then let `prepare` build the statistic on the
/// original sample and a resampler that draws one resample from the
/// stream and returns its statistic. The interval is the `(1 ± level)/2`
/// type-7 quantiles of the resampled statistics.
fn percentile_bootstrap<P, R>(
    xs: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
    prepare: P,
) -> Option<ConfidenceInterval>
where
    P: FnOnce() -> (f64, R),
    R: FnMut(&mut XorShift) -> f64,
{
    if xs.is_empty() || !(0.0..1.0).contains(&level) {
        return None;
    }
    let (estimate, mut resample) = prepare();
    let mut rng = XorShift::new(seed ^ 0x9E3779B97F4A7C15);
    let mut stats: Vec<f64> = (0..resamples.max(1)).map(|_| resample(&mut rng)).collect();
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite statistic"));
    let alpha = (1.0 - level) / 2.0;
    let lo = crate::desc::quantile_sorted(&stats, alpha);
    let hi = crate::desc::quantile_sorted(&stats, 1.0 - alpha);
    Some(ConfidenceInterval {
        estimate,
        lo,
        hi,
        level,
    })
}

/// The rank-count median kernel: the sample sorted once, each value's
/// rank in that order, and a reusable per-rank tally of one resample.
struct RankCounts {
    /// `rank[i]`: position of `xs[i]` in the stable sort of `xs`.
    rank: Vec<u32>,
    /// `xs` in stable-sorted order.
    sorted: Vec<f64>,
    /// `counts[r]`: copies of `sorted[r]` in the current resample.
    counts: Vec<u32>,
    /// The order statistics the median interpolates.
    median: QuantileRanks,
}

impl RankCounts {
    /// Argsort `xs`, whose length must fit in a `u32`, once. Panics on
    /// NaN, like [`crate::desc::median`].
    fn new(xs: &[f64]) -> Self {
        let n = xs.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            xs[a as usize]
                .partial_cmp(&xs[b as usize])
                .expect("NaN in quantile input")
        });
        let mut rank = vec![0u32; n];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let sorted = order.iter().map(|&i| xs[i as usize]).collect();
        RankCounts {
            rank,
            sorted,
            counts: vec![0; n],
            median: QuantileRanks::new(n, 0.5),
        }
    }

    /// The median of the sample itself.
    fn median_of_sample(&self) -> f64 {
        let m = self.median;
        m.blend(self.sorted[m.lo], self.sorted[m.hi])
    }

    /// Draw one resample — the same `n` indices, in the same order, that
    /// [`bootstrap_ci`] copies into its buffer — and return its median.
    fn resample_median(&mut self, rng: &mut XorShift) -> f64 {
        let n = self.rank.len();
        self.counts.fill(0);
        for _ in 0..n {
            self.counts[self.rank[rng.next_index(n)] as usize] += 1;
        }
        // The k-th order statistic of the resample is `sorted[r]` for the
        // first rank `r` whose running count exceeds `k`.
        let (mut r, mut below) = (0, 0usize);
        let mut order_statistic = |k: usize| {
            while below + self.counts[r] as usize <= k {
                below += self.counts[r] as usize;
                r += 1;
            }
            self.sorted[r]
        };
        let m = self.median;
        let lo_v = order_statistic(m.lo);
        let hi_v = order_statistic(m.hi);
        m.blend(lo_v, hi_v)
    }
}

/// Spearman rank correlation between two equal-length samples.
/// Returns `None` on mismatched/short input.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        // Average ranks over ties.
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg_rank;
        }
        i = j + 1;
    }
    out
}

fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// Minimal xorshift64* PRNG for deterministic resampling.
struct XorShift {
    state: u64,
}

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift { state: seed.max(1) }
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn next_index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        // Deterministic right-skewed sample.
        (0..n)
            .map(|i| {
                let u = ((i * 2654435761) % 1000) as f64 / 1000.0;
                100.0 * (1.0 - u).max(1e-6).ln().abs()
            })
            .collect()
    }

    #[test]
    fn median_ci_contains_the_estimate() {
        let xs = sample(500);
        let ci = median_ci(&xs, 0.95, 7).unwrap();
        assert!(ci.contains(ci.estimate));
        assert!(ci.width() > 0.0);
        assert_eq!(ci.level, 0.95);
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let small = median_ci(&sample(50), 0.95, 7).unwrap();
        let large = median_ci(&sample(5000), 0.95, 7).unwrap();
        assert!(large.width() < small.width());
    }

    #[test]
    fn ci_is_deterministic() {
        let xs = sample(200);
        let a = median_ci(&xs, 0.95, 42).unwrap();
        let b = median_ci(&xs, 0.95, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wider_level_wider_interval() {
        let xs = sample(300);
        let ci90 = median_ci(&xs, 0.90, 7).unwrap();
        let ci99 = median_ci(&xs, 0.99, 7).unwrap();
        assert!(ci99.width() > ci90.width());
    }

    #[test]
    fn empty_and_bad_level_rejected() {
        assert!(median_ci(&[], 0.95, 1).is_none());
        assert!(median_ci(&[1.0], 1.5, 1).is_none());
    }

    #[test]
    fn spearman_perfect_monotone() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp()).collect(); // monotone, nonlinear
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((spearman(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [2.0, 2.0, 4.0, 6.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_independent_near_zero() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 48271) % 997) as f64).collect();
        let ys: Vec<f64> = (0..1000).map(|i| ((i * 16807) % 991) as f64).collect();
        let rho = spearman(&xs, &ys).unwrap();
        assert!(rho.abs() < 0.1, "rho {rho}");
    }

    #[test]
    fn spearman_rejects_bad_input() {
        assert!(spearman(&[1.0], &[1.0]).is_none());
        assert!(spearman(&[1.0, 2.0], &[1.0]).is_none());
        assert!(spearman(&[1.0, 1.0], &[2.0, 2.0]).is_none()); // zero variance
    }
}
