//! Memory-bounded §5 analyses over the columnar store.
//!
//! The exact [`crate::headline`] path materialises every sample in
//! memory; at full scale that is fine, but the store exists so campaigns
//! can outgrow RAM. This module re-derives the same summary from a
//! single sequential pass:
//!
//! * [`StreamingHeadline`] — an accumulator fed one [`ClientRecord`] at
//!   a time. The speedup/tripled *fractions* use exact counters, so they
//!   equal the batch path bit-for-bit; the *medians* come from
//!   Greenwald–Khanna sketches ([`GkSketch`]) and are within the sketch's
//!   ε of the true rank.
//! * [`headline_from_store`] — the one-pass driver over a store
//!   directory; peak memory is one decoded chunk plus the sketches.

use crate::headline::HeadlineStats;
use dohperf_core::equations::doh_n_ms;
use dohperf_core::records::ClientRecord;
use dohperf_core::store_io;
use dohperf_stats::desc::median;
use dohperf_stats::sketch::GkSketch;
use std::path::Path;

/// Default sketch rank error for the streaming analyses.
pub const DEFAULT_EPSILON: f64 = 0.005;

/// Streaming accumulator for the §5 headline statistics.
#[derive(Debug, Clone)]
pub struct StreamingHeadline {
    epsilon: f64,
    doh1: GkSketch,
    dohr: GkSketch,
    do53: GkSketch,
    doh10_delta: GkSketch,
    first_speedups: u64,
    ten_speedups: u64,
    tripled: u64,
    comparable: u64,
    records: u64,
    /// Per-country accumulators, indexed by `country_index`.
    countries: Vec<CountryAcc>,
}

#[derive(Debug, Clone)]
struct CountryAcc {
    doh1: GkSketch,
    do53: GkSketch,
}

impl CountryAcc {
    fn new(epsilon: f64) -> Self {
        CountryAcc {
            doh1: GkSketch::new(epsilon),
            do53: GkSketch::new(epsilon),
        }
    }
}

impl Default for StreamingHeadline {
    fn default() -> Self {
        StreamingHeadline::new()
    }
}

impl StreamingHeadline {
    /// An accumulator at the default ε.
    pub fn new() -> Self {
        StreamingHeadline::with_epsilon(DEFAULT_EPSILON)
    }

    /// An accumulator with a caller-chosen sketch rank error.
    pub fn with_epsilon(epsilon: f64) -> Self {
        StreamingHeadline {
            epsilon,
            doh1: GkSketch::new(epsilon),
            dohr: GkSketch::new(epsilon),
            do53: GkSketch::new(epsilon),
            doh10_delta: GkSketch::new(epsilon),
            first_speedups: 0,
            ten_speedups: 0,
            tripled: 0,
            comparable: 0,
            records: 0,
            countries: Vec::new(),
        }
    }

    /// Records folded in so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Fold in one client record.
    pub fn observe(&mut self, r: &ClientRecord) {
        self.records += 1;
        if r.country_index >= self.countries.len() {
            self.countries
                .resize_with(r.country_index + 1, || CountryAcc::new(self.epsilon));
        }
        for s in &r.doh {
            self.doh1.insert(s.t_doh_ms);
            self.dohr.insert(s.t_dohr_ms);
            self.countries[r.country_index].doh1.insert(s.t_doh_ms);
        }
        if let Some(d53) = r.do53_ms {
            self.do53.insert(d53);
            self.countries[r.country_index].do53.insert(d53);
            for s in &r.doh {
                self.comparable += 1;
                if s.t_doh_ms < d53 {
                    self.first_speedups += 1;
                }
                let d10 = doh_n_ms(s.t_doh_ms, s.t_dohr_ms, 10);
                if d10 < d53 {
                    self.ten_speedups += 1;
                }
                if s.t_doh_ms >= 3.0 * d53 {
                    self.tripled += 1;
                }
                self.doh10_delta.insert(d10 - d53);
            }
        }
    }

    /// Fold another accumulator in (e.g. one per shard). Fractions stay
    /// exact; sketch rank errors add per the GK merge bound.
    pub fn merge(&mut self, other: &StreamingHeadline) {
        self.doh1.merge(&other.doh1);
        self.dohr.merge(&other.dohr);
        self.do53.merge(&other.do53);
        self.doh10_delta.merge(&other.doh10_delta);
        self.first_speedups += other.first_speedups;
        self.ten_speedups += other.ten_speedups;
        self.tripled += other.tripled;
        self.comparable += other.comparable;
        self.records += other.records;
        if other.countries.len() > self.countries.len() {
            self.countries
                .resize_with(other.countries.len(), || CountryAcc::new(self.epsilon));
        }
        for (mine, theirs) in self.countries.iter_mut().zip(&other.countries) {
            mine.doh1.merge(&theirs.doh1);
            mine.do53.merge(&theirs.do53);
        }
    }

    /// Produce the headline statistics.
    ///
    /// `atlas_do53_ms` is the per-country Atlas remedy table (from the
    /// dataset or the store manifest): countries without per-client Do53
    /// fall back to their Atlas median, exactly as the batch path does.
    pub fn finish(&self, atlas_do53_ms: &[(usize, Vec<f64>)]) -> HeadlineStats {
        let mut country_doh1 = Vec::new();
        let mut country_do53 = Vec::new();
        for (idx, acc) in self.countries.iter().enumerate() {
            if acc.doh1.count() == 0 {
                continue;
            }
            country_doh1.push(acc.doh1.query(0.5));
            if acc.do53.count() > 0 {
                country_do53.push(acc.do53.query(0.5));
            } else if let Some(atlas) = atlas_median(atlas_do53_ms, idx) {
                country_do53.push(atlas);
            }
        }
        HeadlineStats {
            median_doh1_ms: self.doh1.query(0.5),
            median_do53_ms: self.do53.query(0.5),
            median_dohr_ms: self.dohr.query(0.5),
            first_request_speedup_fraction: self.first_speedups as f64
                / self.comparable.max(1) as f64,
            ten_request_speedup_fraction: self.ten_speedups as f64 / self.comparable.max(1) as f64,
            median_doh10_slowdown_ms: self.doh10_delta.query(0.5),
            median_country_doh1_ms: median(&country_doh1),
            median_country_do53_ms: median(&country_do53),
            tripled_fraction: self.tripled as f64 / self.comparable.max(1) as f64,
        }
    }
}

/// Upper-median of a country's Atlas samples — the same convention as
/// `Dataset::atlas_median_ms`.
fn atlas_median(atlas_do53_ms: &[(usize, Vec<f64>)], country_index: usize) -> Option<f64> {
    atlas_do53_ms
        .iter()
        .find(|(idx, _)| *idx == country_index)
        .map(|(_, xs)| {
            let mut v = xs.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        })
}

/// One-pass headline statistics from a store directory.
///
/// Peak memory: one decoded chunk plus the sketches — independent of
/// the campaign's scale.
pub fn headline_from_store(dir: &Path) -> dohperf_store::Result<HeadlineStats> {
    let manifest = store_io::read_manifest(dir)?;
    let atlas: Vec<(usize, Vec<f64>)> = manifest
        .atlas_do53_ms
        .iter()
        .map(|(idx, xs)| (*idx as usize, xs.clone()))
        .collect();
    let mut acc = StreamingHeadline::new();
    store_io::fold_chunks(dir, 1, |records| {
        for r in &records {
            acc.observe(r);
        }
        Ok(())
    })?;
    Ok(acc.finish(&atlas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headline::headline_stats;
    use crate::testutil::shared_dataset;

    fn close(stream: f64, exact: f64, rel: f64, what: &str) {
        let tol = exact.abs() * rel + 1.0;
        assert!(
            (stream - exact).abs() <= tol,
            "{what}: streaming {stream} vs exact {exact} (tol {tol})"
        );
    }

    #[test]
    fn streaming_headline_matches_exact_fractions_bit_for_bit() {
        let ds = shared_dataset();
        let exact = headline_stats(ds);
        let mut acc = StreamingHeadline::new();
        for r in &ds.records {
            acc.observe(r);
        }
        let stream = acc.finish(&ds.atlas_do53_ms);
        assert_eq!(acc.records() as usize, ds.records.len());
        // Counters are exact, so the fraction claims are identical.
        assert_eq!(
            stream.first_request_speedup_fraction,
            exact.first_request_speedup_fraction
        );
        assert_eq!(
            stream.ten_request_speedup_fraction,
            exact.ten_request_speedup_fraction
        );
        assert_eq!(stream.tripled_fraction, exact.tripled_fraction);
    }

    #[test]
    fn streaming_headline_medians_within_sketch_tolerance() {
        let ds = shared_dataset();
        let exact = headline_stats(ds);
        let mut acc = StreamingHeadline::new();
        for r in &ds.records {
            acc.observe(r);
        }
        let stream = acc.finish(&ds.atlas_do53_ms);
        close(stream.median_doh1_ms, exact.median_doh1_ms, 0.05, "doh1");
        close(stream.median_do53_ms, exact.median_do53_ms, 0.05, "do53");
        close(stream.median_dohr_ms, exact.median_dohr_ms, 0.05, "dohr");
        close(
            stream.median_doh10_slowdown_ms,
            exact.median_doh10_slowdown_ms,
            0.15,
            "doh10 slowdown",
        );
        close(
            stream.median_country_doh1_ms,
            exact.median_country_doh1_ms,
            0.05,
            "country doh1",
        );
        close(
            stream.median_country_do53_ms,
            exact.median_country_do53_ms,
            0.05,
            "country do53",
        );
    }

    #[test]
    fn sharded_accumulators_merge_to_the_same_answer() {
        let ds = shared_dataset();
        let mut whole = StreamingHeadline::new();
        for r in &ds.records {
            whole.observe(r);
        }
        let mut merged = StreamingHeadline::new();
        for part in ds.records.chunks(ds.records.len() / 3 + 1) {
            let mut shard = StreamingHeadline::new();
            for r in part {
                shard.observe(r);
            }
            merged.merge(&shard);
        }
        let a = whole.finish(&ds.atlas_do53_ms);
        let b = merged.finish(&ds.atlas_do53_ms);
        assert_eq!(
            a.first_request_speedup_fraction,
            b.first_request_speedup_fraction
        );
        assert_eq!(a.tripled_fraction, b.tripled_fraction);
        close(b.median_doh1_ms, a.median_doh1_ms, 0.05, "merged doh1");
        close(b.median_do53_ms, a.median_do53_ms, 0.05, "merged do53");
    }

    #[test]
    fn store_drivers_reproduce_the_batch_analyses() {
        let ds = shared_dataset();
        let dir =
            std::env::temp_dir().join(format!("dohperf-analysis-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dohperf_core::store_io::write_dataset(ds, &dir, 0).unwrap();

        let exact = headline_stats(ds);
        let stream = headline_from_store(&dir).unwrap();
        assert_eq!(
            stream.first_request_speedup_fraction,
            exact.first_request_speedup_fraction
        );
        close(stream.median_doh1_ms, exact.median_doh1_ms, 0.05, "doh1");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
