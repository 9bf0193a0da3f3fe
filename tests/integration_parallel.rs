//! Reproducibility across thread counts and shard sizes.
//!
//! The campaign's determinism contract (DESIGN.md §2, §14) promises that
//! `seed -> Dataset` is a pure function and that `CampaignConfig::threads`
//! and `CampaignConfig::shard_size` are throughput knobs only. These
//! tests run the same quick-scale campaign across a (threads ×
//! shard-size) matrix and require the *serialized records* — and the
//! store bytes, trace export, and deterministic metrics — to be
//! byte-identical, so any divergence in ordering, client-ID assignment,
//! prefix allocation, or RNG lineage fails loudly.
//!
//! The telemetry registry is process-global and cumulative, so every
//! campaign-running test here serializes on one mutex: the metrics
//! matrix asserts on snapshot *deltas*, which a concurrently running
//! campaign would pollute.

use dohperf_core::campaign::{Campaign, CampaignConfig, ProtocolSet};
use dohperf_core::export::{to_csv, to_jsonl};
use dohperf_core::records::Dataset;
use dohperf_store::{MANIFEST_FILE, RECORDS_FILE};
use dohperf_telemetry::perfetto;
use proptest::prelude::*;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn run_with_threads(seed: u64, threads: usize) -> Dataset {
    let config = CampaignConfig {
        threads,
        ..CampaignConfig::quick(seed)
    };
    Campaign::new(config).run()
}

fn matrix_config(seed: u64, threads: usize, shard_size: usize) -> CampaignConfig {
    CampaignConfig {
        threads,
        shard_size,
        ..CampaignConfig::quick(seed)
    }
}

fn run_protocols_with_threads(seed: u64, threads: usize) -> Dataset {
    let config = CampaignConfig {
        threads,
        scale: 0.05,
        protocols: ProtocolSet::all(),
        ..CampaignConfig::quick(seed)
    };
    Campaign::new(config).run()
}

#[test]
fn thread_count_is_invisible_in_serialized_records() {
    let _guard = SERIAL.lock().unwrap();
    let sequential = run_with_threads(2021, 1);
    let csv = to_csv(&sequential);
    let jsonl = to_jsonl(&sequential);
    for threads in [2, 8] {
        let parallel = run_with_threads(2021, threads);
        assert_eq!(
            csv,
            to_csv(&parallel),
            "CSV export diverged at {threads} threads"
        );
        assert_eq!(
            jsonl,
            to_jsonl(&parallel),
            "JSONL export diverged at {threads} threads"
        );
    }
}

#[test]
fn thread_count_is_invisible_in_full_dataset() {
    let _guard = SERIAL.lock().unwrap();
    let sequential = run_with_threads(7, 1);
    for threads in [2, 8] {
        let parallel = run_with_threads(7, threads);
        assert_eq!(sequential.records, parallel.records);
        assert_eq!(sequential.countries, parallel.countries);
        assert_eq!(sequential.atlas_do53_ms, parallel.atlas_do53_ms);
        assert_eq!(
            sequential.discarded_mismatches,
            parallel.discarded_mismatches
        );
        assert_eq!(sequential.observed_ases, parallel.observed_ases);
        assert_eq!(sequential.observed_resolvers, parallel.observed_resolvers);
    }
}

#[test]
fn four_protocol_campaign_is_thread_invariant() {
    // The extended-transport lifecycle measurements (DoT/DoQ plus the
    // lifecycle view of Do53/DoH) must obey the same determinism
    // contract as the legacy pipeline: thread count is a throughput
    // knob only, down to every transport sample's f64 bits.
    let _guard = SERIAL.lock().unwrap();
    let sequential = run_protocols_with_threads(2021, 1);
    assert!(
        sequential.records.iter().all(|r| r.transports.len() == 16),
        "expected 4 transports x 4 providers per record"
    );
    for threads in [2, 8] {
        let parallel = run_protocols_with_threads(2021, threads);
        assert_eq!(
            sequential.records, parallel.records,
            "records (incl. transport samples) diverged at {threads} threads"
        );
    }
}

#[test]
fn pageload_campaign_is_thread_and_shard_invariant() {
    // The page-load workload (synthetic dependency DAGs resolved over
    // multiplexed connections, cold + warm visits through the bounded
    // DNS cache) rides the same per-client simulation epochs as the
    // lifecycle probes, so its PLT samples — and the sampled flight
    // traces of its page events — must be byte-identical across the full
    // (threads × shard-size) matrix too.
    let _guard = SERIAL.lock().unwrap();
    let pageload_config = |threads: usize, shard_size: usize| CampaignConfig {
        pages_per_client: 2,
        ..matrix_config(2021, threads, shard_size)
    };
    let traced = |threads: usize, shard_size: usize| {
        let campaign = Campaign::new(pageload_config(threads, shard_size)).with_trace_sampling(16);
        let ds = campaign.run();
        (ds, perfetto::to_chrome_trace(&campaign.take_traces()))
    };
    let reference = Campaign::new(pageload_config(1, usize::MAX)).run();
    assert!(
        reference.records.iter().all(|r| r.pages.len() == 16),
        "expected 4 transports x 4 providers of page samples per record"
    );
    let (_, reference_trace) = traced(1, usize::MAX);
    assert!(
        reference_trace.contains("netsim schedule"),
        "sampled traces should carry page events"
    );
    for threads in MATRIX_THREADS {
        for shard_size in MATRIX_SHARDS {
            let (cell, cell_trace) = traced(threads, shard_size);
            assert_eq!(
                reference.records, cell.records,
                "records (incl. page samples) diverged at threads={threads} \
                 shard_size={shard_size}"
            );
            assert_eq!(
                to_jsonl(&reference),
                to_jsonl(&cell),
                "JSONL diverged at threads={threads} shard_size={shard_size}"
            );
            assert!(
                reference_trace == cell_trace,
                "page trace export diverged at threads={threads} shard_size={shard_size}"
            );
        }
    }
}

#[test]
fn auto_thread_detection_matches_sequential() {
    // threads = 0 resolves to available parallelism; output must still
    // match the single-threaded run.
    let _guard = SERIAL.lock().unwrap();
    let auto = run_with_threads(99, 0);
    let sequential = run_with_threads(99, 1);
    assert_eq!(to_jsonl(&auto), to_jsonl(&sequential));
}

#[test]
fn atlas_samples_stay_in_canonical_country_order() {
    let _guard = SERIAL.lock().unwrap();
    let ds = run_with_threads(5, 4);
    let indices: Vec<usize> = ds.atlas_do53_ms.iter().map(|(i, _)| *i).collect();
    let mut sorted = indices.clone();
    sorted.sort_unstable();
    assert_eq!(indices, sorted, "atlas results out of country order");
    assert_eq!(indices.len(), 11, "one entry per Super-Proxy country");
}

/// The (threads × shard-size) matrix every byte-identity claim is tested
/// over: every thread count the thread-invariance tests use, crossed
/// with a shard size small enough to split every country and one around
/// typical country sizes. The reference all matrix cells compare against
/// is the *unsplit* sequential run (`shard_size = usize::MAX` puts each
/// country in a single work unit, i.e. the pre-sharding distribution).
const MATRIX_THREADS: [usize; 3] = [1, 2, 8];
const MATRIX_SHARDS: [usize; 2] = [5, 64];

#[test]
fn shard_matrix_keeps_dataset_and_metrics_byte_identical() {
    let _guard = SERIAL.lock().unwrap();
    let registry = dohperf_telemetry::global();
    let before = registry.snapshot();
    let reference = Campaign::new(matrix_config(2021, 1, usize::MAX)).run();
    let reference_metrics = registry.snapshot().since(&before).deterministic_json();

    for threads in MATRIX_THREADS {
        for shard_size in MATRIX_SHARDS {
            let before = registry.snapshot();
            let cell = Campaign::new(matrix_config(2021, threads, shard_size)).run();
            let cell_metrics = registry.snapshot().since(&before).deterministic_json();
            assert_eq!(
                reference.records, cell.records,
                "records diverged at threads={threads} shard_size={shard_size}"
            );
            assert_eq!(reference.atlas_do53_ms, cell.atlas_do53_ms);
            assert_eq!(reference.discarded_mismatches, cell.discarded_mismatches);
            assert_eq!(
                to_csv(&reference),
                to_csv(&cell),
                "CSV diverged at threads={threads} shard_size={shard_size}"
            );
            assert_eq!(
                reference_metrics, cell_metrics,
                "deterministic metrics diverged at threads={threads} shard_size={shard_size}"
            );
        }
    }
}

#[test]
fn shard_matrix_keeps_store_and_trace_bytes_identical() {
    let _guard = SERIAL.lock().unwrap();
    let store_bytes = |threads: usize, shard_size: usize, tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("dohperf-int-matrix-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Campaign::new(matrix_config(2021, threads, shard_size))
            .run_to_store(&dir, 0)
            .unwrap_or_else(|e| panic!("streaming campaign to {}: {e}", dir.display()));
        let chunks = std::fs::read(dir.join(RECORDS_FILE)).expect("read chunks");
        let manifest = std::fs::read(dir.join(MANIFEST_FILE)).expect("read manifest");
        let _ = std::fs::remove_dir_all(&dir);
        (chunks, manifest)
    };
    let trace_json = |threads: usize, shard_size: usize| {
        let campaign =
            Campaign::new(matrix_config(2021, threads, shard_size)).with_trace_sampling(16);
        campaign.run();
        perfetto::to_chrome_trace(&campaign.take_traces())
    };

    let (ref_chunks, ref_manifest) = store_bytes(1, usize::MAX, "ref");
    assert!(!ref_chunks.is_empty(), "store wrote no chunk bytes");
    let ref_trace = trace_json(1, usize::MAX);

    for threads in MATRIX_THREADS {
        for shard_size in MATRIX_SHARDS {
            let tag = format!("t{threads}-s{shard_size}");
            let (chunks, manifest) = store_bytes(threads, shard_size, &tag);
            assert!(
                ref_chunks == chunks,
                "records.chunks diverged at threads={threads} shard_size={shard_size} \
                 ({} vs {} bytes)",
                ref_chunks.len(),
                chunks.len()
            );
            assert!(
                ref_manifest == manifest,
                "manifest.bin diverged at threads={threads} shard_size={shard_size}"
            );
            assert_eq!(
                ref_trace,
                trace_json(threads, shard_size),
                "trace export diverged at threads={threads} shard_size={shard_size}"
            );
        }
    }
}

/// The unsplit quick-scale dataset, computed once and shared by every
/// proptest case below.
fn unsplit_reference() -> &'static Dataset {
    static REFERENCE: std::sync::OnceLock<Dataset> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| Campaign::new(matrix_config(31, 1, usize::MAX)).run())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Splitting every country into arbitrary client-ID ranges composes
    /// back to the unsplit result: for *any* shard size (1 client per
    /// unit up to whole-country units) under any worker count, the
    /// dataset is the one the pre-sharding campaign produced. This is
    /// the generalised form of the fixed matrix above — the split
    /// boundaries land wherever `shard_size` puts them, including deep
    /// inside the largest country and past the end of the smallest.
    #[test]
    fn any_client_range_split_composes_to_the_unsplit_dataset(
        shard_size in 1usize..400,
        threads in 1usize..9,
    ) {
        let _guard = SERIAL.lock().unwrap();
        let reference = unsplit_reference();
        let split = Campaign::new(matrix_config(31, threads, shard_size)).run();
        prop_assert!(
            reference.records == split.records,
            "records diverged at threads={} shard_size={}", threads, shard_size
        );
        prop_assert_eq!(&reference.atlas_do53_ms, &split.atlas_do53_ms);
        prop_assert_eq!(&reference.countries, &split.countries);
        prop_assert_eq!(reference.discarded_mismatches, split.discarded_mismatches);
    }
}
