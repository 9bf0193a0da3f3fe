//! The three workloads: set-up, the timed part, the output checks, and
//! (in the traced run) the per-layer ledger.
//!
//! | workload   | timed part                                                  |
//! |------------|-------------------------------------------------------------|
//! | `paper`    | `Campaign::run_to_store` at scale 1.0, read back, headline  |
//! | `extended` | `Campaign::run` at scale 0.25 with every transport, pages and hourly windows, then the extended analyses |
//! | `analysis` | read a scale-1.0 store written in set-up, then `full_report` |
//!
//! `METRICS.md` gives the reason each workload was chosen.

use crate::catalogue::{self, MetricDef};
use crate::probe;
use crate::report::{self, Sample};
use crate::spans::Spans;
use crate::sys::{self, Digest};
use dohperf_analysis as analysis;
use dohperf_analysis::headline::HeadlineStats;
use dohperf_core::campaign::DEFAULT_SHARD_SIZE;
use dohperf_core::records::Dataset;
use dohperf_core::{Campaign, CampaignConfig, ProtocolSet};
use dohperf_netsim::connection::DnsTransport;
use dohperf_providers::provider::ALL_PROVIDERS;
use dohperf_store::{DEFAULT_CHUNK_BUDGET, MANIFEST_FILE, RECORDS_FILE};
use dohperf_telemetry::{phases, scheduler, Snapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The seed the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 2021;

/// Campaign worker threads in every measured run (the benchmark host
/// has two cores).
pub const THREADS: usize = 2;

/// `paper` digest (headline bits, exact counters, store bytes) at the
/// default seed and scale. Legacy bytes never move, so neither does
/// this.
pub const PAPER_DIGEST: &str = "70cc37dc23b35a43";

/// `analysis` digest (the `full_report` markdown) at the default seed
/// and scale.
pub const ANALYSIS_DIGEST: &str = "9aa27dc3a02a74a4";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's legacy campaign streamed to a store and read back.
    Paper,
    /// Every transport, page loads and hourly windows, in memory.
    Extended,
    /// The full report over a stored paper-scale dataset.
    Analysis,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Extended, Workload::Analysis];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Extended => "extended",
            Workload::Analysis => "analysis",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's bit in [`catalogue::Mask`].
    pub fn mask(self) -> catalogue::Mask {
        match self {
            Workload::Paper => catalogue::P,
            Workload::Extended => catalogue::E,
            Workload::Analysis => catalogue::A,
        }
    }

    /// Campaign scale the benchmark runs the workload at.
    pub fn default_scale(self) -> f64 {
        match self {
            Workload::Paper | Workload::Analysis => 1.0,
            Workload::Extended => 0.25,
        }
    }

    /// The campaign configuration the workload runs (for `analysis`, the
    /// one its set-up writes).
    pub fn config(self, seed: u64, scale: f64, threads: usize) -> CampaignConfig {
        let base = CampaignConfig {
            seed,
            scale,
            threads,
            ..CampaignConfig::default()
        };
        match self {
            Workload::Paper | Workload::Analysis => base,
            Workload::Extended => CampaignConfig {
                protocols: ProtocolSet::all(),
                pages_per_client: 2,
                window_nanos: 3_600_000_000_000,
                ..base
            },
        }
    }
}

/// What one run of a workload measured and found.
#[derive(Debug)]
pub struct Outcome {
    /// Unix ns at which the timed part started.
    pub timed_start_unix_ns: u128,
    /// Wall time of the timed part, s.
    pub wall_s: f64,
    /// User + system CPU of the process over the timed part, s.
    pub cpu_s: f64,
    /// `VmHWM` of the process at the end of the timed part, MB.
    pub peak_rss_mb: f64,
    /// Simulated queries the timed part carried: simulated by it
    /// (`paper`, `extended`) or analysed by it (`analysis`).
    pub sim_queries: u64,
    /// Exact counters the checks use, by program metric name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Digest of the checked outputs.
    pub digest: String,
    /// Output-check failures; empty when every check passed.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs only), by catalogue name.
    pub layer: BTreeMap<String, f64>,
    /// Human-readable lines for the traced run's report.
    pub notes: Vec<String>,
    /// The run's spans (empty unless traced).
    pub spans: Spans,
}

impl Outcome {
    /// The run's end-to-end measurements, with set-up counted from
    /// `started_unix_ns`.
    pub fn sample(&self, started_unix_ns: u128) -> Sample {
        Sample {
            setup_s: report::seconds_between(started_unix_ns, self.timed_start_unix_ns),
            wall_s: self.wall_s,
            cpu_s: self.cpu_s,
            peak_rss_mb: self.peak_rss_mb,
            sim_queries: self.sim_queries as f64,
        }
    }
}

/// Deterministic program counters the benchmark reads.
const COUNTERS: [&str; 16] = [
    "campaign.doh_queries",
    "campaign.do53_queries",
    "campaign.transport_queries",
    "campaign.page_queries",
    "campaign.page_visits",
    "campaign.clients_measured",
    "campaign.clients_discarded",
    "netsim.events_dispatched",
    "proxy.connect_tunnels",
    "proxy.transport_measurements",
    "proxy.transport_resumptions",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "store.bytes_written",
    "store.chunks_written",
];

fn counters(delta: &Snapshot) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&name| (name, delta.counter_value(name).unwrap_or(0)))
        .collect()
}

fn sim_queries(c: &BTreeMap<&'static str, u64>) -> u64 {
    c["campaign.doh_queries"]
        + c["campaign.do53_queries"]
        + c["campaign.transport_queries"]
        + c["campaign.page_queries"]
}

/// A store path under `out_dir`, unique within the process, with any
/// leftover of an earlier process removed. `run_to_store` creates the
/// directory; it is not made here, because set-up would then time the
/// host's file system rather than the program.
fn store_dir(out_dir: &Path, w: Workload) -> std::io::Result<PathBuf> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = out_dir.join(format!(
        "store-{}-{}-{}",
        w.name(),
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(dir)
}

/// Removes the store directory when the run ends, however it ends.
struct StoreGuard(PathBuf);

impl Drop for StoreGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_err(e: dohperf_store::StoreError) -> String {
    format!("store: {e}")
}

/// What the timed part leaves behind for the checks and the ledger.
enum Produced {
    Paper {
        ds: Dataset,
        headline: HeadlineStats,
    },
    Extended {
        ds: Dataset,
        rendered: String,
    },
    Analysis {
        ds: Dataset,
        report: String,
    },
}

/// Run workload `w` once in this process: set up, time the timed part,
/// check its outputs and, when `traced`, fill the per-layer ledger.
///
/// Telemetry is process-global, so every program metric is read as the
/// difference across the timed part.
pub fn run(
    w: Workload,
    seed: u64,
    scale: f64,
    threads: usize,
    traced: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let cfg = w.config(seed, scale, threads);
    let io = |e: std::io::Error| format!("i/o: {e}");
    let dir = store_dir(out_dir, w).map_err(io)?;
    let _guard = StoreGuard(dir.clone());
    let mut spans = Spans::new(
        traced,
        format!("{}-seed{seed}-pid{}", w.name(), std::process::id()),
    );

    // Set-up: only `analysis` has any, the store it reads.
    let mut setup_queries = 0;
    if w == Workload::Analysis {
        let before = dohperf_telemetry::global().snapshot();
        Campaign::new(cfg)
            .run_to_store(&dir, 0)
            .map_err(store_err)?;
        let delta = dohperf_telemetry::global().snapshot().since(&before);
        setup_queries = sim_queries(&counters(&delta));
    }

    let before = dohperf_telemetry::global().snapshot();
    let phases_before = phases::snapshot();
    let cpu_before = sys::cpu_seconds();
    let timed_start_unix_ns = sys::unix_nanos();
    let timed_start = Instant::now();
    let produced = spans.span("workload", |s| -> Result<Produced, String> {
        Ok(match w {
            Workload::Paper => {
                s.span("core.campaign.run_to_store", |_| {
                    Campaign::new(cfg).run_to_store(&dir, 0)
                })
                .map_err(store_err)?;
                let ds = s
                    .span("core.store_io.read", |_| {
                        dohperf_core::read_dataset_threads(&dir, threads)
                    })
                    .map_err(store_err)?;
                let headline = s.span("analysis.headline", |_| analysis::headline_stats(&ds));
                Produced::Paper { ds, headline }
            }
            Workload::Extended => {
                let ds = s.span("core.campaign.run", |_| Campaign::new(cfg).run());
                let rendered = s.span("analysis.extended", |_| {
                    format!(
                        "{:?}|{:?}|{:?}|{:?}",
                        analysis::transport_headlines(&ds),
                        analysis::page_headlines(&ds),
                        analysis::page_plt_deltas(&ds),
                        analysis::timeline(&ds),
                    )
                });
                Produced::Extended { ds, rendered }
            }
            Workload::Analysis => {
                let ds = s
                    .span("core.store_io.read", |_| {
                        dohperf_core::read_dataset_threads(&dir, threads)
                    })
                    .map_err(store_err)?;
                let report = s.span("analysis.full_report", |_| analysis::full_report(&ds, seed));
                Produced::Analysis { ds, report }
            }
        })
    })?;
    let wall_s = timed_start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu_before;
    let peak_rss_mb = sys::peak_rss_mb();
    let delta = dohperf_telemetry::global().snapshot().since(&before);
    let counters = counters(&delta);

    let mut out = Outcome {
        timed_start_unix_ns,
        wall_s,
        cpu_s,
        peak_rss_mb,
        sim_queries: if w == Workload::Analysis {
            setup_queries
        } else {
            sim_queries(&counters)
        },
        counters,
        digest: String::new(),
        failures: Vec::new(),
        layer: BTreeMap::new(),
        notes: Vec::new(),
        spans: Spans::new(false, String::new()),
    };
    match &produced {
        Produced::Paper { ds, headline } => check_paper(&mut out, &cfg, ds, headline, &dir)?,
        Produced::Extended { ds, rendered } => check_extended(&mut out, &cfg, ds, rendered),
        Produced::Analysis { report, .. } => {
            out.digest = Digest::default().update(report.as_bytes()).hex();
            if !report.starts_with("# dohperf campaign report") || report.contains("NaN") {
                out.failures.push("full_report is malformed".into());
            }
        }
    }
    let pinned = match w {
        Workload::Paper => Some(PAPER_DIGEST),
        Workload::Extended => None,
        Workload::Analysis => Some(ANALYSIS_DIGEST),
    };
    if let Some(expected) = pinned.filter(|_| seed == DEFAULT_SEED && scale == w.default_scale()) {
        if out.digest != expected {
            out.failures.push(format!(
                "digest {} differs from the pinned {expected}",
                out.digest
            ));
        }
    }

    if traced {
        ledger(
            &mut out,
            w,
            &cfg,
            &produced,
            &delta,
            &phases_before,
            &spans,
            &dir,
            seed,
        );
    }
    out.spans = spans;
    Ok(out)
}

/// `paper` checks: exact identities, a digest of the headline bits, the
/// exact counters and the store bytes, and the streaming headline read
/// straight from the store against the exact headline.
fn check_paper(
    out: &mut Outcome,
    cfg: &CampaignConfig,
    ds: &Dataset,
    headline: &HeadlineStats,
    dir: &Path,
) -> Result<(), String> {
    let c = out.counters.clone();
    let clients = c["campaign.clients_measured"] + c["campaign.clients_discarded"];
    let runs = cfg.runs_per_client as u64;
    let providers = ALL_PROVIDERS.len() as u64;
    identity(
        out,
        "doh_queries = clients x 4 x runs",
        c["campaign.doh_queries"],
        clients * providers * runs,
    );
    identity(
        out,
        "do53_queries = clients x runs",
        c["campaign.do53_queries"],
        clients * runs,
    );
    identity(
        out,
        "records read = clients retained",
        ds.records.len() as u64,
        c["campaign.clients_measured"],
    );
    identity(
        out,
        "discarded = clients discarded",
        ds.discarded_mismatches as u64,
        c["campaign.clients_discarded"],
    );

    let mut d = Digest::default();
    for v in headline_fields(headline) {
        d.f64(v);
    }
    for (name, v) in &out.counters {
        d.update(name.as_bytes()).u64(*v);
    }
    for file in [RECORDS_FILE, MANIFEST_FILE] {
        let bytes = std::fs::read(dir.join(file)).map_err(|e| format!("i/o: {e}"))?;
        d.update(&bytes);
    }
    out.digest = d.hex();

    let streamed = analysis::headline_from_store(dir).map_err(store_err)?;
    out.failures
        .extend(compare_streaming(ds, headline, &streamed));
    Ok(())
}

fn identity(out: &mut Outcome, what: &str, got: u64, want: u64) {
    if got != want {
        out.failures.push(format!("{what}: {got} != {want}"));
    }
}

fn headline_fields(h: &HeadlineStats) -> [f64; 9] {
    [
        h.median_doh1_ms,
        h.median_do53_ms,
        h.median_dohr_ms,
        h.first_request_speedup_fraction,
        h.ten_request_speedup_fraction,
        h.median_doh10_slowdown_ms,
        h.median_country_doh1_ms,
        h.median_country_do53_ms,
        h.tripled_fraction,
    ]
}

/// Compare the store's one-pass headline with the exact one. The
/// fractions come from exact counters on both paths and must be
/// bit-equal. The global medians come from Greenwald–Khanna sketches,
/// which promise a value whose rank is within ε·n of the median's, so
/// that is what is checked, against the exact sample. The per-country
/// medians are medians of per-country sketch answers and carry no
/// stated bound, so they are not compared.
fn compare_streaming(ds: &Dataset, exact: &HeadlineStats, streamed: &HeadlineStats) -> Vec<String> {
    let mut failures = Vec::new();
    for (what, a, b) in [
        (
            "first_request_speedup_fraction",
            exact.first_request_speedup_fraction,
            streamed.first_request_speedup_fraction,
        ),
        (
            "ten_request_speedup_fraction",
            exact.ten_request_speedup_fraction,
            streamed.ten_request_speedup_fraction,
        ),
        (
            "tripled_fraction",
            exact.tripled_fraction,
            streamed.tripled_fraction,
        ),
    ] {
        if a.to_bits() != b.to_bits() {
            failures.push(format!("streaming {what} {b} != exact {a}"));
        }
    }
    let mut doh1 = Vec::new();
    let mut dohr = Vec::new();
    let mut do53 = Vec::new();
    let mut doh10_delta = Vec::new();
    for r in &ds.records {
        for s in &r.doh {
            doh1.push(s.t_doh_ms);
            dohr.push(s.t_dohr_ms);
        }
        if let Some(d53) = r.do53_ms {
            do53.push(d53);
            doh10_delta.extend(r.doh.iter().map(|s| s.doh_n_ms(10) - d53));
        }
    }
    let eps = analysis::streaming::DEFAULT_EPSILON;
    for (what, sample, v) in [
        ("median_doh1_ms", doh1, streamed.median_doh1_ms),
        ("median_dohr_ms", dohr, streamed.median_dohr_ms),
        ("median_do53_ms", do53, streamed.median_do53_ms),
        (
            "median_doh10_slowdown_ms",
            doh10_delta,
            streamed.median_doh10_slowdown_ms,
        ),
    ] {
        let n = sample.len() as f64;
        let below = sample.iter().filter(|&&x| x < v).count() as f64;
        let at_most = sample.iter().filter(|&&x| x <= v).count() as f64;
        // Some rank in [below, at_most] must lie within eps*n of n/2.
        let slack = eps * n + 1.0;
        if at_most < n / 2.0 - slack || below > n / 2.0 + slack {
            failures.push(format!(
                "streaming {what} {v} has rank [{below}, {at_most}] of {n}, outside ε = {eps}"
            ));
        }
    }
    failures
}

/// `extended` checks: identities that hold for any seed. The digest is
/// printed but not pinned, because extended-model bytes may change.
fn check_extended(out: &mut Outcome, cfg: &CampaignConfig, ds: &Dataset, rendered: &str) {
    let c = out.counters.clone();
    let clients = c["campaign.clients_measured"] + c["campaign.clients_discarded"];
    let providers = ALL_PROVIDERS.len() as u64;
    let pairs = cfg.protocols.len() as u64 * providers;
    let page_pairs = DnsTransport::ALL.len() as u64 * providers;
    identity(
        out,
        "page_visits = clients x 16 x visits",
        c["campaign.page_visits"],
        clients * page_pairs * cfg.pages_per_client as u64,
    );
    identity(
        out,
        "transport_measurements = clients x 16",
        c["proxy.transport_measurements"],
        clients * pairs,
    );
    identity(
        out,
        "doh_queries = clients x 8",
        c["campaign.doh_queries"],
        clients * providers * cfg.runs_per_client as u64,
    );
    identity(
        out,
        "cache.misses = page_queries",
        c["cache.misses"],
        c["campaign.page_queries"],
    );
    identity(
        out,
        "records = clients retained",
        ds.records.len() as u64,
        c["campaign.clients_measured"],
    );
    let mut d = Digest::default();
    d.update(rendered.as_bytes());
    for (name, v) in &c {
        d.update(name.as_bytes()).u64(*v);
    }
    out.digest = d.hex();
}

/// The traced run's per-layer ledger: span times, program telemetry
/// read after the call, the layer probe and the reconciliation.
#[allow(clippy::too_many_arguments)]
fn ledger(
    out: &mut Outcome,
    w: Workload,
    cfg: &CampaignConfig,
    produced: &Produced,
    delta: &Snapshot,
    phases_before: &BTreeMap<String, phases::PhaseStat>,
    spans: &Spans,
    dir: &Path,
    seed: u64,
) {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    for name in [
        "core.campaign.run_to_store",
        "core.campaign.run",
        "core.store_io.read",
        "analysis.headline",
        "analysis.extended",
        "analysis.full_report",
    ] {
        if let Some(ms) = spans.ms(name) {
            set(&format!("{name}_ms"), ms);
        }
    }
    if let Some(read_ms) = spans.ms("core.store_io.read") {
        let bytes = std::fs::metadata(dir.join(RECORDS_FILE)).map_or(0, |md| md.len());
        set("store.read_mb_s", bytes as f64 / 1e6 / (read_ms / 1e3));
    }

    // Phase profiler, as the difference across the timed part.
    let phases_after = phases::snapshot();
    for (phase, metric) in [
        ("simulate", "phase.simulate_ms"),
        ("merge", "phase.merge_ms"),
        ("store-merge", "phase.store-merge_ms"),
    ] {
        let after = phases_after.get(phase).map_or(0, |s| s.total_ns);
        let before = phases_before.get(phase).map_or(0, |s| s.total_ns);
        set(metric, after.saturating_sub(before) as f64 / 1e6);
    }

    // Scheduler, per worker, as published by the campaign's last run.
    let workers = scheduler::workers(delta);
    let busy_ms: f64 = workers.iter().map(|r| r.busy_ms as f64).sum();
    let idle_ms: f64 = workers.iter().map(|r| r.idle_ms as f64).sum();
    let ranges: i64 = workers.iter().map(|r| r.ranges).sum();
    set("scheduler.busy_ms", busy_ms);
    set("scheduler.idle_ms", idle_ms);
    set(
        "scheduler.busy_frac",
        busy_ms / (busy_ms + idle_ms).max(1.0),
    );
    set(
        "scheduler.steals",
        workers.iter().map(|r| r.steals as f64).sum(),
    );
    set(
        "scheduler.shard_wall_max_ms",
        delta
            .histogram("campaign.shard_wall_ms")
            .map_or(0.0, |h| h.max_micros as f64 / 1e3),
    );

    // Store gauges and counters.
    let gauge = |name: &str| delta.gauge_value(name).unwrap_or(0) as f64;
    set("store.encode_ms", gauge("store.encode_ms"));
    set("store.decode_ms", gauge("store.decode_ms"));
    set("store.encoder_workers", gauge("store.encoder_workers"));
    let c = &out.counters;
    set("store.bytes_written", c["store.bytes_written"] as f64);
    set("store.chunks_written", c["store.chunks_written"] as f64);

    // Exact counts and ratios.
    let queries = sim_queries(c) as f64;
    let events = c["netsim.events_dispatched"] as f64;
    for (program, metric) in [
        ("netsim.events_dispatched", "netsim.events_dispatched"),
        ("proxy.connect_tunnels", "proxy.connect_tunnels"),
        (
            "proxy.transport_measurements",
            "proxy.transport_measurements",
        ),
        ("proxy.transport_resumptions", "proxy.transport_resumptions"),
        ("cache.hits", "dnswire.cache.hits"),
        ("cache.misses", "dnswire.cache.misses"),
        ("cache.evictions", "dnswire.cache.evictions"),
        ("campaign.page_visits", "core.pageload.page_visits"),
        ("campaign.page_queries", "core.pageload.page_queries"),
    ] {
        set(metric, c[program] as f64);
    }
    set("core.campaign.sim_queries", queries);
    let lookups = (c["cache.hits"] + c["cache.misses"]) as f64;
    set(
        "dnswire.cache.hit_ratio",
        c["cache.hits"] as f64 / lookups.max(1.0),
    );
    let clients = (c["campaign.clients_measured"] + c["campaign.clients_discarded"]) as f64;
    set(
        "core.campaign.discard_frac",
        c["campaign.clients_discarded"] as f64 / clients.max(1.0),
    );
    if events > 0.0 {
        set("netsim.host_ns_per_event", busy_ms * 1e6 / events);
    }
    if queries > 0.0 {
        set("core.campaign.host_us_per_query", busy_ms * 1e3 / queries);
    }

    match produced {
        Produced::Paper { ds, .. } | Produced::Extended { ds, .. } => {
            let granularity = match w {
                Workload::Paper => DEFAULT_SHARD_SIZE
                    .div_ceil(DEFAULT_CHUNK_BUDGET)
                    .saturating_mul(DEFAULT_CHUNK_BUDGET),
                _ => DEFAULT_SHARD_SIZE,
            };
            let started = Instant::now();
            let p = probe::run(cfg, granularity, &ds.records);
            let probe_s = started.elapsed().as_secs_f64();
            for call in &p.calls {
                set(&format!("{}.calls", call.name), call.calls as f64);
                set(&format!("{}.p50_us", call.name), call.p50_us);
                set(&format!("{}.p99_us", call.name), call.p99_us);
                set(&format!("{}.total_ms", call.name), call.total_ms);
            }
            let attributed_ms: f64 = p
                .calls
                .iter()
                .map(|c| c.mean_ns * c.workload_calls)
                .sum::<f64>()
                / 1e6;
            set("core.probe.clients_checked", p.clients_checked as f64);
            set("core.probe.attributed_ms", attributed_ms);
            set(
                "core.sim_unattributed_frac",
                1.0 - attributed_ms / busy_ms.max(1.0),
            );
            if p.ranges as i64 != ranges {
                out.failures.push(format!(
                    "probe layout has {} ranges, the campaign ran {ranges}",
                    p.ranges
                ));
            }
            if p.clients as f64 != clients {
                out.failures.push(format!(
                    "probe plan has {} clients, the campaign measured {clients}",
                    p.clients
                ));
            }
            let shown = p.mismatches.len().min(5);
            for line in &p.mismatches[..shown] {
                out.failures.push(format!("probe lineage: {line}"));
            }
            if p.mismatches.len() > shown {
                out.failures.push(format!(
                    "probe lineage: {} more mismatches",
                    p.mismatches.len() - shown
                ));
            }
            out.notes.push(format!(
                "probe: 1 in {} of {} clients ({} checked bit-for-bit, {} discarded by the Maxmind filter), {} ranges, {:.2} s single-thread",
                p.every, p.clients, p.clients_checked, p.clients_discarded, p.ranges, probe_s
            ));
            out.notes.push(format!(
                "core.sim_unattributed_frac = 1 - attributed {attributed_ms:.1} ms / worker busy {busy_ms:.1} ms"
            ));
            for call in &p.calls {
                out.notes.push(format!(
                    "  {:<28} {:>7} timed x{:>11.1} in the workload: mean {:>9.3} us -> {:>9.1} ms",
                    call.name,
                    call.calls,
                    call.workload_calls,
                    call.mean_ns / 1e3,
                    call.mean_ns * call.workload_calls / 1e6
                ));
            }
        }
        Produced::Analysis { ds, .. } => {
            let mut components: Vec<(&str, f64)> = Vec::new();
            let mut time = |name, f: &mut dyn FnMut() -> usize| {
                let started = Instant::now();
                std::hint::black_box(f());
                components.push((name, started.elapsed().as_secs_f64() * 1e3));
            };
            time("headline_cis", &mut || {
                analysis::headline_cis(ds, seed).is_some() as usize
            });
            let mut cov = None;
            time("covariates", &mut || {
                cov = Some(analysis::covariates::build(ds));
                1
            });
            let cov = cov.expect("timed above");
            time("logistic", &mut || {
                analysis::fit_logistic_models(&cov).rows.len()
            });
            time("linear", &mut || {
                analysis::fit_linear_models(&cov).table5.len()
            });
            time("cdfs", &mut || analysis::provider_cdfs(ds).len());
            time("deltas", &mut || {
                analysis::resolver_delta_summary(&analysis::country_deltas(ds, 10)).len()
            });
            time("pop_improvement", &mut || {
                analysis::pop_improvement(ds).len()
            });
            time("regions", &mut || analysis::region_summaries(ds).len());
            let components_ms: f64 = components.iter().map(|(_, ms)| ms).sum();
            for (name, ms) in components {
                set(&format!("analysis.{name}_ms"), ms);
            }
            let full = spans.ms("analysis.full_report").unwrap_or(0.0);
            set("analysis.report_other_ms", full - components_ms);
            out.notes.push(format!(
                "analysis.report_other_ms = full_report {full:.1} ms - components {components_ms:.1} ms"
            ));
        }
    }
    out.layer.append(&mut m);
}

/// Every per-layer metric for workload `w`, in catalogue order: the
/// measured value where the metric applies, 0 where it does not. Returns
/// the metrics and the names that do not apply.
pub fn layer_metrics(
    w: Workload,
    layer: &BTreeMap<String, f64>,
) -> (Vec<(MetricDef, f64)>, Vec<String>) {
    let mut absent = Vec::new();
    let metrics = catalogue::per_layer()
        .into_iter()
        .map(|def| {
            let v = if def.applies(w) {
                layer.get(&def.name).copied()
            } else {
                None
            };
            if v.is_none() && !def.name.starts_with("bench.") {
                absent.push(def.name.clone());
            }
            (def, v.unwrap_or(0.0))
        })
        .collect();
    (metrics, absent)
}
