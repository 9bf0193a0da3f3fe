//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit, direction and the workloads it
//! applies to. `METRICS.md` documents the same list and `BENCHMARK.json`
//! declares it; the package's tests keep the three in agreement.

use crate::workload::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Bit set over [`Workload`]s.
pub type Mask = u8;
/// The `paper` workload.
pub const P: Mask = 1;
/// The `extended` workload.
pub const E: Mask = 2;
/// The `analysis` workload.
pub const A: Mask = 4;
/// Every workload.
pub const ALL: Mask = P | E | A;

/// One catalogue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads on which the metric measures something; elsewhere the
    /// traced run prints 0 and says why.
    pub workloads: Mask,
}

impl MetricDef {
    fn new(name: impl Into<String>, unit: &'static str, better: Better, workloads: Mask) -> Self {
        MetricDef {
            name: name.into(),
            unit,
            better,
            workloads,
        }
    }

    /// Whether the metric measures something on `w`.
    pub fn applies(&self, w: Workload) -> bool {
        self.workloads & w.mask() != 0
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run.
///
/// `failed_runs_frac` is not among them: it is 0 on a healthy run, and a
/// metric that reads 0 has no relative spread or bound. The result line
/// carries it as `failed` over `attempted` instead, and the human
/// summary prints the ratio.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        MetricDef::new("wall_s", "s", Lower, ALL),
        MetricDef::new("sim_queries_per_s", "1/s", Higher, ALL),
        MetricDef::new("cpu_s", "s", Lower, ALL),
        MetricDef::new("peak_rss_mb", "MB", Lower, ALL),
        MetricDef::new("setup_s", "s", Lower, ALL),
    ]
}

/// The public per-client and per-range calls the layer probe times, in
/// the order the campaign makes them, with the workloads that make them.
pub const PROBED_CALLS: [(&str, Mask); 11] = [
    ("world.client_sites", P | E),
    ("core.testbed.new", P | E),
    ("proxy.exitnode.create", P | E),
    ("providers.anycast.assign", P | E),
    ("providers.pops.nearest", P | E),
    ("proxy.network.doh", P | E),
    ("proxy.network.do53", P | E),
    ("core.equations.derive", P | E),
    ("proxy.lifecycle.transport", E),
    ("core.pageload.generate", E),
    ("core.pageload.measure_page", E),
];

/// The `full_report` components the traced `analysis` run times one by
/// one, as `analysis.<name>_ms`.
pub const REPORT_COMPONENTS: [&str; 8] = [
    "headline_cis",
    "covariates",
    "logistic",
    "linear",
    "cdfs",
    "deltas",
    "pop_improvement",
    "regions",
];

/// Per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        // Spans around public calls.
        MetricDef::new("core.campaign.run_to_store_ms", "ms", Lower, P),
        MetricDef::new("core.campaign.run_ms", "ms", Lower, E),
        MetricDef::new("core.store_io.read_ms", "ms", Lower, P | A),
        MetricDef::new("store.read_mb_s", "MB/s", Higher, P | A),
        MetricDef::new("analysis.headline_ms", "ms", Lower, P),
        MetricDef::new("analysis.extended_ms", "ms", Lower, E),
        MetricDef::new("analysis.full_report_ms", "ms", Lower, A),
    ];
    for c in REPORT_COMPONENTS {
        m.push(MetricDef::new(format!("analysis.{c}_ms"), "ms", Lower, A));
    }
    m.extend([
        MetricDef::new("analysis.report_other_ms", "ms", Lower, A),
        // Phase profiler.
        MetricDef::new("phase.simulate_ms", "ms", Lower, P | E),
        MetricDef::new("phase.merge_ms", "ms", Lower, E),
        MetricDef::new("phase.store-merge_ms", "ms", Lower, P),
        // Scheduler.
        MetricDef::new("scheduler.busy_ms", "ms", Lower, P | E),
        MetricDef::new("scheduler.busy_frac", "ratio", Higher, P | E),
        MetricDef::new("scheduler.idle_ms", "ms", Lower, P | E),
        MetricDef::new("scheduler.steals", "count", Lower, P | E),
        MetricDef::new("scheduler.shard_wall_max_ms", "ms", Lower, P | E),
        // Store.
        MetricDef::new("store.encode_ms", "ms", Lower, P),
        MetricDef::new("store.decode_ms", "ms", Lower, P | A),
        MetricDef::new("store.bytes_written", "bytes", Lower, P),
        MetricDef::new("store.chunks_written", "count", Lower, P),
        MetricDef::new("store.encoder_workers", "count", Lower, P),
        // Exact counts.
        MetricDef::new("core.campaign.sim_queries", "count", Lower, P | E),
        MetricDef::new("netsim.events_dispatched", "count", Lower, E),
        MetricDef::new("proxy.connect_tunnels", "count", Lower, P | E),
        MetricDef::new("proxy.transport_measurements", "count", Lower, E),
        MetricDef::new("proxy.transport_resumptions", "count", Lower, E),
        MetricDef::new("dnswire.cache.hits", "count", Higher, E),
        MetricDef::new("dnswire.cache.misses", "count", Lower, E),
        MetricDef::new("dnswire.cache.evictions", "count", Lower, E),
        MetricDef::new("core.pageload.page_visits", "count", Lower, E),
        MetricDef::new("core.pageload.page_queries", "count", Lower, E),
        // Ratios.
        MetricDef::new("dnswire.cache.hit_ratio", "ratio", Higher, E),
        MetricDef::new("core.campaign.discard_frac", "ratio", Lower, P | E),
        // Derived costs.
        MetricDef::new("netsim.host_ns_per_event", "ns", Lower, E),
        MetricDef::new("core.campaign.host_us_per_query", "us", Lower, P),
    ]);
    // Layer probe.
    for (call, mask) in PROBED_CALLS {
        m.push(MetricDef::new(
            format!("{call}.calls"),
            "count",
            Lower,
            mask,
        ));
        m.push(MetricDef::new(format!("{call}.p50_us"), "us", Lower, mask));
        m.push(MetricDef::new(format!("{call}.p99_us"), "us", Lower, mask));
        m.push(MetricDef::new(
            format!("{call}.total_ms"),
            "ms",
            Lower,
            mask,
        ));
    }
    // Reconciliation, each ratio with its bases.
    m.extend([
        MetricDef::new("core.probe.clients_checked", "count", Higher, P | E),
        MetricDef::new("core.probe.attributed_ms", "ms", Lower, P | E),
        MetricDef::new("core.sim_unattributed_frac", "ratio", Lower, P | E),
        MetricDef::new("bench.untraced_wall_s", "s", Lower, ALL),
        MetricDef::new("bench.traced_wall_s", "s", Lower, ALL),
        MetricDef::new("bench.trace_overhead_frac", "ratio", Lower, ALL),
    ]);
    m
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
