//! What a run reports: the end-to-end metrics of each child, the trace
//! overhead entries of the ledger, and the JSON result line.

use crate::catalogue::MetricDef;
use std::collections::BTreeMap;

/// The end-to-end measurements of one run of a workload's timed part.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Spawn of the child process to the start of the timed part, s.
    pub setup_s: f64,
    /// Wall time of the timed part, s.
    pub wall_s: f64,
    /// User + system CPU of the process over the timed part, s.
    pub cpu_s: f64,
    /// `VmHWM` of the process at the end of the timed part, MB.
    pub peak_rss_mb: f64,
    /// Simulated queries the timed part carried.
    pub sim_queries: f64,
}

impl Sample {
    /// The value of end-to-end metric `name` for this run.
    ///
    /// # Panics
    /// If `name` is not an end-to-end metric of the catalogue.
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "wall_s" => self.wall_s,
            "sim_queries_per_s" => self.sim_queries / self.wall_s,
            "cpu_s" => self.cpu_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "setup_s" => self.setup_s,
            other => panic!("end-to-end metric {other} has no column"),
        }
    }
}

/// Seconds from one Unix-ns timestamp to a later one (0 if it is not
/// later).
pub fn seconds_between(from_unix_ns: u128, to_unix_ns: u128) -> f64 {
    to_unix_ns.saturating_sub(from_unix_ns) as f64 / 1e9
}

/// Add the trace-overhead entries to a traced run's ledger: both wall
/// times and their ratio minus one.
pub fn add_trace_overhead(
    layer: &mut BTreeMap<String, f64>,
    untraced_wall_s: f64,
    traced_wall_s: f64,
) {
    layer.insert("bench.untraced_wall_s".into(), untraced_wall_s);
    layer.insert("bench.traced_wall_s".into(), traced_wall_s);
    layer.insert(
        "bench.trace_overhead_frac".into(),
        traced_wall_s / untraced_wall_s - 1.0,
    );
}

/// The `metrics` object of the result line: each metric with its unit.
pub fn json_metrics(values: &[(MetricDef, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(def, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line, the last line a run prints.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(MetricDef, f64)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}
