//! The result line at a small scale: for every workload, untraced and
//! traced, the output checks (probe lineage included) pass and the JSON
//! line carries each metric the catalogue lists, with its unit. Also:
//! command-line misuse exits 2 without a result.
//!
//! Telemetry is process-global, so the runs happen one after another in
//! a single test.

use dohperf_benchmark::catalogue::{self, MetricDef};
use dohperf_benchmark::report;
use dohperf_benchmark::sys;
use dohperf_benchmark::workload::{self, Workload, THREADS};
use dohperf_telemetry::JsonValue;
use std::path::Path;
use std::process::Command;

/// Parse `line` as a result line and check it against `expected`.
fn check_line(workload: Workload, trace: bool, line: &str, expected: &[MetricDef]) {
    let what = format!("{} trace={trace}", workload.name());
    let doc = JsonValue::parse(line).expect("result line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)), "{what}");
    assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(
        doc.get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1
    );
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), expected.len(), "{what}");
    for def in expected {
        let m = metrics
            .get(&def.name)
            .unwrap_or_else(|| panic!("{what}: {} missing", def.name));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(def.unit),
            "{what}: {}",
            def.name
        );
        let value = match m.get("value") {
            Some(JsonValue::Float(v)) => *v,
            Some(JsonValue::Integer(v)) => *v as f64,
            other => panic!("{what}: {} value {other:?}", def.name),
        };
        // Every end-to-end metric is positive, and so is the call count
        // of every probed call the workload makes.
        let probed = def.applies(workload) && def.name.ends_with(".calls");
        if !trace || probed {
            assert!(value > 0.0, "{what}: {} = {value}", def.name);
        }
    }
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("out dir");
    for (w, seed) in [
        (Workload::Paper, 101),
        (Workload::Extended, 201),
        (Workload::Analysis, 301),
    ] {
        let run = |traced| {
            let started = sys::unix_nanos();
            let o = workload::run(w, seed, 0.02, THREADS, traced, &out_dir).expect("run");
            assert!(
                o.failures.is_empty(),
                "{} traced={traced}: {:?}",
                w.name(),
                o.failures
            );
            let sample = o.sample(started);
            (o, sample)
        };

        let (_, sample) = run(false);
        let e2e: Vec<_> = catalogue::end_to_end()
            .into_iter()
            .map(|def| {
                let v = sample.metric(&def.name);
                (def, v)
            })
            .collect();
        let line = report::result_line(true, 1, 0, &e2e);
        check_line(w, false, &line, &catalogue::end_to_end());

        let (traced, traced_sample) = run(true);
        let mut layer = traced.layer.clone();
        report::add_trace_overhead(&mut layer, sample.wall_s, traced_sample.wall_s);
        let (metrics, _absent) = workload::layer_metrics(w, &layer);
        let line = report::result_line(true, 2, 0, &metrics);
        check_line(w, true, &line, &catalogue::per_layer());
    }
}

#[test]
fn misuse_exits_2_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "paper", "--trace", "2"],
        vec!["--workload", "paper", "--seconds", "ten"],
        vec!["--workload", "paper", "--scale", "0.5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dohbench"))
            .args(&args)
            .output()
            .expect("dohbench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
