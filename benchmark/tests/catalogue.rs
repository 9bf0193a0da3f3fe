//! The metric catalogue, `BENCHMARK.json` and `METRICS.md` agree, and
//! every name is well formed.

use dohperf_benchmark::catalogue::{self, MetricDef};
use dohperf_benchmark::workload::Workload;
use dohperf_telemetry::JsonValue;
use std::collections::BTreeSet;
use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
    let JsonValue::Array(items) = doc.get(key).expect(key) else {
        panic!("{key} is not an array");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn listed(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.clone(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn names_are_valid_unique_and_within_the_limits() {
    let e2e = catalogue::end_to_end();
    let layer = catalogue::per_layer();
    assert!(
        !e2e.is_empty() && e2e.len() <= 16,
        "{} end-to-end",
        e2e.len()
    );
    assert!(
        !layer.is_empty() && layer.len() <= 128,
        "{} per-layer",
        layer.len()
    );
    let mut seen = BTreeSet::new();
    for def in e2e.iter().chain(&layer) {
        assert!(catalogue::valid_name(&def.name), "bad name {}", def.name);
        assert!(seen.insert(def.name.clone()), "duplicate {}", def.name);
        assert!(
            def.unit.len() <= 16
                && def
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} on {}",
            def.unit,
            def.name
        );
        assert!(def.workloads != 0, "{} applies to no workload", def.name);
    }
    for def in &e2e {
        for w in Workload::ALL {
            assert!(
                def.applies(w),
                "{} must be printed on {}",
                def.name,
                w.name()
            );
        }
    }
    assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(!catalogue::valid_name("a b") && !catalogue::valid_name("_x"));
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let doc = JsonValue::parse(&repo_file("../BENCHMARK.json")).expect("BENCHMARK.json parses");
    assert_eq!(
        declared(&doc, "end_to_end"),
        listed(&catalogue::end_to_end())
    );
    assert_eq!(declared(&doc, "per_layer"), listed(&catalogue::per_layer()));
    let JsonValue::Array(workloads) = doc.get("workloads").expect("workloads") else {
        panic!("workloads is not an array");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
}

#[test]
fn metrics_doc_covers_every_metric_and_workload() {
    let doc = repo_file("METRICS.md");
    for def in catalogue::end_to_end()
        .iter()
        .chain(&catalogue::per_layer())
    {
        // Probe metrics are documented once per call, as `<call>.*`.
        let probe_call = catalogue::PROBED_CALLS
            .iter()
            .find(|(call, _)| def.name.starts_with(&format!("{call}.")));
        let needle = match probe_call {
            Some((call, _)) => call.to_string(),
            None => def.name.clone(),
        };
        assert!(
            doc.contains(&format!("`{needle}")),
            "METRICS.md lacks {}",
            def.name
        );
    }
    for w in Workload::ALL {
        assert!(
            doc.contains(&format!("`{}`", w.name())),
            "METRICS.md lacks {}",
            w.name()
        );
    }
}
