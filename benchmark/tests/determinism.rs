//! The determinism contract, checked from outside: a small campaign of
//! each workload at a second seed gives identical exact counters and
//! digests at 1 and 2 worker threads.
//!
//! Telemetry is process-global, so the runs happen one after another in
//! a single test.

use dohperf_benchmark::workload::{self, Workload};
use std::path::Path;

#[test]
fn counters_and_digests_do_not_depend_on_threads() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("out dir");
    for w in Workload::ALL {
        let run = |threads| {
            let o = workload::run(w, 7, 0.03, threads, false, &out_dir).expect("run");
            assert!(
                o.failures.is_empty(),
                "{} x{threads}: {:?}",
                w.name(),
                o.failures
            );
            o
        };
        let one = run(1);
        let two = run(2);
        assert_eq!(one.counters, two.counters, "{}", w.name());
        assert_eq!(one.digest, two.digest, "{}", w.name());
        assert_eq!(one.sim_queries, two.sim_queries, "{}", w.name());
        assert!(one.sim_queries > 0, "{}", w.name());
    }
}
