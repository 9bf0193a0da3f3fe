//! # dohperf-benchmark
//!
//! The repository's end-to-end benchmark. Each workload runs the real
//! pipeline through the program's public API in a fresh process, checks
//! its outputs, and reports end-to-end metrics; a separate traced run
//! reports the per-layer ledger. `METRICS.md` is the metric catalogue.

pub mod catalogue;
pub mod probe;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workload;
