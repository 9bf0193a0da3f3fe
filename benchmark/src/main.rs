//! `dohbench`: the benchmark's command line.
//!
//! ```text
//! dohbench --workload <paper|extended|analysis> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's timed part in fresh child
//! processes, one after another (a closed loop), until `--seconds` have
//! passed, and prints the medians of the end-to-end metrics. With
//! `--trace 1` it runs one untraced and one traced child and prints the
//! per-layer ledger. The last line of standard output is always one JSON
//! object, `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is 0 once it is printed; usage errors exit 2 without a result.
//!
//! Each child (`dohbench child ...`) runs the workload once in-process,
//! with no warm-up, because a `repro` user pays cold caches on every run.

use dohperf_benchmark::catalogue::{self, MetricDef};
use dohperf_benchmark::report::{self, seconds_between, Sample};
use dohperf_benchmark::stats::quartiles;
use dohperf_benchmark::sys;
use dohperf_benchmark::workload::{self, Workload, DEFAULT_SEED, THREADS};
use dohperf_stats::desc::median;
use std::collections::BTreeMap;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Each measured run times at least this many child processes, so its
/// medians rest on more than one sample even when one child outlasts
/// `--seconds`.
const MIN_CHILDREN: usize = 3;

/// Wall-clock budget of one invocation; no child starts that would be
/// expected to end past it, and a child still running at it is killed.
const BUDGET: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: dohbench --workload <paper|extended|analysis> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let child = it.peek().map(String::as_str) == Some("child");
    if child {
        it.next();
    }
    let mut args = Args {
        workload: Workload::Paper,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        child,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("expected an integer"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Where runs leave stores while they execute and spans when traced.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dohbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

/// Run the workload once and report on stdout, one `KEY ...` line each.
fn child(args: &Args) -> ExitCode {
    let w = args.workload;
    let out_dir = out_dir();
    let outcome = match workload::run(
        w,
        args.seed,
        w.default_scale(),
        THREADS,
        args.trace,
        &out_dir,
    ) {
        Ok(o) => o,
        Err(e) => {
            println!("FAIL {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "RESULT timed_start_unix_ns={} wall_s={} cpu_s={} peak_rss_mb={} sim_queries={} digest={}",
        outcome.timed_start_unix_ns,
        outcome.wall_s,
        outcome.cpu_s,
        outcome.peak_rss_mb,
        outcome.sim_queries,
        outcome.digest
    );
    for f in &outcome.failures {
        println!("FAIL {f}");
    }
    for n in &outcome.notes {
        println!("NOTE {n}");
    }
    if args.trace {
        for (name, v) in &outcome.layer {
            println!("LAYER {name} {v}");
        }
        for line in outcome.spans.table().lines() {
            println!("SPAN {line}");
        }
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        if let Err(e) = std::fs::write(&path, outcome.spans.to_jsonl()) {
            println!("FAIL writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("NOTE spans written to {}", path.display());
    }
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child's report, as parsed by the parent.
#[derive(Debug, Default)]
struct ChildReport {
    ok: bool,
    sample: Sample,
    digest: String,
    layer: BTreeMap<String, f64>,
    lines: Vec<String>,
    /// Wall time of the whole child process, s.
    process_s: f64,
}

/// Spawn one child, wait for it (killing it at `deadline`), and parse
/// its report. A child that fails, crashes or times out comes back with
/// `ok == false`.
fn spawn_child(args: &Args, trace: bool, deadline: Instant) -> ChildReport {
    let mut report = ChildReport::default();
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let spawned_ns = sys::unix_nanos();
    let started = Instant::now();
    let mut proc = match cmd.spawn() {
        Ok(p) => p,
        Err(e) => {
            report.lines.push(format!("FAIL spawning the child: {e}"));
            return report;
        }
    };
    let drain = |mut r: Box<dyn std::io::Read + Send>| {
        std::thread::spawn(move || {
            let mut s = String::new();
            let _ = r.read_to_string(&mut s);
            s
        })
    };
    let stdout = drain(Box::new(proc.stdout.take().expect("stdout is piped")));
    let stderr = drain(Box::new(proc.stderr.take().expect("stderr is piped")));
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                report
                    .lines
                    .push(format!("FAIL waiting for the child: {e}"));
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
        }
    };
    report.process_s = started.elapsed().as_secs_f64();
    let stdout = stdout.join().unwrap_or_default();
    let stderr = stderr.join().unwrap_or_default();
    let mut got_result = false;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("RESULT ") {
            got_result = true;
            for kv in rest.split_whitespace() {
                let Some((k, v)) = kv.split_once('=') else {
                    continue;
                };
                let num = v.parse::<f64>().unwrap_or(f64::NAN);
                match k {
                    "timed_start_unix_ns" => {
                        let start: u128 = v.parse().unwrap_or(0);
                        report.sample.setup_s = seconds_between(spawned_ns, start);
                    }
                    "wall_s" => report.sample.wall_s = num,
                    "cpu_s" => report.sample.cpu_s = num,
                    "peak_rss_mb" => report.sample.peak_rss_mb = num,
                    "sim_queries" => report.sample.sim_queries = num,
                    "digest" => report.digest = v.to_string(),
                    _ => {}
                }
            }
        } else if let Some(rest) = line.strip_prefix("LAYER ") {
            if let Some((k, v)) = rest.split_once(' ') {
                report
                    .layer
                    .insert(k.to_string(), v.parse().unwrap_or(f64::NAN));
            }
        } else {
            report.lines.push(line.to_string());
        }
    }
    match status {
        Some(s) if s.success() && got_result => report.ok = true,
        Some(s) => {
            report.lines.push(format!("FAIL child exited with {s}"));
            report
                .lines
                .extend(stderr.lines().map(|l| format!("  stderr: {l}")));
        }
        None => report
            .lines
            .push(format!("FAIL child killed after {:.1} s", report.process_s)),
    }
    report
}

/// Print the result line. A run that gets this far exits 0; failed
/// checks are reported through `correct` and `failed`.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(MetricDef, f64)],
) -> ExitCode {
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
    ExitCode::SUCCESS
}

fn print_failures(r: &ChildReport) {
    for line in r
        .lines
        .iter()
        .filter(|l| l.starts_with("FAIL") || l.starts_with("  stderr"))
    {
        println!("  {line}");
    }
}

/// The measured (`--trace 0`) or traced (`--trace 1`) run.
fn parent(args: &Args) -> ExitCode {
    let started = Instant::now();
    let deadline = started + BUDGET;
    let w = args.workload;
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("dohbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    println!(
        "dohbench: workload {} seed {} threads {THREADS}{}",
        w.name(),
        args.seed,
        if args.trace { " (traced)" } else { "" }
    );
    if args.trace {
        return traced(args, deadline);
    }

    let mut runs: Vec<ChildReport> = Vec::new();
    loop {
        let r = spawn_child(args, false, deadline);
        println!(
            "  run {:>2}: {} wall {:.4} s  cpu {:.3} s  rss {:.1} MB  setup {:.4} s  digest {}",
            runs.len() + 1,
            if r.ok { "ok  " } else { "FAIL" },
            r.sample.wall_s,
            r.sample.cpu_s,
            r.sample.peak_rss_mb,
            r.sample.setup_s,
            r.digest
        );
        print_failures(&r);
        let last_process_s = r.process_s;
        runs.push(r);
        let elapsed = started.elapsed();
        let enough = elapsed >= Duration::from_secs(args.seconds) && runs.len() >= MIN_CHILDREN;
        let no_room = elapsed + Duration::from_secs_f64(last_process_s * 1.5) > BUDGET;
        if enough || no_room {
            break;
        }
    }
    let ok: Vec<&ChildReport> = runs.iter().filter(|r| r.ok).collect();
    let attempted = runs.len();
    let failed = attempted - ok.len();
    let digests: std::collections::BTreeSet<&str> = ok.iter().map(|r| r.digest.as_str()).collect();
    let consistent = digests.len() <= 1;
    if !consistent {
        println!("  FAIL runs of one seed gave different digests: {digests:?}");
    }
    println!(
        "failed_runs_frac = {failed} / {attempted} = {:.4}",
        failed as f64 / attempted as f64
    );
    let metrics: Vec<(MetricDef, f64)> = catalogue::end_to_end()
        .into_iter()
        .map(|def| {
            let xs: Vec<f64> = ok.iter().map(|r| r.sample.metric(&def.name)).collect();
            let v = if xs.is_empty() { 0.0 } else { median(&xs) };
            if !xs.is_empty() {
                let (q1, q3) = quartiles(&xs);
                println!(
                    "  {:<18} median {:>14.4} {:<4} q1 {:>14.4}  q3 {:>14.4}  n {}",
                    def.name,
                    v,
                    def.unit,
                    q1,
                    q3,
                    xs.len()
                );
            }
            (def, v)
        })
        .collect();
    result_line(failed == 0 && consistent, attempted, failed, &metrics)
}

/// One untraced child for the overhead base, then the traced child.
fn traced(args: &Args, deadline: Instant) -> ExitCode {
    let w = args.workload;
    let plain = spawn_child(args, false, deadline);
    print_failures(&plain);
    let traced = spawn_child(args, true, deadline);
    for line in &traced.lines {
        if let Some(rest) = line.strip_prefix("NOTE ") {
            println!("  {rest}");
        } else if let Some(rest) = line.strip_prefix("SPAN ") {
            println!("  {rest}");
        }
    }
    print_failures(&traced);
    let mut layer = traced.layer.clone();
    report::add_trace_overhead(&mut layer, plain.sample.wall_s, traced.sample.wall_s);
    println!(
        "  bench.trace_overhead_frac = traced {:.4} s / untraced {:.4} s - 1",
        traced.sample.wall_s, plain.sample.wall_s
    );
    let (metrics, absent) = workload::layer_metrics(w, &layer);
    if !absent.is_empty() {
        println!(
            "  reported as 0 on {} because that layer does no work in this workload's timed part: {}",
            w.name(),
            absent.join(", ")
        );
    }
    for (def, v) in &metrics {
        println!("  {:<40} {:>16.4} {}", def.name, v, def.unit);
    }
    let failed = [&plain, &traced].iter().filter(|r| !r.ok).count();
    result_line(failed == 0, 2, failed, &metrics)
}
