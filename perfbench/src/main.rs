//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <roads_adhoc|hotspot_ingest|wire_alerts|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds its inputs from `--seed`, sets up several independent
//! streams of the workload (reporting the median set-up as `setup_s`),
//! measures them for at least `--seconds` seconds and until every timed
//! quantity has enough samples for its p90, checks every answer, and
//! prints one line per
//! metric, a JSON header line, and last the result line: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a separate traced run. See `perfbench/README.md`.

mod calib;
mod hotspot;
mod roads;
mod stats;
mod trace;
mod wire;

use stats::{Report, Samples};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The end-to-end metrics of the result line (`--trace 0`). A result
/// line carries the same metrics on every workload, and each must be
/// non-zero, so the metrics of a single workload (`pa_*`,
/// `replica_sync_p50_ms`, `wal_bytes_per_update`) and `error_rate`
/// (0 on a passing run; failures show in `failed`) are printed but not
/// listed here. So is `peak_rss_mb`, which follows a run's single
/// largest allocation and spread up to 21 % across seeds.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "query_p50_ms",
    "query_p90_ms",
    "query_qps",
    "tick_p50_ms",
    "tick_p90_ms",
];

/// The per-layer metrics of the result line (`--trace 1`); every
/// workload measures each of them. Workload-specific layers (PA, shard,
/// WAL, replica, subscriptions, wire) are printed but not in this list,
/// and so are `storage.misses_per_query`, `exec.steals` and
/// `exec.inline_tasks`, which read 0 on every workload on a 2-core host
/// (the buffer pool holds each tree; one pool worker has no one to steal
/// from).
const PER_LAYER: [&str; 20] = [
    "histogram.prefix_sums_us",
    "histogram.apply_us",
    "filter.classify_us",
    "filter.candidate_cells",
    "filter.candidate_ratio",
    "filter.refine_yield",
    "tprtree.range_us",
    "tprtree.hits_per_range",
    "tprtree.reads_per_range",
    "tprtree.update_us",
    "sweep.refine_us",
    "sweep.rects_per_cell",
    "geometry.canonicalize_us",
    "geometry.rects_in",
    "geometry.rects_out",
    "fr.query_us",
    "fr.unattributed_us",
    "exec.tasks",
    "exec.parked_us",
    "trace.overhead_pct",
];

const WORKLOADS: [&str; 3] = ["roads_adhoc", "hotspot_ingest", "wire_alerts"];

/// Seeds 1–10 tuned this benchmark; later claims must also hold on
/// this one.
const HELD_OUT_SEED: u64 = 9001;

/// Every timed quantity gets at least this many samples, so its p90 has
/// ten beyond it.
pub const MIN_SAMPLES: usize = 100;

/// A run that cannot collect [`MIN_SAMPLES`] by then gives up.
pub const HARD_CAP: Duration = Duration::from_secs(150);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25),
        trace: trace.unwrap_or(false),
    })
}

/// Records the median of `times` (seconds) as `setup_s`.
pub fn record_setup(r: &mut Report, mut times: Vec<f64>) {
    times.sort_by(f64::total_cmp);
    r.mean("setup_s", times[times.len() / 2], "s", times.len());
}

/// The seed of sub-stream `j` in a run with `seed`; disjoint across
/// seeds for the first 2²⁰ sub-streams.
pub fn stream_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(j as u64)
}

/// One measured phase: part `j` of `parts` of the run's `--seconds`,
/// lasting until its share of the time has passed and every listed
/// sample set holds its share of [`MIN_SAMPLES`] (counted cumulatively
/// over the parts).
pub struct Phase {
    start: Instant,
    seconds: Duration,
    min_samples: usize,
    run_start: Instant,
}

impl Phase {
    pub fn part(args: &Args, j: usize, parts: usize, run_start: Instant) -> Phase {
        Phase {
            start: Instant::now(),
            seconds: Duration::from_secs(args.seconds) / parts as u32,
            min_samples: (MIN_SAMPLES * (j + 1)).div_ceil(parts),
            run_start,
        }
    }

    /// Whether any of `samples` lacks its share of [`MIN_SAMPLES`].
    pub fn short(&self, samples: &[&Samples]) -> bool {
        samples.iter().any(|s| s.len() < self.min_samples)
    }

    pub fn running(&self, samples: &[&Samples]) -> Result<bool, String> {
        let short = self.short(samples);
        if short && self.run_start.elapsed() > HARD_CAP {
            return Err(format!(
                "fewer than {MIN_SAMPLES} samples after {} s",
                HARD_CAP.as_secs()
            ));
        }
        Ok(short || self.start.elapsed() < self.seconds)
    }

    /// Time since the run's first phase began.
    pub fn run_elapsed(&self) -> Duration {
        self.run_start.elapsed()
    }
}

/// Executor counter deltas since `before`.
pub fn exec_deltas(r: &mut Report, before: &pdr_core::ObsReport) {
    let after = pdr_core::Executor::global().obs_report();
    for (key, unit) in [
        ("tasks", "count"),
        ("steals", "count"),
        ("inline_tasks", "count"),
        ("parked_us", "us"),
    ] {
        let d = after.counter(key).unwrap_or(0) - before.counter(key).unwrap_or(0);
        r.metric(&format!("exec.{key}"), d as f64, unit);
    }
}

fn git_revision() -> String {
    std::process::Command::new("git")
        // Only a `.git` in the working directory counts: never one of a
        // directory above it.
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn header(args: &Args, r: &Report) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (threads, connections) = match args.workload.as_str() {
        "wire_alerts" => (2, 2),
        _ => (1, 0),
    };
    let params: Vec<String> = r
        .params
        .iter()
        .map(|(k, v)| format!("{k:?}: {v:?}"))
        .collect();
    format!(
        "{{\"header\": {{\"workload\": {:?}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"git_revision\": {:?}, \
         \"available_parallelism\": {parallelism}, \"pool_workers\": {}, \
         \"load_threads\": {threads}, \"connections\": {connections}, \"params\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        git_revision(),
        pdr_core::Executor::global().workers(),
        params.join(", ")
    )
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// stays per workload), output passed through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_once(args: &Args, r: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "roads_adhoc" => roads::run(args, r),
        "hotspot_ingest" => hotspot::run(args, r),
        _ => wire::run(args, r),
    }
}

/// Runs the workload. A traced run first runs it untraced on the same
/// seed, so `trace.overhead_pct` compares the two `query_p50_ms`; both
/// passes' checks count.
fn run_workload(args: &Args, r: &mut Report) -> Result<(), String> {
    if !args.trace {
        return run_once(args, r);
    }
    let mut plain = Report::default();
    run_once(
        &Args {
            workload: args.workload.clone(),
            trace: false,
            ..*args
        },
        &mut plain,
    )?;
    run_once(args, r)?;
    let p50 = |rep: &Report| {
        rep.get("query_p50_ms")
            .map(|m| m.value)
            .ok_or("query_p50_ms was not measured")
    };
    let (traced, untraced) = (p50(r)?, p50(&plain)?);
    r.attempted += plain.attempted;
    r.failed += plain.failed;
    r.failures.extend(plain.failures);
    r.mean(
        "trace.overhead_pct",
        (traced / untraced - 1.0) * 100.0,
        "%",
        2,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut r = Report::default();
    if let Err(e) = run_workload(&args, &mut r) {
        for f in &r.failures {
            eprintln!("FAILED: {f}");
        }
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    r.metric("error_rate", r.error_rate(), "ratio");
    for m in &r.metrics {
        let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!("{:<28} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    for f in &r.failures {
        println!("FAILED: {f}");
    }
    println!("{}", header(&args, &r));
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match r.result_line(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    }
    if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
