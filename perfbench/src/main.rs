//! End-to-end benchmark of the private social recommender.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lj-private|lj-lenient|wiki-churn|frontier-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`;
//! every output is checked (see `reference.rs` and `frontier.rs`). The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it is the digest of the drain-phase (or sweep) outcomes, which must
//! be identical across runs of one commit with one seed. The process
//! exits 1 when any check failed and 2 when the run could not complete.
//! Scratch files live under `.bench_tmp/` and are removed at exit; the
//! traced run writes its spans to `.bench_out/`.

mod frontier;
mod inputs;
mod reference;
mod report;
mod serving;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Metrics;

/// The workloads. `BENCHMARK.json` lists all but `lj-lenient` (see the
/// README's Steadiness section).
const WORKLOADS: &[&str] = &["lj-private", "lj-lenient", "wiki-churn", "frontier-sweep"];

/// End-to-end metrics (`--trace 0`), reported by every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("accuracy_mean", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload does not exercise
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("privacy.zero_class_resolve_us", "us"),
    ("privacy.zero_class_slot_frac", "ratio"),
    ("privacy.zero_class_share", "ratio"),
    ("privacy.topk_us", "us"),
    ("utility.target_state_us", "us"),
    ("utility.nonzero_per_target", "count"),
    ("graph.decode_cache.hit_ratio", "ratio"),
    ("graph.decode_cache.bytes", "bytes"),
    ("ledger.fsync_us_p50", "us"),
    ("ledger.fsync_us_p99", "us"),
    ("epoch.apply_ms_p50", "ms"),
    ("epoch.apply_ms_p99", "ms"),
    ("epoch.dirty_targets_mean", "count"),
    ("epoch.invalidated_total", "count"),
    ("epoch.compactions", "count"),
    ("serving.serve_batch_ms_p50", "ms"),
    ("serving.serve_batch_ms_p99", "ms"),
    ("serving.rejected_budget", "count"),
    ("daemon.queue_depth_max", "count"),
    ("daemon.batch_latency_p50_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.snapshot_bytes", "bytes"),
    ("frontier.cell_ms_p50", "ms"),
    ("frontier.cell_ms_max", "ms"),
    ("frontier.journal_fsync_us_p50", "us"),
    ("frontier.cells_per_s", "1/s"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.slo_miss_frac", "ratio"),
    ("host.cpu_steal_frac", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// What one workload run produced.
pub struct RunResult {
    /// Operations attempted (requests, or sweep cells).
    pub attempted: u64,
    /// Check violations; each counts as one failed operation.
    pub failed: u64,
    /// The first few violations.
    pub messages: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Digest of the drain-phase (or sweep) outcomes.
    pub digest: Option<String>,
    /// The traced run's spans.
    pub spans: Vec<spans::Span>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload
            .filter(|w| WORKLOADS.contains(&w.as_str()))
            .ok_or_else(|| format!("--workload must be one of {WORKLOADS:?}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A scratch directory removed when dropped, with its parent when that
/// is left empty.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// (steal, total) CPU ticks of the host so far, from `/proc/stat`: the
/// share of time the hypervisor gave this machine's CPUs to others.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn run(args: &Args, work: &Path) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "frontier-sweep" => frontier::run(args.seed, args.seconds, args.trace, work),
        name => {
            let spec = serving::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
            serving::run(name, &spec, args.seed, args.seconds, args.trace, work)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // A fixed path per workload: the frontier report names its snapshot
    // by path, and the outcome digest must repeat across runs.
    let work = PathBuf::from(".bench_tmp").join(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let scratch = Scratch(work);
    let steal_before = cpu_steal();
    let result = run(&args, &scratch.0);
    let steal = cpu_steal()
        .zip(steal_before)
        .map(|((s1, t1), (s0, t0))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    drop(scratch);
    let mut result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };

    if let Some(steal) = steal {
        result.metrics.set("host.cpu_steal_frac", steal, "ratio");
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Metrics::default();
    for &(name, unit) in expected {
        match result.metrics.take(name) {
            Some(value) => metrics.set(name, value, unit),
            None if args.trace => metrics.set(name, 0.0, unit),
            None => {
                eprintln!("error: {}: metric {name} was not measured", args.workload);
                return ExitCode::from(2);
            }
        }
    }
    let non_finite = metrics.non_finite();
    if !non_finite.is_empty() {
        eprintln!("error: {}: non-finite metrics {non_finite:?}", args.workload);
        return ExitCode::from(2);
    }
    if args.trace && !result.spans.is_empty() {
        let dir = Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| spans::write_jsonl(&path, &result.spans));
        match written {
            Ok(()) => eprintln!(
                "[{}] {} spans written to {}",
                args.workload,
                result.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    for message in &result.messages {
        eprintln!("check failed: {message}");
    }
    if let Some(digest) = &result.digest {
        println!("outcome_digest {digest}");
    }
    println!("{}", metrics.result_line(result.attempted, result.failed));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
