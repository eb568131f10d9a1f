//! The `frontier-sweep` workload: the researcher's path to Figures 1–3.
//!
//! A journalled `run_sweep` over karate and wiki-like (scale 0.1) ×
//! exponential and laplace × edge and node adjacency × ε ∈ {0.5, 1, 2}
//! with the gumbel engine: 24 cells, each running many small services
//! and short batches (exponential) or psr-attack's own Laplace sampling.
//!
//! Smoothing is left out because of a known defect: `ExperimentPlan::
//! validate` requires `smoothing_x > 1` while `TwoWorldEngine::new`
//! asserts `x ∈ [0, 1)`, so a smoothing cell either fails validation or
//! panics in a worker. Add `"smoothing"` to the mechanism axis once the
//! two checks agree.
//!
//! For this workload the unit of work is the cell: `throughput_rps` is
//! the median over sweeps of cells per second, and the traced run's
//! latency metrics are the time from sweep start until each cell's
//! result is durable in the journal (watched from outside by polling the
//! journal file).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use psr_datasets::{toy::karate_club, wiki_vote_like, PresetConfig};
use psr_frontier::{
    run_cell, run_sweep, CellResult, DatasetSpec, ExperimentPlan, FrontierReport, SweepOptions,
};
use psr_graph::{CompressedCsr, Graph};
use psr_obs::Telemetry;

use crate::report::{mean, median, peak_rss_mb, quantile, Fnv, Metrics};
use crate::serving::DATASET_SEED;
use crate::spans::{Span, SpanBuf};
use crate::RunResult;

/// Sweep worker threads.
const THREADS: usize = 2;
/// Set-ups before each sweep pass after the first of an untraced run;
/// `setup_s` is the median of these and the first set-up.
const SETUPS_PER_PASS: usize = 6;
/// Fewest whole sweeps per run.
const MIN_PASSES: usize = 3;

/// Writes the wiki-like snapshot and returns the plan that sweeps it.
/// The datasets are fixed; `--seed` is the plan seed every cell's
/// Monte-Carlo trials derive their randomness from.
fn set_up(seed: u64, work: &Path) -> Result<ExperimentPlan, String> {
    let (wiki, _) =
        wiki_vote_like(PresetConfig::scaled(0.1, DATASET_SEED)).map_err(|e| e.to_string())?;
    let snapshot = work.join("wiki.psrz");
    // Each set-up writes a new file rather than truncating the last one,
    // whose cost varies with the filesystem's state.
    let _ = std::fs::remove_file(&snapshot);
    CompressedCsr::write_snapshot(&wiki, 1, &snapshot).map_err(|e| e.to_string())?;
    let plan = ExperimentPlan {
        name: "perfbench-frontier".to_owned(),
        seed,
        datasets: vec![
            DatasetSpec::karate(),
            DatasetSpec {
                preset: "wiki".to_owned(),
                input: None,
                directed: false,
                scale: 0.1,
                backend: "compressed".to_owned(),
                snapshot: Some(snapshot.to_string_lossy().into_owned()),
            },
        ],
        mechanisms: vec!["exponential".to_owned(), "laplace".to_owned()],
        utilities: vec!["common-neighbors".to_owned()],
        adjacencies: vec!["edge".to_owned(), "node".to_owned()],
        epsilons: vec![0.5, 1.0, 2.0],
        engines: vec!["gumbel".to_owned()],
        gamma: 0.5,
        // Unused (no smoothing cell) but `validate` insists on x > 1.
        smoothing_x: 2.0,
        rounds: 2,
        k: 1,
        trials_per_world: 16,
        observer_cap: 2,
        confidence: 0.95,
    };
    plan.validate()?;
    Ok(plan)
}

/// One journalled sweep from a fresh journal, with the time each cell's
/// line became durable (seconds from the sweep's start) when it was
/// polled for.
struct Pass {
    results: Vec<CellResult>,
    complete: bool,
    total: usize,
    wall_s: f64,
    landed_s: Vec<f64>,
}

fn sweep(
    plan: &ExperimentPlan,
    journal: &Path,
    telemetry: Option<Arc<Telemetry>>,
    poll: bool,
) -> Result<Pass, String> {
    let _ = std::fs::remove_file(journal);
    let opts = SweepOptions {
        threads: Some(THREADS),
        journal: Some(journal.to_path_buf()),
        telemetry,
        ..SweepOptions::default()
    };
    let stop = AtomicBool::new(false);
    let began = Instant::now();
    let (outcome, mut landed_s) = std::thread::scope(|scope| {
        let poller = poll.then(|| {
            scope.spawn(|| {
                let mut landed = Vec::new();
                let mut seen_len = 0u64;
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let len = std::fs::metadata(journal).map_or(0, |m| m.len());
                    if len != seen_len {
                        seen_len = len;
                        let at = began.elapsed().as_secs_f64();
                        let lines = std::fs::read(journal)
                            .map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count());
                        // The first line is the header.
                        while landed.len() + 1 < lines {
                            landed.push(at);
                        }
                    }
                    if done {
                        break landed;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });
        let outcome = run_sweep(plan, &opts);
        stop.store(true, Ordering::Release);
        (outcome, poller.map_or_else(Vec::new, |p| p.join().expect("journal poller")))
    });
    let wall_s = began.elapsed().as_secs_f64();
    let outcome = outcome?;
    landed_s.truncate(outcome.results.len());
    Ok(Pass {
        complete: outcome.complete,
        total: outcome.total,
        results: outcome.results,
        wall_s,
        landed_s,
    })
}

/// Checks one pass: complete, one result per expanded cell, and every
/// cell's bounds consistent.
fn check(plan: &ExperimentPlan, pass: &Pass, messages: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    let mut violation = |m: String| {
        failed += 1;
        if messages.len() < 8 {
            messages.push(m);
        }
    };
    let expected = plan.expand().len();
    if !pass.complete || pass.total != expected || pass.results.len() != expected {
        violation(format!(
            "sweep incomplete: {} of {expected} cells (complete={})",
            pass.results.len(),
            pass.complete
        ));
    }
    for cell in &pass.results {
        let i = cell.spec.index;
        let ordered = |lo: f64, x: f64, hi: f64| lo <= x + 1e-12 && x <= hi + 1e-12;
        if let Some(acc) = cell.mean_accuracy {
            if !(0.0..=1.0).contains(&acc) {
                violation(format!("cell {i}: mean accuracy {acc} outside [0, 1]"));
            }
        }
        if let Some(iv) = &cell.accuracy_interval {
            if !(0.0 <= iv.lower && iv.lower <= iv.upper && iv.upper <= 1.0) {
                violation(format!("cell {i}: accuracy interval {iv:?} inconsistent"));
            }
        }
        // Node-adjacency cells answer to group privacy: the per-edge
        // transcript budget times the rewire size. The cell's own
        // `consistent` flag compares them with the per-edge budget.
        let node_budget = cell.node_transcript_epsilon.filter(|_| cell.spec.adjacency == "node");
        for adv in &cell.adversaries {
            let within_budget = match node_budget {
                Some(budget) => adv.empirical_epsilon_lower <= budget,
                None => adv.consistent,
            };
            if !within_budget
                || !ordered(adv.tpr_interval.lower, adv.tpr, adv.tpr_interval.upper)
                || !ordered(adv.fpr_interval.lower, adv.fpr, adv.fpr_interval.upper)
                || adv.empirical_epsilon_lower > adv.empirical_epsilon + 1e-12
            {
                let name = &adv.adversary;
                violation(format!("cell {i}: adversary {name} has inconsistent bounds: {adv:?}"));
            }
        }
    }
    failed
}

fn digest(plan: &ExperimentPlan, results: &[CellResult]) -> String {
    let report = FrontierReport::assemble(plan, plan.fingerprint(), results.to_vec());
    let mut fnv = Fnv::default();
    fnv.feed(report.to_json().as_bytes());
    format!("{:016x}", fnv.0)
}

/// Runs the `frontier-sweep` workload.
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Result<RunResult, String> {
    let began = Instant::now();
    let plan = set_up(seed, work)?;
    let mut setup_s = vec![began.elapsed().as_secs_f64()];
    // Repeated set-ups write their snapshot apart, leaving the file the
    // plan names alone.
    let repeat_dir = work.join("repeat");
    let journal = work.join("frontier.journal");
    let mut metrics = Metrics::default();
    let mut messages = Vec::new();
    let mut failed = 0;
    let mut attempted = 0u64;
    let mut spans = Vec::new();

    let first = sweep(&plan, &journal, None, traced)?;
    let reference = digest(&plan, &first.results);
    let mut passes = vec![first];
    if traced {
        let telemetry = Telemetry::enabled();
        let traced_pass = sweep(&plan, &journal, Some(Arc::clone(&telemetry)), false)?;
        let snapshot = telemetry.metrics().snapshot();
        let fsync = snapshot.histograms.iter().find(|h| h.name == "frontier.journal.fsync_ns");
        metrics.set("obs.overhead_ratio", traced_pass.wall_s / passes[0].wall_s, "ratio");
        metrics.set(
            "obs.snapshot_bytes",
            serde_json::to_string(&snapshot).map_or(0, |s| s.len()) as f64,
            "bytes",
        );
        metrics.set(
            "frontier.journal_fsync_us_p50",
            fsync.map_or(0.0, |h| h.latency.p50_ns as f64 / 1e3),
            "us",
        );
        metrics.set("frontier.cells_per_s", passes[0].total as f64 / passes[0].wall_s, "1/s");
        let landed_ms: Vec<f64> = passes[0].landed_s.iter().map(|s| s * 1e3).collect();
        metrics.set("latency_p50_ms", quantile(&landed_ms, 0.50), "ms");
        metrics.set("latency_p99_ms", quantile(&landed_ms, 0.99), "ms");
        passes.push(traced_pass);
        let (cell_spans, cell_ms) = replay_cells(&plan)?;
        metrics.set("frontier.cell_ms_p50", median(&cell_ms), "ms");
        metrics.set("frontier.cell_ms_max", cell_ms.iter().copied().fold(0.0, f64::max), "ms");
        spans = cell_spans;
    } else {
        let began = Instant::now();
        while passes.len() < MIN_PASSES
            || began.elapsed().as_secs_f64() + passes[0].wall_s < seconds
        {
            // Spread between the passes, the set-ups sample the same
            // stretch of host time as the throughput.
            std::fs::create_dir_all(&repeat_dir).map_err(|e| e.to_string())?;
            for _ in 0..SETUPS_PER_PASS {
                let start = Instant::now();
                set_up(seed, &repeat_dir)?;
                setup_s.push(start.elapsed().as_secs_f64());
            }
            passes.push(sweep(&plan, &journal, None, false)?);
        }
        let rss = peak_rss_mb();
        let cells_per_s: Vec<f64> =
            passes.iter().map(|p| p.results.len() as f64 / p.wall_s).collect();
        let accuracies: Vec<f64> =
            passes[0].results.iter().filter_map(|c| c.mean_accuracy).collect();
        metrics.set("setup_s", median(&setup_s), "s");
        metrics.set("throughput_rps", median(&cells_per_s), "1/s");
        metrics.set("accuracy_mean", mean(&accuracies), "ratio");
        metrics.set("peak_rss_mb", rss, "MiB");
    }
    for pass in &passes {
        attempted += pass.total as u64;
        failed += check(&plan, pass, &mut messages);
        if digest(&plan, &pass.results) != reference {
            failed += 1;
            messages.push("sweep results differ between passes of the same plan".to_owned());
        }
    }
    Ok(RunResult { attempted, failed, messages, metrics, digest: Some(reference), spans })
}

/// Times every cell through `run_cell` on the sweep's worker count, one
/// span per cell.
fn replay_cells(plan: &ExperimentPlan) -> Result<(Vec<Span>, Vec<f64>), String> {
    let graphs: Vec<Arc<Graph>> = plan
        .datasets
        .iter()
        .map(|d| match &d.snapshot {
            Some(path) => CompressedCsr::open_path(&PathBuf::from(path))
                .map(|c| Arc::new(c.to_graph()))
                .map_err(|e| e.to_string()),
            None => Ok(Arc::new(karate_club())),
        })
        .collect::<Result<_, _>>()?;
    let cells = plan.expand();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let epoch = Instant::now();
    let per_thread: Vec<(Vec<Span>, Vec<f64>, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cells, graphs, next) = (&cells, &graphs, &next);
                scope.spawn(move || {
                    let mut buf = SpanBuf::new(epoch, 300 + t as u64);
                    let mut ms = Vec::new();
                    let mut error = None;
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = cells.get(slot) else { break };
                        let opened = buf.open();
                        let result = run_cell(plan, spec, &graphs[spec.dataset]);
                        let ns =
                            buf.close(opened, "frontier.run_cell", None, Some(spec.index as u64));
                        ms.push(ns as f64 / 1e6);
                        if let Err(e) = result {
                            error = Some(e);
                            break;
                        }
                    }
                    (buf.spans, ms, error)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cell replay worker")).collect()
    });
    let mut spans = Vec::new();
    let mut ms = Vec::new();
    for (s, m, error) in per_thread {
        if let Some(e) = error {
            return Err(e);
        }
        spans.extend(s);
        ms.extend(m);
    }
    Ok((spans, ms))
}
