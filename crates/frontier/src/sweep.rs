//! The sweep scheduler: expand, fan out, checkpoint, resume.
//!
//! [`run_sweep`] expands a validated plan into its cells, subtracts the
//! cells already replayed from the results journal, and fans the rest
//! across a worker pool. Determinism is structural, not accidental:
//! each cell derives its own seed stream from the plan seed and the cell
//! *index* and runs its scenario single-threaded, so the worker count
//! only changes wall-clock time — never a byte of any result. Completed
//! cells are journalled (with an `fsync`) the moment they finish, which
//! makes a kill at any point resumable: the next invocation recomputes
//! only what never hit the journal, and the assembled report is
//! bit-identical to an uninterrupted run because cells are ordered by
//! index, not by completion time.
//!
//! A cell runs in two steps: resolve its [`AttackTarget`] (the secret
//! edge or rewired node plus observers), then run the scenario on it.
//! The target depends only on the (dataset, utility, adjacency), and on
//! a preset graph its search can take longer than the cell it serves.
//! So each invocation resolves every target some *pending* cell needs
//! exactly once, and only those: a resume whose edge cells are all
//! journalled never searches for an edge. The resolves are the first
//! items on the workers' shared counter, ahead of the cells, so one
//! worker searches while the others run cells of targets already
//! settled; a cell whose target is still being resolved waits on its
//! [`OnceLock`]. The targets are the ones [`crate::run_cell`] would
//! resolve per cell, so the results are the same bytes either way.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use psr_datasets::{livejournal_like, twitter_like, wiki_vote_like, PresetConfig};
use psr_graph::{CompressedCsr, Direction, Graph};
use psr_obs::{fields, Telemetry};

use crate::cell::{resolve_target, run_cell_on, AttackTarget, CellResult, CellSpec};
use crate::journal::ResultsJournal;
use crate::plan::{DatasetSpec, ExperimentPlan};

/// Knobs of one sweep invocation (everything else lives in the plan).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` = available parallelism. Any value produces
    /// the same results.
    pub threads: Option<usize>,
    /// Journal path for checkpoint/resume; `None` computes everything in
    /// memory (no resume).
    pub journal: Option<PathBuf>,
    /// Stop after computing this many *new* cells (already-journalled
    /// cells don't count). The sweep reports itself incomplete; invoking
    /// it again continues from the journal. This is how the CI smoke and
    /// the kill/resume tests exercise resumption deterministically.
    pub max_cells: Option<usize>,
    /// Telemetry sink for per-cell trace events, resume counters and the
    /// journal fsync histogram; `None` = disabled. Purely observational:
    /// results are bit-identical either way.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Stderr progress-line period (cells done, ETA); `None` = silent.
    /// Operational output only, never part of any result.
    pub heartbeat: Option<Duration>,
}

/// What one invocation of [`run_sweep`] did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The plan's fingerprint (journal identity).
    pub fingerprint: u64,
    /// Every measured cell so far, sorted by index.
    pub results: Vec<CellResult>,
    /// Cells the grid expands to.
    pub total: usize,
    /// Cells computed by *this* invocation.
    pub computed: usize,
    /// Cells replayed from the journal instead of recomputed.
    pub resumed: usize,
    /// Whether every cell of the grid is now measured.
    pub complete: bool,
}

/// Loads the graph one dataset axis serves. `karate` comes from the toy
/// module; presets are generated at the plan seed; a snapshot is opened
/// and materialised; the `compressed` backend round-trips the graph
/// through the PSRZ codec (the attack harness mutates per-trial world
/// copies, so it needs a concrete [`Graph`] — the round trip proves the
/// attack surface is identical across backings).
fn load_dataset(spec: &DatasetSpec, seed: u64) -> Result<Graph, String> {
    if let Some(path) = &spec.snapshot {
        let compressed = CompressedCsr::open_path(std::path::Path::new(path))
            .map_err(|e| format!("opening snapshot {path}: {e}"))?;
        return Ok(compressed.to_graph());
    }
    let graph = if let Some(path) = &spec.input {
        let direction = if spec.directed { Direction::Directed } else { Direction::Undirected };
        psr_datasets::load_snap(std::path::Path::new(path), direction)
            .map_err(|e| format!("loading {path}: {e}"))?
            .0
    } else if spec.preset == "karate" {
        psr_datasets::toy::karate_club()
    } else {
        let config = PresetConfig::scaled(spec.scale, seed);
        match spec.preset.as_str() {
            "wiki" => wiki_vote_like(config).map_err(|e| e.to_string())?.0,
            "twitter" => twitter_like(config).map_err(|e| e.to_string())?.0,
            "livejournal" => livejournal_like(config).map_err(|e| e.to_string())?.0,
            other => unreachable!("validated plans admit only known presets, got {other}"),
        }
    };
    if spec.backend == "compressed" {
        let bytes = CompressedCsr::encode(&graph, 1);
        return Ok(CompressedCsr::open_bytes(bytes)
            .map_err(|e| format!("round-tripping {}: {e}", spec.label()))?
            .to_graph());
    }
    Ok(graph)
}

/// Runs (or resumes) the sweep a plan declares. See the [module
/// docs](self) for the determinism and resume contracts.
pub fn run_sweep(plan: &ExperimentPlan, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    plan.validate()?;
    let cells = plan.expand();
    let fingerprint = plan.fingerprint();
    let total = cells.len();
    let telemetry = opts.telemetry.clone().unwrap_or_else(Telemetry::disabled);

    // Resume: everything already in the journal is settled.
    let (mut journal, replayed) = match &opts.journal {
        Some(path) => {
            let (mut journal, replayed) = ResultsJournal::open(path, fingerprint, total)
                .map_err(|e| format!("opening journal: {e}"))?;
            journal.instrument(telemetry.metrics().histogram("frontier.journal.fsync_ns"));
            (Some(journal), replayed)
        }
        None => (None, Vec::new()),
    };
    let resumed = replayed.len();
    if telemetry.is_enabled() {
        telemetry.metrics().counter("frontier.cells_total").add(total as u64);
        telemetry.metrics().counter("frontier.cells_resumed").add(resumed as u64);
        let trace = telemetry.trace();
        if trace.is_enabled() {
            for cell in &replayed {
                trace.event("frontier.cell.resume", fields!["index" => cell.spec.index]);
            }
        }
    }
    let mut done: Vec<Option<CellResult>> = vec![None; total];
    for cell in replayed {
        let index = cell.spec.index;
        done[index] = Some(cell);
    }

    let mut pending: Vec<&CellSpec> = cells.iter().filter(|c| done[c.index].is_none()).collect();
    if let Some(cap) = opts.max_cells {
        pending.truncate(cap);
    }

    // Load each needed dataset axis exactly once, shared across workers.
    let mut graphs: Vec<Option<Arc<Graph>>> = vec![None; plan.datasets.len()];
    for cell in &pending {
        if graphs[cell.dataset].is_none() {
            graphs[cell.dataset] =
                Some(Arc::new(load_dataset(&plan.datasets[cell.dataset], plan.seed)?));
        }
    }

    // One attack target per (dataset, utility, adjacency) a pending cell
    // needs, each resolved by the first pending cell that names it.
    let mut resolvers: Vec<&CellSpec> = Vec::new();
    let target_of: Vec<usize> = pending
        .iter()
        .map(|&cell| {
            let key = (cell.dataset, &cell.utility, &cell.adjacency);
            resolvers
                .iter()
                .position(|r| (r.dataset, &r.utility, &r.adjacency) == key)
                .unwrap_or_else(|| {
                    resolvers.push(cell);
                    resolvers.len() - 1
                })
        })
        .collect();
    let targets: Vec<OnceLock<Option<AttackTarget>>> =
        resolvers.iter().map(|_| OnceLock::new()).collect();

    // Fan out: workers pull work off a shared counter, the target
    // resolves first and then the cells, so one worker searches while
    // the others run cells that do not wait on its target. Each finished
    // cell is journalled under the lock before being recorded. Slots are
    // preassigned by index, so completion order is irrelevant.
    let threads = opts
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
        .max(1)
        .min(pending.len().max(1));
    let next = AtomicUsize::new(0);
    let sink: Mutex<(Option<&mut ResultsJournal>, Vec<Option<CellResult>>)> =
        Mutex::new((journal.as_mut(), vec![None; pending.len()]));
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    // Heartbeat progress counters: operational only, never results.
    let completed = AtomicUsize::new(0);
    let finished_workers = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (telemetry, completed, finished_workers) =
                (&telemetry, &completed, &finished_workers);
            let (next, sink, errors, pending, graphs) = (&next, &sink, &errors, &pending, &graphs);
            let (resolvers, targets, target_of) = (&resolvers, &targets, &target_of);
            // Blocks while another worker resolves the same target.
            let target = move |t: usize| {
                targets[t].get_or_init(|| {
                    if telemetry.is_enabled() {
                        telemetry.metrics().counter("frontier.targets_resolved").inc();
                    }
                    let spec = resolvers[t];
                    let graph = graphs[spec.dataset].as_ref().expect("dataset preloaded");
                    resolve_target(plan, spec, graph)
                })
            };
            scope.spawn(move || {
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot < resolvers.len() {
                        target(slot);
                        continue;
                    }
                    let slot = slot - resolvers.len();
                    let Some(spec) = pending.get(slot) else { break };
                    let graph = graphs[spec.dataset].as_ref().expect("dataset preloaded");
                    let target = target(target_of[slot]).as_ref();
                    let trace = telemetry.trace();
                    if trace.is_enabled() {
                        trace.event("frontier.cell.start", fields!["index" => spec.index]);
                    }
                    match run_cell_on(plan, spec, graph, target) {
                        Ok(cell) => {
                            let mut sink = sink.lock().expect("sweep sink");
                            if let Some(journal) = sink.0.as_mut() {
                                if let Err(e) = journal.append(&cell) {
                                    errors
                                        .lock()
                                        .expect("sweep errors")
                                        .push(format!("journalling cell {}: {e}", cell.spec.index));
                                    break;
                                }
                            }
                            sink.1[slot] = Some(cell);
                            drop(sink);
                            if trace.is_enabled() {
                                trace.event("frontier.cell.finish", fields!["index" => spec.index]);
                            }
                            telemetry.metrics().counter("frontier.cells_computed").inc();
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            errors.lock().expect("sweep errors").push(e);
                            break;
                        }
                    }
                }
                // Signals the heartbeat monitor; every exit path counts.
                finished_workers.fetch_add(1, Ordering::Relaxed);
            });
        }

        if let Some(period) = opts.heartbeat {
            let (completed, finished_workers) = (&completed, &finished_workers);
            let (new_cells, already, grand_total) = (pending.len(), resumed, total);
            scope.spawn(move || {
                let mut next_report = period;
                loop {
                    std::thread::sleep(Duration::from_millis(25));
                    if finished_workers.load(Ordering::Relaxed) >= threads {
                        break;
                    }
                    let elapsed = start.elapsed();
                    if elapsed < next_report {
                        continue;
                    }
                    next_report += period;
                    let done = completed.load(Ordering::Relaxed);
                    let eta = if done == 0 {
                        "?".to_owned()
                    } else {
                        let remaining = (new_cells - done) as f64 / done as f64;
                        format!("{:.0}", elapsed.as_secs_f64() * remaining)
                    };
                    eprintln!(
                        "[psr frontier] t+{:.0}s: {}/{grand_total} cells measured \
                         ({done}/{new_cells} this run), ETA {eta}s",
                        elapsed.as_secs_f64(),
                        already + done,
                    );
                }
            });
        }
    });
    if let Some(error) = errors.into_inner().expect("sweep errors").into_iter().next() {
        return Err(error);
    }

    let computed_cells = sink.into_inner().expect("sweep sink").1;
    let computed = computed_cells.len();
    for cell in computed_cells.into_iter().flatten() {
        let index = cell.spec.index;
        done[index] = Some(cell);
    }

    let results: Vec<CellResult> = done.into_iter().flatten().collect();
    let complete = results.len() == total;
    Ok(SweepOutcome { fingerprint, results, total, computed, resumed, complete })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::run_cell;
    use std::sync::atomic::AtomicU64;

    fn scratch_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("psr-sweep-{tag}-{}-{n}.journal", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn sweep_measures_every_cell_in_index_order() {
        let plan = ExperimentPlan::toy();
        let outcome = run_sweep(&plan, &SweepOptions::default()).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.total, plan.expand().len());
        assert_eq!(outcome.computed, outcome.total);
        assert_eq!(outcome.resumed, 0);
        let indices: Vec<usize> = outcome.results.iter().map(|c| c.spec.index).collect();
        assert_eq!(indices, (0..outcome.total).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let plan = ExperimentPlan::toy();
        let one =
            run_sweep(&plan, &SweepOptions { threads: Some(1), ..Default::default() }).unwrap();
        let four =
            run_sweep(&plan, &SweepOptions { threads: Some(4), ..Default::default() }).unwrap();
        assert_eq!(one.results, four.results);
    }

    #[test]
    fn killed_sweep_resumes_from_the_journal() {
        let plan = ExperimentPlan::toy();
        let path = scratch_path("resume");
        let _cleanup = Cleanup(path.clone());
        let uninterrupted = run_sweep(&plan, &SweepOptions::default()).unwrap();

        // "Kill" after two cells, then resume.
        let first = run_sweep(
            &plan,
            &SweepOptions {
                threads: Some(2),
                journal: Some(path.clone()),
                max_cells: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!first.complete);
        assert_eq!(first.computed, 2);
        let second = run_sweep(
            &plan,
            &SweepOptions {
                threads: Some(3),
                journal: Some(path.clone()),
                max_cells: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(second.complete);
        assert_eq!(second.resumed, 2, "journalled cells are not recomputed");
        assert_eq!(second.results, uninterrupted.results, "resume is bit-identical");

        // A third run replays everything and computes nothing.
        let third =
            run_sweep(&plan, &SweepOptions { journal: Some(path), ..Default::default() }).unwrap();
        assert_eq!(third.computed, 0);
        assert_eq!(third.resumed, third.total);
        assert_eq!(third.results, uninterrupted.results);
    }

    /// The toy plan over both utilities and both adjacencies: four
    /// attack targets on one dataset, three cells each.
    fn two_adjacency_plan() -> ExperimentPlan {
        ExperimentPlan {
            utilities: vec!["common-neighbors".to_owned(), "weighted-paths".to_owned()],
            adjacencies: vec!["edge".to_owned(), "node".to_owned()],
            ..ExperimentPlan::toy()
        }
    }

    fn targets_resolved(telemetry: &Telemetry) -> u64 {
        telemetry.metrics().counter("frontier.targets_resolved").get()
    }

    #[test]
    fn each_target_is_resolved_once_per_sweep() {
        let plan = two_adjacency_plan();
        let telemetry = Telemetry::enabled();
        let opts = SweepOptions {
            threads: Some(2),
            telemetry: Some(telemetry.clone()),
            ..Default::default()
        };
        let outcome = run_sweep(&plan, &opts).unwrap();
        assert!(outcome.complete);
        let mut keys: Vec<_> =
            plan.expand().into_iter().map(|c| (c.dataset, c.utility, c.adjacency)).collect();
        keys.dedup();
        assert_eq!(keys.len(), 4);
        assert_eq!(targets_resolved(&telemetry), keys.len() as u64);
    }

    #[test]
    fn resumed_sweep_resolves_only_the_targets_pending_cells_need() {
        let plan = ExperimentPlan {
            adjacencies: vec!["edge".to_owned(), "node".to_owned()],
            ..ExperimentPlan::toy()
        };
        let edge_cells = plan.expand().iter().filter(|c| c.adjacency == "edge").count();
        let path = scratch_path("targets");
        let _cleanup = Cleanup(path.clone());
        let run = |max_cells| {
            let telemetry = Telemetry::enabled();
            let opts = SweepOptions {
                threads: Some(2),
                journal: Some(path.clone()),
                max_cells,
                telemetry: Some(telemetry.clone()),
                ..Default::default()
            };
            (run_sweep(&plan, &opts).unwrap(), targets_resolved(&telemetry))
        };

        // Expansion puts every edge cell first: the "killed" run journals
        // exactly them and resolves only the edge target.
        let (first, resolved) = run(Some(edge_cells));
        assert_eq!(first.computed, edge_cells);
        assert!(first.results.iter().all(|c| c.spec.adjacency == "edge"));
        assert_eq!(resolved, 1);

        // The resume has only node cells pending: no edge search.
        let (second, resolved) = run(None);
        assert!(second.complete);
        assert_eq!(second.resumed, edge_cells);
        assert_eq!(resolved, 1, "only the node target is resolved");

        // Nothing pending, nothing resolved.
        let (third, resolved) = run(None);
        assert_eq!(third.computed, 0);
        assert_eq!(resolved, 0);
    }

    #[test]
    fn shared_targets_give_the_per_cell_results_at_any_worker_count() {
        let plan = two_adjacency_plan();
        let graph = Arc::new(load_dataset(&plan.datasets[0], plan.seed).unwrap());
        let per_cell: Vec<CellResult> =
            plan.expand().iter().map(|spec| run_cell(&plan, spec, &graph).unwrap()).collect();
        for threads in [1, 2, 4] {
            let opts = SweepOptions { threads: Some(threads), ..Default::default() };
            let outcome = run_sweep(&plan, &opts).unwrap();
            assert_eq!(outcome.results, per_cell, "{threads} workers");
        }
    }

    #[test]
    fn a_dataset_without_a_secret_edge_fails_each_cell_as_before() {
        // K4 has no absent pair at all, so neither the leaking search nor
        // the structural default finds a secret edge.
        let path = scratch_path("k4");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n").unwrap();
        let plan = ExperimentPlan {
            datasets: vec![DatasetSpec {
                input: Some(path.to_string_lossy().into_owned()),
                ..DatasetSpec::karate()
            }],
            ..ExperimentPlan::toy()
        };
        let label = plan.datasets[0].label();
        let err =
            run_sweep(&plan, &SweepOptions { threads: Some(1), ..Default::default() }).unwrap_err();
        assert_eq!(err, format!("cell 0: no suitable secret edge on {label}"));
        let graph = Arc::new(load_dataset(&plan.datasets[0], plan.seed).unwrap());
        for spec in plan.expand() {
            let direct = run_cell(&plan, &spec, &graph).unwrap_err();
            assert_eq!(direct, format!("cell {}: no suitable secret edge on {label}", spec.index));
        }
    }

    #[test]
    fn invalid_plan_is_rejected_before_any_work() {
        let mut plan = ExperimentPlan::toy();
        plan.epsilons.clear();
        assert!(run_sweep(&plan, &SweepOptions::default()).is_err());
    }
}
