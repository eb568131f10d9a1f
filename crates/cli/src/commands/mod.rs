//! Command implementations.

mod attack_cmd;
mod bounds_cmd;
mod build_snapshot_cmd;
mod claims_cmd;
mod daemon_cmd;
mod dataset_cmd;
mod figure_cmd;
mod frontier_cmd;
mod recommend_cmd;
mod serve_cmd;

use std::sync::Arc;

use psr_core::serving::{RecommendationService, ServiceConfig};
use psr_core::JournalLedger;
use psr_datasets::{livejournal_like, twitter_like, wiki_vote_like, PresetConfig};
use psr_graph::io::IdMap;
use psr_graph::{CompressedCsr, Direction, Graph, GraphBackend};
use psr_obs::{MetricsSnapshot, Telemetry};
use psr_utility::{CommonNeighbors, UtilityFunction, WeightedPaths};

use crate::args::{Command, ServingFlags};

/// Dispatches a parsed command.
pub fn run(cmd: Command) {
    match cmd {
        Command::Figure { id, opts } => figure_cmd::run(&id, &opts),
        Command::Claims { opts } => claims_cmd::run(&opts),
        Command::Bounds { topic } => bounds_cmd::run(&topic),
        Command::Dataset { name, opts } => dataset_cmd::run(&name, &opts),
        Command::Recommend { opts } => recommend_cmd::run(&opts),
        Command::Serve { opts } => serve_cmd::run(&opts),
        Command::Attack { opts } => attack_cmd::run(&opts),
        Command::Daemon { opts } => daemon_cmd::run(&opts),
        Command::BuildSnapshot { opts } => build_snapshot_cmd::run(&opts),
        Command::Frontier { opts } => frontier_cmd::run(&opts),
    }
}

/// Loads the graph a serving command works on: a SNAP edge list when
/// `input` is given (with the file's original node labels as an
/// [`IdMap`]), a generated preset otherwise (compact ids are the only
/// labels, so no map). Shared by `recommend`, `serve` and `attack`.
pub(crate) fn load_serving_graph(
    input: Option<&str>,
    directed: bool,
    preset: &str,
    scale: f64,
    seed: u64,
) -> (Graph, Option<IdMap>) {
    if let Some(path) = input {
        let direction = if directed { Direction::Directed } else { Direction::Undirected };
        let (graph, ids) = psr_datasets::load_snap(std::path::Path::new(path), direction)
            .unwrap_or_else(|e| panic!("loading {path}: {e}"));
        return (graph, Some(ids));
    }
    let preset_config = PresetConfig::scaled(scale, seed);
    let graph = match preset {
        "wiki" => wiki_vote_like(preset_config).expect("generation").0,
        "twitter" => twitter_like(preset_config).expect("generation").0,
        "livejournal" => livejournal_like(preset_config).expect("generation").0,
        other => unreachable!("arg parser admits only known presets, got {other}"),
    };
    (graph, None)
}

/// Loads the graph *backing* a serving command works through:
///
/// * `--snapshot path` — mmap the PSRZ snapshot directly (zero copies of
///   the adjacency data; decode-on-demand),
/// * `--backend compressed` — load/generate the graph as usual, then
///   round-trip it through the PSRZ codec in RAM (exercises the exact
///   compressed read path without touching disk),
/// * `--backend csr` — the plain in-RAM CSR, as before.
///
/// Shared by `serve`, `daemon` and `attack`, so every serving surface is
/// backing-oblivious in the same way.
pub(crate) fn load_serving_backend(
    input: Option<&str>,
    directed: bool,
    preset: &str,
    scale: f64,
    seed: u64,
    backend: &str,
    snapshot: Option<&str>,
) -> (GraphBackend, Option<IdMap>) {
    if let Some(path) = snapshot {
        let compressed = match CompressedCsr::open_path(std::path::Path::new(path)) {
            Ok(compressed) => compressed,
            Err(e) => {
                eprintln!("error: opening snapshot {path}: {e}");
                std::process::exit(1);
            }
        };
        return (GraphBackend::Compressed(Arc::new(compressed)), None);
    }
    let (graph, ids) = load_serving_graph(input, directed, preset, scale, seed);
    let backend = match backend {
        "csr" => GraphBackend::from(graph),
        "compressed" => {
            let bytes = CompressedCsr::encode(&graph, 1);
            let compressed = CompressedCsr::open_bytes(bytes)
                .expect("a freshly encoded snapshot always validates");
            GraphBackend::Compressed(Arc::new(compressed))
        }
        other => unreachable!("arg parser admits only known backends, got {other}"),
    };
    (backend, ids)
}

/// Builds the service `serve` and `daemon` run from their shared flags:
/// the selected backing and utility, the telemetry bundle
/// `--metrics-out`/`--trace` ask for, and a budget ledger — journalled at
/// `journal` (replaying earlier spend) or volatile when `None`. Returns
/// the service and its utility's name.
pub(crate) fn build_service(
    flags: &ServingFlags,
    journal: Option<&str>,
) -> (RecommendationService, String) {
    let (backend, _ids) = load_serving_backend(
        flags.input.as_deref(),
        flags.directed,
        &flags.preset,
        flags.scale,
        flags.seed,
        &flags.backend,
        flags.snapshot.as_deref(),
    );
    let utility: Box<dyn UtilityFunction> = match flags.utility.as_str() {
        "common-neighbors" => Box::new(CommonNeighbors),
        "weighted-paths" => Box::new(WeightedPaths::paper(flags.gamma)),
        other => unreachable!("arg parser admits only known utilities, got {other}"),
    };
    let utility_name = utility.name();
    let config = ServiceConfig {
        epsilon_per_request: flags.epsilon,
        budget_per_target: flags.budget,
        threads: flags.threads,
        ..Default::default()
    };
    let mut service = match journal {
        Some(path) => {
            let ledger = JournalLedger::open(path, flags.budget)
                .unwrap_or_else(|e| panic!("opening budget ledger {path}: {e}"));
            RecommendationService::with_backend_and_ledger(
                backend,
                utility,
                config,
                Box::new(ledger),
            )
        }
        None => RecommendationService::with_backend(backend, utility, config),
    };
    service.set_telemetry(build_telemetry(flags.metrics_out.as_deref(), flags.trace.as_deref()));
    (service, utility_name)
}

/// Builds a command's telemetry bundle: live when `--metrics-out` or
/// `--trace` was given, disabled (every handle a no-op) otherwise.
/// Shared by `serve`, `daemon` and `frontier`.
pub(crate) fn build_telemetry(metrics_out: Option<&str>, trace: Option<&str>) -> Arc<Telemetry> {
    if metrics_out.is_some() || trace.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Writes the metrics snapshot and/or trace JSONL the user asked for and
/// returns the snapshot so the command's JSON report can embed it.
/// Returns `None` (and writes nothing) when telemetry was never enabled.
pub(crate) fn finish_telemetry(
    telemetry: &Telemetry,
    metrics_out: Option<&str>,
    trace: Option<&str>,
) -> Option<MetricsSnapshot> {
    if !telemetry.is_enabled() {
        return None;
    }
    let snapshot = telemetry.metrics().snapshot();
    if let Some(path) = metrics_out {
        let json = serde_json::to_string_pretty(&snapshot).expect("serialisable") + "\n";
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    if let Some(path) = trace {
        std::fs::write(path, telemetry.trace().to_jsonl())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    Some(snapshot)
}

/// Renders a compact node id under an optional [`IdMap`]: the original
/// label when the graph came from a file, the compact id itself
/// otherwise.
pub(crate) fn original_label(ids: Option<&IdMap>, node: psr_graph::NodeId) -> u64 {
    ids.map_or(node as u64, |m| m.original(node))
}
