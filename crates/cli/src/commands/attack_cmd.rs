//! `psr attack` — run the empirical inference adversaries against a
//! served graph and emit a JSON report (mirroring `serve`'s report
//! style): per-adversary ROC, advantage, empirical ε with confidence,
//! and the theory overlays from `psr-bounds` — Lemma 1/Corollary 1/
//! Theorem 5 for `--adjacency edge` (Definition 1's single-edge worlds),
//! plus the Appendix-A node-privacy floors `node_privacy_eps_lower` /
//! `ln(n)/2` for `--adjacency node` (whole-neighbourhood rewires).

use std::sync::Arc;

use psr_attack::{
    default_rewire_target, node_observers, resolve_node_rewire, resolve_secret_edge, Adversary,
    AttackMechanism, AttackResult, BoundsComparison, EdgeInferenceScenario, EpochStyle,
    FrequencyBaseline, LikelihoodRatioMia, NodeEpochStyle, NodeIdentityScenario,
    NodeScenarioConfig, ReconstructionAdversary, RocPoint, ScenarioConfig,
};
use psr_graph::io::IdMap;
use psr_graph::{Graph, GraphView, NodeId};
use psr_utility::{CommonNeighbors, UtilityFunction, WeightedPaths};
use serde::Serialize;

use crate::args::AttackOptions;

/// The secret edge in the report, named both by compact id and by the
/// source file's original label (identical for generated presets).
#[derive(Debug, Serialize)]
struct SecretEdgeRecord {
    u: u32,
    v: u32,
    label_u: u64,
    label_v: u64,
}

/// The rewired node in a node-adjacency report.
#[derive(Debug, Serialize)]
struct RewiredNodeRecord {
    node: u32,
    label: u64,
    /// World 0's neighbourhood size.
    old_degree: usize,
    /// World 1's replacement neighbourhood.
    new_neighbours: Vec<u32>,
    /// Edges in which the worlds differ (`|N(v) Δ new|`).
    rewire_size: usize,
}

/// One adversary's outcome with its theory overlay.
#[derive(Debug, Serialize)]
struct AdversaryRecord {
    adversary: String,
    advantage: f64,
    advantage_threshold: f64,
    auc: f64,
    empirical_epsilon: f64,
    empirical_epsilon_lower: f64,
    confidence: f64,
    /// Lemma-1 advantage ceiling at the transcript budget (1.0 when
    /// non-private).
    advantage_ceiling: f64,
    /// Smallest ε consistent with the measured advantage.
    epsilon_floor: f64,
    mean_accuracy: Option<f64>,
    /// Corollary-1 ε floor implied by the measured accuracy (at the
    /// adjacency's edit distance: t = 1 for edge, t = 2 for node).
    accuracy_epsilon_floor: Option<f64>,
    /// Whether the measurement is consistent with the configured budget
    /// (for node adjacency the node-level budget, by group privacy).
    consistent: bool,
    /// Whether it is consistent with the edge-composed transcript budget.
    edge_budget_consistent: bool,
    roc: Vec<RocPoint>,
}

impl AdversaryRecord {
    fn new(result: &AttackResult, comparison: &BoundsComparison) -> Self {
        AdversaryRecord {
            adversary: result.adversary.clone(),
            advantage: result.advantage.advantage,
            advantage_threshold: result.advantage.threshold,
            auc: result.auc,
            empirical_epsilon: result.empirical_epsilon.point,
            empirical_epsilon_lower: result.empirical_epsilon.lower,
            confidence: result.empirical_epsilon.confidence,
            advantage_ceiling: comparison.advantage_ceiling,
            epsilon_floor: comparison.epsilon_floor,
            mean_accuracy: comparison.mean_accuracy,
            accuracy_epsilon_floor: comparison.accuracy_epsilon_floor,
            consistent: comparison.consistent,
            edge_budget_consistent: comparison.edge_budget_consistent,
            roc: result.roc.clone(),
        }
    }
}

/// The full report emitted by `psr attack`.
#[derive(Debug, Serialize)]
struct AttackReport {
    dataset: String,
    /// Graph backing the attacked graph came through: csr|compressed.
    backend: String,
    utility: String,
    mechanism: String,
    /// `"edge"` (Definition 1) or `"node"` (Appendix A).
    adjacency: String,
    /// Per-observation ε (None for the non-private baseline; Theorem 5's
    /// calibration is folded into `transcript_epsilon` for smoothing).
    epsilon_per_observation: Option<f64>,
    /// Composed ε of one full transcript (rounds × observers).
    transcript_epsilon: Option<f64>,
    /// Node-level transcript budget by group privacy
    /// (`transcript_epsilon × rewire_size`; node adjacency only).
    node_transcript_epsilon: Option<f64>,
    /// Appendix A's finite-`n` floor `node_privacy_eps_lower(n, 1)`
    /// (node adjacency only).
    node_epsilon_lower: Option<f64>,
    /// Appendix A's asymptotic floor `ln(n)/2` (node adjacency only).
    node_epsilon_lower_asymptotic: Option<f64>,
    /// The secret edge (edge adjacency only).
    secret_edge: Option<SecretEdgeRecord>,
    /// The rewired node (node adjacency only).
    rewired_node: Option<RewiredNodeRecord>,
    observers: Vec<u32>,
    observer_labels: Vec<u64>,
    rounds: usize,
    k: usize,
    trials_per_world: usize,
    epoch_style: String,
    adversaries: Vec<AdversaryRecord>,
}

/// Loads the attacked graph: `karate` comes from the toy module, the
/// rest through the shared serving loader. With `--backend compressed`
/// (or `--snapshot`) the graph is round-tripped through the PSRZ
/// codec and materialised back — the attack harness mutates per-trial
/// world copies, so it needs a concrete [`Graph`], and the round trip
/// proves the attack surface is identical across backings.
fn load_graph(opts: &AttackOptions) -> (Graph, Option<IdMap>) {
    if opts.snapshot.is_none() && opts.input.is_none() && opts.preset == "karate" {
        let karate = psr_datasets::toy::karate_club();
        if opts.backend == "compressed" {
            return (round_trip_compressed(&karate), None);
        }
        return (karate, None);
    }
    let (backend, ids) = super::load_serving_backend(
        opts.input.as_deref(),
        opts.directed,
        &opts.preset,
        opts.scale,
        opts.seed,
        &opts.backend,
        opts.snapshot.as_deref(),
    );
    let graph = match backend {
        psr_graph::GraphBackend::Csr(arc) => Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()),
        other => (*other.to_graph_arc()).clone(),
    };
    (graph, ids)
}

/// Encode → open → materialise through the compressed codec.
fn round_trip_compressed(graph: &Graph) -> Graph {
    let bytes = psr_graph::CompressedCsr::encode(graph, 1);
    psr_graph::CompressedCsr::open_bytes(bytes)
        .expect("a freshly encoded snapshot always validates")
        .to_graph()
}

fn parse_utility(opts: &AttackOptions) -> Box<dyn UtilityFunction> {
    match opts.utility.as_str() {
        "common-neighbors" => Box::new(CommonNeighbors),
        "weighted-paths" => Box::new(WeightedPaths::paper(opts.gamma)),
        other => unreachable!("arg parser admits only known utilities, got {other}"),
    }
}

fn parse_mechanism(opts: &AttackOptions) -> AttackMechanism {
    match opts.mechanism.as_str() {
        "exponential" => AttackMechanism::Exponential { epsilon: opts.epsilon },
        "laplace" => AttackMechanism::Laplace { epsilon: opts.epsilon },
        "smoothing" => AttackMechanism::Smoothing { x: opts.smoothing_x },
        "non-private" => AttackMechanism::NonPrivateTopK,
        other => unreachable!("arg parser admits only known mechanisms, got {other}"),
    }
}

fn epsilon_per_observation(mechanism: AttackMechanism) -> Option<f64> {
    match mechanism {
        AttackMechanism::Exponential { epsilon } | AttackMechanism::Laplace { epsilon } => {
            Some(epsilon)
        }
        AttackMechanism::NonPrivateTopK | AttackMechanism::Smoothing { .. } => None,
    }
}

/// Scores one transcript set with every requested adversary through an
/// `attack`+`compare` closure (shared by both adjacency branches).
fn adversary_records(
    opts: &AttackOptions,
    probe: NodeId,
    mut evaluate: impl FnMut(&dyn Adversary) -> (AttackResult, BoundsComparison),
) -> Vec<AdversaryRecord> {
    let reconstruction = ReconstructionAdversary;
    let mia = LikelihoodRatioMia::new(probe, opts.seed);
    let frequency = FrequencyBaseline { probe };
    let adversaries: Vec<&dyn Adversary> = match opts.adversary.as_str() {
        "reconstruction" => vec![&reconstruction],
        "mia" => vec![&mia],
        "frequency" => vec![&frequency],
        "all" => vec![&reconstruction, &mia, &frequency],
        other => unreachable!("arg parser admits only known adversaries, got {other}"),
    };
    adversaries
        .iter()
        .map(|adversary| {
            let (result, comparison) = evaluate(*adversary);
            AdversaryRecord::new(&result, &comparison)
        })
        .collect()
}

fn emit(report: &AttackReport, opts: &AttackOptions, headline: String) {
    let json = serde_json::to_string_pretty(report).expect("serialisable");
    match &opts.json {
        Some(path) => {
            std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("{headline} -> {path}");
        }
        None => println!("{json}"),
    }
}

pub fn run(opts: &AttackOptions) {
    match opts.adjacency.as_str() {
        "edge" => run_edge(opts),
        "node" => run_node(opts),
        other => unreachable!("arg parser admits only known adjacencies, got {other}"),
    }
}

fn run_edge(opts: &AttackOptions) {
    let (graph, ids) = load_graph(opts);
    let graph = Arc::new(graph);
    let utility = parse_utility(opts);
    let utility_name = utility.name();
    let mechanism = parse_mechanism(opts);

    let (secret, observers) = match opts.edge {
        Some(edge) => {
            // Validate up front so ordinary input mistakes read as CLI
            // errors, not library assertion panics.
            let (u, v) = edge;
            let n = graph.num_nodes() as u32;
            if u == v || u >= n || v >= n {
                panic!("--edge {u},{v}: endpoints must be two distinct nodes below {n}");
            }
            let exists = graph.has_edge(u, v);
            if opts.epoch == "delete" && !exists {
                panic!("--edge {u},{v}: --epoch delete needs an edge present in the graph");
            }
            if opts.epoch != "delete" && exists {
                panic!(
                    "--edge {u},{v}: already an edge of the graph; static/insert styles infer \
                     an *absent* edge (use --epoch delete to attack its removal)"
                );
            }
            let observers = psr_attack::default_observers(&graph, edge, opts.observer_cap);
            if observers.is_empty() {
                panic!("--edge {u},{v}: node {u} has no neighbours besides {v} to observe");
            }
            (edge, observers)
        }
        None => resolve_secret_edge(&graph, utility.as_ref(), opts.observer_cap)
            .unwrap_or_else(|| panic!("no suitable secret edge found; pass --edge u,v")),
    };

    let epochs = match opts.epoch.as_str() {
        "static" => EpochStyle::Static,
        "insert" => EpochStyle::InsertMidStream { prefix_rounds: opts.prefix_rounds },
        "delete" => EpochStyle::DeleteMidStream { prefix_rounds: opts.prefix_rounds },
        other => unreachable!("arg parser admits only known edge epoch styles, got {other}"),
    };

    let config = ScenarioConfig {
        rounds: opts.rounds,
        k: opts.k,
        trials_per_world: opts.trials,
        mechanism,
        epochs,
        threads: opts.threads,
        seed: opts.seed,
        ..ScenarioConfig::new(secret, observers.clone())
    };
    let scenario = EdgeInferenceScenario::new(Arc::clone(&graph), utility, config);

    let set = scenario.collect();
    let records = adversary_records(opts, scenario.probe(), |adversary| {
        let result = scenario.attack(&set, adversary);
        let comparison = scenario.compare(&result);
        (result, comparison)
    });

    let label = |v: NodeId| super::original_label(ids.as_ref(), v);
    let report = AttackReport {
        dataset: opts
            .snapshot
            .clone()
            .or_else(|| opts.input.clone())
            .unwrap_or_else(|| opts.preset.clone()),
        backend: opts.backend.clone(),
        utility: utility_name,
        mechanism: opts.mechanism.clone(),
        adjacency: "edge".to_owned(),
        epsilon_per_observation: epsilon_per_observation(mechanism),
        transcript_epsilon: scenario.transcript_epsilon(),
        node_transcript_epsilon: None,
        node_epsilon_lower: None,
        node_epsilon_lower_asymptotic: None,
        secret_edge: Some(SecretEdgeRecord {
            u: secret.0,
            v: secret.1,
            label_u: label(secret.0),
            label_v: label(secret.1),
        }),
        rewired_node: None,
        observer_labels: observers.iter().map(|&o| label(o)).collect(),
        observers,
        rounds: opts.rounds,
        k: opts.k,
        trials_per_world: opts.trials,
        epoch_style: opts.epoch.clone(),
        adversaries: records,
    };

    let best = report.adversaries.iter().map(|a| a.advantage).fold(0.0, f64::max);
    let headline = format!(
        "attacked edge ({}, {}) on {} with {}: best advantage {best:.3} (ceiling {:.3})",
        label(secret.0),
        label(secret.1),
        report.dataset,
        report.mechanism,
        report.adversaries.first().map_or(1.0, |a| a.advantage_ceiling),
    );
    emit(&report, opts, headline);
}

fn run_node(opts: &AttackOptions) {
    let (graph, ids) = load_graph(opts);
    let graph = Arc::new(graph);
    let utility = parse_utility(opts);
    let utility_name = utility.name();
    let mechanism = parse_mechanism(opts);

    let (node, new_neighbours, observers) = match opts.node {
        Some(v) => {
            let n = graph.num_nodes() as u32;
            if v >= n {
                panic!("--node {v}: must be a node below {n}");
            }
            let new = default_rewire_target(&graph, v).unwrap_or_else(|| {
                panic!("--node {v}: no disjoint rewire target exists (isolated node?)")
            });
            let observers = node_observers(&graph, v, &new, opts.observer_cap);
            if observers.is_empty() {
                panic!("--node {v}: no eligible observer shares a common neighbour with it");
            }
            (v, new, observers)
        }
        None => resolve_node_rewire(&graph, utility.as_ref(), opts.observer_cap)
            .unwrap_or_else(|| panic!("no leaking node rewire found; pass --node v")),
    };

    let epochs = match opts.epoch.as_str() {
        "static" => NodeEpochStyle::Static,
        "rewire" => NodeEpochStyle::RewireMidStream { prefix_rounds: opts.prefix_rounds },
        other => unreachable!("arg parser admits only known node epoch styles, got {other}"),
    };

    let config = NodeScenarioConfig {
        rounds: opts.rounds,
        k: opts.k,
        trials_per_world: opts.trials,
        mechanism,
        epochs,
        threads: opts.threads,
        seed: opts.seed,
        ..NodeScenarioConfig::new(node, new_neighbours.clone(), observers.clone())
    };
    let scenario = NodeIdentityScenario::new(Arc::clone(&graph), utility, config);

    let set = scenario.collect();
    let mut overlay: Option<(Option<f64>, Option<f64>)> = None;
    let records = adversary_records(opts, scenario.probe(), |adversary| {
        let result = scenario.attack(&set, adversary);
        let comparison = scenario.compare(&result);
        overlay.get_or_insert((
            comparison.node_epsilon_lower,
            comparison.node_epsilon_lower_asymptotic,
        ));
        (result, comparison)
    });
    let (node_epsilon_lower, node_epsilon_lower_asymptotic) = overlay.unwrap_or((None, None));

    let label = |v: NodeId| super::original_label(ids.as_ref(), v);
    let rewire_size = scenario.rewire_size();
    let report = AttackReport {
        dataset: opts
            .snapshot
            .clone()
            .or_else(|| opts.input.clone())
            .unwrap_or_else(|| opts.preset.clone()),
        backend: opts.backend.clone(),
        utility: utility_name,
        mechanism: opts.mechanism.clone(),
        adjacency: "node".to_owned(),
        epsilon_per_observation: epsilon_per_observation(mechanism),
        transcript_epsilon: scenario.transcript_epsilon(),
        node_transcript_epsilon: scenario.node_transcript_epsilon(),
        node_epsilon_lower,
        node_epsilon_lower_asymptotic,
        secret_edge: None,
        rewired_node: Some(RewiredNodeRecord {
            node,
            label: label(node),
            old_degree: graph.degree(node),
            new_neighbours: new_neighbours.clone(),
            rewire_size,
        }),
        observer_labels: observers.iter().map(|&o| label(o)).collect(),
        observers,
        rounds: opts.rounds,
        k: opts.k,
        trials_per_world: opts.trials,
        epoch_style: opts.epoch.clone(),
        adversaries: records,
    };

    let best_certified =
        report.adversaries.iter().map(|a| a.empirical_epsilon_lower).fold(0.0, f64::max);
    let headline = format!(
        "attacked node {} on {} with {} ({rewire_size} edges rewired): certified eps >= \
         {best_certified:.3} (Appendix-A floor {:.3}, ln(n)/2 = {:.3})",
        label(node),
        report.dataset,
        report.mechanism,
        report.node_epsilon_lower.unwrap_or(f64::NAN),
        report.node_epsilon_lower_asymptotic.unwrap_or(f64::NAN),
    );
    emit(&report, opts, headline);
}
