//! The node-identity privacy game (Appendix A): two worlds differing in
//! one node's *entire* edge set.
//!
//! Definition 1's edge adjacency asks whether one secret edge leaks;
//! Appendix A's node adjacency asks the much harder question — can the
//! service hide *who a node is connected to at all*? Neighbouring graphs
//! now differ in a whole neighbourhood: world 0 keeps node `v`'s edge
//! set, world 1 rewires it to a (typically disjoint) target set via the
//! minimal [`psr_graph::rewire_node`] batch. The paper's exchange
//! argument then needs only `t = 2` such steps, giving the
//! `ε ≥ ln(n)/2` floor of [`psr_bounds::node_privacy`] — node-identity
//! privacy is essentially impossible for accurate recommenders.
//!
//! [`NodeIdentityScenario`] instantiates that game empirically on the
//! same [`crate::harness`] engine the edge game runs on: trials through
//! real [`psr_core::serving::RecommendationService`] batches (the rewire
//! epoch style applies the whole batch through `apply_mutations`
//! mid-stream), the same three adversaries scoring the same
//! [`crate::model::WorldModel`] hypothesis pairs, and the same
//! Clopper–Pearson-certified empirical-ε estimator. The only thing that
//! changes is the hypothesis gap — and the theory ceiling the
//! measurement is overlaid on ([`crate::comparison::compare_node`]).
//!
//! Because a rewire moves `|N(v) Δ new|` edges at once, an ε-edge-DP
//! mechanism is only `(|batch| · ε)`-DP at node granularity (group
//! privacy along the edge path between the worlds) — see
//! [`NodeIdentityScenario::node_transcript_epsilon`]. The acceptance
//! suite (`tests/node_privacy.rs`) pins both sides: the non-private
//! baseline's certified ε̂ floor clears every usable budget, while the
//! DP mechanisms stay within even their *edge-composed* transcript
//! budgets.

use std::sync::Arc;

use psr_graph::{rewire_node, EdgeMutation, Graph, GraphView, NodeId};
use psr_utility::{SensitivityNorm, UtilityFunction};

use crate::adversary::Adversary;
use crate::harness::{unique_argmax, Divergence, EngineParams, TwoWorldEngine};
use crate::harness::{AttackMechanism, AttackResult, TranscriptSet};
use crate::model::WorldModel;

/// When the node-identity worlds diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEpochStyle {
    /// The worlds differ from round 0: world 1's graph has the node
    /// rewired, world 0's keeps the base neighbourhood.
    Static,
    /// Both worlds serve the base graph for `prefix_rounds` rounds, then
    /// world 1 applies the whole rewire batch through
    /// [`psr_core::serving::RecommendationService::apply_mutations`] and
    /// serving continues incrementally (warm caches, selective
    /// invalidation, per-epoch Δf recalibration).
    RewireMidStream {
        /// Rounds served before the rewire epoch.
        prefix_rounds: usize,
    },
}

/// Full configuration of a node-identity scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeScenarioConfig {
    /// The node whose entire neighbourhood is the secret.
    pub node: NodeId,
    /// World 1's replacement neighbourhood for [`Self::node`] (any order;
    /// deduplicated). Typically disjoint from the base neighbourhood —
    /// the Appendix-A exchange swaps whole edge sets — but overlap is
    /// allowed; shared neighbours simply shrink the hypothesis gap.
    pub new_neighbours: Vec<NodeId>,
    /// Third-party observers whose recommendations are watched. Must not
    /// include the rewired node, and on undirected graphs must not be
    /// adjacent to it in *either* world: an adjacent observer's candidate
    /// set itself changes (the rewired node enters or leaves it), leaking
    /// the rewire by support alone and short-circuiting the game.
    pub observers: Vec<NodeId>,
    /// Request batches served per trial.
    pub rounds: usize,
    /// Slots per request (must be 1 for the single-draw mechanisms).
    pub k: usize,
    /// Monte-Carlo trials per world.
    pub trials_per_world: usize,
    /// Mechanism under attack.
    pub mechanism: AttackMechanism,
    /// When the worlds diverge.
    pub epochs: NodeEpochStyle,
    /// Harness worker threads (`None` = available parallelism). Does not
    /// affect results.
    pub threads: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Two-sided confidence for the empirical-ε lower bound.
    pub confidence: f64,
    /// Δf norm, matching the serving default.
    pub sensitivity_norm: SensitivityNorm,
    /// Δf override when the utility reports no analytic bound.
    pub sensitivity_override: Option<f64>,
}

impl NodeScenarioConfig {
    /// A scenario with the serving defaults: 4 rounds × k = 1, 48 trials
    /// per world, Exponential at ε = 0.5, static worlds, 95% confidence.
    pub fn new(node: NodeId, new_neighbours: Vec<NodeId>, observers: Vec<NodeId>) -> Self {
        NodeScenarioConfig {
            node,
            new_neighbours,
            observers,
            rounds: 4,
            k: 1,
            trials_per_world: 48,
            mechanism: AttackMechanism::Exponential { epsilon: 0.5 },
            epochs: NodeEpochStyle::Static,
            threads: None,
            seed: 42,
            confidence: 0.95,
            sensitivity_norm: SensitivityNorm::LInf,
            sensitivity_override: None,
        }
    }
}

/// A node-identity inference experiment bound to a graph, a utility
/// function and a [`NodeScenarioConfig`]. See the [module docs](self).
pub struct NodeIdentityScenario {
    engine: TwoWorldEngine,
    config: NodeScenarioConfig,
}

impl NodeIdentityScenario {
    /// Validates the configuration, computes the minimal rewire batch and
    /// precomputes both world models.
    ///
    /// # Panics
    /// Panics on an inconsistent scenario: the rewired node or a target
    /// neighbour out of range, a self-loop in the target set, a rewire
    /// that changes no edge (the worlds must differ), observers that are
    /// the rewired node or (undirected) adjacent to it in either world,
    /// plus every generic harness precondition (`k`, rounds, trials,
    /// prefix bounds, candidate non-emptiness — see
    /// [`crate::EdgeInferenceScenario::new`]).
    pub fn new(
        base: impl Into<Arc<Graph>>,
        utility: Box<dyn UtilityFunction>,
        config: NodeScenarioConfig,
    ) -> Self {
        let base: Arc<Graph> = base.into();
        let utility: Arc<dyn UtilityFunction> = Arc::from(utility);
        let v = config.node;
        let rewire = rewire_node(base.as_ref(), v, &config.new_neighbours)
            .unwrap_or_else(|e| panic!("invalid rewire of node {v}: {e}"));
        assert!(
            !rewire.is_empty(),
            "rewiring node {v} to the target set changes no edge — the worlds must differ"
        );
        let new_set = |w: NodeId| config.new_neighbours.contains(&w);
        for &o in &config.observers {
            assert!(o != v, "observer {o} is the rewired node itself");
            if !base.is_directed() {
                assert!(
                    !base.has_edge(o, v) && !new_set(o),
                    "observer {o} is adjacent to the rewired node {v} in one of the worlds — \
                     the candidate policy would leak the rewire by support alone \
                     (see NodeScenarioConfig::observers)"
                );
            }
        }

        let divergence = match config.epochs {
            NodeEpochStyle::Static => Divergence::FromStart,
            NodeEpochStyle::RewireMidStream { prefix_rounds } => {
                Divergence::MidStream { prefix_rounds }
            }
        };
        let params = EngineParams {
            observers: config.observers.clone(),
            rounds: config.rounds,
            k: config.k,
            trials_per_world: config.trials_per_world,
            mechanism: config.mechanism,
            threads: config.threads,
            seed: config.seed,
            confidence: config.confidence,
            sensitivity_norm: config.sensitivity_norm,
            sensitivity_override: config.sensitivity_override,
        };
        let engine = TwoWorldEngine::new(base, utility, rewire, divergence, params);
        NodeIdentityScenario { engine, config }
    }

    /// The scenario configuration.
    pub fn config(&self) -> &NodeScenarioConfig {
        &self.config
    }

    /// The minimal [`EdgeMutation`] batch separating the worlds — what
    /// world 1 applies through `apply_mutations` in the rewire epoch
    /// style.
    pub fn rewire(&self) -> &[EdgeMutation] {
        self.engine.world1_mutations()
    }

    /// Number of edges in which the two worlds differ (the edge edit
    /// distance between them, `|N(v) Δ new|`).
    pub fn rewire_size(&self) -> usize {
        self.rewire().len()
    }

    /// The probe node for appearance-based adversaries: the rewired node
    /// itself, whose utility is the one coordinate the rewire moves for
    /// every eligible observer.
    pub fn probe(&self) -> NodeId {
        self.config.node
    }

    /// The hypothesis models `(base neighbourhood, rewired)` — for the
    /// rewire epoch style, indexed per transcript entry across the
    /// divergence point.
    pub fn world_models(&self) -> (&WorldModel, &WorldModel) {
        self.engine.world_models()
    }

    /// The *edge-composed* transcript budget: per-observation ε summed
    /// over all `rounds × observers` entries by basic composition, as for
    /// the edge game (`None` for the non-private baseline). This is what
    /// the mechanisms were configured to promise per observation under
    /// **edge** adjacency.
    pub fn transcript_epsilon(&self) -> Option<f64> {
        self.engine.transcript_epsilon()
    }

    /// The *node-level* transcript budget: the edge-composed budget
    /// scaled by [`Self::rewire_size`]. The two worlds sit at edge edit
    /// distance `|batch|`, so by group privacy an ε-edge-DP transcript
    /// release is `(|batch| · ε)`-DP for the node-adjacent pair — the
    /// honest budget to compare a node-adjacency measurement against.
    pub fn node_transcript_epsilon(&self) -> Option<f64> {
        self.transcript_epsilon().map(|eps| eps * self.rewire_size() as f64)
    }

    /// Generates all transcripts for both worlds, trials fanned across
    /// the worker pool (bit-identical for any thread count).
    pub fn collect(&self) -> TranscriptSet {
        self.engine.collect()
    }

    /// Scores a transcript set with one adversary and aggregates the
    /// attack statistics.
    pub fn attack(&self, set: &TranscriptSet, adversary: &dyn Adversary) -> AttackResult {
        self.engine.attack(set, adversary)
    }

    /// Collects one transcript set and scores it with every adversary.
    pub fn run(&self, adversaries: &[&dyn Adversary]) -> Vec<AttackResult> {
        let set = self.collect();
        adversaries.iter().map(|a| self.attack(&set, *a)).collect()
    }

    /// Overlays a result on the node-adjacency theory curves
    /// ([`crate::comparison::compare_node`]): the verdict and the Lemma-1
    /// ceiling at the honest [`Self::node_transcript_epsilon`] (the
    /// edge-composed verdict rides along), Corollary-1 accuracy floors at
    /// `t = t_node_privacy()`, and the Appendix-A node-privacy floors
    /// `node_privacy_eps_lower(n, 1)` / `ln(n)/2` next to the measured
    /// advantage and certified ε̂.
    pub fn compare(&self, result: &AttackResult) -> crate::comparison::BoundsComparison {
        crate::comparison::compare_node(
            result,
            self.node_transcript_epsilon(),
            self.transcript_epsilon(),
            Some(self.engine.representative_utilities()),
            self.engine.base().num_nodes(),
        )
    }
}

/// A deterministic degree-preserving **disjoint** rewire target for `v`:
/// `degree(v)` nodes outside `N(v) ∪ {v}`, preferring nodes at distance
/// 2 (they share a common neighbour with `v`, so the rewire visibly
/// moves common-neighbours utilities) and filling with the smallest
/// remaining ids. `None` when the graph has no node to rewire toward or
/// `v` is isolated.
pub fn default_rewire_target(graph: &Graph, v: NodeId) -> Option<Vec<NodeId>> {
    let want = graph.degree(v);
    if want == 0 {
        return None;
    }
    let eligible = |w: NodeId| {
        w != v && !graph.has_edge(v, w) && (graph.is_directed() || !graph.has_edge(w, v))
    };
    let mut target: Vec<NodeId> = Vec::with_capacity(want);
    // Distance-2 nodes first, in id order…
    let mut two_hop: Vec<NodeId> = graph
        .neighbors(v)
        .iter()
        .flat_map(|&u| graph.neighbors(u).iter().copied())
        .filter(|&w| eligible(w))
        .collect();
    two_hop.sort_unstable();
    two_hop.dedup();
    target.extend(two_hop.into_iter().take(want));
    // …then any other non-adjacent node.
    for w in graph.nodes() {
        if target.len() >= want {
            break;
        }
        if eligible(w) && !target.contains(&w) {
            target.push(w);
        }
    }
    target.sort_unstable();
    (!target.is_empty()).then_some(target)
}

/// Default observers for a node rewire: nodes outside
/// `{v} ∪ N(v) ∪ new_neighbours` that share at least one common
/// neighbour with `v` in the base graph (their utility for `v` is
/// nonzero in world 0, so the rewire moves it), capped, in id order.
pub fn node_observers(
    graph: &Graph,
    v: NodeId,
    new_neighbours: &[NodeId],
    cap: usize,
) -> Vec<NodeId> {
    let nv = graph.neighbors(v);
    graph
        .nodes()
        .filter(|&o| {
            o != v
                && !graph.has_edge(o, v)
                && !graph.has_edge(v, o)
                && !new_neighbours.contains(&o)
                && graph.neighbors(o).iter().any(|w| nv.binary_search(w).is_ok())
        })
        .take(cap)
        .collect()
}

/// Searches for a node rewire that *visibly* leaks through non-private
/// top-1 serving: a node `v` and an observer `o` (non-adjacent to `v`)
/// such that rewiring `v` onto `N(o) ∖ (N(v) ∪ {v, o})` makes `v` the
/// **unique strict** argmax of `o`'s utility vector in world 1 while `o`
/// did not already answer `v` deterministically in world 0. Because the
/// target set sits inside `o`'s neighbourhood, `v`'s utility for `o`
/// jumps to `|new|` — a gap of whole utility units, not the single
/// tie-break of the edge game — so the non-private answer flips
/// deterministically and even heavily-noised mechanisms feel it.
///
/// Returns `(v, new_neighbours, observers)` with `o` first in the
/// observer list, followed by other eligible observers up to
/// `observer_cap`. Scans `(v, o)` pairs in id order, giving up after
/// `max_pairs` rewired-world evaluations (`None` if nothing leaks).
pub fn leaking_node_rewire(
    base: &Arc<Graph>,
    utility: &dyn UtilityFunction,
    observer_cap: usize,
    max_pairs: usize,
) -> Option<(NodeId, Vec<NodeId>, Vec<NodeId>)> {
    let n = base.num_nodes() as NodeId;
    let mut scanned = 0usize;
    for v in 0..n {
        if base.degree(v) == 0 {
            continue;
        }
        for o in 0..n {
            if o == v || base.has_edge(o, v) || base.has_edge(v, o) {
                continue;
            }
            let new: Vec<NodeId> = base
                .neighbors(o)
                .iter()
                .copied()
                .filter(|&w| w != v && w != o && !base.has_edge(v, w))
                .collect();
            if new.is_empty() {
                continue;
            }
            if scanned >= max_pairs {
                return None;
            }
            scanned += 1;
            // Probe through the DeltaGraph overlay — no per-pair CSR
            // rebuild (mirrors `leaking_secret_edge`).
            let Ok(batch) = rewire_node(base.as_ref(), v, &new) else { continue };
            let mut rewired = psr_graph::DeltaGraph::new(Arc::clone(base));
            if batch.iter().any(|m| rewired.apply(m).is_err()) {
                continue;
            }
            let after = utility.utilities_for(&rewired, o);
            if unique_argmax(&after) != Some(v) {
                continue;
            }
            let before = utility.utilities_for(base.as_ref(), o);
            if unique_argmax(&before) == Some(v) {
                continue;
            }
            let mut observers = vec![o];
            observers.extend(
                node_observers(base, v, &new, observer_cap.saturating_sub(1).max(1))
                    .into_iter()
                    .filter(|&w| w != o),
            );
            observers.truncate(observer_cap.max(1));
            return Some((v, new, observers));
        }
    }
    None
}

/// The default rewire of a node-adjacency attack: the first rewire
/// [`leaking_node_rewire`] finds within the search budget shared with
/// [`crate::resolve_secret_edge`] (`None` when nothing leaks).
pub fn resolve_node_rewire(
    graph: &Arc<Graph>,
    utility: &dyn UtilityFunction,
    observer_cap: usize,
) -> Option<(NodeId, Vec<NodeId>, Vec<NodeId>)> {
    leaking_node_rewire(graph, utility, observer_cap, crate::harness::SEARCH_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ReconstructionAdversary;
    use psr_datasets::toy::karate_club;
    use psr_utility::CommonNeighbors;

    fn leaky(mechanism: AttackMechanism) -> (Arc<Graph>, NodeScenarioConfig) {
        let graph = Arc::new(karate_club());
        let (v, new, observers) =
            leaking_node_rewire(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
        let config = NodeScenarioConfig {
            rounds: 3,
            trials_per_world: 12,
            mechanism,
            ..NodeScenarioConfig::new(v, new, observers)
        };
        (graph, config)
    }

    #[test]
    fn leaking_rewire_flips_an_observer_argmax() {
        let graph = Arc::new(karate_club());
        let (v, new, observers) =
            leaking_node_rewire(&graph, &CommonNeighbors, 4, 20_000).expect("karate leaks");
        assert!(!new.is_empty() && !observers.is_empty());
        assert!(new.iter().all(|&w| !graph.has_edge(v, w)), "disjoint target set");
        assert!(observers.iter().all(|&o| o != v && !graph.has_edge(o, v)));
        // The first observer's world-1 argmax is the rewired node.
        let batch = rewire_node(graph.as_ref(), v, &new).unwrap();
        let mut delta = psr_graph::DeltaGraph::new(Arc::clone(&graph));
        for m in &batch {
            delta.apply(m).unwrap();
        }
        let after = CommonNeighbors.utilities_for(&delta, observers[0]);
        assert_eq!(unique_argmax(&after), Some(v));
    }

    #[test]
    fn worlds_differ_by_exactly_the_rewire_batch() {
        let (graph, config) = leaky(AttackMechanism::NonPrivateTopK);
        let s = NodeIdentityScenario::new(Arc::clone(&graph), Box::new(CommonNeighbors), config);
        assert_eq!(
            s.rewire_size(),
            graph.degree(s.config().node) + s.config().new_neighbours.len(),
            "disjoint rewire: |N(v)| deletes + |new| inserts"
        );
        assert!(s.node_transcript_epsilon().is_none(), "non-private has no budget");
    }

    #[test]
    fn non_private_rewire_separates_the_worlds() {
        let (graph, config) = leaky(AttackMechanism::NonPrivateTopK);
        let s = NodeIdentityScenario::new(graph, Box::new(CommonNeighbors), config);
        let result = s.attack(&s.collect(), &ReconstructionAdversary);
        assert!(
            result.advantage.advantage > crate::comparison::dp_advantage_ceiling(1.0),
            "whole-neighbourhood rewire must leak at least as hard as one edge: {:?}",
            result.advantage
        );
    }

    #[test]
    fn node_budget_scales_the_edge_budget_by_the_batch() {
        let (graph, config) = leaky(AttackMechanism::Exponential { epsilon: 0.5 });
        let s = NodeIdentityScenario::new(graph, Box::new(CommonNeighbors), config);
        let edge = s.transcript_epsilon().unwrap();
        let node = s.node_transcript_epsilon().unwrap();
        assert!((node - edge * s.rewire_size() as f64).abs() < 1e-12);
    }

    #[test]
    fn rewire_mid_stream_shares_the_pre_epoch_prefix() {
        let (graph, config) = leaky(AttackMechanism::NonPrivateTopK);
        let config = NodeScenarioConfig {
            epochs: NodeEpochStyle::RewireMidStream { prefix_rounds: 1 },
            rounds: 4,
            ..config
        };
        let s = NodeIdentityScenario::new(graph, Box::new(CommonNeighbors), config);
        let set = s.collect();
        let per_round = s.config().observers.len();
        for (t0, t1) in set.world0.iter().zip(&set.world1) {
            assert_eq!(t0.entries[..per_round], t1.entries[..per_round]);
        }
        let result = s.attack(&set, &ReconstructionAdversary);
        assert!(result.advantage.advantage > 0.8, "{:?}", result.advantage);
    }

    #[test]
    fn default_rewire_target_is_disjoint_and_degree_preserving() {
        let g = karate_club();
        for v in [0u32, 5, 11] {
            let target = default_rewire_target(&g, v).expect("karate nodes have room");
            assert_eq!(target.len(), g.degree(v));
            assert!(target.iter().all(|&w| w != v && !g.has_edge(v, w)));
        }
        // The hub 33 has degree 17 but only 16 non-neighbours: the target
        // clamps to what the graph offers instead of failing.
        let hub = default_rewire_target(&g, 33).expect("clamped, not empty");
        assert_eq!(hub.len(), g.num_nodes() - 1 - g.degree(33));
        assert!(hub.iter().all(|&w| w != 33 && !g.has_edge(33, w)));
    }

    #[test]
    #[should_panic(expected = "changes no edge")]
    fn rewire_to_the_same_neighbourhood_is_rejected() {
        let g = karate_club();
        let same: Vec<NodeId> = g.neighbors(0).to_vec();
        let cfg = NodeScenarioConfig::new(0, same, vec![9]);
        let _ = NodeIdentityScenario::new(g, Box::new(CommonNeighbors), cfg);
    }

    #[test]
    #[should_panic(expected = "adjacent to the rewired node")]
    fn observers_may_not_be_adjacent_to_the_node() {
        let g = karate_club();
        let neighbour = g.neighbors(0)[0];
        let new = default_rewire_target(&g, 0).unwrap();
        let cfg = NodeScenarioConfig::new(0, new, vec![neighbour]);
        let _ = NodeIdentityScenario::new(g, Box::new(CommonNeighbors), cfg);
    }

    #[test]
    #[should_panic(expected = "rewired node itself")]
    fn the_node_may_not_observe_itself() {
        let g = karate_club();
        let new = default_rewire_target(&g, 0).unwrap();
        let cfg = NodeScenarioConfig::new(0, new, vec![0]);
        let _ = NodeIdentityScenario::new(g, Box::new(CommonNeighbors), cfg);
    }
}
