//! The serving-side API: one private recommendation per call.
//!
//! The [`Recommender`] holds its graph behind an [`Arc`], so batch-serving
//! consumers ([`crate::serving::RecommendationService`]) and ad-hoc
//! single-query consumers can share one in-memory graph instead of cloning
//! it per consumer.

use std::sync::Arc;

use psr_graph::{Graph, NodeId};
use psr_privacy::{resolve_slots, Mechanism};
use psr_utility::{calibrated_sensitivity, CandidateSet, SensitivityNorm, UtilityFunction};

/// Configuration of a [`Recommender`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecommenderConfig {
    /// Differential-privacy parameter ε.
    pub epsilon: f64,
    /// Which norm reading of footnote 5's `Δf` calibrates the mechanisms
    /// (the paper leaves it unsubscripted; default `‖·‖₁`).
    pub sensitivity_norm: SensitivityNorm,
    /// Override for `Δf` when the utility function reports no analytic
    /// bound (e.g. exotic custom utilities).
    pub sensitivity_override: Option<f64>,
}

impl Default for RecommenderConfig {
    fn default() -> Self {
        RecommenderConfig {
            epsilon: 1.0,
            // Δ∞ calibration: sound for monotone utilities (see
            // ExperimentConfig) and the reading that reproduces the paper's
            // curves.
            sensitivity_norm: SensitivityNorm::LInf,
            sensitivity_override: None,
        }
    }
}

/// A differentially private social recommender: the paper's object of
/// study packaged as a serving API. Holds the graph, a link-analysis
/// utility function and a DP mechanism.
pub struct Recommender {
    graph: Arc<Graph>,
    utility: Box<dyn UtilityFunction>,
    mechanism: Box<dyn Mechanism>,
    config: RecommenderConfig,
}

impl Recommender {
    /// Assembles a recommender. Accepts an owned [`Graph`] or an
    /// [`Arc<Graph>`] already shared with other consumers (e.g. a
    /// [`crate::serving::RecommendationService`]).
    ///
    /// # Panics
    /// Panics if ε is not positive, or if the utility function reports no
    /// sensitivity and none is overridden.
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        utility: Box<dyn UtilityFunction>,
        mechanism: Box<dyn Mechanism>,
        config: RecommenderConfig,
    ) -> Self {
        assert!(config.epsilon > 0.0, "epsilon must be positive");
        let r = Recommender { graph: graph.into(), utility, mechanism, config };
        let _ = r.sensitivity(); // validate eagerly
        r
    }

    /// The calibrated sensitivity `Δf`.
    pub fn sensitivity(&self) -> f64 {
        calibrated_sensitivity(
            self.utility.as_ref(),
            self.graph.as_ref(),
            self.config.sensitivity_norm,
            self.config.sensitivity_override,
        )
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A shared handle to the underlying graph, for wiring additional
    /// consumers (services, experiments) to the same in-memory instance.
    pub fn shared_graph(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Draws one ε-private recommendation for `target`. Returns `None`
    /// when the target has no candidates at all (fully connected target).
    ///
    /// A draw that lands in the zero-utility class is resolved to a
    /// uniformly random zero-utility candidate, so callers always receive
    /// a concrete node.
    pub fn recommend(&self, target: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        let candidates = CandidateSet::for_target(&self.graph, target);
        if candidates.is_empty() {
            return None;
        }
        let u = self.utility.utilities(&self.graph, target, &candidates);
        let rec = self.mechanism.recommend(&u, self.config.epsilon, self.sensitivity(), rng);
        resolve_slots(&[rec.slot()], &u, &candidates, rng).first().copied()
    }

    /// The expected accuracy this recommender achieves for `target`
    /// (`None` for targets dropped by the §7.1 protocol: no candidates or
    /// an all-zero utility vector).
    pub fn expected_accuracy(&self, target: NodeId, rng: &mut dyn rand::RngCore) -> Option<f64> {
        let candidates = CandidateSet::for_target(&self.graph, target);
        if candidates.is_empty() {
            return None;
        }
        let u = self.utility.utilities(&self.graph, target, &candidates);
        if u.is_all_zero() {
            return None;
        }
        Some(self.mechanism.expected_accuracy(&u, self.config.epsilon, self.sensitivity(), rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_datasets::toy::karate_club;
    use psr_privacy::{ExponentialMechanism, LaplaceMechanism};
    use psr_utility::CommonNeighbors;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn recommender(eps: f64) -> Recommender {
        Recommender::new(
            karate_club(),
            Box::new(CommonNeighbors),
            Box::new(ExponentialMechanism::paper()),
            RecommenderConfig { epsilon: eps, ..Default::default() },
        )
    }

    #[test]
    fn recommendations_are_valid_candidates() {
        let rec = recommender(1.0);
        let mut r = rng(1);
        for target in 0..34u32 {
            for _ in 0..5 {
                let v = rec.recommend(target, &mut r).unwrap();
                assert_ne!(v, target);
                assert!(!rec.graph().has_edge(target, v), "recommended an existing neighbour");
            }
        }
    }

    #[test]
    fn high_eps_recommends_top_utility_node() {
        let rec = recommender(500.0);
        let mut r = rng(2);
        let u = CommonNeighbors.utilities_for(rec.graph(), 0);
        let best = u.argmax().unwrap();
        let best_u = u.u_max();
        for _ in 0..10 {
            let got = rec.recommend(0, &mut r).unwrap();
            // Ties possible: any argmax-utility node qualifies.
            assert_eq!(u.get(got), best_u, "expected a max-utility node like {best}");
        }
    }

    #[test]
    fn expected_accuracy_in_unit_interval_and_monotone_in_eps() {
        let mut r = rng(3);
        let lo = recommender(0.2).expected_accuracy(0, &mut r).unwrap();
        let hi = recommender(3.0).expected_accuracy(0, &mut r).unwrap();
        assert!((0.0..=1.0).contains(&lo));
        assert!((0.0..=1.0).contains(&hi));
        assert!(hi > lo);
    }

    #[test]
    fn laplace_variant_works_too() {
        let rec = Recommender::new(
            karate_club(),
            Box::new(CommonNeighbors),
            Box::new(LaplaceMechanism { trials: 300 }),
            RecommenderConfig::default(),
        );
        let mut r = rng(4);
        let v = rec.recommend(5, &mut r).unwrap();
        assert!(v < 34);
        assert!(rec.expected_accuracy(5, &mut r).is_some());
    }

    #[test]
    fn sensitivity_override_respected() {
        let rec = Recommender::new(
            karate_club(),
            Box::new(CommonNeighbors),
            Box::new(ExponentialMechanism::paper()),
            RecommenderConfig { sensitivity_override: Some(7.5), ..Default::default() },
        );
        assert_eq!(rec.sensitivity(), 7.5);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_eps_rejected() {
        let _ = recommender(0.0);
    }

    #[test]
    fn recommenders_share_one_graph_instance() {
        let shared = Arc::new(karate_club());
        let a = Recommender::new(
            Arc::clone(&shared),
            Box::new(CommonNeighbors),
            Box::new(ExponentialMechanism::paper()),
            RecommenderConfig::default(),
        );
        let b = Recommender::new(
            a.shared_graph(),
            Box::new(CommonNeighbors),
            Box::new(ExponentialMechanism::paper()),
            RecommenderConfig::default(),
        );
        assert!(std::ptr::eq(a.graph(), b.graph()), "both must alias the shared graph");
        assert!(std::ptr::eq(shared.as_ref(), b.graph()));
    }
}
