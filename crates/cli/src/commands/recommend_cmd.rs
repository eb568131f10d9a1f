//! `psr recommend` — serve ε-private recommendations, the paper's system
//! as a product: load a graph (SNAP edge list or preset), pick a utility
//! and mechanism, emit one suggestion per requested target through the
//! recommendation service (unbounded budget, one slot per target).

use std::sync::Arc;

use psr_core::serving::{BatchRequest, ServeError};
use psr_core::{RecommendationService, ServiceConfig};
use psr_privacy::{ExponentialMechanism, LaplaceMechanism, Mechanism, ServeMechanism};
use psr_utility::{CandidateSet, CommonNeighbors, UtilityFunction, WeightedPaths};
use rand::SeedableRng;

use crate::args::RecommendOptions;

pub fn run(opts: &RecommendOptions) {
    let (graph, ids) = super::load_serving_graph(
        opts.input.as_deref(),
        opts.directed,
        &opts.preset,
        opts.scale,
        opts.seed,
    );
    let graph = Arc::new(graph);
    let utility = || -> Box<dyn UtilityFunction> {
        match opts.utility.as_str() {
            "common-neighbors" => Box::new(CommonNeighbors),
            "weighted-paths" => Box::new(WeightedPaths::paper(opts.gamma)),
            other => unreachable!("arg parser admits only known utilities, got {other}"),
        }
    };
    let (mechanism, accuracy): (ServeMechanism, Box<dyn Mechanism>) = match opts.mechanism.as_str()
    {
        "exponential" => (ServeMechanism::Exponential, Box::new(ExponentialMechanism::paper())),
        "laplace" => (ServeMechanism::Laplace, Box::new(LaplaceMechanism::default())),
        other => unreachable!("arg parser admits only known mechanisms, got {other}"),
    };
    let service = RecommendationService::new(
        Arc::clone(&graph),
        utility(),
        ServiceConfig {
            epsilon_per_request: opts.epsilon,
            budget_per_target: f64::INFINITY,
            mechanism,
            ..Default::default()
        },
    );
    let requests: Vec<BatchRequest> =
        opts.targets.iter().map(|&target| BatchRequest { target, k: 1 }).collect();

    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
    println!(
        "ε = {} private recommendations ({} / {}):",
        opts.epsilon, opts.utility, opts.mechanism
    );
    for (&target, outcome) in opts.targets.iter().zip(service.serve_batch(&requests, opts.seed)) {
        match outcome {
            Ok(served) => {
                let candidates = CandidateSet::for_target(graph.as_ref(), target);
                let u = utility().utilities(graph.as_ref(), target, &candidates);
                let acc = if u.is_all_zero() {
                    "n/a".to_owned()
                } else {
                    let a = accuracy.expected_accuracy(
                        &u,
                        opts.epsilon,
                        service.sensitivity(),
                        &mut rng,
                    );
                    format!("{a:.3}")
                };
                // Name the pick by its source-file label when one exists.
                let label = super::original_label(ids.as_ref(), served.recommendations[0]);
                println!("  {target:>8}: recommend {label} (expected accuracy {acc})");
            }
            Err(ServeError::UnknownTarget { .. }) => {
                println!("  {target:>8}: not a node in this graph");
            }
            Err(ServeError::NoCandidates { .. }) => {
                println!("  {target:>8}: no candidates (fully connected target)");
            }
            Err(e) => unreachable!("an unbounded k = 1 service refuses nothing else: {e}"),
        }
    }
}
