//! Shared fixtures for the benchmark suite.
//!
//! Benches regenerate the paper's figures (see `benches/figures.rs`, one
//! target per figure) and measure each architectural layer in isolation.
//! Fixtures are generated once per process with fixed seeds so numbers are
//! comparable across runs.

use psr_datasets::{twitter_like, wiki_vote_like, PresetConfig};
use psr_gen::{ba_undirected, rng_from_seed, BaParams};
use psr_graph::Graph;

pub mod snapshot;

/// Seed used by every benchmark fixture.
pub const BENCH_SEED: u64 = 2011;

/// Node count of the [`ba_graph_10k`] preset.
pub const BA_NODES: usize = 10_000;

/// The 10k-node Barabási–Albert preset of the mutation benches (mean
/// degree 10).
pub fn ba_graph_10k() -> Graph {
    let mut rng = rng_from_seed(BENCH_SEED);
    ba_undirected(BaParams { n: BA_NODES, target_edges: 5 * BA_NODES }, &mut rng)
        .expect("generation")
}

/// Full-scale Wikipedia-vote-like fixture (7,115 nodes).
pub fn wiki_graph() -> Graph {
    wiki_vote_like(PresetConfig::full(BENCH_SEED)).expect("generation").0
}

/// Reduced Twitter-like fixture (30% scale ≈ 29k nodes) — full scale is
/// reserved for the figure benches, which sample only 1% of targets.
pub fn twitter_graph_small() -> Graph {
    twitter_like(PresetConfig::scaled(0.3, BENCH_SEED)).expect("generation").0
}

/// Full-scale Twitter-like fixture (96,403 nodes).
pub fn twitter_graph_full() -> Graph {
    twitter_like(PresetConfig::full(BENCH_SEED)).expect("generation").0
}

/// A deterministic mid-degree target on any graph: the node whose degree
/// is closest to the graph's mean (ties to the lowest id).
pub fn median_target(graph: &Graph) -> u32 {
    let mean = graph.num_arcs() as f64 / graph.num_nodes() as f64;
    graph
        .nodes()
        .min_by_key(|&v| {
            let d = graph.degree(v) as f64;
            ((d - mean).abs() * 1000.0) as u64
        })
        .expect("non-empty graph")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(wiki_graph(), wiki_graph());
    }

    #[test]
    fn median_target_is_stable_and_valid() {
        let g = wiki_graph();
        let t = median_target(&g);
        assert!(g.degree(t) > 0);
        assert_eq!(t, median_target(&g));
    }
}
