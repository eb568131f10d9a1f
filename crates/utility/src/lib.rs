//! Graph link-analysis utility functions.
//!
//! The paper's recommenders are driven by a *utility vector* `u^{G,r}`
//! assigning each candidate node a goodness score for recommendation to
//! the target `r`, derived solely from graph structure (§3.1). This crate
//! implements:
//!
//! * [`CommonNeighbors`] — the running example `u_i = C(i, r)` (§4.1),
//! * [`WeightedPaths`] — `score(r, y) = Σ_{l≥2} γ^{l-2}|paths_l(r, y)|`
//!   truncated at length 3 as in the experiments (§5.2, §7.1),
//! * [`PersonalizedPageRank`] — the PageRank-distribution utility the
//!   paper cites from the link-prediction literature [12, 14],
//! * [`extra`] — Adamic–Adar, Jaccard and preferential-attachment scores
//!   (the "other utility functions" of §8's future work).
//!
//! Each implementation reports its global sensitivity `Δf` (footnote 5)
//! under the §5/§7 *relaxed* edge neighbourhood — pairs of graphs that
//! differ in one edge not incident to the target — in both `‖·‖₁` and
//! `‖·‖∞`, and the crate provides an empirical sensitivity auditor used by
//! property tests to validate the analytic bounds.

mod candidates;
mod common_neighbors;
pub mod extra;
mod pagerank;
mod sensitivity;
mod traits;
mod vector;
mod weighted_paths;

pub use candidates::CandidateSet;
pub use common_neighbors::CommonNeighbors;
pub use pagerank::PersonalizedPageRank;
pub use sensitivity::{
    calibrated_sensitivity, empirical_sensitivity, EmpiricalSensitivity, Sensitivity,
    SensitivityNorm,
};
pub use traits::UtilityFunction;
pub use vector::UtilityVector;
pub use weighted_paths::WeightedPaths;
