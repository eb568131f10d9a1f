//! Utility-function sensitivity (`Δf`, footnote 5 of the paper).
//!
//! Footnote 5 defines `Δf = max_r max_{G,G'=G±e} ‖u^{G,r} − u^{G',r}‖`. The
//! norm is unsubscripted in the paper; we carry both readings and default
//! to `‖·‖₁` (the Laplace/histogram reading of Dwork et al. [8]). Under the
//! relaxed neighbourhood of §5/§7 the edge `e` is never incident to the
//! target.

use serde::{Deserialize, Serialize};

use psr_graph::{Graph, GraphView, MutableGraph, NodeId};

use crate::candidates::CandidateSet;
use crate::traits::UtilityFunction;

/// Which norm `Δf` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SensitivityNorm {
    /// `‖·‖₁` — sum of per-candidate changes (default).
    #[default]
    L1,
    /// `‖·‖∞` — maximum per-candidate change.
    LInf,
}

/// Analytic global sensitivity bounds for a utility function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sensitivity {
    /// Bound on `‖u_G − u_{G'}‖₁`.
    pub l1: f64,
    /// Bound on `‖u_G − u_{G'}‖∞`.
    pub linf: f64,
}

impl Sensitivity {
    /// The bound under the chosen norm.
    pub fn value(&self, norm: SensitivityNorm) -> f64 {
        match norm {
            SensitivityNorm::L1 => self.l1,
            SensitivityNorm::LInf => self.linf,
        }
    }
}

/// The `Δf` every service, experiment and attack model calibrates with:
/// the override when given, else `utility`'s analytic bound under `norm`.
///
/// # Panics
/// Panics if the utility reports no sensitivity and no override was given.
pub fn calibrated_sensitivity(
    utility: &dyn UtilityFunction,
    graph: &dyn GraphView,
    norm: SensitivityNorm,
    sensitivity_override: Option<f64>,
) -> f64 {
    sensitivity_override
        .or_else(|| utility.sensitivity(graph).map(|s| s.value(norm)))
        .expect("utility reports no sensitivity and no override was given")
}

/// Observed sensitivity from an explicit set of edge flips.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EmpiricalSensitivity {
    /// Largest observed `‖u_G − u_{G'}‖₁`.
    pub l1: f64,
    /// Largest observed `‖u_G − u_{G'}‖∞`.
    pub linf: f64,
    /// Number of `(target, edge)` pairs probed.
    pub samples: usize,
}

/// Measures utility change over explicit `(target, edge)` probes: for each
/// probe the edge (which must not touch the target) is toggled and the
/// utility vector recomputed. Returns the worst observed norms — a *lower*
/// bound on true global sensitivity, used by property tests to check that
/// analytic bounds are never violated (`empirical ≤ analytic`).
pub fn empirical_sensitivity<U: UtilityFunction + ?Sized>(
    utility: &U,
    graph: &Graph,
    probes: &[(NodeId, (NodeId, NodeId))],
) -> EmpiricalSensitivity {
    let mut worst = EmpiricalSensitivity::default();
    for &(target, (a, b)) in probes {
        assert!(a != target && b != target, "relaxed neighbourhood: edge must avoid target");
        if a == b {
            continue;
        }
        let candidates = CandidateSet::for_target(graph, target);
        let before = utility.utilities(graph, target, &candidates);

        let mut m = MutableGraph::from(graph);
        m.toggle_edge(a, b).expect("valid probe edge");
        let flipped = m.freeze();
        // The candidate set never changes: the flipped edge avoids the
        // target, so the target's neighbour list is intact.
        let after = utility.utilities(&flipped, target, &candidates);

        let (mut l1, mut linf) = (0.0f64, 0.0f64);
        // Walk the union of sparse supports.
        let (mut i, mut j) = (0usize, 0usize);
        let (xs, ys) = (before.nonzero(), after.nonzero());
        while i < xs.len() || j < ys.len() {
            let d = match (xs.get(i), ys.get(j)) {
                (Some(&(vi, ui)), Some(&(vj, uj))) if vi == vj => {
                    i += 1;
                    j += 1;
                    (ui - uj).abs()
                }
                (Some(&(vi, ui)), Some(&(vj, _))) if vi < vj => {
                    i += 1;
                    ui
                }
                (Some(_), Some(&(_, uj))) => {
                    j += 1;
                    uj
                }
                (Some(&(_, ui)), None) => {
                    i += 1;
                    ui
                }
                (None, Some(&(_, uj))) => {
                    j += 1;
                    uj
                }
                (None, None) => unreachable!(),
            };
            l1 += d;
            linf = linf.max(d);
        }
        worst.l1 = worst.l1.max(l1);
        worst.linf = worst.linf.max(linf);
        worst.samples += 1;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_selection() {
        let s = Sensitivity { l1: 2.0, linf: 1.0 };
        assert_eq!(s.value(SensitivityNorm::L1), 2.0);
        assert_eq!(s.value(SensitivityNorm::LInf), 1.0);
        assert_eq!(SensitivityNorm::default(), SensitivityNorm::L1);
    }

    #[test]
    fn empirical_probe_on_common_neighbors() {
        // Path 0-1-2-3; target 0. Toggling (1, 3) changes C(3, 0) by 1.
        let g = psr_graph::GraphBuilder::new(psr_graph::Direction::Undirected)
            .add_edges([(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        let cn = crate::CommonNeighbors;
        let obs = empirical_sensitivity(&cn, &g, &[(0, (1, 3))]);
        assert_eq!(obs.samples, 1);
        assert_eq!(obs.l1, 1.0);
        assert_eq!(obs.linf, 1.0);
    }

    #[test]
    #[should_panic(expected = "edge must avoid target")]
    fn probes_touching_target_rejected() {
        let g = psr_graph::GraphBuilder::new(psr_graph::Direction::Undirected)
            .add_edges([(0, 1), (1, 2)])
            .build()
            .unwrap();
        let cn = crate::CommonNeighbors;
        let _ = empirical_sensitivity(&cn, &g, &[(0, (0, 2))]);
    }
}
