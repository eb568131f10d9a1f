//! The frontier report: one machine-readable answer per sweep.
//!
//! A [`FrontierReport`] is the deliverable of a complete sweep: the plan
//! echoed back, every cell's measurement sorted by index, and a
//! `recommendations` section that answers the paper's question as a
//! query — for each (dataset, utility, adjacency, ε) workload, which
//! mechanism achieved the best measured accuracy *while staying
//! consistent with its configured budget*.
//!
//! Reports carry **no timestamps, git SHAs or host details** — a report
//! is a pure function of its plan, so the same plan and seed produce a
//! byte-identical `frontier.json` across worker counts and kill/resume
//! boundaries (the determinism suites pin exactly this).

use serde::{Deserialize, Serialize};

use crate::cell::CellResult;
use crate::plan::ExperimentPlan;

/// The winning mechanism for one workload: the best measured accuracy
/// among budget-consistent cells of a (dataset, utility, adjacency, ε)
/// group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Dataset label of the group.
    pub dataset: String,
    /// Utility function of the group.
    pub utility: String,
    /// Adjacency notion of the group.
    pub adjacency: String,
    /// Per-observation ε of the group (`None` groups the ε-less
    /// mechanisms).
    pub epsilon: Option<f64>,
    /// The winning mechanism.
    pub mechanism: String,
    /// The winning cell's measured accuracy.
    pub mean_accuracy: Option<f64>,
    /// The winning cell's Corollary-1 accuracy ceiling.
    pub accuracy_bound: f64,
    /// Strongest certified ε lower bound any adversary achieved against
    /// the winning cell.
    pub certified_epsilon_lower: f64,
    /// Whether every adversary's measurement was consistent with the
    /// winning cell's configured budget.
    pub consistent: bool,
}

/// The single frontier report a complete sweep emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierReport {
    /// The plan that produced this report.
    pub plan: ExperimentPlan,
    /// The plan's fingerprint (hex), binding report to journal.
    pub fingerprint: String,
    /// Number of measured cells (equals the grid size).
    pub total_cells: usize,
    /// Every cell, sorted by index.
    pub cells: Vec<CellResult>,
    /// Per-workload winners. See [`Recommendation`].
    pub recommendations: Vec<Recommendation>,
}

/// Whether every adversary's measurement in a cell respected the budget.
fn cell_consistent(cell: &CellResult) -> bool {
    cell.adversaries.iter().all(|a| a.consistent)
}

/// Strongest certified ε lower bound across a cell's adversaries.
fn certified_lower(cell: &CellResult) -> f64 {
    cell.adversaries.iter().map(|a| a.empirical_epsilon_lower).fold(0.0, f64::max)
}

impl FrontierReport {
    /// Assembles the report from a complete sweep's cells (already sorted
    /// by index — [`crate::run_sweep`] guarantees that order).
    #[must_use]
    pub fn assemble(plan: &ExperimentPlan, fingerprint: u64, cells: Vec<CellResult>) -> Self {
        let recommendations = recommend(&cells);
        FrontierReport {
            plan: plan.clone(),
            fingerprint: format!("{fingerprint:016x}"),
            total_cells: cells.len(),
            cells,
            recommendations,
        }
    }

    /// The canonical serialised form written to `frontier.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports serialise")
    }

    /// Parses a report back (for the determinism suites and downstream
    /// tooling).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid frontier report: {e}"))
    }

    /// Renders the human-readable summary printed next to the JSON: one
    /// line per workload winner, accuracy vs. ceiling vs. certified ε.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "frontier '{}': {} cells measured (plan {})\n",
            self.plan.name, self.total_cells, self.fingerprint
        ));
        for r in &self.recommendations {
            let eps = r.epsilon.map_or("eps-free".to_owned(), |e| format!("eps={e}"));
            let acc = r.mean_accuracy.map_or("n/a".to_owned(), |a| format!("{a:.3}"));
            out.push_str(&format!(
                "  {} / {} / {} / {eps}: {} accuracy {acc} (ceiling {:.3}), \
                 certified eps >= {:.3}{}\n",
                r.dataset,
                r.utility,
                r.adjacency,
                r.mechanism,
                r.accuracy_bound,
                r.certified_epsilon_lower,
                if r.consistent { "" } else { " [INCONSISTENT]" },
            ));
        }
        out
    }
}

/// A workload group key: (dataset, utility, adjacency, ε bit pattern).
type WorkloadKey = (String, String, String, Option<u64>);

/// Groups cells by (dataset, utility, adjacency, ε) in cell-index order
/// and picks each group's winner: the best measured accuracy among
/// budget-consistent cells, falling back to the best overall when no
/// cell is consistent (the fallback is flagged by `consistent: false`).
fn recommend(cells: &[CellResult]) -> Vec<Recommendation> {
    let mut groups: Vec<(WorkloadKey, Vec<&CellResult>)> = Vec::new();
    for cell in cells {
        // ε keyed by bit pattern: plans list finite positive values, and
        // grouping must be exact, not approximate.
        let key = (
            cell.dataset.clone(),
            cell.spec.utility.clone(),
            cell.spec.adjacency.clone(),
            cell.spec.epsilon.map(f64::to_bits),
        );
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(cell),
            None => groups.push((key, vec![cell])),
        }
    }
    groups
        .into_iter()
        .map(|(_, members)| {
            let winner = members
                .iter()
                .filter(|c| cell_consistent(c))
                .max_by(|a, b| {
                    let (a, b) = (a.mean_accuracy.unwrap_or(-1.0), b.mean_accuracy.unwrap_or(-1.0));
                    a.partial_cmp(&b).expect("accuracies are finite")
                })
                .copied()
                .unwrap_or_else(|| {
                    members
                        .iter()
                        .max_by(|a, b| {
                            let (a, b) =
                                (a.mean_accuracy.unwrap_or(-1.0), b.mean_accuracy.unwrap_or(-1.0));
                            a.partial_cmp(&b).expect("accuracies are finite")
                        })
                        .copied()
                        .expect("groups are non-empty")
                });
            Recommendation {
                dataset: winner.dataset.clone(),
                utility: winner.spec.utility.clone(),
                adjacency: winner.spec.adjacency.clone(),
                epsilon: winner.spec.epsilon,
                mechanism: winner.spec.mechanism.clone(),
                mean_accuracy: winner.mean_accuracy,
                accuracy_bound: winner.accuracy_bound,
                certified_epsilon_lower: certified_lower(winner),
                consistent: cell_consistent(winner),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sweep, SweepOptions};

    #[test]
    fn report_round_trips_and_is_stable() {
        let plan = ExperimentPlan::toy();
        let outcome = run_sweep(&plan, &SweepOptions::default()).unwrap();
        assert!(outcome.complete);
        let report = FrontierReport::assemble(&plan, outcome.fingerprint, outcome.results);
        let json = report.to_json();
        let back = FrontierReport::from_json(&json).unwrap();
        assert_eq!(report, back);
        assert_eq!(json, back.to_json(), "serialise ∘ parse ∘ serialise is the identity");
        assert!(!report.recommendations.is_empty());
        let text = report.render_text();
        assert!(text.contains("frontier 'toy'"));
        assert!(text.contains("certified eps >="));
    }

    #[test]
    fn recommendations_group_by_workload() {
        let plan = ExperimentPlan::toy();
        let outcome = run_sweep(&plan, &SweepOptions::default()).unwrap();
        let report = FrontierReport::assemble(&plan, outcome.fingerprint, outcome.results);
        // toy: 1 dataset × 1 utility × 1 adjacency × (2 ε for exponential
        // + 1 ε-free group for non-private) = 3 workload groups.
        assert_eq!(report.recommendations.len(), 3);
        let eps_free: Vec<_> =
            report.recommendations.iter().filter(|r| r.epsilon.is_none()).collect();
        assert_eq!(eps_free.len(), 1);
        assert_eq!(eps_free[0].mechanism, "non-private");
    }
}
