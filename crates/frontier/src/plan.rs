//! Experiment plans: the declarative grid a frontier sweep expands.
//!
//! An [`ExperimentPlan`] names every axis of the paper's trade-off
//! question at once — mechanisms × utility functions × datasets/backends
//! × adjacency notions × ε values — plus the shared scenario knobs (rounds, trials, confidence). [`ExperimentPlan::
//! expand`] turns the grid into a flat list of independent
//! [`CellSpec`](crate::CellSpec)s with stable indices; the index is the
//! cell's identity in the results journal and the seed stream, so the
//! same plan always expands to the same cells in the same order.
//!
//! Plans are plain JSON. Every field is required (a plan that silently
//! filled in trials or ε values would not be a reproducible artefact);
//! [`ExperimentPlan::toy`] emits a complete karate-club template to start
//! from.

use serde::{Deserialize, Serialize};

use crate::cell::CellSpec;

/// Mechanisms a plan may sweep.
pub const MECHANISMS: &[&str] = &["exponential", "laplace", "smoothing", "non-private"];
/// Utility functions a plan may sweep.
pub const UTILITIES: &[&str] = &["common-neighbors", "weighted-paths"];
/// Adjacency notions a plan may sweep.
pub const ADJACENCIES: &[&str] = &["edge", "node"];
/// Graph backings a dataset axis may pin.
pub const BACKENDS: &[&str] = &["csr", "compressed"];
/// Generated presets a dataset axis may name (plus `karate`).
pub const PRESETS: &[&str] = &["karate", "wiki", "twitter", "livejournal"];

/// One dataset axis of the grid: which graph, through which backing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// `karate`, or a generated preset (`wiki`, `twitter`,
    /// `livejournal`). Ignored when `input` or `snapshot` is given, but
    /// still names the dataset in reports.
    pub preset: String,
    /// Optional SNAP edge-list path to load instead of a preset.
    pub input: Option<String>,
    /// Whether `input` is read as a directed graph.
    pub directed: bool,
    /// Preset size multiplier in `(0, 1]`.
    pub scale: f64,
    /// Graph backing the cells run through: `csr` or `compressed`
    /// (round-trips the graph through the PSRZ codec first).
    pub backend: String,
    /// Optional PSRZ snapshot path; implies the compressed backing and
    /// excludes `input`.
    pub snapshot: Option<String>,
}

impl DatasetSpec {
    /// A plain in-RAM karate-club axis, the toy default.
    #[must_use]
    pub fn karate() -> Self {
        DatasetSpec {
            preset: "karate".to_owned(),
            input: None,
            directed: false,
            scale: 1.0,
            backend: "csr".to_owned(),
            snapshot: None,
        }
    }

    /// The human-readable dataset label used in reports.
    #[must_use]
    pub fn label(&self) -> String {
        self.snapshot.clone().or_else(|| self.input.clone()).unwrap_or_else(|| self.preset.clone())
    }
}

/// The declarative sweep grid. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPlan {
    /// Plan name, echoed into the report.
    pub name: String,
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Dataset axes.
    pub datasets: Vec<DatasetSpec>,
    /// Mechanism axis (`exponential`, `laplace`, `smoothing`,
    /// `non-private`). Mechanisms without an ε parameter collapse the ε
    /// axis to a single cell.
    pub mechanisms: Vec<String>,
    /// Utility-function axis (`common-neighbors`, `weighted-paths`).
    pub utilities: Vec<String>,
    /// Adjacency axis (`edge` per Definition 1, `node` per Appendix A).
    pub adjacencies: Vec<String>,
    /// Per-observation ε axis (every value positive and finite).
    pub epsilons: Vec<f64>,
    /// perfbench shim: delete in the next benchmark change. The top-`k`
    /// engine axis was removed; [`ExperimentPlan::validate`] accepts only
    /// `[]` or `["gumbel"]`, and nothing else reads it.
    #[doc(hidden)]
    #[serde(default)]
    pub engines: Vec<String>,
    /// Path-damping γ for `weighted-paths`.
    pub gamma: f64,
    /// Smoothing-mechanism mixing weight `x ∈ [0, 1)` (Theorem 5); only
    /// checked when `smoothing` is on the mechanism axis.
    pub smoothing_x: f64,
    /// Observation rounds per transcript.
    pub rounds: usize,
    /// Recommendation slots per observation (must be 1 when `laplace` or
    /// `smoothing` is on the mechanism axis).
    pub k: usize,
    /// Monte-Carlo trials per world.
    pub trials_per_world: usize,
    /// Maximum observers per scenario.
    pub observer_cap: usize,
    /// Two-sided confidence level of every Clopper–Pearson interval.
    pub confidence: f64,
}

impl ExperimentPlan {
    /// A complete toy plan: 2 mechanisms × 2 ε on karate, small trial
    /// counts — the CI smoke and the starting template `psr frontier
    /// --write-plan` emits.
    #[must_use]
    pub fn toy() -> Self {
        ExperimentPlan {
            name: "toy".to_owned(),
            seed: 42,
            datasets: vec![DatasetSpec::karate()],
            mechanisms: vec!["exponential".to_owned(), "non-private".to_owned()],
            utilities: vec!["common-neighbors".to_owned()],
            adjacencies: vec!["edge".to_owned()],
            epsilons: vec![0.5, 2.0],
            engines: Vec::new(),
            gamma: 0.5,
            smoothing_x: 0.05,
            rounds: 2,
            k: 1,
            trials_per_world: 12,
            observer_cap: 2,
            confidence: 0.95,
        }
    }

    /// Parses a plan from JSON (every field required).
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid plan JSON: {e}"))
    }

    /// The canonical JSON form (pretty-printed, struct field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plans serialise")
    }

    /// Checks every axis against the same rules the CLI enforces
    /// point-wise. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        fn subset(kind: &str, values: &[String], allowed: &[&str]) -> Result<(), String> {
            if values.is_empty() {
                return Err(format!("plan has an empty {kind} axis"));
            }
            for v in values {
                if !allowed.contains(&v.as_str()) {
                    return Err(format!("unknown {kind} {v:?}; expected one of {allowed:?}"));
                }
            }
            Ok(())
        }
        subset("mechanism", &self.mechanisms, MECHANISMS)?;
        subset("utility", &self.utilities, UTILITIES)?;
        subset("adjacency", &self.adjacencies, ADJACENCIES)?;
        if !(self.engines.is_empty() || self.engines == ["gumbel"]) {
            return Err(format!(
                "the top-k engine axis was removed (every Exponential cell draws through one \
                 sampler); drop \"engines\": {:?} from the plan",
                self.engines
            ));
        }
        if self.datasets.is_empty() {
            return Err("plan has an empty dataset axis".to_owned());
        }
        for d in &self.datasets {
            if !PRESETS.contains(&d.preset.as_str()) {
                return Err(format!("unknown preset {:?}; expected one of {PRESETS:?}", d.preset));
            }
            if !BACKENDS.contains(&d.backend.as_str()) {
                return Err(format!(
                    "unknown backend {:?}; expected one of {BACKENDS:?}",
                    d.backend
                ));
            }
            if !(d.scale > 0.0 && d.scale <= 1.0) {
                return Err(format!("scale {} out of range (0, 1]", d.scale));
            }
            if d.snapshot.is_some() && d.input.is_some() {
                return Err("a dataset axis cannot give both snapshot and input".to_owned());
            }
            if d.snapshot.is_some() && d.backend != "compressed" {
                return Err("a snapshot axis must use the compressed backend".to_owned());
            }
        }
        if self.epsilons.is_empty() {
            return Err("plan has an empty epsilon axis".to_owned());
        }
        for &eps in &self.epsilons {
            if !(eps > 0.0 && eps.is_finite()) {
                return Err(format!("epsilon {eps} must be positive and finite"));
            }
        }
        let scalar_mechanism = self.mechanisms.iter().any(|m| m == "laplace" || m == "smoothing");
        if scalar_mechanism && self.k != 1 {
            return Err(format!(
                "k = {} but laplace/smoothing release scalar observations; k must be 1",
                self.k
            ));
        }
        if self.rounds == 0 || self.k == 0 || self.trials_per_world == 0 || self.observer_cap == 0 {
            return Err("rounds, k, trials_per_world and observer_cap must be positive".to_owned());
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(format!("confidence {} out of range (0, 1)", self.confidence));
        }
        if !(self.gamma > 0.0 && self.gamma < 1.0) {
            return Err(format!("gamma {} out of range (0, 1)", self.gamma));
        }
        let smoothing = self.mechanisms.iter().any(|m| m == "smoothing");
        if smoothing && !(0.0..1.0).contains(&self.smoothing_x) {
            return Err(format!("smoothing_x {} must be in [0, 1)", self.smoothing_x));
        }
        Ok(())
    }

    /// The plan's identity: FNV-1a-64 of its canonical JSON. The results
    /// journal binds its header to this, so a journal can never be
    /// replayed against a different plan.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        psr_core::serving::journal::fnv1a64(self.to_json().as_bytes())
    }

    /// Expands the grid into its independent cells, in a fixed nested
    /// order (datasets → utilities → adjacencies → mechanisms → ε) with
    /// sequential indices.
    ///
    /// Mechanisms without an ε parameter (`smoothing`, `non-private`)
    /// collapse the ε axis: one cell per (dataset, utility, adjacency)
    /// with `epsilon: None`.
    #[must_use]
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for (dataset, _) in self.datasets.iter().enumerate() {
            for utility in &self.utilities {
                for adjacency in &self.adjacencies {
                    for mechanism in &self.mechanisms {
                        let epsilons: Vec<Option<f64>> = match mechanism.as_str() {
                            "smoothing" | "non-private" => vec![None],
                            _ => self.epsilons.iter().map(|&e| Some(e)).collect(),
                        };
                        for epsilon in epsilons {
                            cells.push(CellSpec {
                                index: cells.len(),
                                dataset,
                                utility: utility.clone(),
                                adjacency: adjacency.clone(),
                                mechanism: mechanism.clone(),
                                epsilon,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_plan_is_valid_and_round_trips() {
        let plan = ExperimentPlan::toy();
        plan.validate().unwrap();
        let json = plan.to_json();
        let back = ExperimentPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        assert_eq!(plan.fingerprint(), back.fingerprint());
        // The retired engine axis may be left out.
        let without = json.replace("\n  \"engines\": [],", "");
        assert_ne!(without, json);
        assert_eq!(ExperimentPlan::from_json(&without).unwrap(), plan);
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let plan = ExperimentPlan::toy();
        let mut other = plan.clone();
        other.epsilons[0] = 0.25;
        assert_ne!(plan.fingerprint(), other.fingerprint());
        let mut other = plan.clone();
        other.seed = 43;
        assert_ne!(plan.fingerprint(), other.fingerprint());
    }

    #[test]
    fn expansion_order_and_collapse_rules() {
        let mut plan = ExperimentPlan::toy();
        plan.mechanisms =
            vec!["exponential".to_owned(), "smoothing".to_owned(), "laplace".to_owned()];
        plan.epsilons = vec![0.5, 1.0];
        let cells = plan.expand();
        // exponential: 2 ε; smoothing: 1 cell; laplace: 2 ε.
        assert_eq!(cells.len(), 2 + 1 + 2);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i, "indices are sequential");
        }
        let smoothing: Vec<_> = cells.iter().filter(|c| c.mechanism == "smoothing").collect();
        assert_eq!(smoothing.len(), 1);
        assert_eq!(smoothing[0].epsilon, None, "no ε axis for smoothing");
        assert!(cells.iter().filter(|c| c.mechanism == "laplace").all(|c| c.epsilon.is_some()));
        // Same plan, same expansion.
        assert_eq!(cells, plan.expand());
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut plan = ExperimentPlan::toy();
        plan.mechanisms = vec!["laplace".to_owned()];
        plan.k = 3;
        assert!(plan.validate().unwrap_err().contains("k must be 1"));

        let mut plan = ExperimentPlan::toy();
        plan.epsilons = vec![0.5, -1.0];
        assert!(plan.validate().is_err());

        let mut plan = ExperimentPlan::toy();
        plan.mechanisms = vec!["rappor".to_owned()];
        assert!(plan.validate().unwrap_err().contains("unknown mechanism"));

        let mut plan = ExperimentPlan::toy();
        plan.datasets[0].snapshot = Some("x.psrz".to_owned());
        assert!(plan.validate().unwrap_err().contains("compressed"));

        // The retired engine axis: absent or `["gumbel"]` only.
        let mut plan = ExperimentPlan::toy();
        plan.engines = vec!["gumbel".to_owned()];
        plan.validate().unwrap();
        plan.engines = vec!["peel".to_owned(), "gumbel".to_owned()];
        assert!(plan.validate().unwrap_err().contains("the top-k engine axis was removed"));

        let mut plan = ExperimentPlan::toy();
        plan.mechanisms = vec!["smoothing".to_owned()];
        plan.smoothing_x = 1.0;
        assert!(plan.validate().unwrap_err().contains("smoothing_x"));
        // Without a smoothing cell the parameter is unused and unchecked.
        plan.mechanisms = vec!["laplace".to_owned()];
        plan.validate().unwrap();
    }
}
