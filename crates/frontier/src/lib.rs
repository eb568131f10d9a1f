//! # psr-frontier
//!
//! The privacy–utility sweep lab: an orchestrated, resumable answer to
//! the paper's central question — *for each mechanism, utility function
//! and graph, what accuracy does ε actually buy, and what does an
//! adversary actually extract?*
//!
//! The repo's other subsystems probe that trade-off point by point
//! (`psr serve` for accuracy, `psr attack` for empirical ε, `psr bounds`
//! for theory). This crate turns the point probes into one experiment
//! orchestrator:
//!
//! * an [`ExperimentPlan`] declares a grid of mechanisms × utility
//!   functions × datasets/backends × adjacency notions × ε values
//!   ([`plan`]),
//! * [`run_sweep`] expands the grid into independent [`CellSpec`]s and
//!   fans them across a worker pool — per-cell deterministic seed
//!   streams make results thread-count-invariant ([`sweep`]),
//! * each (dataset, utility, adjacency) [`AttackTarget`] — the secret
//!   edge or rewired node a cell attacks — is resolved once per sweep,
//!   ahead of the cells, and only when a pending cell needs it
//!   ([`sweep`]); [`run_cell`] resolves its own for one-off cells,
//! * each cell executes through the real attack harness (and therefore
//!   the real [`psr_core::serving::RecommendationService`]), measuring
//!   the theoretical bounds, the achieved accuracy and the empirical ε̂
//!   of the full adversary panel, every estimate with Clopper–Pearson
//!   error bars ([`cell`]),
//! * finished cells checkpoint into an append-only [`ResultsJournal`]
//!   (the budget ledger's header/CRC/longest-valid-prefix idioms, via
//!   [`psr_core::serving::journal`]), so a killed sweep resumes without
//!   recomputation ([`journal`]),
//! * a complete sweep assembles one machine-readable [`FrontierReport`]
//!   — `frontier.json` plus a text summary — answering "which mechanism
//!   at which budget for which workload" as a query ([`report`]).
//!
//! Reports are pure functions of their plans: no timestamps, no git
//! SHAs, and cells ordered by grid index rather than completion time, so
//! the same plan and seed produce a byte-identical report across worker
//! counts and kill/resume boundaries.

pub mod cell;
pub mod journal;
pub mod plan;
pub mod report;
pub mod sweep;

pub use cell::{
    resolve_target, run_cell, run_cell_on, AdversaryCell, AttackTarget, CellResult, CellSpec,
    Interval,
};
pub use journal::ResultsJournal;
pub use plan::{DatasetSpec, ExperimentPlan};
pub use report::{FrontierReport, Recommendation};
pub use sweep::{run_sweep, SweepOptions, SweepOutcome};
