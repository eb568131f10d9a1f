//! Differentially private recommendation mechanisms (paper §6, App. D–F).
//!
//! Implements the two mechanisms the paper adapts to social
//! recommendations, plus the sampling-based smoothing mechanism from
//! Appendix F:
//!
//! * [`ExponentialMechanism`] (Def. 5) — recommends node `i` with
//!   probability `∝ e^{(ε/Δf)·uᵢ}`; its expected accuracy has a closed
//!   form, evaluated exactly here.
//! * [`LaplaceMechanism`] (Def. 6) — perturbs every utility with
//!   `Lap(Δf/ε)` noise and recommends the noisy argmax; evaluated by
//!   Monte-Carlo over an *exact grouped max* sampler (zero-utility
//!   candidates are exchangeable, and the max of `N` i.i.d. Laplace draws
//!   can be sampled directly through the quantile of `F^N`), making
//!   full-graph evaluation feasible at the paper's scales.
//! * [`LinearSmoothing`] (Def. 7 / Theorem 5) — mixes any base
//!   recommender with the uniform distribution; `ln(1 + nx/(1−x))`-DP with
//!   accuracy `x·μ`.
//! * [`closed_form`] — Lemma 3's exact two-candidate Laplace win
//!   probability, used to show Laplace ≢ Exponential (App. E).
//! * [`ServeMechanism`] — the one slot sampler every serving path calls,
//!   for all three mechanisms; [`resolve_slots`] names the zero-class
//!   slots it draws.
//! * [`audit`] — exact DP-ratio verification on neighbouring inputs.
//! * [`topk`] — the one-pass top-`k` extension (§8 / App. A "multiple
//!   recommendations").

pub mod audit;
pub mod closed_form;
mod exponential;
mod laplace_dist;
mod laplace_mech;
pub mod mechanism;
mod smoothing;
pub mod topk;

pub use exponential::{ExponentialMechanism, ExponentialScaling};
pub use laplace_dist::Laplace;
pub use laplace_mech::LaplaceMechanism;
pub use mechanism::{
    resolve_slots, resolve_zero_class_distinct, Mechanism, Recommendation, ServeMechanism,
};
pub use smoothing::LinearSmoothing;
pub use topk::{topk_gumbel, TopK};
#[doc(hidden)]
pub use topk::{topk_with_engine, TopKEngine};
