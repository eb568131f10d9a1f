//! Top-`k` recommendations (extension).
//!
//! Appendix A notes the paper's single-recommendation lower bounds "imply
//! stronger negative results for making multiple recommendations". This
//! module makes that concrete: `k` Exponential-mechanism draws without
//! replacement, each charged `ε/k`, are `ε`-DP by basic composition. The
//! ablation bench measures how fast per-slot accuracy collapses as `k`
//! grows — the quantitative version of the appendix's remark.
//!
//! [`topk_gumbel`] samples that `k`-round peel in one pass, O(|C| +
//! k log k) per request. [`crate::ServeMechanism::sample`] is the one
//! Exponential sampler every serving path calls: it draws a one-slot
//! request with Definition 5's walk and two or more slots here. The
//! chi-square conformance suite pins both sides against the exactly
//! enumerated peel distribution.

use psr_graph::NodeId;
use psr_utility::UtilityVector;
use rand::Rng;

use crate::ServeMechanism;

/// perfbench shim: delete in the next benchmark change.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopKEngine {
    /// The one-pass Gumbel-max sampler.
    #[default]
    Gumbel,
}

/// Result of a top-`k` draw.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Distinct recommended nodes (zero-class picks are reported as
    /// `None` slots since the class is anonymous).
    pub picks: Vec<Option<NodeId>>,
    /// Sum of utilities of the recommended slots.
    pub total_utility: f64,
}

/// A standard Gumbel(0, 1) variate: `−ln(−ln U)`, `U ∈ [0, 1)`. A zero
/// roll lands the key at −∞ — the worst possible key, never a crash.
fn gumbel(rng: &mut dyn rand::RngCore) -> f64 {
    let u: f64 = rng.gen();
    -(-u.ln()).ln()
}

/// A standard Exponential(1) variate: `−ln(1 − U)` keeps the argument in
/// `(0, 1]`, so the result is finite and non-negative.
fn exp1(rng: &mut dyn rand::RngCore) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln()
}

/// Draws `k` distinct recommendations in one pass with the Gumbel-max
/// trick: the top `k` of the perturbed keys `rate·uᵢ + Gumbelᵢ(0, 1)` are
/// distributed exactly as `k` rounds of Plackett–Luce peeling at weight
/// `exp(rate·uᵢ)`, because the per-round rate `ε/(k·Δf)` never changes
/// across the peel.
///
/// The anonymous zero class is handled in aggregate: its `z` members all
/// carry weight `exp(0) = 1`, so the top `min(k, z)` of their keys are
/// the descending order statistics of `z` i.i.d. Gumbels, sampled
/// directly through a Rényi exponential race (`Eᵢ₊₁ = Eᵢ + Exp(1)/(z−i)`,
/// key `= −ln Eᵢ₊₁`) without materialising the class. Zero-class winners
/// surface as `None` picks.
///
/// Cost: O(|C| + k log k) per request, against O(k·|C|) for `k` explicit
/// peeling rounds.
pub fn topk_gumbel(
    u: &UtilityVector,
    k: usize,
    eps: f64,
    sensitivity: f64,
    rng: &mut dyn rand::RngCore,
) -> TopK {
    assert!(k >= 1, "k must be positive");
    assert!(k <= u.len(), "cannot recommend more nodes than candidates");
    assert!(eps >= 0.0, "privacy parameter must be non-negative");
    assert!(sensitivity > 0.0, "sensitivity must be positive");
    let rate = eps / k as f64 / sensitivity; // per-round exponent rate s

    let nonzero = u.nonzero();
    let zeros = u.num_zero();
    let mut keyed: Vec<(f64, Option<NodeId>, f64)> =
        Vec::with_capacity(nonzero.len() + zeros.min(k));
    for &(v, x) in nonzero {
        keyed.push((rate * x + gumbel(rng), Some(v), x));
    }
    // Only the zero class's top min(k, z) keys can ever be selected, and
    // they follow the race above; later picks have strictly smaller keys,
    // so pushing them in race order keeps the aggregate draw faithful.
    let mut race = 0.0;
    for i in 0..zeros.min(k) {
        race += exp1(rng) / (zeros - i) as f64;
        keyed.push((-race.ln(), None, 0.0));
    }
    // `k ≤ len` guarantees `keyed.len() ≥ k`: either `z ≥ k` contributes
    // `k` keys on its own, or every candidate contributed one.
    debug_assert!(keyed.len() >= k);
    if keyed.len() > k {
        keyed.select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0));
        keyed.truncate(k);
    }
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    let total_utility = keyed.iter().map(|&(_, _, x)| x).sum();
    let picks = keyed.into_iter().map(|(_, v, _)| v).collect();
    TopK { picks, total_utility }
}

/// perfbench shim: delete in the next benchmark change.
#[doc(hidden)]
pub fn topk_with_engine(
    _engine: TopKEngine,
    u: &UtilityVector,
    k: usize,
    eps: f64,
    sensitivity: f64,
    rng: &mut dyn rand::RngCore,
) -> TopK {
    topk_gumbel(u, k, eps, sensitivity, rng)
}

/// The non-private optimum: sum of the `k` largest utilities. Denominator
/// of top-`k` accuracy.
pub fn topk_optimal_utility(u: &UtilityVector, k: usize) -> f64 {
    let mut vals: Vec<f64> = u.nonzero().iter().map(|&(_, x)| x).collect();
    vals.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    vals.iter().take(k).sum()
}

/// Monte-Carlo expected top-`k` accuracy of the Exponential mechanism's
/// serving sampler: `E[Σ u(slot)] / Σ top-k utilities`.
pub fn topk_expected_accuracy(
    u: &UtilityVector,
    k: usize,
    eps: f64,
    sensitivity: f64,
    trials: u32,
    rng: &mut dyn rand::RngCore,
) -> f64 {
    let denom = topk_optimal_utility(u, k);
    assert!(denom > 0.0, "accuracy undefined for all-zero utility vectors");
    let mut total = 0.0;
    for _ in 0..trials {
        total += ServeMechanism::Exponential.sample(u, k, eps, sensitivity, rng).total_utility;
    }
    total / trials as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn vector() -> UtilityVector {
        UtilityVector::from_sparse(vec![(0, 5.0), (1, 3.0), (2, 1.0)], 4)
    }

    /// The serving sampler. The tests drive it on both sides of its `k`
    /// split: one slot through Definition 5's walk, more through
    /// [`topk_gumbel`].
    fn sample(u: &UtilityVector, k: usize, eps: f64, rng: &mut dyn rand::RngCore) -> TopK {
        ServeMechanism::Exponential.sample(u, k, eps, 1.0, rng)
    }

    fn distinct_nodes(picks: &[Option<NodeId>]) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = picks.iter().flatten().copied().collect();
        let set: std::collections::HashSet<_> = nodes.iter().collect();
        assert_eq!(set.len(), nodes.len(), "duplicate picks: {picks:?}");
        nodes
    }

    #[test]
    fn draws_are_distinct() {
        let u = vector();
        for k in [1, 3] {
            for seed in 0..20 {
                let out = sample(&u, k, 10.0, &mut rng(seed));
                assert_eq!(out.picks.len(), k);
                distinct_nodes(&out.picks);
            }
        }
    }

    #[test]
    fn huge_eps_returns_the_true_top_k() {
        let u = vector();
        for (k, want, total) in [(1, vec![Some(0)], 5.0), (2, vec![Some(0), Some(1)], 8.0)] {
            let out = sample(&u, k, 1000.0, &mut rng(1));
            assert_eq!(out.picks, want);
            assert_eq!(out.total_utility, total);
        }
    }

    #[test]
    fn optimal_utility_sums_top_values() {
        let u = vector();
        assert_eq!(topk_optimal_utility(&u, 1), 5.0);
        assert_eq!(topk_optimal_utility(&u, 2), 8.0);
        assert_eq!(topk_optimal_utility(&u, 5), 9.0); // only 3 non-zero
    }

    #[test]
    fn accuracy_degrades_with_k() {
        let u = UtilityVector::from_sparse((0..6).map(|i| (i, (6 - i) as f64)).collect(), 200);
        let a1 = topk_expected_accuracy(&u, 1, 2.0, 1.0, 800, &mut rng(2));
        let a4 = topk_expected_accuracy(&u, 4, 2.0, 1.0, 800, &mut rng(2));
        // Splitting the budget four ways must hurt per-slot quality.
        assert!(a4 < a1, "k=1 acc {a1} vs k=4 acc {a4}");
    }

    #[test]
    fn k_exceeding_nonzero_pool_fills_with_zero_class() {
        let u = UtilityVector::from_sparse(vec![(0, 2.0)], 3);
        let out = sample(&u, 3, 1000.0, &mut rng(3));
        assert_eq!(out.picks[0], Some(0));
        assert_eq!(&out.picks[1..], &[None, None]);
        assert_eq!(out.total_utility, 2.0);
    }

    #[test]
    #[should_panic(expected = "cannot recommend more nodes than candidates")]
    fn k_larger_than_candidates_rejected() {
        let u = UtilityVector::from_sparse(vec![(0, 1.0)], 1);
        let _ = topk_gumbel(&u, 3, 1.0, 1.0, &mut rng(4));
    }

    #[test]
    #[should_panic(expected = "privacy parameter must be non-negative")]
    fn negative_eps_rejected() {
        let u = UtilityVector::from_sparse(vec![(0, 1.0), (1, 2.0)], 1);
        let _ = sample(&u, 2, -1.0, &mut rng(4));
    }

    /// Adversarial RNG: every draw returns the maximum roll (`1 − 2⁻⁵³`),
    /// pinning each draw to the far edge of the probability walk where
    /// the zero-class residue paths live.
    struct MaxRollRng;

    impl rand::RngCore for MaxRollRng {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0xFF);
        }
    }

    #[test]
    fn extreme_rolls_never_underflow_the_zero_class() {
        // Regression: a roll past every non-zero weight of Definition 5's
        // walk answered with the zero class even when the class was empty,
        // so a one-slot request was charged ε and got no slot.
        let ties: Vec<(NodeId, f64)> = vec![(0, 1.0), (1, 1.0), (2, 1.0)];
        let spread: Vec<(NodeId, f64)> = (0..7).map(|i| (i, 1.0 + f64::from(i) / 30.0)).collect();
        for entries in [ties, spread] {
            for num_zero in [0usize, 1, 3] {
                for eps in [0.0, 1.0, 1000.0] {
                    let u = UtilityVector::from_sparse(entries.clone(), num_zero);
                    for k in [1, 3] {
                        let case = format!("n={} num_zero={num_zero} eps={eps} k={k}", u.len());
                        let out = sample(&u, k, eps, &mut MaxRollRng);
                        assert_eq!(out.picks.len(), k, "{case}");
                        let nodes = distinct_nodes(&out.picks);
                        let nones = out.picks.iter().filter(|p| p.is_none()).count();
                        assert!(nones <= num_zero, "zero class over-consumed: {case}");
                        assert_eq!(nodes.len() + nones, k, "{case}");
                    }
                }
            }
        }
    }

    /// Serde is the one boundary that admits negative utilities (the
    /// sparse constructors debug-assert positivity), standing in for any
    /// future untrusted utility source.
    fn negative_vector() -> UtilityVector {
        let json = r#"{"nonzero":[[0,-5.0],[1,-1.0],[2,-3.0]],"num_zero":0,"u_max":-1.0}"#;
        serde_json::from_str(json).expect("hand-built vector deserialises")
    }

    #[test]
    fn negative_utilities_keep_the_true_argmax_order() {
        // Regression: with negative utilities and no zero class, the
        // walk's normaliser took the empty class's weight as `0 · ∞ = NaN`
        // at high rates, so no draw landed and the request fell through
        // to the (empty) zero class instead of the argmax.
        let u = negative_vector();
        for seed in 0..20 {
            let one = sample(&u, 1, 5000.0, &mut rng(seed));
            assert_eq!(one.picks, vec![Some(1)], "seed {seed}");
            assert_eq!(one.total_utility, -1.0);
            let two = sample(&u, 2, 5000.0, &mut rng(seed));
            assert_eq!(two.picks, vec![Some(1), Some(2)], "seed {seed}");
            assert_eq!(two.total_utility, -4.0);
        }
    }

    #[test]
    fn negative_utilities_survive_extreme_rolls() {
        // MaxRollRng pins every draw to the far edge of the walk: the
        // mass stays finite, the draw stays inside the non-zero weights,
        // and a full draw returns every entry exactly once.
        let u = negative_vector();
        let one = sample(&u, 1, 5000.0, &mut MaxRollRng);
        assert_eq!(one.picks, vec![Some(1)]);
        let all = sample(&u, 3, 5000.0, &mut MaxRollRng);
        let mut nodes = distinct_nodes(&all.picks);
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2]);
        assert_eq!(all.total_utility, -9.0);
    }

    #[test]
    fn gumbel_huge_eps_returns_the_true_top_k() {
        let u = vector();
        for seed in 0..20 {
            let out = topk_gumbel(&u, 2, 1000.0, 1.0, &mut rng(seed));
            assert_eq!(out.picks, vec![Some(0), Some(1)], "seed {seed}");
            assert_eq!(out.total_utility, 8.0);
        }
    }

    #[test]
    fn gumbel_draws_are_distinct_and_balance_the_zero_class() {
        // Full-set draws mirror `zero_class_draws_mid_peel_balance_exactly`:
        // every non-zero entry appears once, every zero member once.
        let u = UtilityVector::from_sparse(vec![(2, 3.0), (5, 1.0), (9, 2.0)], 4);
        for seed in 0..50 {
            let out = topk_gumbel(&u, u.len(), 0.4, 1.0, &mut rng(seed));
            let mut nodes: Vec<NodeId> = out.picks.iter().flatten().copied().collect();
            nodes.sort_unstable();
            assert_eq!(nodes, vec![2, 5, 9], "seed {seed}");
            let nones = out.picks.iter().filter(|p| p.is_none()).count();
            assert_eq!(nones, 4, "seed {seed}");
            assert_eq!(out.total_utility, 6.0);
        }
    }

    #[test]
    fn gumbel_k_exceeding_nonzero_pool_fills_with_zero_class() {
        let u = UtilityVector::from_sparse(vec![(0, 2.0)], 3);
        let out = topk_gumbel(&u, 3, 1000.0, 1.0, &mut rng(3));
        assert_eq!(out.picks[0], Some(0));
        assert_eq!(&out.picks[1..], &[None, None]);
        assert_eq!(out.total_utility, 2.0);
    }

    #[test]
    fn gumbel_all_zero_vector_fills_all_slots() {
        let u = UtilityVector::from_sparse(vec![], 3);
        let out = topk_gumbel(&u, 3, 1.0, 1.0, &mut rng(5));
        assert_eq!(out.picks, vec![None, None, None]);
        assert_eq!(out.total_utility, 0.0);
    }

    #[test]
    fn gumbel_survives_extreme_rolls() {
        for num_zero in [0usize, 1, 3] {
            for eps in [0.0, 1.0, 1000.0] {
                let u = UtilityVector::from_sparse(vec![(0, 1.0), (1, 1.0), (2, 1.0)], num_zero);
                let k = u.len();
                let out = topk_gumbel(&u, k, eps, 1.0, &mut MaxRollRng);
                assert_eq!(out.picks.len(), k, "num_zero={num_zero} eps={eps}");
                let nones = out.picks.iter().filter(|p| p.is_none()).count();
                assert_eq!(nones, num_zero, "full-set draw consumes the class exactly");
            }
        }
    }

    #[test]
    fn engines_agree_at_eps_zero_in_aggregate() {
        // ε = 0 is uniform over candidates plus zero class: one slot of
        // four lands in the two-member zero class half the time, whether
        // the walk or Gumbel draws it, and two slots draw one zero member
        // per request on average.
        let u = UtilityVector::from_sparse(vec![(0, 9.0), (1, 4.0)], 2);
        let trials = 4000;
        for (k, gumbel, expected) in [(1, false, 0.5), (1, true, 0.5), (2, false, 1.0)] {
            let mut r = rng(77);
            let mut nones = 0;
            for _ in 0..trials {
                let out = if gumbel {
                    topk_gumbel(&u, k, 0.0, 1.0, &mut r)
                } else {
                    sample(&u, k, 0.0, &mut r)
                };
                nones += out.picks.iter().filter(|p| p.is_none()).count();
            }
            let mean = nones as f64 / trials as f64;
            assert!((mean - expected).abs() < 0.05, "k={k} gumbel={gumbel}: mean {mean}");
        }
    }

    #[test]
    fn all_zero_vector_fills_all_slots() {
        // The zero class is drawn one member per slot, never past its size.
        let u = UtilityVector::from_sparse(vec![], 3);
        for k in [1, 3] {
            let out = sample(&u, k, 1.0, &mut rng(5));
            assert_eq!(out.picks, vec![None; k]);
            assert_eq!(out.total_utility, 0.0);
        }
    }

    #[test]
    fn zero_class_draws_mid_peel_balance_exactly() {
        // Drawing the whole candidate set through the serving sampler
        // must consume every non-zero entry once and every zero-class
        // member once, in any interleaving.
        let u = UtilityVector::from_sparse(vec![(2, 3.0), (5, 1.0), (9, 2.0)], 4);
        for seed in 0..50 {
            let out = sample(&u, u.len(), 0.4, &mut rng(seed));
            let mut nodes = distinct_nodes(&out.picks);
            nodes.sort_unstable();
            assert_eq!(nodes, vec![2, 5, 9], "seed {seed}: every live entry drawn once");
            let nones = out.picks.iter().filter(|p| p.is_none()).count();
            assert_eq!(nones, 4, "seed {seed}: every zero member consumed once");
            assert_eq!(out.total_utility, 6.0);
        }
    }
}
