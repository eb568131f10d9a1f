//! The Exponential mechanism (Definition 5).

use psr_utility::UtilityVector;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::mechanism::{Mechanism, Recommendation};

/// Which exponent scaling to use.
///
/// Definition 5 in the paper weights node `i` by `e^{(ε/Δf)·uᵢ}`. The
/// McSherry–Talwar exponential mechanism as usually stated uses
/// `e^{ε·uᵢ/(2Δf)}` (the factor 2 covers utility functions whose
/// normaliser can also shift between neighbouring inputs). We default to
/// the paper's form for fidelity and expose the textbook form for the
/// `ablation_exp_scaling` bench, which measures the discrepancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExponentialScaling {
    /// `exp(ε·u/Δf)` — Definition 5 as printed.
    #[default]
    Paper,
    /// `exp(ε·u/(2Δf))` — the standard McSherry–Talwar form.
    StandardHalf,
}

impl ExponentialScaling {
    fn exponent_rate(self, eps: f64, sensitivity: f64) -> f64 {
        match self {
            ExponentialScaling::Paper => eps / sensitivity,
            ExponentialScaling::StandardHalf => eps / (2.0 * sensitivity),
        }
    }
}

/// The Exponential mechanism: recommends `i` with probability
/// `e^{s·uᵢ} / Σ_k e^{s·u_k}` where `s` is the scaled privacy rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExponentialMechanism {
    /// Exponent scaling variant.
    pub scaling: ExponentialScaling,
}

impl ExponentialMechanism {
    /// Paper-faithful configuration.
    pub fn paper() -> Self {
        ExponentialMechanism { scaling: ExponentialScaling::Paper }
    }

    /// Exact per-entry probabilities: returns (probability of each
    /// non-zero candidate aligned with `u.nonzero()`, probability of *each
    /// individual* zero-utility candidate, 0 when there is none). Weights
    /// are shifted by `u_max` before exponentiation, so the largest
    /// exponent is 0 and the sum cannot overflow.
    pub fn probabilities(&self, u: &UtilityVector, eps: f64, sensitivity: f64) -> (Vec<f64>, f64) {
        assert!(eps >= 0.0, "privacy parameter must be non-negative");
        assert!(sensitivity > 0.0, "sensitivity must be positive");
        assert!(!u.is_empty(), "no candidates");
        let s = self.scaling.exponent_rate(eps, sensitivity);
        let u_max = u.u_max();
        let weights: Vec<f64> =
            u.nonzero().iter().map(|&(_, ui)| (s * (ui - u_max)).exp()).collect();
        // An empty zero class weighs nothing: `0 · e^{−s·u_max}` is NaN once
        // negative utilities send the exponential to +∞.
        let zero_weight = if u.num_zero() > 0 { (s * (0.0 - u_max)).exp() } else { 0.0 };
        let z: f64 = weights.iter().sum::<f64>() + zero_weight * u.num_zero() as f64;
        (weights.iter().map(|w| w / z).collect(), zero_weight / z)
    }
}

impl Mechanism for ExponentialMechanism {
    fn name(&self) -> String {
        match self.scaling {
            ExponentialScaling::Paper => "exponential".to_owned(),
            ExponentialScaling::StandardHalf => "exponential(standard-half)".to_owned(),
        }
    }

    fn recommend(
        &self,
        u: &UtilityVector,
        eps: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Recommendation {
        let (probs, _) = self.probabilities(u, eps, sensitivity);
        let mut roll: f64 = rng.gen();
        for (&(v, _), &p) in u.nonzero().iter().zip(&probs) {
            if roll < p {
                return Recommendation::Node(v);
            }
            roll -= p;
        }
        // The remaining mass belongs to the zero class. With the class
        // empty it is floating-point residue of a few ulps, and it goes to
        // the last non-zero candidate: a served draw always names a slot.
        match u.nonzero().last() {
            Some(&(v, _)) if u.num_zero() == 0 => Recommendation::Node(v),
            _ => Recommendation::ZeroUtilityClass,
        }
    }

    /// Closed form: `Σᵢ uᵢ·pᵢ / u_max` — no sampling involved.
    fn expected_accuracy(
        &self,
        u: &UtilityVector,
        eps: f64,
        sensitivity: f64,
        _rng: &mut dyn rand::RngCore,
    ) -> f64 {
        assert!(!u.is_all_zero(), "accuracy undefined for all-zero utility vectors");
        let (probs, _) = self.probabilities(u, eps, sensitivity);
        let expected: f64 = u.nonzero().iter().zip(&probs).map(|(&(_, ui), &p)| ui * p).sum();
        expected / u.u_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_utility::UtilityVector;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn vector() -> UtilityVector {
        UtilityVector::from_sparse(vec![(1, 4.0), (5, 2.0)], 3)
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mech = ExponentialMechanism::paper();
        let (probs, zero_each) = mech.probabilities(&vector(), 1.0, 1.0);
        let total: f64 = probs.iter().sum::<f64>() + zero_each * 3.0;
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn higher_utility_higher_probability_monotonicity() {
        // Definition 4 (monotonicity): uᵢ > uⱼ ⇒ pᵢ > pⱼ.
        let mech = ExponentialMechanism::paper();
        let (probs, zero_each) = mech.probabilities(&vector(), 0.7, 1.0);
        assert!(probs[0] > probs[1]);
        assert!(probs[1] > zero_each);
    }

    #[test]
    fn matches_manual_computation() {
        // u = (4, 2, 0×3), ε = 1, Δ = 1, paper scaling.
        let mech = ExponentialMechanism::paper();
        let (probs, zero_each) = mech.probabilities(&vector(), 1.0, 1.0);
        let z = 4f64.exp() + 2f64.exp() + 3.0;
        assert!((probs[0] - 4f64.exp() / z).abs() < 1e-12);
        assert!((probs[1] - 2f64.exp() / z).abs() < 1e-12);
        assert!((zero_each - 1.0 / z).abs() < 1e-12);
    }

    #[test]
    fn standard_half_is_flatter() {
        let paper = ExponentialMechanism::paper();
        let half = ExponentialMechanism { scaling: ExponentialScaling::StandardHalf };
        let (p, _) = paper.probabilities(&vector(), 1.0, 1.0);
        let (h, _) = half.probabilities(&vector(), 1.0, 1.0);
        assert!(p[0] > h[0], "paper scaling concentrates more on the top node");
    }

    #[test]
    fn eps_zero_is_uniform() {
        let mech = ExponentialMechanism::paper();
        let (probs, zero_each) = mech.probabilities(&vector(), 0.0, 1.0);
        for &p in &probs {
            assert!((p - 0.2).abs() < 1e-12);
        }
        assert!((zero_each - 0.2).abs() < 1e-12);
    }

    #[test]
    fn large_eps_concentrates_on_max() {
        let mech = ExponentialMechanism::paper();
        let (probs, _) = mech.probabilities(&vector(), 50.0, 1.0);
        assert!(probs[0] > 0.999999);
    }

    #[test]
    fn no_overflow_with_huge_utilities() {
        let u = UtilityVector::from_sparse(vec![(0, 5000.0), (1, 4999.0)], 10);
        let mech = ExponentialMechanism::paper();
        let (probs, zero_each) = mech.probabilities(&u, 2.0, 1.0);
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!(zero_each >= 0.0);
        let total: f64 = probs.iter().sum::<f64>() + zero_each * 10.0;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_accuracy_in_unit_interval_and_monotone_in_eps() {
        let mech = ExponentialMechanism::paper();
        let lo = mech.expected_accuracy(&vector(), 0.2, 1.0, &mut rng(3));
        let hi = mech.expected_accuracy(&vector(), 3.0, 1.0, &mut rng(3));
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        assert!(hi > lo, "more budget must buy accuracy: {lo} vs {hi}");
    }

    #[test]
    fn expected_accuracy_closed_form() {
        let mech = ExponentialMechanism::paper();
        let u = vector();
        let acc = mech.expected_accuracy(&u, 1.0, 1.0, &mut rng(1));
        let z = 4f64.exp() + 2f64.exp() + 3.0;
        let manual = (4.0 * 4f64.exp() + 2.0 * 2f64.exp()) / z / 4.0;
        assert!((acc - manual).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequencies_match_probabilities() {
        let mech = ExponentialMechanism::paper();
        let u = vector();
        let (probs, zero_each) = mech.probabilities(&u, 1.0, 1.0);
        let mut r = rng(2);
        let trials = 100_000;
        let mut hits = [0usize; 3]; // node 1, node 5, zero class
        for _ in 0..trials {
            match mech.recommend(&u, 1.0, 1.0, &mut r) {
                Recommendation::Node(1) => hits[0] += 1,
                Recommendation::Node(5) => hits[1] += 1,
                Recommendation::Node(v) => panic!("unexpected node {v}"),
                Recommendation::ZeroUtilityClass => hits[2] += 1,
            }
        }
        let freq = |h: usize| h as f64 / trials as f64;
        assert!((freq(hits[0]) - probs[0]).abs() < 0.01);
        assert!((freq(hits[1]) - probs[1]).abs() < 0.01);
        assert!((freq(hits[2]) - zero_each * 3.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "accuracy undefined")]
    fn all_zero_vector_rejected() {
        let u = UtilityVector::from_sparse(vec![], 5);
        let _ = ExponentialMechanism::paper().expected_accuracy(&u, 1.0, 1.0, &mut rng(3));
    }
}
