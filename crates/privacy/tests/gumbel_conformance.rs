//! Chi-square conformance: the Exponential mechanism's serving sampler
//! ([`ServeMechanism::sample`]) draws exactly the `k`-round peel —
//! Plackett–Luce sampling without replacement at weight `exp(rate·u)`,
//! `rate = ε/(k·Δf)`, zero class aggregated — on both sides of its `k`
//! split: Definition 5's walk at `k = 1` and one-pass Gumbel-max above.
//!
//! The outcome space is enumerated exactly (ordered pick sequences over
//! the non-zero ids plus an aggregate `Z` symbol whose multiplicity
//! decrements as it is consumed), the exact probabilities computed in
//! closed form, and the sampler's empirical counts tested against them at
//! the χ²(df, 0.999) critical value. A deliberately skewed "wrong"
//! distribution is driven through the same statistic to show the test has
//! teeth.

use psr_privacy::ServeMechanism;
use psr_utility::UtilityVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One symbol of an ordered outcome: a concrete non-zero pick or the
/// anonymous zero class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Sym {
    Node(u32),
    Zero,
}

/// Enumerates every ordered length-`k` outcome with its exact
/// Plackett–Luce probability. `live` holds `(id, weight)` for non-zero
/// entries; the zero class contributes weight `zeros · 1` in aggregate.
fn enumerate(live: &[(u32, f64)], zeros: usize, k: usize) -> Vec<(Vec<Sym>, f64)> {
    fn rec(
        live: &[(u32, f64)],
        zeros: usize,
        k: usize,
        prefix: &mut Vec<Sym>,
        p: f64,
        out: &mut Vec<(Vec<Sym>, f64)>,
    ) {
        if k == 0 {
            out.push((prefix.clone(), p));
            return;
        }
        let mass: f64 = live.iter().map(|&(_, w)| w).sum::<f64>() + zeros as f64;
        for (i, &(id, w)) in live.iter().enumerate() {
            let mut rest = live.to_vec();
            rest.remove(i);
            prefix.push(Sym::Node(id));
            rec(&rest, zeros, k - 1, prefix, p * w / mass, out);
            prefix.pop();
        }
        if zeros > 0 {
            prefix.push(Sym::Zero);
            rec(live, zeros - 1, k - 1, prefix, p * zeros as f64 / mass, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(live, zeros, k, &mut Vec::new(), 1.0, &mut out);
    out
}

/// The exact outcome distribution of a `k`-slot draw from `u` at `eps`
/// (Δf = 1), normalisation checked.
fn exact(u: &UtilityVector, k: usize, eps: f64) -> (Vec<(Vec<Sym>, f64)>, Vec<f64>) {
    let rate = eps / k as f64;
    let live: Vec<(u32, f64)> = u.nonzero().iter().map(|&(v, x)| (v, (rate * x).exp())).collect();
    let outcomes = enumerate(&live, u.num_zero(), k);
    let expected: Vec<f64> = outcomes.iter().map(|&(_, p)| p).collect();
    let total: f64 = expected.iter().sum();
    assert!((total - 1.0).abs() < 1e-12, "enumeration must normalise: {total}");
    (outcomes, expected)
}

/// Pearson χ² of observed counts against exact expectations.
fn chi_square(observed: &[usize], expected: &[f64], trials: usize) -> f64 {
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &p)| {
            let e = p * trials as f64;
            (o as f64 - e).powi(2) / e
        })
        .sum()
}

/// Runs `trials` draws of the serving sampler and bins them over
/// `outcomes`.
fn observe(
    u: &UtilityVector,
    k: usize,
    eps: f64,
    outcomes: &[(Vec<Sym>, f64)],
    trials: usize,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0usize; outcomes.len()];
    for _ in 0..trials {
        let picks = ServeMechanism::Exponential.sample(u, k, eps, 1.0, &mut rng).picks;
        let syms: Vec<Sym> = picks.iter().map(|p| p.map_or(Sym::Zero, Sym::Node)).collect();
        let slot = outcomes
            .iter()
            .position(|(o, _)| *o == syms)
            .unwrap_or_else(|| panic!("outcome {syms:?} not in the enumeration"));
        counts[slot] += 1;
    }
    counts
}

/// χ² critical values at p = 0.999 for the dfs used below.
fn critical(df: usize) -> f64 {
    match df {
        2 => 13.816,
        3 => 16.266,
        6 => 22.458,
        9 => 27.877,
        other => panic!("no tabulated critical value for df {other}"),
    }
}

#[test]
fn both_engines_match_the_exact_peel_distribution() {
    // The canonical small case: two distinct utilities plus a two-member
    // zero class. k = 1 (the walk) has 3 outcomes, k = 2 (Gumbel) 7.
    let u = UtilityVector::from_sparse(vec![(0, 2.0), (1, 1.0)], 2);
    for eps in [0.7, 2.0] {
        for (k, size, seed) in [(1, 3, 11), (2, 7, 12)] {
            let (outcomes, expected) = exact(&u, k, eps);
            assert_eq!(outcomes.len(), size);
            let trials = 20_000;
            let counts = observe(&u, k, eps, &outcomes, trials, seed);
            let stat = chi_square(&counts, &expected, trials);
            let crit = critical(size - 1);
            assert!(stat < crit, "k = {k} at eps {eps}: χ² {stat} ≥ {crit}");
        }
    }
}

#[test]
fn engines_match_on_a_larger_alphabet_with_ties() {
    // Tied utilities and a bigger zero class: 3 non-zero entries (two
    // tied) and 3 zeros. k = 1 has 3 + Z = 4 outcomes; k = 2 has 3·2
    // ordered node pairs, 3 node→Z, 3 Z→node and Z→Z = 13.
    let u = UtilityVector::from_sparse(vec![(3, 1.5), (5, 1.5), (8, 0.5)], 3);
    let eps = 1.2;
    // k = 2 has df = 12 (critical 32.909); it uses the conservative df-9
    // row and still passes with a wide margin.
    for (k, size, df, seed) in [(1, 4, 3, 21), (2, 13, 9, 22)] {
        let (outcomes, expected) = exact(&u, k, eps);
        assert_eq!(outcomes.len(), size);
        let trials = 30_000;
        let counts = observe(&u, k, eps, &outcomes, trials, seed);
        let stat = chi_square(&counts, &expected, trials);
        assert!(stat < critical(df), "k = {k}: χ² {stat}");
    }
}

#[test]
fn eps_zero_is_uniform_over_ordered_outcomes_for_both_engines() {
    // ε = 0: every ordered outcome (zero class in aggregate-with-
    // multiplicity) is equally weighted by candidate count — the exact
    // enumeration already encodes that; just check against it.
    let u = UtilityVector::from_sparse(vec![(0, 9.0), (1, 1.0)], 2);
    for (k, seed) in [(1, 31), (2, 32)] {
        let (outcomes, expected) = exact(&u, k, 0.0);
        let trials = 20_000;
        let counts = observe(&u, k, 0.0, &outcomes, trials, seed);
        let stat = chi_square(&counts, &expected, trials);
        assert!(stat < critical(outcomes.len() - 1), "k = {k}: χ² {stat}");
    }
}

#[test]
fn the_statistic_rejects_a_wrong_distribution() {
    // Teeth check: score ε = 2 draws against the ε = 0 uniform
    // expectation — the χ² must blow far past the critical value.
    let u = UtilityVector::from_sparse(vec![(0, 2.0), (1, 1.0)], 2);
    for (k, seed) in [(1, 41), (2, 42)] {
        let (outcomes, expected) = exact(&u, k, 0.0);
        let trials = 20_000;
        let counts = observe(&u, k, 2.0, &outcomes, trials, seed);
        let stat = chi_square(&counts, &expected, trials);
        assert!(stat > 10.0 * critical(outcomes.len() - 1), "k = {k}: χ² {stat} should reject");
    }
}
