//! The mechanism abstraction, the one slot sampler every serving path
//! calls ([`ServeMechanism::sample`]) and the zero-class resolver.

use psr_graph::NodeId;
use psr_utility::{CandidateSet, UtilityVector};
use rand::Rng;

use crate::topk::{topk_gumbel, TopK};
use crate::{ExponentialMechanism, LaplaceMechanism, LinearSmoothing};

/// Outcome of one mechanism invocation.
///
/// Any DP mechanism must put positive probability on *every* candidate,
/// including the (typically enormous) zero-utility class [24]. Utility
/// vectors store that class as a count, so a draw landing there names the
/// class instead of a particular node; callers that need a concrete id
/// resolve it uniformly with [`resolve_slots`] (all zero-utility
/// candidates are exchangeable — the paper's Axiom 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recommendation {
    /// A specific candidate was recommended.
    Node(NodeId),
    /// A uniformly random member of the zero-utility class was recommended.
    ZeroUtilityClass,
}

impl Recommendation {
    /// The draw as a [`resolve_slots`] slot: `None` for the zero class.
    pub fn slot(self) -> Option<NodeId> {
        match self {
            Recommendation::Node(v) => Some(v),
            Recommendation::ZeroUtilityClass => None,
        }
    }
}

/// A differentially private single-recommendation mechanism operating on a
/// utility vector (the formalisation of §3.1: the algorithm is a
/// probability vector derived from `~u`).
pub trait Mechanism: Send + Sync {
    /// Short stable name for reports and benchmarks.
    fn name(&self) -> String;

    /// Draws one recommendation.
    ///
    /// # Panics
    /// Implementations may panic if `u` is empty.
    fn recommend(
        &self,
        u: &UtilityVector,
        eps: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Recommendation;

    /// Expected accuracy `E[u_rec] / u_max` (Def. 2 numerator for this
    /// input). Exact where a closed form exists, Monte-Carlo otherwise.
    ///
    /// # Panics
    /// Panics if `u` is all-zero — such targets are dropped by the
    /// experimental protocol (§7.1) because accuracy is undefined.
    fn expected_accuracy(
        &self,
        u: &UtilityVector,
        eps: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> f64;
}

/// The mechanism a serving path draws slots with: §5's Exponential
/// mechanism, Definition 6's Laplace mechanism or Definition 7's linear
/// smoothing. [`ServeMechanism::sample`] is the one function that draws
/// slots for all three; [`resolve_slots`] then names the zero-class slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeMechanism {
    /// Top-`k` Exponential-mechanism peeling at ε/k per slot.
    Exponential,
    /// Single-draw Laplace noisy argmax.
    Laplace,
    /// Single-draw linear smoothing, `ln(1 + nx/(1−x))`-DP at `n`
    /// candidates (Theorem 5) whatever ε is configured.
    Smoothing {
        /// Mixing weight: probability of playing `R_best`.
        x: f64,
    },
}

impl ServeMechanism {
    /// Draws distinct slots from `u`: `k` clamped to the candidate count,
    /// and to 1 for the single-draw Laplace and smoothing mechanisms.
    ///
    /// The Exponential mechanism picks its sampler from the clamped `k`;
    /// both draw the same ε/k-per-slot peel. One slot is one walk of
    /// Definition 5's probabilities ([`ExponentialMechanism::recommend`]).
    /// Two or more go through the one-pass Gumbel-max [`topk_gumbel`],
    /// whose cost barely grows with `k` but whose per-candidate key draw
    /// makes it the slower of the two at `k = 1`.
    pub fn sample(
        self,
        u: &UtilityVector,
        k: usize,
        eps: f64,
        sensitivity: f64,
        rng: &mut dyn rand::RngCore,
    ) -> TopK {
        let draw = match self {
            ServeMechanism::Exponential => match k.min(u.len()) {
                1 => ExponentialMechanism::paper().recommend(u, eps, sensitivity, rng),
                k => return topk_gumbel(u, k, eps, sensitivity, rng),
            },
            ServeMechanism::Laplace => {
                LaplaceMechanism::default().recommend(u, eps, sensitivity, rng)
            }
            ServeMechanism::Smoothing { x } => {
                LinearSmoothing::new(x).recommend(u, eps, sensitivity, rng)
            }
        };
        let slot = draw.slot();
        TopK { picks: vec![slot], total_utility: slot.map_or(0.0, |v| u.get(v)) }
    }
}

/// Resolves `count` anonymous zero-utility-class picks to **distinct**
/// concrete node ids, in uniformly random order: round `i` draws a rank
/// uniformly among the `z − i` members left and selects it with
/// [`CandidateSet::zero_class_member`], never walking node ids. With
/// `count = 1` that is one `gen_range(0..z)` and the member at that rank in
/// ascending id order. Returns fewer than `count` ids only when the class
/// itself is smaller.
pub fn resolve_zero_class_distinct(
    count: usize,
    u: &UtilityVector,
    candidates: &CandidateSet,
    rng: &mut dyn rand::RngCore,
) -> Vec<NodeId> {
    let z = u.num_zero();
    let mut taken: Vec<usize> = Vec::with_capacity(count.min(z)); // ascending
    (0..count.min(z))
        .map(|round| {
            // Shift the rank among the members left past each taken rank
            // at or below it: its rank in the whole class.
            let free = rng.gen_range(0..z - round);
            let rank = taken.iter().fold(free, |rank, &t| rank + usize::from(t <= rank));
            taken.insert(taken.partition_point(|&t| t < rank), rank);
            candidates.zero_class_member(u, rank).expect("rank within the zero class")
        })
        .collect()
}

/// Resolves sampler slots (top-`k` picks, or one [`Recommendation::slot`])
/// to concrete ids in slot order, filling the `None` zero-class slots with
/// one [`resolve_zero_class_distinct`] draw. Every sampling path ends here.
pub fn resolve_slots(
    slots: &[Option<NodeId>],
    u: &UtilityVector,
    candidates: &CandidateSet,
    rng: &mut dyn rand::RngCore,
) -> Vec<NodeId> {
    let zero_slots = slots.iter().filter(|slot| slot.is_none()).count();
    let mut zero_picks = resolve_zero_class_distinct(zero_slots, u, candidates, rng).into_iter();
    slots.iter().filter_map(|slot| slot.or_else(|| zero_picks.next())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::{Direction, GraphBuilder, GraphView};
    use psr_utility::UtilityFunction;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn sample_clamps_k_and_replays_the_underlying_draws() {
        let u = UtilityVector::from_sparse(vec![(1, 4.0), (5, 2.0)], 3);
        let seeded = || rand::rngs::StdRng::seed_from_u64(29);
        // Exponential, two or more slots: Gumbel's top-k, k clamped to |C| = 5.
        let (mut a, mut b) = (seeded(), seeded());
        let top = ServeMechanism::Exponential.sample(&u, 9, 1.0, 1.0, &mut a);
        assert_eq!(top, topk_gumbel(&u, 5, 1.0, 1.0, &mut b));
        assert_eq!(a.next_u64(), b.next_u64(), "same number of draws");
        // One slot, asked for or clamped to by a one-candidate vector:
        // Definition 5's walk.
        let lone = UtilityVector::from_sparse(vec![(3, 2.0)], 0);
        for (u, k) in [(&u, 1), (&lone, 4)] {
            for seed in 0..50 {
                let mut a = rand::rngs::StdRng::seed_from_u64(seed);
                let mut b = a.clone();
                let top = ServeMechanism::Exponential.sample(u, k, 0.7, 1.0, &mut a);
                let slot = ExponentialMechanism::paper().recommend(u, 0.7, 1.0, &mut b).slot();
                assert_eq!(top.picks, vec![slot]);
                assert_eq!(top.total_utility, slot.map_or(0.0, |v| u.get(v)));
                assert_eq!(a.next_u64(), b.next_u64(), "same draws");
            }
        }
        let single: [(ServeMechanism, &dyn Mechanism); 2] = [
            (ServeMechanism::Laplace, &LaplaceMechanism { trials: 1 }),
            (ServeMechanism::Smoothing { x: 0.4 }, &LinearSmoothing::new(0.4)),
        ];
        for (mechanism, reference) in single {
            for seed in 0..50 {
                let mut a = rand::rngs::StdRng::seed_from_u64(seed);
                let mut b = a.clone();
                let top = mechanism.sample(&u, 3, 0.7, 1.0, &mut a);
                let slot = reference.recommend(&u, 0.7, 1.0, &mut b).slot();
                assert_eq!(top.picks, vec![slot], "{mechanism:?} serves one slot");
                assert_eq!(top.total_utility, slot.map_or(0.0, |v| u.get(v)));
                assert_eq!(a.next_u64(), b.next_u64(), "{mechanism:?}: same draws");
            }
        }
    }

    #[test]
    fn resolve_zero_class_picks_a_zero_utility_candidate() {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2)])
            .with_num_nodes(6)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let picks = resolve_slots(&[None], &u, &candidates, &mut rng);
            assert_eq!(picks.len(), 1);
            assert!(candidates.contains(picks[0]));
            assert_eq!(u.get(picks[0]), 0.0);
        }
        let slot = Recommendation::Node(2).slot();
        assert_eq!(resolve_slots(&[slot], &u, &candidates, &mut rng), vec![2]);
    }

    #[test]
    fn resolve_distinct_zero_class_members() {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (1, 2)])
            .with_num_nodes(10)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for count in 0..=u.num_zero() {
            let picks = resolve_zero_class_distinct(count, &u, &candidates, &mut rng);
            assert_eq!(picks.len(), count);
            let set: std::collections::HashSet<_> = picks.iter().collect();
            assert_eq!(set.len(), count, "picks must be distinct");
            for &v in &picks {
                assert!(candidates.contains(v));
                assert_eq!(u.get(v), 0.0);
            }
        }
        // Asking past the class size returns the whole class.
        let all = resolve_zero_class_distinct(usize::MAX, &u, &candidates, &mut rng);
        assert_eq!(all.len(), u.num_zero());
    }

    #[test]
    fn single_slot_is_one_rank_draw_in_ascending_id_order() {
        // `count = 1` must consume exactly one `gen_range(0..z)` and return
        // the member at that rank in ascending id order, so single-draw
        // outputs and every later draw on the stream stay seed-stable.
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (5, 6), (7, 8)])
            .with_num_nodes(40)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        let class: Vec<NodeId> = candidates.iter().filter(|&v| u.get(v) == 0.0).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2011);
        let mut reference = rng.clone();
        for _ in 0..200 {
            let got = resolve_zero_class_distinct(1, &u, &candidates, &mut rng);
            let want = class[reference.gen_range(0..u.num_zero())];
            assert_eq!(got, vec![want]);
        }
        assert_eq!(rng.next_u64(), reference.next_u64(), "one draw per resolution");
    }

    /// χ² statistic of observed counts against one common expectation.
    fn chi_square<'a>(counts: impl Iterator<Item = &'a u32>, expected: f64) -> f64 {
        counts
            .map(|&obs| {
                let d = obs as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    #[test]
    fn zero_class_resolver_is_uniform_chi_square() {
        // The resolver must sample zero-class subsets uniformly: over 10k
        // seeded draws of 4 members from a 20-member class, each member's
        // inclusion count is Binomial(10k, 4/20). The chi-square statistic
        // over the 20 inclusion counts has ~19 degrees of freedom; its
        // 0.999 quantile is 43.8, so a deterministic seeded stream passing
        // 45 pins both uniformity and the seed.
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (0, 3)])
            .with_num_nodes(24)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        assert_eq!(u.num_zero(), 20, "every candidate must be zero-class");

        const DRAWS: usize = 10_000;
        const COUNT: usize = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2011);
        let mut inclusions: std::collections::HashMap<NodeId, u32> = Default::default();
        for draw in 0..DRAWS {
            let picks = resolve_zero_class_distinct(COUNT, &u, &candidates, &mut rng);
            assert_eq!(picks.len(), COUNT, "draw {draw}");
            let set: std::collections::HashSet<_> = picks.iter().collect();
            assert_eq!(set.len(), COUNT, "draw {draw} produced duplicates: {picks:?}");
            for &v in &picks {
                assert!(candidates.contains(v) && u.get(v) == 0.0, "draw {draw} pick {v}");
                *inclusions.entry(v).or_insert(0) += 1;
            }
        }
        assert_eq!(inclusions.len(), 20, "every class member must be reachable");
        let chi2 = chi_square(inclusions.values(), (DRAWS * COUNT) as f64 / 20.0);
        assert!(chi2 < 45.0, "inclusion counts not uniform: chi² = {chi2:.2} (crit 43.8 @ 0.999)");

        // Slot order must be uniform too: the exact top-k likelihood treats
        // every ordered pair of a 5-member class as equally likely. 20
        // ordered pairs, ~19 degrees of freedom, same 0.999 critical value.
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2)])
            .with_num_nodes(8)
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        assert_eq!(u.num_zero(), 5);
        let mut pairs: std::collections::HashMap<Vec<NodeId>, u32> = Default::default();
        for _ in 0..DRAWS {
            let picks = resolve_zero_class_distinct(2, &u, &candidates, &mut rng);
            assert_ne!(picks[0], picks[1]);
            *pairs.entry(picks).or_insert(0) += 1;
        }
        assert_eq!(pairs.len(), 20, "every ordered pair must be reachable: {pairs:?}");
        let chi2 = chi_square(pairs.values(), DRAWS as f64 / 20.0);
        assert!(chi2 < 45.0, "ordered pairs not uniform: chi² = {chi2:.2} (crit 43.8 @ 0.999)");
    }

    #[test]
    fn resolve_empty_zero_class_is_none() {
        let g = GraphBuilder::new(Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
            .unwrap();
        let candidates = CandidateSet::for_target(&g, 0);
        let u = psr_utility::CommonNeighbors.utilities(&g, 0, &candidates);
        assert_eq!(u.num_zero(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        assert!(resolve_zero_class_distinct(1, &u, &candidates, &mut rng).is_empty());
        let slot = Recommendation::ZeroUtilityClass.slot();
        assert_eq!(resolve_slots(&[slot], &u, &candidates, &mut rng).first(), None);
    }

    /// An implicit graph of 2³¹ nodes where only node 0 and its three
    /// neighbours have edges: big enough that walking node ids would take
    /// seconds, with nothing materialised.
    struct Implicit;

    impl GraphView for Implicit {
        fn num_nodes(&self) -> usize {
            1 << 31
        }
        fn num_edges(&self) -> usize {
            3
        }
        fn direction(&self) -> Direction {
            Direction::Undirected
        }
        fn neighbors(&self, v: NodeId) -> &[NodeId] {
            match v {
                0 => &[1, 2, 1 << 30],
                1 | 2 | 0x4000_0000 => &[0],
                _ => &[],
            }
        }
    }

    #[test]
    fn resolves_slots_on_a_huge_graph_without_walking_node_ids() {
        let candidates = CandidateSet::for_target(&Implicit, 0);
        let nonzero = vec![(5, 2.0), ((1 << 31) - 1, 1.0)];
        let num_zero = candidates.len() - nonzero.len();
        let u = UtilityVector::from_sparse(nonzero, num_zero);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let start = std::time::Instant::now();
        let picks =
            resolve_slots(&[None, Some(5), None, None, None, None], &u, &candidates, &mut rng);
        assert!(start.elapsed() < std::time::Duration::from_secs(1), "took {:?}", start.elapsed());
        assert_eq!(picks.len(), 6);
        assert_eq!(picks[1], 5);
        let set: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 6, "picks must be distinct: {picks:?}");
        for &v in picks.iter().filter(|&&v| v != 5) {
            assert!(candidates.contains(v) && u.get(v) == 0.0, "pick {v}");
        }
    }
}
