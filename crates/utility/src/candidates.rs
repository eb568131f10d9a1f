//! Candidate sets: which nodes may be recommended to a target.

use psr_graph::{GraphView, NodeId};

use crate::vector::UtilityVector;

/// The candidate policy of §7.1: every node except the target itself and
/// the nodes the target is already connected to (by out-edges, for
/// directed graphs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    target: NodeId,
    /// Sorted list of *excluded* nodes (target + its neighbours). Stored as
    /// the complement because candidate sets are nearly the whole graph.
    excluded: Vec<NodeId>,
    num_nodes: usize,
}

impl CandidateSet {
    /// Builds the candidate set for `target` in `graph` (any
    /// [`GraphView`]: CSR snapshot, mutable graph or delta overlay).
    pub fn for_target<V: GraphView + ?Sized>(graph: &V, target: NodeId) -> Self {
        let mut excluded: Vec<NodeId> = graph.neighbors(target).to_vec();
        match excluded.binary_search(&target) {
            Ok(_) => {} // cannot happen in simple graphs, but harmless
            Err(pos) => excluded.insert(pos, target),
        }
        CandidateSet { target, excluded, num_nodes: graph.num_nodes() }
    }

    /// The target node.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Whether `node` may be recommended.
    pub fn contains(&self, node: NodeId) -> bool {
        (node as usize) < self.num_nodes && self.excluded.binary_search(&node).is_err()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.num_nodes - self.excluded.len()
    }

    /// Whether no candidates exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates candidates in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes as NodeId).filter(move |&v| self.contains(v))
    }

    /// Filters a sparse `(node, value)` list (sorted by node) down to
    /// candidates, preserving order. Shared by all utility functions.
    pub fn filter_sparse(&self, entries: &[(NodeId, f64)]) -> Vec<(NodeId, f64)> {
        entries.iter().copied().filter(|&(v, _)| self.contains(v)).collect()
    }

    /// The `rank`-th (0-based, ascending id) zero-utility member of `u`, a
    /// vector over this candidate set, or `None` past the class: a binary
    /// search over the complement of the excluded ids and `u`'s non-zero
    /// keys, O(log(e + d) · (log e + log d)), never walking node ids.
    pub fn zero_class_member(&self, u: &UtilityVector, rank: usize) -> Option<NodeId> {
        let nonzero = u.nonzero();
        // Ids ≤ x outside the class. The member is `rank + outside(member)`,
        // the least x in `rank..=rank + e + d` with `x + 1 − outside(x) > rank`.
        let outside = |x: usize| {
            self.excluded.partition_point(|&v| v as usize <= x)
                + nonzero.partition_point(|&(v, _)| v as usize <= x)
        };
        let (mut lo, mut hi) = (rank, rank + self.excluded.len() + nonzero.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mid + 1 > rank + outside(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (lo < self.num_nodes).then_some(lo as NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::{Graph, GraphBuilder};

    fn graph() -> Graph {
        // 0-1, 0-2, 3, 4 isolated-ish
        GraphBuilder::new(psr_graph::Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (3, 4)])
            .build()
            .unwrap()
    }

    #[test]
    fn excludes_target_and_neighbors() {
        let c = CandidateSet::for_target(&graph(), 0);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(0));
        assert!(!c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn out_of_range_is_not_a_candidate() {
        let c = CandidateSet::for_target(&graph(), 0);
        assert!(!c.contains(99));
    }

    #[test]
    fn filter_sparse_keeps_only_candidates() {
        let c = CandidateSet::for_target(&graph(), 0);
        let filtered = c.filter_sparse(&[(0, 1.0), (1, 2.0), (3, 4.0), (4, 5.0)]);
        assert_eq!(filtered, vec![(3, 4.0), (4, 5.0)]);
    }

    #[test]
    fn directed_candidates_use_out_neighbors() {
        let g = psr_graph::GraphBuilder::new(psr_graph::Direction::Directed)
            .add_edges([(0, 1), (2, 0)])
            .build()
            .unwrap();
        let c = CandidateSet::for_target(&g, 0);
        // 1 is an out-neighbour (excluded); 2 only points at 0 (candidate).
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn isolated_target_has_everyone_else() {
        let g = GraphBuilder::new(psr_graph::Direction::Undirected)
            .add_edges([(0, 1)])
            .with_num_nodes(4)
            .build()
            .unwrap();
        let c = CandidateSet::for_target(&g, 3);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn zero_class_member_matches_the_ascending_scan() {
        use crate::UtilityFunction;
        let g = GraphBuilder::new(psr_graph::Direction::Undirected)
            .add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (5, 6), (0, 9), (9, 7)])
            .with_num_nodes(12)
            .build()
            .unwrap();
        for target in 0..12 {
            let c = CandidateSet::for_target(&g, target);
            let u = crate::CommonNeighbors.utilities(&g, target, &c);
            let class: Vec<NodeId> = c.iter().filter(|&v| u.get(v) == 0.0).collect();
            assert_eq!(class.len(), u.num_zero(), "target {target}");
            for (rank, &member) in class.iter().enumerate() {
                assert_eq!(c.zero_class_member(&u, rank), Some(member), "target {target}");
            }
            assert_eq!(c.zero_class_member(&u, class.len()), None, "target {target}");
        }
    }
}
