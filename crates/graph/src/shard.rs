//! Degree-balanced shard partitions over contiguous node ranges.
//!
//! A shard is a half-open node range `[start, end)` annotated with the number
//! of stored arcs inside it. Partitions are *degree balanced*: boundaries are
//! chosen so every shard carries roughly `total_arcs / shard_count` arcs
//! (within one node's degree, since ranges stay contiguous). The compressed
//! snapshot format embeds the partition as its shard manifest.

use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::view::GraphView;

/// A contiguous node range `[start, end)` holding `arcs` stored arcs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRange {
    /// First node of the shard (inclusive).
    pub start: NodeId,
    /// One past the last node of the shard (exclusive).
    pub end: NodeId,
    /// Number of stored arcs whose source lies in `[start, end)`.
    pub arcs: u64,
}

impl ShardRange {
    /// Number of nodes in the shard.
    pub fn num_nodes(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether `v` falls inside the shard.
    pub fn contains(&self, v: NodeId) -> bool {
        self.start <= v && v < self.end
    }
}

/// Computes a degree-balanced contiguous partition from an out-degree
/// sequence (given as arc counts per node).
///
/// Guarantees:
/// - shards cover `[0, degrees.len())` contiguously in order;
/// - every shard is non-empty while nodes remain (so the partition has
///   `min(shard_count, num_nodes)` shards — except the empty graph, which
///   yields one empty shard);
/// - each shard's arc load is within `max_degree` of the ideal
///   `total_arcs / shard_count` (greedy split on the running prefix sum).
pub fn shards_from_degrees(degrees: &[u64], shard_count: usize) -> Vec<ShardRange> {
    let n = degrees.len();
    if n == 0 {
        return vec![ShardRange { start: 0, end: 0, arcs: 0 }];
    }
    let shard_count = shard_count.clamp(1, n);
    let total: u64 = degrees.iter().sum();
    let mut shards = Vec::with_capacity(shard_count);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut spent = 0u64;
    for (v, &d) in degrees.iter().enumerate() {
        acc += d;
        let shards_left = shard_count - shards.len();
        let nodes_left = n - v - 1;
        let remaining = total - spent;
        // Close the shard once it reaches its fair share of the remaining
        // arcs, or when the tail must be reserved one-node-per-shard.
        let fair = remaining.div_ceil(shards_left as u64);
        let must_close = nodes_left < shards_left;
        if (acc >= fair || must_close) && shards.len() + 1 < shard_count {
            shards.push(ShardRange { start: start as NodeId, end: (v + 1) as NodeId, arcs: acc });
            spent += acc;
            start = v + 1;
            acc = 0;
        }
    }
    shards.push(ShardRange { start: start as NodeId, end: n as NodeId, arcs: acc });
    shards
}

/// Computes a degree-balanced partition for any [`GraphView`].
pub fn degree_balanced_shards<V: GraphView + ?Sized>(
    view: &V,
    shard_count: usize,
) -> Vec<ShardRange> {
    let degrees: Vec<u64> =
        (0..view.num_nodes()).map(|v| view.degree(v as NodeId) as u64).collect();
    shards_from_degrees(&degrees, shard_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_contiguously_and_sum_arcs() {
        let degrees = vec![5u64, 1, 1, 1, 8, 1, 1, 1, 1, 1];
        for k in 1..=12 {
            let shards = shards_from_degrees(&degrees, k);
            assert_eq!(shards[0].start, 0);
            assert_eq!(shards.last().unwrap().end as usize, degrees.len());
            for pair in shards.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap between shards");
                assert!(pair[0].num_nodes() > 0);
            }
            let total: u64 = shards.iter().map(|s| s.arcs).sum();
            assert_eq!(total, degrees.iter().sum::<u64>());
            assert_eq!(shards.len(), k.clamp(1, degrees.len()));
        }
    }

    #[test]
    fn empty_degree_sequence_yields_single_empty_shard() {
        assert_eq!(shards_from_degrees(&[], 4), vec![ShardRange { start: 0, end: 0, arcs: 0 }]);
    }

    #[test]
    fn balance_is_within_one_max_degree_of_ideal() {
        let degrees: Vec<u64> = (0..1000).map(|i| (i % 17) as u64 + 1).collect();
        let total: u64 = degrees.iter().sum();
        let max_d = *degrees.iter().max().unwrap();
        let k = 8;
        let shards = shards_from_degrees(&degrees, k);
        let ideal = total / k as u64;
        for s in &shards {
            assert!(s.arcs <= ideal + max_d + 1, "shard {s:?} overloaded vs ideal {ideal}");
        }
    }
}
