//! Seeded workload inputs: Zipf-skewed targets, Poisson arrival
//! schedules and mutation streams re-timed against the request stream.
//!
//! Everything here is a pure function of the seed, so the same seed
//! always gives the same requests, arrivals and mutations.

use psr_core::serving::BatchRequest;
use psr_gen::stream::{RequestEvent, StreamEvent};
use psr_graph::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Zipf(`s`) over a set of nodes: rank `r` (1-based) is drawn with
/// probability ∝ `r^-s`. Which node holds which rank is a seeded
/// shuffle, so popularity is independent of node id and degree.
pub struct Zipf {
    ranked: Vec<NodeId>,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf(`s`) over `nodes`, ranks assigned by a shuffle drawn from `rng`.
    pub fn new(mut nodes: Vec<NodeId>, s: f64, rng: &mut impl Rng) -> Self {
        assert!(!nodes.is_empty(), "Zipf needs at least one node");
        nodes.shuffle(rng);
        let mut total = 0.0;
        let cdf = (1..=nodes.len())
            .map(|r| {
                total += (r as f64).powf(-s);
                total
            })
            .collect::<Vec<_>>();
        let cdf = cdf.into_iter().map(|c| c / total).collect();
        Zipf { ranked: nodes, cdf }
    }

    /// Draws one node.
    pub fn sample(&self, rng: &mut impl Rng) -> NodeId {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.ranked.len() - 1);
        self.ranked[rank]
    }
}

/// `count` requests for `k` slots each, with targets drawn from `zipf`
/// and logical timestamps advancing 1..=3 ticks per event (the
/// `psr_gen::stream` convention, so they multiplex with edge streams).
pub fn request_events(
    zipf: &Zipf,
    count: usize,
    k: usize,
    rng: &mut impl Rng,
) -> Vec<RequestEvent> {
    let mut time = 0u64;
    (0..count)
        .map(|_| {
            time += rng.gen_range(1..=3u64);
            RequestEvent { time, target: zipf.sample(rng), k }
        })
        .collect()
}

/// Re-times a mutation stream so it spans the same logical interval as
/// `span` ticks: with `m` mutations over `span` ticks, one mutation lands
/// every `span / m` ticks on average, which interleaves them evenly with
/// the request stream.
pub fn retime(mutations: &[StreamEvent], span: u64) -> Vec<StreamEvent> {
    let last = mutations.last().map_or(1, |e| e.time.max(1));
    mutations
        .iter()
        .map(|e| StreamEvent {
            time: ((e.time as u128 * span as u128) / last as u128).max(1) as u64,
            mutation: e.mutation,
        })
        .collect()
}

/// Poisson arrival offsets (seconds from the schedule start) for `count`
/// arrivals at `rate` per second.
pub fn poisson_offsets(count: usize, rate: f64, rng: &mut impl Rng) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// Converts request events into serving requests.
pub fn as_requests(events: &[RequestEvent]) -> Vec<BatchRequest> {
    events.iter().map(|e| BatchRequest { target: e.target, k: e.k }).collect()
}
