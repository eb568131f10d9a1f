//! Serving-path throughput: the batched `RecommendationService` worker
//! pool on the Wikipedia-vote-scale preset. The printed comparison is the
//! headline: answering one batch through the pool against a `serve_one`
//! loop over the same requests. A second group times one hot request
//! through the Exponential sampler at growing `k`.

#![allow(missing_docs)] // the bench entry point is an undocumented `fn main`
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use psr_bench::{wiki_graph, BENCH_SEED};
use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_utility::CommonNeighbors;

/// A deterministic request batch: every connected node asks for `k`
/// recommendations, capped at `max_requests` targets.
fn batch(graph: &psr_graph::Graph, k: usize, max_requests: usize) -> Vec<BatchRequest> {
    graph
        .nodes()
        .filter(|&v| graph.degree(v) > 0)
        .take(max_requests)
        .map(|target| BatchRequest { target, k })
        .collect()
}

fn service_over(graph: &Arc<psr_graph::Graph>) -> RecommendationService {
    RecommendationService::new(
        Arc::clone(graph),
        Box::new(CommonNeighbors),
        // Unbounded budget: throughput measurement, not policy.
        ServiceConfig { budget_per_target: f64::INFINITY, ..Default::default() },
    )
}

fn serving_throughput(c: &mut Criterion) {
    let graph = Arc::new(wiki_graph());
    let service = service_over(&graph);

    for k in [1usize, 5] {
        let requests = batch(&graph, k, 192);

        // Headline comparison, printed once per k outside the sampler, on
        // a cache both arms find warm.
        let _ = service.serve_batch(&requests, BENCH_SEED);
        let start = Instant::now();
        let served = service.serve_batch(&requests, BENCH_SEED);
        let batch_time = start.elapsed();
        let start = Instant::now();
        let answered = requests
            .iter()
            .filter(|r| service.serve_one(r.target, r.k, BENCH_SEED).is_ok())
            .count();
        let sequential_time = start.elapsed();
        assert!(served.iter().all(Result::is_ok));
        println!(
            "[serving] k={k}: batch pool {:.1} ms vs serve_one loop {:.1} ms \
             ({:.2}x, {} requests answered)",
            batch_time.as_secs_f64() * 1e3,
            sequential_time.as_secs_f64() * 1e3,
            sequential_time.as_secs_f64() / batch_time.as_secs_f64(),
            answered,
        );

        let mut group = c.benchmark_group(format!("serving_k{k}"));
        group.sample_size(10);
        group.bench_function("batch_pool", |b| {
            b.iter(|| service.serve_batch(&requests, BENCH_SEED));
        });
        group.finish();
    }
}

/// The Exponential sampler as the service drives it, isolated from pool
/// overheads: one hot target, growing k. k1 goes through Definition 5's
/// walk, k8 and k32 through one-pass Gumbel-max.
fn serving_topk(c: &mut Criterion) {
    let graph = Arc::new(wiki_graph());
    let service = service_over(&graph);
    let target = psr_bench::median_target(&graph);
    let mut group = c.benchmark_group("serving_topk");
    for k in [1usize, 8, 32] {
        group.bench_function(format!("k{k}"), |b| {
            let requests = [BatchRequest { target, k }];
            b.iter(|| service.serve_batch(&requests, BENCH_SEED));
        });
    }
    group.finish();
}

criterion_group!(benches, serving_throughput, serving_topk);

fn main() {
    benches();
    psr_bench::snapshot::write("serving");
}
