//! Mechanism micro-benchmarks: the per-recommendation serving cost.

#![allow(missing_docs)] // `criterion_main!` expands an undocumented `fn main`
use criterion::{criterion_group, criterion_main, Criterion};
use psr_bench::{median_target, wiki_graph};
use psr_privacy::{
    ExponentialMechanism, LaplaceMechanism, LinearSmoothing, Mechanism, ServeMechanism,
};
use psr_utility::{CommonNeighbors, UtilityFunction, UtilityVector};
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(7)
}

/// A realistic utility vector: mid-degree wiki target under common
/// neighbours (a handful of non-zero scores, thousands of zeros).
fn wiki_vector() -> UtilityVector {
    let g = wiki_graph();
    CommonNeighbors.utilities_for(&g, median_target(&g))
}

/// A synthetic wide vector stressing the non-zero path.
fn wide_vector(nonzero: u32, zeros: usize) -> UtilityVector {
    UtilityVector::from_sparse((0..nonzero).map(|i| (i, 1.0 + (i % 17) as f64)).collect(), zeros)
}

fn bench_mechanisms(c: &mut Criterion) {
    let mut group = c.benchmark_group("mechanisms");
    let wiki = wiki_vector();

    group.bench_function("exponential_recommend_wiki_target", |b| {
        let mech = ExponentialMechanism::paper();
        let mut r = rng();
        b.iter(|| mech.recommend(&wiki, 1.0, 1.0, &mut r));
    });
    group.bench_function("exponential_expected_accuracy_wiki_target", |b| {
        let mech = ExponentialMechanism::paper();
        let mut r = rng();
        b.iter(|| mech.expected_accuracy(&wiki, 1.0, 1.0, &mut r));
    });
    group.bench_function("laplace_recommend_wiki_target", |b| {
        let mech = LaplaceMechanism::default();
        let mut r = rng();
        b.iter(|| mech.recommend(&wiki, 1.0, 1.0, &mut r));
    });
    group.bench_function("laplace_1000_trials_wiki_target", |b| {
        let mech = LaplaceMechanism { trials: 1000 };
        let mut r = rng();
        b.iter(|| mech.expected_accuracy(&wiki, 1.0, 1.0, &mut r));
    });
    group.bench_function("smoothing_recommend_wiki_target", |b| {
        let mech = LinearSmoothing::new(0.5);
        let mut r = rng();
        b.iter(|| mech.recommend(&wiki, 1.0, 1.0, &mut r));
    });

    // Scaling in the non-zero support size.
    for nonzero in [16u32, 256, 4096] {
        let v = wide_vector(nonzero, 100_000);
        group.bench_function(format!("exponential_accuracy_nnz_{nonzero}"), |b| {
            let mech = ExponentialMechanism::paper();
            let mut r = rng();
            b.iter(|| mech.expected_accuracy(&v, 1.0, 1.0, &mut r));
        });
    }

    // Top-k Exponential sampling (extension): cost per extra slot.
    let v = wide_vector(64, 10_000);
    for k in [1usize, 5, 10] {
        group.bench_function(format!("topk_k{k}"), |b| {
            let mut r = rng();
            b.iter(|| ServeMechanism::Exponential.sample(&v, k, 2.0, 1.0, &mut r));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mechanisms);
criterion_main!(benches);
