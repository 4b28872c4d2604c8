//! E6 companion bench: Theorem 3.10's subquadratic solver vs the
//! quadratic Theorem 3.1 reference across n.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpc::prelude::*;
// Benches measure the raw protocol paths, so they import the legacy
// entry points at their crate-level paths.
use dpc::core::subquadratic_median;

fn bench_subquadratic(c: &mut Criterion) {
    let mut g = c.benchmark_group("subquadratic_vs_quadratic");
    g.sample_size(10);
    for &n in &[1000usize, 2000, 4000] {
        let t = ((n as f64).sqrt() as usize) / 2;
        let mix = gaussian_mixture(MixtureSpec {
            clusters: 4,
            inliers: n,
            outliers: t,
            seed: n as u64,
            ..Default::default()
        });
        g.bench_with_input(BenchmarkId::new("quadratic", n), &n, |b, _| {
            let w = WeightedSet::unit(mix.points.len());
            let m = EuclideanMetric::new(&mix.points);
            b.iter(|| {
                median_bicriteria(
                    &m,
                    &w,
                    4,
                    t as f64,
                    Objective::Median,
                    BicriteriaParams::default(),
                )
            });
        });
        g.bench_with_input(BenchmarkId::new("subquadratic", n), &n, |b, _| {
            b.iter(|| subquadratic_median(&mix.points, 4, t, SubquadraticParams::default()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_subquadratic);
criterion_main!(benches);
