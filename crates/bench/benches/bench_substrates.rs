//! Micro-benchmarks of the centralized substrates: Gonzalez traversal,
//! Charikar greedy-disk, the Lagrangian bicriteria solver, and the hull /
//! allocation machinery (the per-site and coordinator inner loops behind
//! the "Local Time" column of Table 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpc::cluster::median_bicriteria_grid;
use dpc::core::allocation::allocate_outliers;
use dpc::core::hull::{geometric_grid, ConvexProfile};
use dpc::prelude::*;

fn points(n: usize, seed: u64) -> PointSet {
    gaussian_mixture(MixtureSpec {
        clusters: 4,
        inliers: n,
        outliers: n / 50,
        seed,
        ..Default::default()
    })
    .points
}

fn bench_gonzalez(c: &mut Criterion) {
    let mut g = c.benchmark_group("gonzalez");
    for &n in &[1000usize, 4000] {
        let ps = points(n, 1);
        let ids: Vec<usize> = (0..ps.len()).collect();
        g.bench_with_input(BenchmarkId::new("prefix64", n), &n, |b, _| {
            let m = EuclideanMetric::new(&ps);
            b.iter(|| gonzalez(&m, &ids, 64, 0));
        });
    }
    g.finish();
}

fn bench_charikar(c: &mut Criterion) {
    let mut g = c.benchmark_group("charikar_center");
    g.sample_size(10);
    for &n in &[200usize, 400] {
        let ps = points(n, 2);
        let w = WeightedSet::unit(ps.len());
        g.bench_with_input(BenchmarkId::new("k4_t8", n), &n, |b, _| {
            let m = EuclideanMetric::new(&ps);
            b.iter(|| charikar_center(&m, &w, 4, 8.0, CenterParams::default()));
        });
    }
    // Coordinator-shaped: Algorithm 2's merged instance of ~600 weighted
    // Gonzalez prefixes at dim 8 (`Job::center(8, 32)` over 64 sites).
    let ps = gaussian_blobs(BlobsSpec {
        clusters: 8,
        points: 568,
        outliers: 32,
        dim: 8,
        seed: 2,
        ..Default::default()
    })
    .points;
    let weights = (0..ps.len())
        .map(|i| (1 + (i * 7919) % 64) as f64)
        .collect();
    let w = WeightedSet::from_parts((0..ps.len()).collect(), weights);
    g.bench_with_input(BenchmarkId::new("k8_t32_w", ps.len()), &ps.len(), |b, _| {
        let m = EuclideanMetric::new(&ps);
        b.iter(|| charikar_center(&m, &w, 8, 32.0, CenterParams::default()));
    });
    g.finish();
}

fn bench_bicriteria(c: &mut Criterion) {
    let mut g = c.benchmark_group("median_bicriteria");
    g.sample_size(10);
    for &n in &[250usize, 500, 1000] {
        let ps = points(n, 3);
        let w = WeightedSet::unit(ps.len());
        g.bench_with_input(BenchmarkId::new("k4_t8", n), &n, |b, _| {
            let m = EuclideanMetric::new(&ps);
            b.iter(|| {
                median_bicriteria(
                    &m,
                    &w,
                    4,
                    8.0,
                    Objective::Median,
                    BicriteriaParams::default(),
                )
            });
        });
    }
    // A site's round-0 profile (Algorithm 1): the whole geometric grid in
    // one call, so the λ-bisections share their common local searches.
    let n = 1000;
    let ps = points(n, 3);
    let w = WeightedSet::unit(ps.len());
    let budgets: Vec<f64> = geometric_grid(16, 2.0)
        .into_iter()
        .map(|q| q as f64)
        .collect();
    g.bench_with_input(BenchmarkId::new("profile_k8_t16", n), &n, |b, _| {
        let m = EuclideanMetric::new(&ps);
        b.iter(|| {
            median_bicriteria_grid(
                &m,
                &w,
                8,
                &budgets,
                Objective::Median,
                BicriteriaParams::default(),
            )
        });
    });
    g.finish();
}

fn bench_hull_allocation(c: &mut Criterion) {
    // The coordinator-side O(st log st) allocation at realistic scales.
    let mut g = c.benchmark_group("allocation");
    for &(s, t) in &[(16usize, 256usize), (64, 1024)] {
        let profiles: Vec<ConvexProfile> = (0..s)
            .map(|i| {
                let grid = geometric_grid(t, 2.0);
                let pts: Vec<(usize, f64)> = grid
                    .iter()
                    .map(|&q| (q, 1e6 / ((q + i + 1) as f64)))
                    .collect();
                ConvexProfile::lower_hull(&pts)
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::new("water_fill", format!("s{s}_t{t}")),
            &t,
            |b, _| {
                b.iter(|| allocate_outliers(&profiles, t, 2.0));
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gonzalez,
    bench_charikar,
    bench_bicriteria,
    bench_hull_allocation
);
criterion_main!(benches);
