//! Micro-benchmarks of the bulk distance kernels: scalar per-pair loops
//! vs the blocked bulk layer vs bulk + threads, at the dimensions the
//! `BENCH_kernels.json` experiment row records (`dpc-experiments kernels`
//! writes the canonical numbers; this target is the quick interactive
//! view of the same comparison).
//!
//! The "scalar" baselines reproduce the pre-kernel-layer code shape: one
//! `Metric::dist` / `sq_dist_to` call per (point, candidate) pair, one
//! accumulator — the latency-bound inner loop the bulk layer replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpc::cluster::gonzalez_with;
use dpc::prelude::*;
use dpc::workloads::{gaussian_blobs, BlobsSpec};

const DIMS: &[usize] = &[4, 32, 128];
const N: usize = 20_000;
const CLUSTERS: usize = 16;
/// Candidate-set size (`k + t`, the paper's `t >> k` regime).
const K: usize = 64;

fn blobs(dim: usize) -> PointSet {
    gaussian_blobs(BlobsSpec {
        clusters: CLUSTERS,
        points: N,
        outliers: 0,
        dim,
        imbalance: 0.5,
        seed: 0xbe7c + dim as u64,
        ..Default::default()
    })
    .points
}

/// Scalar assignment baseline: the historical per-pair `nearest` loop.
fn scalar_assign(ps: &PointSet, centers: &[usize]) -> f64 {
    let m = EuclideanMetric::new(ps);
    let mut acc = 0.0;
    for i in 0..ps.len() {
        let mut best = f64::INFINITY;
        for &c in centers {
            let d = m.dist(i, c);
            if d < best {
                best = d;
            }
        }
        acc += best;
    }
    acc
}

fn bench_assign(c: &mut Criterion) {
    let mut g = c.benchmark_group("assign_nearest");
    g.sample_size(10);
    for &dim in DIMS {
        let ps = blobs(dim);
        let centers: Vec<usize> = (0..K).map(|c| c * (N / K)).collect();
        let ids: Vec<usize> = (0..ps.len()).collect();
        let m = EuclideanMetric::new(&ps);
        g.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |b, _| {
            b.iter(|| scalar_assign(&ps, &centers));
        });
        g.bench_with_input(BenchmarkId::new("bulk", dim), &dim, |b, _| {
            let assigner = NearestAssigner::new(&m);
            b.iter(|| assigner.assign(&ids, &centers));
        });
        g.bench_with_input(BenchmarkId::new("bulk_threads", dim), &dim, |b, _| {
            let assigner = NearestAssigner::with_threads(&m, ThreadBudget::available());
            b.iter(|| assigner.assign(&ids, &centers));
        });
    }
    g.finish();
}

/// Scalar Gonzalez-relax baseline: the pre-kernel-layer traversal
/// verbatim — fused relax + farthest scan with assignment tracking.
fn scalar_gonzalez_relax(ps: &PointSet, ids: &[usize], steps: usize) -> f64 {
    let m = EuclideanMetric::new(ps);
    let n = ids.len();
    let mut best = vec![f64::INFINITY; n];
    let mut pos = vec![0usize; n];
    let mut chosen = 0usize;
    for step in 0..steps {
        let mut far = (0usize, -1.0f64);
        let zipped = best.iter_mut().zip(pos.iter_mut()).zip(ids);
        for (i, ((b, p), &id)) in zipped.enumerate() {
            let d = m.dist(id, ids[chosen]);
            if d < *b {
                *b = d;
                *p = step;
            }
            if *b > far.1 {
                far = (i, *b);
            }
        }
        chosen = far.0;
    }
    best.iter().sum()
}

fn bench_gonzalez_relax(c: &mut Criterion) {
    let mut g = c.benchmark_group("gonzalez_prefix16");
    g.sample_size(10);
    for &dim in DIMS {
        let ps = blobs(dim);
        let ids: Vec<usize> = (0..ps.len()).collect();
        let m = EuclideanMetric::new(&ps);
        g.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |b, _| {
            b.iter(|| scalar_gonzalez_relax(&ps, &ids, CLUSTERS));
        });
        g.bench_with_input(BenchmarkId::new("bulk", dim), &dim, |b, _| {
            b.iter(|| gonzalez(&m, &ids, CLUSTERS, 0));
        });
        g.bench_with_input(BenchmarkId::new("bulk_threads", dim), &dim, |b, _| {
            b.iter(|| gonzalez_with(&m, &ids, CLUSTERS, 0, ThreadBudget::available()));
        });
    }
    g.finish();
}

/// Scalar Lloyd-assignment baseline: `sq_dist_to` per (point, centroid).
fn scalar_lloyd_assign(ps: &PointSet, centroids: &[Vec<f64>]) -> f64 {
    let mut acc = 0.0;
    for i in 0..ps.len() {
        let mut best = f64::INFINITY;
        for c in centroids {
            let d = ps.sq_dist_to(i, c);
            if d < best {
                best = d;
            }
        }
        acc += best;
    }
    acc
}

fn bench_lloyd_assign(c: &mut Criterion) {
    let mut g = c.benchmark_group("lloyd_assign");
    g.sample_size(10);
    for &dim in DIMS {
        let ps = blobs(dim);
        let centroids: Vec<Vec<f64>> = (0..K).map(|c| ps.point(c * (N / K)).to_vec()).collect();
        let ids: Vec<usize> = (0..ps.len()).collect();
        g.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |b, _| {
            b.iter(|| scalar_lloyd_assign(&ps, &centroids));
        });
        g.bench_with_input(BenchmarkId::new("bulk", dim), &dim, |b, _| {
            let block = CenterBlock::from_rows(dim, &centroids);
            b.iter(|| block.assign_sq(&ps, &ids, ThreadBudget::serial()));
        });
        g.bench_with_input(BenchmarkId::new("bulk_threads", dim), &dim, |b, _| {
            let block = CenterBlock::from_rows(dim, &centroids);
            b.iter(|| block.assign_sq(&ps, &ids, ThreadBudget::available()));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_assign,
    bench_gonzalez_relax,
    bench_lloyd_assign
);
criterion_main!(benches);
