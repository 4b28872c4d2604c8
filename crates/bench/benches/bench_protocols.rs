//! End-to-end protocol benchmarks: the Table 1 algorithms as whole
//! pipelines (comm accounting included), at fixed data scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpc::prelude::*;
// Benches measure the raw protocol paths, so they import the legacy
// entry points at their crate-level paths.
use dpc::core::{run_distributed_center, run_distributed_median, run_one_round_center};
use dpc::uncertain::{run_center_g, run_uncertain_median};

fn shards(s: usize, n: usize, t: usize, seed: u64) -> Vec<PointSet> {
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 4,
        inliers: n,
        outliers: t,
        seed,
        ..Default::default()
    });
    partition(
        &mix.points,
        s,
        PartitionStrategy::Random,
        &mix.outlier_ids,
        seed,
    )
}

fn bench_median_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol_median");
    g.sample_size(10);
    for &s in &[4usize, 8] {
        let sh = shards(s, 1200, 16, 10 + s as u64);
        g.bench_with_input(BenchmarkId::new("2round", s), &s, |b, _| {
            b.iter(|| {
                run_distributed_median(&sh, MedianConfig::new(4, 16), RunOptions::sequential())
            });
        });
    }
    g.finish();
}

fn bench_center_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol_center");
    g.sample_size(10);
    for &s in &[4usize, 8] {
        let sh = shards(s, 2000, 24, 20 + s as u64);
        let cfg = CenterConfig::new(4, 24);
        g.bench_with_input(BenchmarkId::new("2round", s), &s, |b, _| {
            b.iter(|| run_distributed_center(&sh, cfg, RunOptions::sequential()));
        });
        g.bench_with_input(BenchmarkId::new("1round_malkomes", s), &s, |b, _| {
            b.iter(|| run_one_round_center(&sh, cfg, RunOptions::sequential()));
        });
    }
    g.finish();
}

fn bench_uncertain_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol_uncertain");
    g.sample_size(10);
    let sh = uncertain_mixture(UncertainSpec {
        clusters: 3,
        nodes_per_site: 25,
        sites: 4,
        noise_nodes: 4,
        support: 3,
        jitter: 1.5,
        separation: 120.0,
        seed: 33,
    });
    g.bench_function("algo3_median", |b| {
        b.iter(|| run_uncertain_median(&sh, UncertainConfig::new(3, 4), RunOptions::sequential()));
    });
    g.bench_function("algo4_center_g", |b| {
        b.iter(|| run_center_g(&sh, CenterGConfig::new(3, 4), RunOptions::sequential()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_median_protocol,
    bench_center_protocol,
    bench_uncertain_protocol
);
criterion_main!(benches);
