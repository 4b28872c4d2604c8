//! E5 companion bench: the Table 1 "Local Time O(n_i^2)" column.
//!
//! Fixes the global n and grows s; the wall clock of the whole (serial)
//! protocol should drop ~1/s as per-site O((n/s)^2) work shrinks, until
//! the O((sk+t)^2) coordinator solve takes over.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpc::prelude::*;
// Benches measure the raw protocol paths, so they import the legacy
// entry points at their crate-level paths.
use dpc::core::run_distributed_median;

fn bench_site_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("site_scaling_fixed_n");
    g.sample_size(10);
    let n = 3000;
    let t = 16;
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 4,
        inliers: n,
        outliers: t,
        seed: 55,
        ..Default::default()
    });
    for &s in &[2usize, 4, 8, 16] {
        let sh = partition(
            &mix.points,
            s,
            PartitionStrategy::Random,
            &mix.outlier_ids,
            5,
        );
        g.bench_with_input(BenchmarkId::new("median", s), &s, |b, _| {
            b.iter(|| {
                run_distributed_median(&sh, MedianConfig::new(4, t), RunOptions::sequential())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_site_scaling);
criterion_main!(benches);
