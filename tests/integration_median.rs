//! End-to-end tests of the distributed `(k,t)`-median/means protocols
//! against centralized references and the paper's guarantees.

use dpc::prelude::*;
// This suite pins the legacy entry points at their crate-level paths;
// Job-driven equivalence is covered by proptest_api.rs.
use dpc::core::{run_distributed_median, run_one_round_median};

mod test_util;

fn mixture_shards(
    sites: usize,
    inliers: usize,
    outliers: usize,
    strategy: PartitionStrategy,
    seed: u64,
) -> (Vec<PointSet>, Mixture) {
    test_util::mixture_shards(4, sites, inliers, outliers, strategy, seed, 1)
}

/// The centralized bicriteria cost on the merged data — the quality
/// reference every distributed run must be within a constant factor of.
fn centralized_cost(shards: &[PointSet], k: usize, t: usize, budget: usize) -> f64 {
    let all = merge_shards(shards);
    let w = WeightedSet::unit(all.len());
    let m = EuclideanMetric::new(&all);
    let sol = median_bicriteria(
        &m,
        &w,
        k,
        t as f64,
        Objective::Median,
        BicriteriaParams::default(),
    );
    // Re-evaluate at the same budget used for the distributed solution.
    let ids: Vec<usize> = sol.centers.clone();
    let centers = all.subset(&ids);
    let (c, _) = evaluate_on_full_data(&[all], &centers, budget, Objective::Median);
    c
}

#[test]
fn median_within_constant_of_centralized_across_partitions() {
    let (k, t) = (4, 12);
    for strategy in [
        PartitionStrategy::Random,
        PartitionStrategy::RoundRobin,
        PartitionStrategy::ByBlock,
        PartitionStrategy::OutlierSkew,
    ] {
        let (shards, _) = mixture_shards(6, 600, t, strategy, 11);
        let out = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
        let budget = 2 * t;
        let (dist_cost, _) =
            evaluate_on_full_data(&shards, &out.output.centers, budget, Objective::Median);
        let cen_cost = centralized_cost(&shards, k, t, budget);
        assert!(
            dist_cost <= 8.0 * cen_cost.max(1.0),
            "{strategy:?}: distributed {dist_cost} vs centralized {cen_cost}"
        );
    }
}

#[test]
fn planted_outliers_are_excluded() {
    let (k, t) = (4, 10);
    let (shards, mix) = mixture_shards(5, 500, t, PartitionStrategy::Random, 23);
    let out = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
    // No returned center may sit anywhere near a planted outlier.
    for &o in &mix.outlier_ids {
        let op = mix.points.point(o);
        for c in 0..out.output.centers.len() {
            let d = dpc::metric::points::sq_dist(out.output.centers.point(c), op).sqrt();
            assert!(d > 1000.0, "center {c} sits on planted outlier {o}");
        }
    }
}

#[test]
fn outlier_budget_bound_sigma_ti_le_3t() {
    // Lemma 3.5: with rho = 2, sum of shipped t_i is at most 3t.
    let (k, t) = (3, 16);
    for seed in [1u64, 2, 3] {
        let (shards, _) = mixture_shards(4, 400, t, PartitionStrategy::OutlierSkew, seed);
        let out = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
        assert!(
            out.output.shipped_outliers <= (3 * t) as u64,
            "seed {seed}: shipped {} > 3t = {}",
            out.output.shipped_outliers,
            3 * t
        );
    }
}

#[test]
fn means_protocol_quality() {
    let (k, t) = (4, 8);
    let (shards, _) = mixture_shards(4, 400, t, PartitionStrategy::Random, 31);
    let out = run_distributed_median(
        &shards,
        MedianConfig::new(k, t).means(),
        RunOptions::default(),
    );
    let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 2 * t, Objective::Means);
    // 400 inliers with sigma=1 in 2d: per-point E d^2 ~ 2, so ~800 plus
    // slack; paying for even one planted outlier costs > 1e8.
    assert!(cost < 10_000.0, "means cost {cost}");
}

#[test]
fn delta_variant_comm_decreases_with_delta_quality_holds() {
    let (k, t) = (3, 24);
    let (shards, _) = mixture_shards(6, 600, t, PartitionStrategy::Random, 41);
    let ship = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
    let counts = run_distributed_median(
        &shards,
        MedianConfig::new(k, t).counts_only(0.25),
        RunOptions::default(),
    );
    assert!(
        counts.stats.upstream_bytes() < ship.stats.upstream_bytes(),
        "counts-only {}B !< ship {}B",
        counts.stats.upstream_bytes(),
        ship.stats.upstream_bytes()
    );
    // Quality with the (2+eps+delta)t budget.
    let budget = ((2.0 + 1.0 + 0.25) * t as f64) as usize;
    let (cost, _) =
        evaluate_on_full_data(&shards, &counts.output.centers, budget, Objective::Median);
    let cen = centralized_cost(&shards, k, t, budget);
    assert!(
        cost <= 10.0 * cen.max(1.0),
        "delta-variant {cost} vs centralized {cen}"
    );
}

#[test]
fn one_round_vs_two_round_communication_scaling() {
    // Fix k, grow s with t: 1-round comm grows ~ s*t, 2-round ~ sk + t.
    let (k, t) = (3, 32);
    let mut ratios = Vec::new();
    for &sites in &[4usize, 16] {
        let (shards, _) = mixture_shards(sites, 800, t, PartitionStrategy::Random, 53);
        let cfg = MedianConfig::new(k, t);
        let one = run_one_round_median(&shards, cfg, RunOptions::default());
        let two = run_distributed_median(&shards, cfg, RunOptions::default());
        ratios.push(one.stats.upstream_bytes() as f64 / two.stats.upstream_bytes() as f64);
    }
    // The advantage must widen as s grows.
    assert!(
        ratios[1] > ratios[0],
        "1-round/2-round byte ratio should grow with s: {ratios:?}"
    );
    assert!(
        ratios[1] > 1.5,
        "at s=16 the 2-round protocol must win clearly: {ratios:?}"
    );
}

#[test]
fn deterministic_given_seeds() {
    let (k, t) = (3, 8);
    let (shards, _) = mixture_shards(4, 300, t, PartitionStrategy::Random, 67);
    let a = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
    let b = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
    assert_eq!(a.output.centers, b.output.centers);
    assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
}

#[test]
fn degenerate_all_points_identical() {
    let rows = vec![vec![3.0, 3.0]; 40];
    let ps = PointSet::from_rows(&rows);
    let shards = partition(&ps, 4, PartitionStrategy::RoundRobin, &[], 0);
    let out = run_distributed_median(&shards, MedianConfig::new(2, 4), RunOptions::default());
    let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 8, Objective::Median);
    assert_eq!(cost, 0.0);
}

#[test]
fn sites_fewer_points_than_k() {
    // 10 sites, 3 points each, k = 5.
    let mix = test_util::mixture(5, 30, 2, MixtureSpec::default().seed);
    let shards = test_util::shard(&mix, 10, PartitionStrategy::RoundRobin, 3);
    let out = run_distributed_median(&shards, MedianConfig::new(5, 2), RunOptions::default());
    let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 4, Objective::Median);
    assert!(cost.is_finite());
}
