//! Failure injection and degenerate-input coverage across the whole stack.

use dpc::prelude::*;
// This suite pins the legacy entry points at their crate-level paths;
// Job-driven equivalence is covered by proptest_api.rs.
use dpc::core::{
    run_distributed_center, run_distributed_median, run_one_round_median, subquadratic_median,
};
use dpc::uncertain::{run_center_g, run_uncertain_median};

mod test_util;

#[test]
fn high_dimensional_data() {
    // dim = 16: B = 128 bytes/point; everything must still work.
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 3,
        inliers: 240,
        outliers: 5,
        dim: 16,
        ..Default::default()
    });
    let shards = partition(
        &mix.points,
        4,
        PartitionStrategy::Random,
        &mix.outlier_ids,
        1,
    );
    let out = run_distributed_median(&shards, MedianConfig::new(3, 5), RunOptions::default());
    let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 10, Objective::Median);
    assert!(cost.is_finite() && cost < 1e5, "cost {cost}");
    // Wire size reflects the dimension: round-2 center messages carry
    // 2k * (16*8 + 8) bytes each at minimum.
    let last = out.stats.rounds.last().unwrap();
    assert!(last.sites_to_coordinator.iter().all(|&b| b > 100));
}

#[test]
fn one_dimensional_data() {
    let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64]).collect();
    let ps = PointSet::from_rows(&rows);
    let shards = partition(&ps, 3, PartitionStrategy::RoundRobin, &[], 0);
    let out = run_distributed_center(&shards, CenterConfig::new(2, 3), RunOptions::default());
    let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 3, Objective::Center);
    assert!(cost <= 9.0);
}

#[test]
fn huge_coordinates_no_overflow() {
    // Coordinates near 1e150: squared distances overflow to inf if the
    // implementation squares before subtracting; ours must stay finite for
    // the median objective and must not panic for means.
    let rows = vec![
        vec![1e150, 0.0],
        vec![1e150 + 1.0, 0.0],
        vec![-1e150, 0.0],
        vec![-1e150 - 1.0, 0.0],
    ];
    let ps = PointSet::from_rows(&rows);
    let shards = partition(&ps, 2, PartitionStrategy::RoundRobin, &[], 0);
    let out = run_distributed_median(&shards, MedianConfig::new(2, 0), RunOptions::default());
    assert_eq!(out.output.centers.len(), 2);
}

#[test]
fn t_equals_n_minus_k() {
    // Everything except the centers can be discarded: cost must be ~0.
    let mix = test_util::mixture(2, 20, 0, MixtureSpec::default().seed);
    let shards = partition(&mix.points, 2, PartitionStrategy::Random, &[], 3);
    let k = 2;
    let t = 18;
    let out = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
    let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 2 * t, Objective::Median);
    assert!(cost <= 1e-9, "cost {cost}");
}

#[test]
fn duplicate_heavy_data() {
    // 90% duplicates of two locations + junk: hulls and allocations must
    // tolerate zero marginals everywhere.
    let mut rows = Vec::new();
    for _ in 0..45 {
        rows.push(vec![1.0, 1.0]);
        rows.push(vec![9.0, 9.0]);
    }
    for i in 0..10 {
        rows.push(vec![1000.0 + i as f64, -1000.0]);
    }
    let ps = PointSet::from_rows(&rows);
    let shards = partition(&ps, 4, PartitionStrategy::Random, &[], 7);
    let out = run_distributed_median(&shards, MedianConfig::new(2, 10), RunOptions::default());
    let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 20, Objective::Median);
    assert!(cost <= 1e-9, "cost {cost}");
}

#[test]
fn k_one_median_is_weighted_medoid_regime() {
    let mix = test_util::mixture(1, 200, 4, MixtureSpec::default().seed);
    let shards = test_util::shard(&mix, 4, PartitionStrategy::Random, 9);
    let out = run_distributed_median(&shards, MedianConfig::new(1, 4), RunOptions::default());
    let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 8, Objective::Median);
    // 200 points with sigma 1 in 2d: sum of distances to the medoid is
    // ~200 * 1.25.
    assert!(cost < 500.0, "cost {cost}");
}

#[test]
fn more_sites_than_points() {
    let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
    let shards = partition(&ps, 8, PartitionStrategy::RoundRobin, &[], 0);
    assert!(shards.iter().filter(|s| s.is_empty()).count() >= 5);
    let out = run_distributed_median(&shards, MedianConfig::new(1, 1), RunOptions::default());
    assert!(out.output.centers.len() == 1);
    let c = run_distributed_center(&shards, CenterConfig::new(1, 1), RunOptions::default());
    assert!(c.output.centers.len() == 1);
}

#[test]
fn uncertain_single_support_everywhere() {
    // All nodes are point masses with m = 1: T-time is trivial, tentacles
    // are zero, and the protocols must not divide by zero anywhere.
    let mut ns = NodeSet::new(2);
    for i in 0..12 {
        let p = ns.ground.push(&[i as f64, 0.0]);
        ns.nodes.push(UncertainNode::deterministic(p));
    }
    let shards = vec![ns];
    let out = run_uncertain_median(&shards, UncertainConfig::new(2, 1), RunOptions::default());
    let cost = estimate_expected_cost(&shards, &out.output.centers, 2, false, false);
    assert!(cost.is_finite());
    let g = run_center_g(&shards, CenterGConfig::new(2, 1), RunOptions::default());
    assert!(g.output.centers.len() <= 2);
}

#[test]
fn zero_points_one_site_among_many_all_protocols() {
    let mix = test_util::mixture(2, 60, 2, MixtureSpec::default().seed);
    let mut shards = test_util::shard(&mix, 3, PartitionStrategy::Random, 11);
    shards.push(PointSet::new(2));
    let m = run_distributed_median(&shards, MedianConfig::new(2, 2), RunOptions::default());
    assert!(m.output.coordinator_cost.is_finite());
    let c = run_distributed_center(&shards, CenterConfig::new(2, 2), RunOptions::default());
    assert!(c.output.coordinator_cost.is_finite());
    let o = run_one_round_median(&shards, MedianConfig::new(2, 2), RunOptions::default());
    assert!(o.output.coordinator_cost.is_finite());
}

#[test]
fn subquadratic_t_zero_and_tiny_n() {
    let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![5.0], vec![6.0]]);
    let sol = subquadratic_median(&ps, 2, 0, SubquadraticParams::default());
    assert!(sol.cost <= 2.0 + 1e-9);
    assert_eq!(sol.excluded, 0);
}

#[test]
fn unstructured_random_points_never_panic() {
    // No planted structure at all — uniform noise through every protocol.
    use rand::Rng;
    let mut rng = test_util::rng(0xedce);
    let rows: Vec<Vec<f64>> = (0..120)
        .map(|_| vec![rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)])
        .collect();
    let ps = PointSet::from_rows(&rows);
    let shards = partition(&ps, 5, PartitionStrategy::RoundRobin, &[], 0);
    let m = run_distributed_median(&shards, MedianConfig::new(3, 6), RunOptions::default());
    let (mc, _) = evaluate_on_full_data(&shards, &m.output.centers, 12, Objective::Median);
    assert!(mc.is_finite());
    let c = run_distributed_center(&shards, CenterConfig::new(3, 6), RunOptions::default());
    let (cc, _) = evaluate_on_full_data(&shards, &c.output.centers, 6, Objective::Center);
    assert!(cc.is_finite());
}
