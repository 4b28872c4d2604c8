//! End-to-end tests of the distributed `(k,t)`-center protocol
//! (Algorithm 2 / Theorem 4.3) and its baselines.

use dpc::prelude::*;
// This suite pins the legacy entry points at their crate-level paths;
// Job-driven equivalence is covered by proptest_api.rs.
use dpc::core::{run_distributed_center, run_one_round_center};

mod test_util;

fn shards(
    sites: usize,
    t: usize,
    strategy: PartitionStrategy,
    seed: u64,
) -> (Vec<PointSet>, Mixture) {
    test_util::mixture_shards(3, sites, 600, t, strategy, seed, 7)
}

/// Strong centralized reference: Charikar on the merged data.
fn centralized_center_cost(all_shards: &[PointSet], k: usize, t: usize) -> f64 {
    let all = merge_shards(all_shards);
    let w = WeightedSet::unit(all.len());
    let m = EuclideanMetric::new(&all);
    let sol = charikar_center(&m, &w, k, t as f64, CenterParams::default());
    sol.cost
}

#[test]
fn center_constant_factor_vs_centralized() {
    let (k, t) = (3, 10);
    for strategy in [
        PartitionStrategy::Random,
        PartitionStrategy::ByBlock,
        PartitionStrategy::OutlierSkew,
    ] {
        let (sh, _) = shards(5, t, strategy, 5);
        let out = run_distributed_center(&sh, CenterConfig::new(k, t), RunOptions::default());
        let (dist, _) = evaluate_on_full_data(&sh, &out.output.centers, t, Objective::Center);
        let cen = centralized_center_cost(&sh, k, t);
        assert!(
            dist <= 6.0 * cen.max(0.1),
            "{strategy:?}: distributed {dist} vs centralized {cen}"
        );
    }
}

#[test]
fn exactly_t_outliers_excluded_at_coordinator() {
    let (k, t) = (3, 12);
    let (sh, _) = shards(4, t, PartitionStrategy::Random, 9);
    let out = run_distributed_center(&sh, CenterConfig::new(k, t), RunOptions::default());
    assert!(out.output.excluded_weight <= t as f64 + 1e-9);
}

#[test]
fn communication_independent_of_site_size() {
    // Same k, t, s; 4x the points per site: bytes must stay ~constant.
    let (k, t, sites) = (3, 8, 4);
    let default_seed = MixtureSpec::default().seed;
    let small = {
        let mix = test_util::mixture(5, 400, t, default_seed);
        test_util::shard(&mix, sites, PartitionStrategy::Random, 1)
    };
    let big = {
        let mix = test_util::mixture(5, 1600, t, default_seed);
        test_util::shard(&mix, sites, PartitionStrategy::Random, 1)
    };
    let cfg = CenterConfig::new(k, t);
    let a = run_distributed_center(&small, cfg, RunOptions::default());
    let b = run_distributed_center(&big, cfg, RunOptions::default());
    let (sa, sb) = (
        a.stats.upstream_bytes() as f64,
        b.stats.upstream_bytes() as f64,
    );
    assert!(sb <= 1.15 * sa, "comm grew with n: {sa} -> {sb}");
}

#[test]
fn beats_one_round_in_bytes_at_scale() {
    let (k, t) = (3, 40);
    let (sh, _) = shards(10, t, PartitionStrategy::Random, 13);
    let cfg = CenterConfig::new(k, t);
    let two = run_distributed_center(&sh, cfg, RunOptions::default());
    let one = run_one_round_center(&sh, cfg, RunOptions::default());
    assert!(
        (two.stats.upstream_bytes() as f64) < 0.6 * one.stats.upstream_bytes() as f64,
        "2-round {} vs 1-round {}",
        two.stats.upstream_bytes(),
        one.stats.upstream_bytes()
    );
    // ... at no real quality cost.
    let (c2, _) = evaluate_on_full_data(&sh, &two.output.centers, t, Objective::Center);
    let (c1, _) = evaluate_on_full_data(&sh, &one.output.centers, t, Objective::Center);
    assert!(
        c2 <= 3.0 * c1.max(0.1) + 1e-9,
        "2-round {c2} vs 1-round {c1}"
    );
}

#[test]
fn t_zero_is_plain_distributed_k_center() {
    let (sh, _) = shards(4, 0, PartitionStrategy::Random, 17);
    let out = run_distributed_center(&sh, CenterConfig::new(3, 0), RunOptions::default());
    let (cost, _) = evaluate_on_full_data(&sh, &out.output.centers, 0, Objective::Center);
    let cen = centralized_center_cost(&sh, 3, 0);
    assert!(
        cost <= 6.0 * cen.max(0.1),
        "cost {cost} vs centralized {cen}"
    );
}

#[test]
fn parallel_and_sequential_agree() {
    let (sh, _) = shards(6, 10, PartitionStrategy::Random, 19);
    let cfg = CenterConfig::new(3, 10);
    let a = run_distributed_center(&sh, cfg, RunOptions::new().shards(2));
    let b = run_distributed_center(&sh, cfg, RunOptions::sequential());
    assert_eq!(a.output.centers, b.output.centers);
    assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
}

#[test]
fn gonzalez_marginals_monotone_on_all_sites() {
    // White-box-ish invariant via the public API: profiles are convex, so
    // shipped byte counts in round 0 stay O(log t) regardless of data.
    let (sh, _) = shards(5, 64, PartitionStrategy::ByBlock, 29);
    let out = run_distributed_center(&sh, CenterConfig::new(4, 64), RunOptions::default());
    for &bytes in &out.stats.rounds[0].sites_to_coordinator {
        assert!(bytes < 400, "round-0 profile message too big: {bytes}B");
    }
}
