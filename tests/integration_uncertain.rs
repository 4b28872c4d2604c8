//! End-to-end tests of the uncertain-data algorithms (Algorithms 3–4)
//! against exact expected costs, the compressed-graph sandwich, and
//! Monte-Carlo estimates of the global objective.

use dpc::prelude::*;
// This suite pins the legacy entry points at their crate-level paths;
// Job-driven equivalence is covered by proptest_api.rs.
use dpc::core::run_distributed_median;
use dpc::uncertain::{run_center_g, run_uncertain_median};

mod test_util;

fn shards(seed: u64, noise: usize) -> Vec<NodeSet> {
    test_util::uncertain_shards(seed, noise)
}

#[test]
fn uncertain_median_beats_paying_for_noise() {
    let t = 5;
    let sh = shards(101, t);
    let out = run_uncertain_median(&sh, UncertainConfig::new(3, t), RunOptions::default());
    let cost = estimate_expected_cost(&sh, &out.output.centers, 2 * t, false, false);
    // Honest nodes: 60 of them at jitter ~1.5; any solution serving a
    // noise node pays > 1e4.
    assert!(cost < 600.0, "uncertain median cost {cost}");
}

#[test]
fn uncertain_means_and_center_pp() {
    let t = 4;
    let sh = shards(103, t);
    let means = run_uncertain_median(
        &sh,
        UncertainConfig::new(3, t).means(),
        RunOptions::default(),
    );
    let mc = estimate_expected_cost(&sh, &means.output.centers, 2 * t, true, false);
    assert!(mc < 5_000.0, "uncertain means cost {mc}");

    let pp = run_uncertain_median(
        &sh,
        UncertainConfig::new(3, t).center_pp(),
        RunOptions::default(),
    );
    let pc = estimate_expected_cost(&sh, &pp.output.centers, 2 * t, false, true);
    assert!(pc < 50.0, "uncertain center-pp cost {pc}");
}

#[test]
fn compressed_graph_sandwich_on_random_instances() {
    // Lemma 5.4 on generated data: translating a graph solution back to
    // the uncertain instance at most doubles the cost.
    for seed in [7u64, 8, 9] {
        let sh = shards(seed, 3);
        // Build one big local instance (single site) to compare graph
        // cost vs true cost directly.
        let all = &sh[0];
        let (graph, demands) = CompressedGraph::from_nodes(all, false);
        let sol = median_bicriteria(
            &graph,
            &demands,
            3,
            2.0,
            Objective::Median,
            BicriteriaParams {
                eps: 0.0,
                ..Default::default()
            },
        );
        let mut centers = PointSet::new(2);
        for &c in &sol.centers {
            centers.push(graph.y_coords(c));
        }
        let true_cost =
            estimate_expected_cost(std::slice::from_ref(all), &centers, 2, false, false);
        assert!(
            true_cost <= 2.0 * sol.cost + 1e-9,
            "seed {seed}: Lemma 5.4 violated — true {true_cost} > 2·graph {}",
            sol.cost
        );
    }
}

#[test]
fn communication_scales_with_sk_t_not_n() {
    let t = 4;
    let small = shards(301, t);
    let big = test_util::uncertain_shards_sized(301, t, 60); // 4x nodes
    let cfg = UncertainConfig::new(3, t);
    let a = run_uncertain_median(&small, cfg, RunOptions::default());
    let b = run_uncertain_median(&big, cfg, RunOptions::default());
    let (sa, sb) = (
        a.stats.upstream_bytes() as f64,
        b.stats.upstream_bytes() as f64,
    );
    assert!(sb <= 1.2 * sa, "uncertain comm grew with n: {sa} -> {sb}");
}

#[test]
fn center_g_tracks_monte_carlo_objective() {
    let t = 3;
    let sh = shards(401, t);
    let out = run_center_g(&sh, CenterGConfig::new(3, t), RunOptions::default());
    let emax = estimate_center_g_cost(&sh, &out.output.centers, t, 1500, 11);
    // Cluster jitter 1.5 with 3-point support: per-node E[max] ~ few
    // units; noise nodes excluded. Paying for noise means > 1e4.
    assert!(emax < 100.0, "E[max] {emax}");
    // And the global objective dominates the per-point one.
    let pp = estimate_expected_cost(&sh, &out.output.centers, t, false, true);
    assert!(emax >= pp - 0.5, "E[max] {emax} < max-E {pp}");
}

#[test]
fn center_g_communication_contains_tau_sweep() {
    let t = 3;
    let sh = shards(403, t);
    let out = run_center_g(&sh, CenterGConfig::new(2, t), RunOptions::default());
    // Round 1 carries |T| = O(log Delta) hulls per site — more than a
    // single-hull message but far less than shipping distributions.
    assert_eq!(out.stats.num_rounds(), 3);
    let profile_bytes: usize = out.stats.rounds[1].sites_to_coordinator.iter().sum();
    let final_bytes: usize = out.stats.rounds[2].sites_to_coordinator.iter().sum();
    assert!(profile_bytes > 0 && final_bytes > 0);
}

#[test]
fn deterministic_nodes_reduce_to_deterministic_problem() {
    // All nodes are point masses: Algorithm 3's output should be within a
    // constant of running Algorithm 1 on the realizations.
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 3,
        inliers: 120,
        outliers: 4,
        ..Default::default()
    });
    let det_shards = partition(
        &mix.points,
        3,
        PartitionStrategy::Random,
        &mix.outlier_ids,
        5,
    );
    let unc_shards: Vec<NodeSet> = det_shards
        .iter()
        .map(|ps| {
            let mut ns = NodeSet::new(2);
            for (_, p) in ps.iter() {
                let id = ns.ground.push(p);
                ns.nodes.push(UncertainNode::deterministic(id));
            }
            ns
        })
        .collect();
    let unc = run_uncertain_median(
        &unc_shards,
        UncertainConfig::new(3, 4),
        RunOptions::default(),
    );
    let det = run_distributed_median(&det_shards, MedianConfig::new(3, 4), RunOptions::default());
    let cu = estimate_expected_cost(&unc_shards, &unc.output.centers, 8, false, false);
    let (cd, _) = evaluate_on_full_data(&det_shards, &det.output.centers, 8, Objective::Median);
    assert!(
        cu <= 4.0 * cd.max(1.0),
        "uncertain-on-deterministic {cu} vs deterministic {cd}"
    );
}
