//! Property: `Job`-driven runs are indistinguishable from the legacy
//! free functions — byte-identical `CommStats` and identical outputs —
//! for Algorithm 1 (median/means), Algorithm 2 (center), the 1-round
//! baselines, and the uncertain protocol, across the Inline and Channel
//! transports.
//!
//! This is the contract that lets callers move to `Job` safely:
//! the API is a front door, not a different building.

use dpc::core::{
    run_distributed_center, run_distributed_median, run_one_round_center, run_one_round_median,
};
use dpc::prelude::*;
use dpc::uncertain::run_uncertain_median as legacy_uncertain_median;
use proptest::prelude::*;

mod test_util;

/// The two in-process execution modes: one shard (sequential) and two
/// channel shards running sites at once.
fn options_for(parallel: bool) -> RunOptions {
    if parallel {
        RunOptions::new().shards(2)
    } else {
        RunOptions::sequential()
    }
}

fn apply_mode(builder: JobBuilder, parallel: bool) -> JobBuilder {
    if parallel {
        builder.threads(2)
    } else {
        builder.sequential()
    }
}

/// Per-round, per-site byte vectors of a legacy run.
fn legacy_bytes(stats: &CommStats) -> Vec<(Vec<usize>, Vec<usize>)> {
    stats
        .rounds
        .iter()
        .map(|r| {
            (
                r.coordinator_to_sites.clone(),
                r.sites_to_coordinator.clone(),
            )
        })
        .collect()
}

/// Same view over an artifact.
fn artifact_bytes(a: &Artifact) -> Vec<(Vec<usize>, Vec<usize>)> {
    a.round_stats
        .iter()
        .map(|r| (r.bytes_down.clone(), r.bytes_up.clone()))
        .collect()
}

fn centers_rows(ps: &PointSet) -> Vec<Vec<f64>> {
    (0..ps.len()).map(|i| ps.point(i).to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn median_and_means_match_legacy(
        k in 2usize..4,
        t in 0usize..6,
        sites in 2usize..5,
        means in any::<bool>(),
        parallel in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mix = test_util::mixture(k, 150, t, seed);
        let shards = partition(&mix.points, sites, PartitionStrategy::Random, &mix.outlier_ids, seed ^ 0xa5);

        let mut cfg = MedianConfig::new(k, t);
        if means {
            cfg = cfg.means();
        }
        let legacy = run_distributed_median(&shards, cfg, options_for(parallel));

        let builder = if means { Job::means(k, t) } else { Job::median(k, t) };
        let artifact = apply_mode(builder.shards(shards.clone()), parallel)
            .validate()
            .unwrap()
            .run();

        prop_assert_eq!(artifact.rounds, legacy.stats.num_rounds());
        prop_assert_eq!(artifact_bytes(&artifact), legacy_bytes(&legacy.stats));
        prop_assert_eq!(&artifact.centers, &centers_rows(&legacy.output.centers));
        let objective = if means { Objective::Means } else { Objective::Median };
        let (cost, excluded) = evaluate_on_full_data(&shards, &legacy.output.centers, 2 * t, objective);
        prop_assert_eq!(artifact.cost, cost);
        prop_assert_eq!(artifact.budget, excluded);
    }

    #[test]
    fn center_matches_legacy(
        k in 2usize..4,
        t in 0usize..6,
        sites in 2usize..5,
        parallel in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mix = test_util::mixture(k, 150, t, seed);
        let shards = partition(&mix.points, sites, PartitionStrategy::Random, &mix.outlier_ids, seed ^ 0x5a);
        let legacy = run_distributed_center(&shards, CenterConfig::new(k, t), options_for(parallel));
        let artifact = apply_mode(Job::center(k, t).shards(shards.clone()), parallel)
            .validate()
            .unwrap()
            .run();
        prop_assert_eq!(artifact_bytes(&artifact), legacy_bytes(&legacy.stats));
        prop_assert_eq!(&artifact.centers, &centers_rows(&legacy.output.centers));
    }

    #[test]
    fn one_round_baselines_match_legacy(
        k in 2usize..4,
        t in 0usize..5,
        sites in 2usize..4,
        center in any::<bool>(),
        parallel in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mix = test_util::mixture(k, 120, t, seed);
        let shards = partition(&mix.points, sites, PartitionStrategy::Random, &mix.outlier_ids, seed ^ 0x77);
        let (legacy_bytes_v, legacy_centers, objective) = if center {
            let out = run_one_round_center(&shards, CenterConfig::new(k, t), options_for(parallel));
            (legacy_bytes(&out.stats), centers_rows(&out.output.centers), Objective::Center)
        } else {
            let out = run_one_round_median(&shards, MedianConfig::new(k, t), options_for(parallel));
            (legacy_bytes(&out.stats), centers_rows(&out.output.centers), Objective::Median)
        };
        let artifact = apply_mode(
            Job::one_round(objective, k, t).shards(shards.clone()),
            parallel,
        )
        .validate()
        .unwrap()
        .run();
        prop_assert_eq!(artifact.rounds, 1);
        prop_assert_eq!(artifact_bytes(&artifact), legacy_bytes_v);
        prop_assert_eq!(&artifact.centers, &legacy_centers);
    }

    #[test]
    fn uncertain_matches_legacy(
        k in 2usize..4,
        t in 0usize..4,
        sites in 2usize..4,
        parallel in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let shards = uncertain_mixture(UncertainSpec {
            clusters: k,
            nodes_per_site: 10,
            sites,
            noise_nodes: t,
            seed,
            ..Default::default()
        });
        let mut cfg = UncertainConfig::new(k, t);
        cfg.eps = 1.0;
        let legacy = legacy_uncertain_median(&shards, cfg, options_for(parallel));
        let artifact = apply_mode(Job::uncertain_median(k, t).data(shards.clone()), parallel)
            .validate()
            .unwrap()
            .run();
        prop_assert_eq!(artifact_bytes(&artifact), legacy_bytes(&legacy.stats));
        prop_assert_eq!(&artifact.centers, &centers_rows(&legacy.output.centers));
        let budget = 2 * t;
        let cost = estimate_expected_cost(&shards, &legacy.output.centers, budget, false, false);
        prop_assert_eq!(artifact.cost, cost);
    }
}
