//! Cross-backend equivalence of the real protocols: every distributed
//! algorithm in the workspace must produce the same solution and
//! byte-identical per-round charges whether its messages ride the
//! in-process shard workers or real Unix-domain socket pairs served by
//! the multiplexed event-loop backend.

use dpc::coordinator::CommStats;
use dpc::prelude::*;
// This suite pins the legacy entry points at their crate-level paths;
// Job-driven equivalence is covered by proptest_api.rs.
use dpc::core::{
    run_distributed_center, run_distributed_median, run_one_round_center, run_one_round_median,
};
use dpc::uncertain::run_uncertain_median;
use std::time::Duration;

mod test_util;

fn assert_charges_identical(label: &str, a: &CommStats, b: &CommStats) {
    assert_eq!(a.num_rounds(), b.num_rounds(), "{label}: round count");
    for (i, (ra, rb)) in a.rounds.iter().zip(&b.rounds).enumerate() {
        assert_eq!(
            ra.coordinator_to_sites, rb.coordinator_to_sites,
            "{label}: round {i} downstream"
        );
        assert_eq!(
            ra.sites_to_coordinator, rb.sites_to_coordinator,
            "{label}: round {i} upstream"
        );
    }
}

fn options_matrix() -> [RunOptions; 3] {
    [
        RunOptions::sequential(),
        RunOptions::new().shards(2), // two in-process shard workers
        // Two event-loop shards exercise the round-robin scatter/gather.
        RunOptions::new().transport(TransportKind::Mux).shards(2),
    ]
}

/// Runs one protocol under every backend and checks outputs + charges
/// against the deterministic sequential baseline.
fn check<F>(label: &str, run: F)
where
    F: Fn(RunOptions) -> (PointSet, f64, CommStats),
{
    let [baseline, channel, mux] = options_matrix();
    let (base_centers, base_cost, base_stats) = run(baseline);
    for options in [channel, mux] {
        let (centers, cost, stats) = run(options);
        assert_eq!(centers, base_centers, "{label}: centers diverged");
        assert_eq!(cost, base_cost, "{label}: cost diverged");
        assert_charges_identical(label, &base_stats, &stats);
    }
}

#[test]
fn median_center_and_one_round_protocols_are_backend_invariant() {
    let (shards, _) = test_util::mixture_shards(3, 4, 600, 6, PartitionStrategy::Random, 11, 0);
    let mcfg = MedianConfig::new(3, 6);
    check("algo1 median", |o| {
        let out = run_distributed_median(&shards, mcfg, o);
        (out.output.centers, out.output.coordinator_cost, out.stats)
    });
    check("algo1 means", |o| {
        let out = run_distributed_median(&shards, mcfg.means(), o);
        (out.output.centers, out.output.coordinator_cost, out.stats)
    });
    let ccfg = CenterConfig::new(3, 6);
    check("algo2 center", |o| {
        let out = run_distributed_center(&shards, ccfg, o);
        (out.output.centers, out.output.coordinator_cost, out.stats)
    });
    check("one-round median", |o| {
        let out = run_one_round_median(&shards, mcfg, o);
        (out.output.centers, out.output.coordinator_cost, out.stats)
    });
    check("one-round center", |o| {
        let out = run_one_round_center(&shards, ccfg, o);
        (out.output.centers, out.output.coordinator_cost, out.stats)
    });
}

#[test]
fn uncertain_protocol_is_backend_invariant() {
    let nodes = test_util::uncertain_shards_sized(7, 3, 6);
    let cfg = UncertainConfig::new(2, 2);
    check("algo3 uncertain median", |o| {
        let out = run_uncertain_median(&nodes, cfg, o);
        (out.output.centers, out.output.coordinator_cost, out.stats)
    });
}

#[test]
fn link_model_is_deterministic_and_additive_across_backends() {
    // The simulated network column depends only on the charged bytes and
    // the link parameters — so it too must be backend-invariant, unlike
    // the measured compute columns.
    let (shards, _) = test_util::mixture_shards(3, 3, 300, 4, PartitionStrategy::Random, 5, 0);
    let link = LinkModel::new(Duration::from_millis(3), 1e6);
    let nets: Vec<Duration> = options_matrix()
        .into_iter()
        .map(|o| {
            run_distributed_median(&shards, MedianConfig::new(2, 4), o.link(link))
                .stats
                .network_time()
        })
        .collect();
    assert!(nets[0] >= Duration::from_millis(12), "2 rounds x 2 x 3ms");
    assert!(nets.iter().all(|&n| n == nets[0]), "{nets:?}");
}

#[test]
fn wire_encodings_are_backend_invariant_and_raw_stays_byte_identical() {
    let (shards, _) = test_util::mixture_shards(3, 4, 400, 6, PartitionStrategy::Random, 23, 0);
    let cfg = MedianConfig::new(3, 6);
    // The pre-codec wire format: default config (encoding unset).
    let base = run_distributed_median(&shards, cfg, RunOptions::sequential());
    for options in options_matrix() {
        // `encoding=raw` must leave every per-round, per-site charge
        // byte-identical to that baseline on every backend.
        let raw = run_distributed_median(&shards, cfg.encoding(Encoding::Raw), options.clone());
        assert_eq!(raw.output.centers, base.output.centers, "raw centers");
        assert_charges_identical("explicit raw", &base.stats, &raw.stats);
        assert_eq!(raw.stats.raw_bytes(), raw.stats.total_bytes(), "raw ratio");
        // Every other mode decodes successfully on every backend and
        // reports the exact uncompressed byte total it stands in for.
        for enc in [Encoding::F32, Encoding::Rlz] {
            let out = run_distributed_median(&shards, cfg.encoding(enc), options.clone());
            assert!(out.output.coordinator_cost.is_finite(), "{enc}");
            assert_eq!(out.stats.raw_bytes(), base.stats.total_bytes(), "{enc}");
            if enc.is_lossless() {
                assert_eq!(out.output.centers, base.output.centers, "{enc}");
                assert_eq!(
                    out.output.coordinator_cost, base.output.coordinator_cost,
                    "{enc}"
                );
            }
        }
    }
}
