//! Chaos suite for the fault-injected transport runtime: seeded dropout,
//! crashes, stragglers, and timeout/retry schedules driven through the
//! real protocols. Faults are decided by a pure hash of
//! `(seed, site, round, attempt)` and all time is simulated, so every
//! test here is bit-for-bit reproducible — "chaos" with a replay button.

mod test_util;

use dpc::prelude::*;
use std::time::Duration;

/// Two runs' communication accounting, compared round by round: bytes in
/// both directions, fault counters, and the simulated clock.
fn assert_stats_identical(a: &CommStats, b: &CommStats) {
    assert_eq!(a.num_rounds(), b.num_rounds());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.coordinator_to_sites, rb.coordinator_to_sites);
        assert_eq!(ra.sites_to_coordinator, rb.sites_to_coordinator);
        assert_eq!(ra.dropouts, rb.dropouts);
        assert_eq!(ra.retries, rb.retries);
        assert_eq!(ra.degraded, rb.degraded);
        assert_eq!(ra.network, rb.network);
    }
}

/// Acceptance: an identical fault seed reproduces an identical execution
/// — same dropped sites, same centers, same byte charges — on the
/// inline, channel-worker, and loopback-socket (mux) backends alike.
#[test]
fn median_chaos_run_is_identical_across_backends() {
    let (shards, _) = test_util::mixture_shards(3, 6, 360, 6, PartitionStrategy::Random, 17, 0xab);
    let faults = FaultPlan::with_dropout(11, 0.3);
    let base = RunOptions::sequential().faults(faults.clone());
    let inline = dpc::core::run_distributed_median(&shards, MedianConfig::new(3, 6), base.clone());
    assert_eq!(inline.output.centers.len(), 3);
    assert!(
        inline.stats.degraded_rounds() > 0,
        "seed 11 at p=0.3 over 6 sites drops someone"
    );
    for options in [
        RunOptions::new().faults(faults.clone()),
        RunOptions::new()
            .faults(faults.clone())
            .transport(TransportKind::Mux),
    ] {
        let run = dpc::core::run_distributed_median(&shards, MedianConfig::new(3, 6), options);
        assert_eq!(run.output.centers, inline.output.centers);
        assert_stats_identical(&run.stats, &inline.stats);
    }
    // Replay: the same options give the same execution again.
    let again = dpc::core::run_distributed_median(&shards, MedianConfig::new(3, 6), base);
    assert_eq!(again.output.centers, inline.output.centers);
    assert_stats_identical(&again.stats, &inline.stats);
}

/// Acceptance: with ≤ f sites silenced per round, Algorithms 1 and 2
/// both complete over the responders, still return `k` centers, and the
/// degraded solution stays comparable to the fault-free one.
#[test]
fn protocols_degrade_gracefully_under_dropout() {
    let (shards, mix) =
        test_util::mixture_shards(3, 6, 360, 6, PartitionStrategy::Random, 29, 0xcd);
    let full = std::slice::from_ref(&mix.points);
    let faults = FaultPlan::with_dropout(11, 0.3);

    let clean = dpc::core::run_distributed_median(
        &shards,
        MedianConfig::new(3, 6),
        RunOptions::sequential(),
    );
    let faulty = dpc::core::run_distributed_median(
        &shards,
        MedianConfig::new(3, 6),
        RunOptions::sequential().faults(faults.clone()),
    );
    assert_eq!(faulty.output.centers.len(), 3);
    assert!(faulty.stats.total_dropouts() > 0);
    let (clean_cost, _) = evaluate_on_full_data(full, &clean.output.centers, 12, Objective::Median);
    let (faulty_cost, _) =
        evaluate_on_full_data(full, &faulty.output.centers, 12, Objective::Median);
    assert!(
        faulty_cost <= 5.0 * clean_cost.max(1.0),
        "degraded median cost {faulty_cost:.1} vs clean {clean_cost:.1}"
    );

    let center = dpc::core::run_distributed_center(
        &shards,
        CenterConfig::new(3, 6),
        RunOptions::sequential().faults(faults),
    );
    assert_eq!(center.output.centers.len(), 3);
    assert!(center.stats.degraded_rounds() > 0);
    let (center_cost, _) =
        evaluate_on_full_data(full, &center.output.centers, 12, Objective::Center);
    assert!(center_cost.is_finite());
}

/// A planned crash silences exactly the planned site from its crash
/// round on: zero bytes charged in either direction afterwards.
#[test]
fn crashed_site_charges_nothing_from_its_round() {
    let (shards, _) = test_util::mixture_shards(3, 4, 240, 4, PartitionStrategy::Random, 7, 0xef);
    let faults = FaultPlan::none().crash(2, 1);
    let run = dpc::core::run_distributed_median(
        &shards,
        MedianConfig::new(3, 4),
        RunOptions::sequential().faults(faults),
    );
    assert_eq!(run.output.centers.len(), 3);
    let rounds = &run.stats.rounds;
    // Round 0 is clean; from round 1 on, site 2 is gone.
    assert_eq!(rounds[0].dropouts, 0);
    assert!(rounds[0].coordinator_to_sites[2] > 0);
    for r in &rounds[1..] {
        assert_eq!(r.coordinator_to_sites[2], 0);
        assert_eq!(r.sites_to_coordinator[2], 0);
        assert_eq!(r.dropouts, 1);
        assert!(r.degraded);
    }
}

/// Timeout/retry semantics: every failed attempt charges its timeout to
/// the simulated clock, and retries can rescue a straggler the base
/// schedule would have timed out.
#[test]
fn timeouts_charge_simulated_time_and_retries_are_counted() {
    let (shards, _) = test_util::mixture_shards(3, 6, 300, 5, PartitionStrategy::Random, 41, 0x11);
    let timeout = Duration::from_millis(50);
    let faults = FaultPlan::with_dropout(11, 0.3).with_timeout(timeout, 2);
    let run = dpc::core::run_distributed_median(
        &shards,
        MedianConfig::new(3, 5),
        RunOptions::sequential().faults(faults),
    );
    assert_eq!(run.output.centers.len(), 3);
    let retries = run.stats.total_retries();
    assert!(retries > 0, "p=0.3 with 2 retries re-attempts something");
    // Each round with a failed attempt owes at least one 50 ms timeout.
    for r in &run.stats.rounds {
        if r.retries > 0 || r.dropouts > 0 {
            assert!(
                r.network >= timeout,
                "round with failures finished in {:?}",
                r.network
            );
        }
    }
    // Retries strictly help attempt-0 failures: the no-retry run at the
    // same seed drops at least as many sites in round 0.
    let no_retry = dpc::core::run_distributed_median(
        &shards,
        MedianConfig::new(3, 5),
        RunOptions::sequential().faults(FaultPlan::with_dropout(11, 0.3)),
    );
    assert!(no_retry.stats.rounds[0].dropouts >= run.stats.rounds[0].dropouts);
}

/// Stragglers below the timeout only slow the simulated round down;
/// nothing is dropped and the transcript stays byte-identical to the
/// straggler-free run.
#[test]
fn stragglers_slow_rounds_without_changing_bytes() {
    let (shards, _) = test_util::mixture_shards(3, 4, 240, 4, PartitionStrategy::Random, 53, 0x22);
    let clean = dpc::core::run_distributed_median(
        &shards,
        MedianConfig::new(3, 4),
        RunOptions::sequential(),
    );
    let slowed = dpc::core::run_distributed_median(
        &shards,
        MedianConfig::new(3, 4),
        RunOptions::sequential().faults(
            // Always straggle, up to 5 ms, no timeout: all delivered.
            FaultPlan::none().stragglers(0.999, Duration::from_millis(5)),
        ),
    );
    assert_eq!(clean.output.centers, slowed.output.centers);
    assert_eq!(clean.stats.total_bytes(), slowed.stats.total_bytes());
    assert_eq!(slowed.stats.total_dropouts(), 0);
    for (c, s) in clean.stats.rounds.iter().zip(&slowed.stats.rounds) {
        assert_eq!(c.coordinator_to_sites, s.coordinator_to_sites);
        assert_eq!(c.sites_to_coordinator, s.sites_to_coordinator);
        assert!(s.network >= c.network, "straggling never speeds a round up");
    }
    assert!(slowed.stats.network_time() > clean.stats.network_time());
}

/// The typed front door carries the whole story: fault knobs in, a
/// degraded-round record out, surviving a JSON round trip.
#[test]
fn job_artifact_records_chaos() {
    let mix = test_util::mixture(3, 360, 6, 67);
    let artifact = Job::median(3, 6)
        .sites(6)
        .dropout(0.3)
        .fault_seed(11)
        .timeout(Duration::from_millis(20))
        .retries(1)
        .points(mix.points)
        .validate()
        .expect("fault knobs validate")
        .run();
    assert_eq!(artifact.centers.len(), 3);
    assert!(artifact.degraded_rounds() > 0);
    assert!(artifact.total_dropouts() > 0);
    let back = Artifact::from_json(&artifact.to_json()).unwrap();
    assert_eq!(back.to_json(), artifact.to_json());
    assert_eq!(back.degraded_rounds(), artifact.degraded_rounds());
    for (a, b) in artifact.round_stats.iter().zip(&back.round_stats) {
        assert_eq!(
            (a.dropouts, a.retries, a.degraded),
            (b.dropouts, b.retries, b.degraded)
        );
    }
}
