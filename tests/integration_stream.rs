//! End-to-end streaming suite: quality vs the batch 2-round protocol,
//! live-summary size bounds, sliding-window recency, and continuous-mode
//! communication accounting — the ISSUE 2 acceptance criteria.

mod test_util;

use dpc::prelude::*;
// This suite pins the legacy entry points at their crate-level paths;
// Job-driven equivalence is covered by proptest_api.rs.
use dpc::core::run_distributed_median;

fn drift_workload(points: usize, seed: u64) -> DriftStream {
    drifting_stream(DriftSpec {
        clusters: 4,
        points,
        drift: 0.6,
        burst_len: 5,
        burst_every: 500,
        seed,
        ..Default::default()
    })
}

/// Acceptance: on the drifting-stream workload the streaming engine's
/// `(k,t)`-median cost is within 2x of rerunning the batch 2-round
/// protocol on the full prefix.
#[test]
fn streaming_cost_within_2x_of_batch() {
    let (k, t) = (4, 20);
    for seed in [1u64, 2, 3] {
        let stream = drift_workload(4000, seed);
        let mut engine = StreamEngine::new(2, StreamConfig::new(k, t).block(256));
        for (_, p) in stream.points.iter() {
            engine.push(p);
        }
        engine.flush();
        let sol = engine.solve();

        let shards = partition(&stream.points, 4, PartitionStrategy::Random, &[], seed ^ 99);
        let batch = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());

        let budget = 2 * t; // (1+eps)t at eps = 1
        let full = std::slice::from_ref(&stream.points);
        let (stream_cost, _) = evaluate_on_full_data(full, &sol.centers, budget, Objective::Median);
        let (batch_cost, _) =
            evaluate_on_full_data(&shards, &batch.output.centers, budget, Objective::Median);
        assert!(
            stream_cost <= 2.0 * batch_cost,
            "seed {seed}: stream {stream_cost:.1} > 2x batch {batch_cost:.1}"
        );
    }
}

/// Acceptance: the engine keeps at most `O(k + t) · log n` live summary
/// points — concretely `(2k + t + 1)` per level over at most
/// `⌈log₂(n / block)⌉ + 1` levels, plus one partial buffer.
#[test]
fn live_summary_size_bound() {
    let (k, t, block) = (4, 20, 128);
    let n = 5000usize;
    let stream = drift_workload(n, 7);
    let mut engine = StreamEngine::new(2, StreamConfig::new(k, t).block(block));
    for (_, p) in stream.points.iter() {
        engine.push(p);
    }
    let blocks = n.div_ceil(block);
    let levels = (blocks as f64).log2().ceil() as usize + 1;
    let per_summary = 2 * k + t + 1;
    let bound = per_summary * levels + block;
    assert!(
        engine.live_points() <= bound,
        "{} live points exceed bound {bound}",
        engine.live_points()
    );
    // Weights conserve the exact input count through every merge.
    assert!((engine.live_weight() - n as f64).abs() < 1e-6);
}

/// The streaming quality also holds against a *centralized* reference on
/// an undrifting mixture (sanity that the factor is not drift luck).
#[test]
fn streaming_matches_batch_on_static_mixture() {
    let (k, t) = (3, 10);
    let (shards, mix) =
        test_util::mixture_shards(3, 4, 1500, t, PartitionStrategy::Random, 41, 0x5eed);
    let mut engine = StreamEngine::new(2, StreamConfig::new(k, t).block(200));
    for (_, p) in mix.points.iter() {
        engine.push(p);
    }
    engine.flush();
    let sol = engine.solve();
    let batch = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
    let budget = 2 * t;
    let full = std::slice::from_ref(&mix.points);
    let (stream_cost, _) = evaluate_on_full_data(full, &sol.centers, budget, Objective::Median);
    let (batch_cost, _) =
        evaluate_on_full_data(&shards, &batch.output.centers, budget, Objective::Median);
    assert!(
        stream_cost <= 2.0 * batch_cost,
        "stream {stream_cost:.1} > 2x batch {batch_cost:.1}"
    );
}

/// Sliding window: once the stream has drifted away, windowed centers
/// track the *current* cluster positions, while the full-stream engine
/// averages over the whole drift path.
#[test]
fn sliding_window_tracks_current_positions() {
    let spec = DriftSpec {
        clusters: 2,
        points: 4000,
        drift: 3.0,
        burst_every: 0,
        sigma: 0.5,
        seed: 11,
        ..Default::default()
    };
    let stream = drifting_stream(spec);
    let cfg = StreamConfig::new(2, 0).block(100);
    let mut window = SlidingWindowEngine::new(2, 600, cfg);
    for (_, p) in stream.points.iter() {
        window.push(p);
    }
    let wsol = window.solve();
    // Each window center must be close to some point from the last 600
    // arrivals, and far from where the clusters started.
    let recent_start = stream.points.len() - 600;
    for i in 0..wsol.centers.len() {
        let c = wsol.centers.point(i);
        let d_recent = (recent_start..stream.points.len())
            .map(|j| dpc::metric::points::sq_dist(c, stream.points.point(j)).sqrt())
            .fold(f64::INFINITY, f64::min);
        let d_early = (0..600)
            .map(|j| dpc::metric::points::sq_dist(c, stream.points.point(j)).sqrt())
            .fold(f64::INFINITY, f64::min);
        assert!(
            d_recent < 20.0,
            "center {i} not near recent data: {d_recent}"
        );
        assert!(
            d_early > d_recent,
            "center {i} closer to the expired prefix ({d_early} vs {d_recent})"
        );
    }
    // Bucketed expiry keeps the live weight near one window.
    assert!(window.live_weight() <= 2.0 * 600.0 + 100.0);
}

/// Continuous distributed mode: syncs are real 2-round protocol runs with
/// per-round byte accounting, and their cost stays flat as the stream
/// grows (summaries, not raw points, cross the wire).
#[test]
fn continuous_mode_charges_flat_sync_communication() {
    let (k, t) = (3, 8);
    let stream = drift_workload(3000, 23);
    let cfg = ContinuousConfig {
        stream: StreamConfig::new(k, t).block(128),
        ..ContinuousConfig::new(k, t)
    }
    .sync_every(750);
    let mut fleet = ContinuousCluster::new(2, 3, cfg);
    for (i, p) in stream.points.iter() {
        fleet.ingest(i % 3, p);
    }
    assert_eq!(fleet.history.len(), 4); // 750, 1500, 2250, 3000
    let raw_bytes = stream.points.len() * 2 * 8;
    for rec in &fleet.history {
        assert_eq!(
            rec.stats.num_rounds(),
            2,
            "each sync is the 2-round protocol"
        );
        // Per-round split present and consistent.
        let per_round: usize = rec.stats.rounds.iter().map(|r| r.total_bytes()).sum();
        assert_eq!(per_round, rec.stats.total_bytes());
        assert!(
            rec.stats.total_bytes() < raw_bytes / 4,
            "a sync shipped {}B, close to raw data {}B",
            rec.stats.total_bytes(),
            raw_bytes
        );
    }
    // Later syncs do not grow with the stream prefix length.
    let first = fleet.history.first().unwrap().stats.total_bytes();
    let last = fleet.history.last().unwrap().stats.total_bytes();
    assert!(
        last <= 3 * first,
        "sync bytes grew with the stream: {first}B -> {last}B"
    );
    // And the final sync still clusters well.
    let latest = fleet.latest().unwrap();
    let full = std::slice::from_ref(&stream.points);
    let (cost, _) = evaluate_on_full_data(full, &latest.centers, 2 * t, Objective::Median);
    let shards = partition(&stream.points, 3, PartitionStrategy::Random, &[], 5);
    let batch = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
    let (batch_cost, _) =
        evaluate_on_full_data(&shards, &batch.output.centers, 2 * t, Objective::Median);
    assert!(
        cost <= 2.0 * batch_cost,
        "continuous {cost:.1} > 2x batch {batch_cost:.1}"
    );
}

/// Continuous mode under seeded dropout: a site missing a sync only
/// mutes its summary for that one sync (its points return at the next
/// one, faults are re-seeded per sync), so the fleet keeps answering and
/// the final centers stay within the same ≤2x-of-batch quality bound the
/// fault-free engine is held to.
#[test]
fn continuous_sync_tolerates_dropout() {
    let (k, t) = (3, 8);
    let stream = drift_workload(3000, 23);
    let cfg = ContinuousConfig {
        stream: StreamConfig::new(k, t).block(128),
        ..ContinuousConfig::new(k, t)
    }
    .sync_every(750)
    .faults(FaultPlan::with_dropout(3, 0.25));
    let mut fleet = ContinuousCluster::new(2, 3, cfg.clone());
    for (i, p) in stream.points.iter() {
        fleet.ingest(i % 3, p);
    }
    assert_eq!(fleet.history.len(), 4, "every sync completed");
    let dropped: usize = fleet
        .history
        .iter()
        .map(|rec| rec.stats.total_dropouts())
        .sum();
    assert!(dropped > 0, "seed 3 at p=0.25 silences someone");
    // Dropped sites are never charged: a muted site moves zero bytes.
    for rec in &fleet.history {
        for round in &rec.stats.rounds {
            for (i, (&down, &up)) in round
                .coordinator_to_sites
                .iter()
                .zip(&round.sites_to_coordinator)
                .enumerate()
            {
                assert_eq!(down == 0, up == 0, "half-charged site {i}");
            }
        }
    }
    // Quality: the latest (possibly degraded) sync still lands within 2x
    // of the batch protocol on the full stream.
    let latest = fleet.latest().unwrap();
    let full = std::slice::from_ref(&stream.points);
    let (cost, _) = evaluate_on_full_data(full, &latest.centers, 2 * t, Objective::Median);
    let shards = partition(&stream.points, 3, PartitionStrategy::Random, &[], 5);
    let batch = run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default());
    let (batch_cost, _) =
        evaluate_on_full_data(&shards, &batch.output.centers, 2 * t, Objective::Median);
    assert!(
        cost <= 2.0 * batch_cost,
        "degraded continuous {cost:.1} > 2x batch {batch_cost:.1}"
    );
    // Replay: the same config reproduces the same sync transcripts.
    let mut again = ContinuousCluster::new(2, 3, cfg);
    for (i, p) in stream.points.iter() {
        again.ingest(i % 3, p);
    }
    for (a, b) in fleet.history.iter().zip(&again.history) {
        assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
        assert_eq!(a.stats.total_dropouts(), b.stats.total_dropouts());
        assert_eq!(a.centers, b.centers);
    }
}

/// F32 continuous syncs under dropout, on every backend: a site that
/// misses a sync keeps its reference dictionary, so its next upload is
/// still coded against what the coordinator holds. A desynced slot would
/// panic on the reference checksum; the per-round bytes, centers and
/// cost must also match on channel, one mux shard and two.
#[test]
fn f32_reference_dictionaries_agree_across_backends_under_dropout() {
    let (k, t) = (3, 8);
    let stream = drift_workload(3000, 23);
    let run = |transport: TransportKind, shards: usize| {
        let cfg = ContinuousConfig {
            stream: StreamConfig::new(k, t).block(128).threads(shards),
            parallel: shards > 1,
            ..ContinuousConfig::new(k, t)
        }
        .sync_every(500)
        .transport(transport)
        .encoding(Encoding::F32)
        .faults(FaultPlan::with_dropout(3, 0.25));
        let mut fleet = ContinuousCluster::new(2, 3, cfg);
        for (i, p) in stream.points.iter() {
            fleet.ingest(i % 3, p);
        }
        fleet.history
    };
    let channel = run(TransportKind::Channel, 1);
    assert_eq!(channel.len(), 6, "every sync completed");
    let dropped: Vec<usize> = channel
        .iter()
        .map(|rec| rec.stats.total_dropouts())
        .collect();
    assert!(
        dropped[1..5].iter().any(|&d| d > 0),
        "a site must miss a middle sync and rejoin: {dropped:?}"
    );
    for (name, other) in [
        ("mux/1", run(TransportKind::Mux, 1)),
        ("mux/2", run(TransportKind::Mux, 2)),
    ] {
        assert_eq!(other.len(), channel.len(), "{name}");
        for (sync, (a, b)) in channel.iter().zip(&other).enumerate() {
            assert_eq!(
                a.stats.num_rounds(),
                b.stats.num_rounds(),
                "{name} sync {sync}"
            );
            for (ra, rb) in a.stats.rounds.iter().zip(&b.stats.rounds) {
                assert_eq!(
                    ra.coordinator_to_sites, rb.coordinator_to_sites,
                    "{name} sync {sync}"
                );
                assert_eq!(
                    ra.sites_to_coordinator, rb.sites_to_coordinator,
                    "{name} sync {sync}"
                );
            }
            assert_eq!(a.centers, b.centers, "{name} sync {sync}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{name} sync {sync}");
        }
    }
}

/// Means and center engines summarize and solve without violating the
/// weight/size invariants.
#[test]
fn means_and_center_streaming_invariants() {
    let stream = drift_workload(1500, 31);
    for cfg in [
        StreamConfig::new(3, 6).block(128).means(),
        StreamConfig::new(3, 6).block(128).center(),
    ] {
        let mut engine = StreamEngine::new(2, cfg);
        for (_, p) in stream.points.iter() {
            engine.push(p);
        }
        engine.flush();
        assert!((engine.live_weight() - 1500.0).abs() < 1e-6);
        let sol = engine.solve();
        assert!(!sol.centers.is_empty());
        assert!(sol.cost.is_finite());
        // Every objective honors the (1+eps)t query budget.
        assert!(sol.excluded_weight <= (1.0 + cfg.eps) * 6.0 + 1e-9);
    }
}
