//! Trace determinism across backends: for any protocol plan and any
//! fault seed, the JSONL trace (`dpc.trace/v1`) recorded by the driver
//! must be *byte-identical* on the inline, channel-worker, and
//! loopback-socket event-loop (mux) transports — and a [`MetricsReport`]
//! aggregated from the replayed
//! trace must reconcile bit-for-bit with the run's own [`CommStats`].

use bytes::Bytes;
use dpc_coordinator::{
    run_protocol, CommStats, Coordinator, CoordinatorStep, FaultPlan, RunOptions, Site,
    TransportKind,
};
use dpc_obs::json::dur_to_ns;
use dpc_obs::{Collector, Event, MetricsReport, Trace};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Site whose reply is a deterministic function of (site id, round,
/// message) with input-dependent length — any transport bug that
/// reorders, truncates, or cross-wires messages changes the trace.
struct ScrambleSite {
    id: u8,
}

impl Site for ScrambleSite {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        let r = round as u8;
        let mut v: Vec<u8> = msg
            .as_ref()
            .iter()
            .map(|b| b.wrapping_mul(31) ^ self.id ^ r)
            .collect();
        let extra = (self.id as usize + round) % 5;
        v.resize(v.len() + extra, self.id.wrapping_add(r));
        v.push(self.id);
        v.push(r);
        Bytes::from(v)
    }
}

/// Fault-tolerant coordinator: ships a pre-generated per-round payload
/// plan and records whatever replies arrive (`None` marks a dropped
/// site, which faulted runs produce by design).
struct PlannedCoordinator {
    /// `plan[round][site]` downlink payloads.
    plan: Vec<Vec<Vec<u8>>>,
    collected: Vec<Vec<Option<Vec<u8>>>>,
}

impl Coordinator for PlannedCoordinator {
    type Output = Vec<Vec<Option<Vec<u8>>>>;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        if round > 0 {
            self.collected.push(
                replies
                    .iter()
                    .map(|b| b.as_ref().map(|b| b.to_vec()))
                    .collect(),
            );
        }
        match self.plan.get(round) {
            Some(msgs) => {
                CoordinatorStep::Messages(msgs.iter().map(|m| Bytes::copy_from_slice(m)).collect())
            }
            None => CoordinatorStep::Finish,
        }
    }

    fn finish(self) -> Vec<Vec<Option<Vec<u8>>>> {
        self.collected
    }
}

/// Runs the plan with a collector attached and the api-layer run span
/// recorded around the drive (the driver itself emits only round-level
/// events), returning the JSONL trace alongside the run's own stats.
fn run_traced(
    plan: &[Vec<Vec<u8>>],
    sites: usize,
    fault_seed: u64,
    options: RunOptions,
) -> (String, Trace, CommStats) {
    let collector = Arc::new(Collector::new());
    let rec = collector.handle();
    rec.record(Event::RunStart {
        label: "trace-proptest".to_string(),
        sites,
        seed: 0,
        fault_seed,
    });
    let mut site_boxes: Vec<Box<dyn Site>> = (0..sites)
        .map(|i| Box::new(ScrambleSite { id: i as u8 }) as Box<dyn Site>)
        .collect();
    let out = run_protocol(
        &mut site_boxes,
        PlannedCoordinator {
            plan: plan.to_vec(),
            collected: Vec::new(),
        },
        options.recorder(rec.clone()),
    );
    rec.record(Event::RunEnd {
        rounds: out.stats.num_rounds(),
    });
    let trace = collector.snapshot();
    (trace.to_jsonl(), trace, out.stats)
}

/// A fault schedule that exercises every event kind the driver emits:
/// dropout coins, a retry budget with timeouts, and straggler delays.
fn chaos_plan(fault_seed: u64) -> FaultPlan {
    FaultPlan::with_dropout(fault_seed, 0.3)
        .with_timeout(Duration::from_millis(5), 1)
        .stragglers(0.5, Duration::from_millis(3))
}

/// Asserts the byte/round/fault half of a replayed-trace report equals
/// the coordinator's own roll-up exactly (`u64` equality, no slack).
fn assert_report_reconciles(report: &MetricsReport, stats: &CommStats) {
    assert_eq!(report.rounds, stats.num_rounds() as u64);
    assert_eq!(report.total_bytes(), stats.total_bytes() as u64);
    assert_eq!(report.down_bytes, stats.downstream_bytes() as u64);
    assert_eq!(report.up_bytes, stats.upstream_bytes() as u64);
    assert_eq!(report.dropouts, stats.total_dropouts() as u64);
    assert_eq!(report.retries, stats.total_retries() as u64);
    assert_eq!(report.degraded_rounds, stats.degraded_rounds() as u64);
    assert_eq!(report.network_ns, dur_to_ns(stats.network_time()));
    for (round, r) in stats.rounds.iter().enumerate() {
        let per_round = report.round_network_ns[round];
        assert_eq!(per_round, dur_to_ns(r.network), "round {round}");
    }
}

/// Random payload plan: up to 2 rounds for up to 4 sites, each payload
/// 0–48 bytes of arbitrary content. The grid is generated at maximum
/// size and truncated (the vendored proptest has no `prop_flat_map`).
fn arb_plan() -> impl Strategy<Value = (usize, Vec<Vec<Vec<u8>>>)> {
    (
        1usize..5,
        1usize..3,
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(0usize..256, 0..48)
                    .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
                4..=4,
            ),
            2..=2,
        ),
    )
        .prop_map(|(sites, rounds, grid)| {
            let plan: Vec<Vec<Vec<u8>>> = grid[..rounds]
                .iter()
                .map(|row| row[..sites].to_vec())
                .collect();
            (sites, plan)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For any plan and fault seed: all four backends record the same
    /// JSONL bytes, and each run's replayed metrics reconcile with its
    /// own `CommStats`. Mux is the sharpest case: its shard-poll events
    /// and wakeup counter are wall-clock-only and must never leak into
    /// the deterministic schema.
    #[test]
    fn traces_are_byte_identical_across_backends(
        (sites, plan) in arb_plan(),
        fault_seed in 0u64..1 << 32,
    ) {
        let faults = chaos_plan(fault_seed);
        let (base_jsonl, _, base_stats) = run_traced(
            &plan,
            sites,
            fault_seed,
            RunOptions::sequential().faults(faults.clone()),
        );
        let replay = Trace::from_jsonl(&base_jsonl).unwrap();
        assert_report_reconciles(&replay.metrics(), &base_stats);
        // The deterministic schema round-trips to the same bytes.
        prop_assert_eq!(replay.to_jsonl(), base_jsonl.clone());
        for options in [
            RunOptions::new().shards(2),                        // in-process shard workers
            RunOptions::new().transport(TransportKind::Mux).shards(2), // loopback sockets
        ] {
            let transport = options.transport;
            let (jsonl, _, stats) =
                run_traced(&plan, sites, fault_seed, options.faults(faults.clone()));
            prop_assert_eq!(&jsonl, &base_jsonl, "trace diverged on {:?}", transport);
            assert_report_reconciles(&Trace::from_jsonl(&jsonl).unwrap().metrics(), &stats);
        }
    }
}

/// Deterministic spot check: a seed that provably injects faults still
/// produces identical traces everywhere, the fault events survive the
/// JSONL round trip, and wall-clock data is the *only* thing the replay
/// loses.
#[test]
fn faulted_trace_replays_exactly() {
    let plan = vec![vec![vec![7u8; 16]; 3]; 2];
    let faults = chaos_plan(0x5eed);
    let (jsonl, live, stats) = run_traced(
        &plan,
        3,
        0x5eed,
        RunOptions::sequential().faults(faults.clone()),
    );
    assert!(
        stats.total_dropouts() + stats.total_retries() > 0,
        "seed failed to inject any faults; pick another"
    );
    let replay = Trace::from_jsonl(&jsonl).unwrap();
    assert_report_reconciles(&replay.metrics(), &stats);
    // Fault events survive replay one-for-one.
    let fault_count = |t: &Trace| {
        t.events
            .iter()
            .filter(|e| matches!(e, Event::Fault { .. }))
            .count()
    };
    assert_eq!(fault_count(&replay), fault_count(&live));
    // Wall clock is all the replay loses: zeroed compute, same bytes.
    assert_eq!(replay.metrics().site_compute_ns, 0);
    assert_eq!(replay.to_jsonl(), jsonl);
    // And the socket backend records those same bytes, despite
    // recording shard-poll wakeups internally.
    let (mux_jsonl, _, _) = run_traced(
        &plan,
        3,
        0x5eed,
        RunOptions::new()
            .transport(TransportKind::Mux)
            .shards(2)
            .faults(faults),
    );
    assert_eq!(mux_jsonl, jsonl);
}
