//! Wall-clock observability of the shard pool: on mux every exchange
//! records one `ShardPoll` event per shard, in shard order, inside its
//! round's span, and `PollWakeups` totals their wakeups; the in-process
//! backend records neither.

use bytes::Bytes;
use dpc_coordinator::{
    run_protocol, Coordinator, CoordinatorStep, RunOptions, Site, TransportKind,
};
use dpc_obs::{Collector, Counter, Event, Trace};
use std::sync::Arc;

const SITES: usize = 5;
const SHARDS: usize = 2;
const ROUNDS: usize = 3;

struct Echo;

impl Site for Echo {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        let mut v = msg.to_vec();
        v.push(round as u8);
        Bytes::from(v)
    }
}

/// Broadcasts a short payload for `ROUNDS` rounds, then finishes.
struct Rounds;

impl Coordinator for Rounds {
    type Output = ();

    fn step(&mut self, round: usize, _replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        if round < ROUNDS {
            CoordinatorStep::Broadcast(Bytes::from_static(b"ping"))
        } else {
            CoordinatorStep::Finish
        }
    }

    fn finish(self) {}
}

fn traced(transport: TransportKind) -> Trace {
    let collector = Arc::new(Collector::new());
    let mut sites: Vec<Box<dyn Site>> = (0..SITES).map(|_| Box::new(Echo) as _).collect();
    let options = RunOptions::new()
        .transport(transport)
        .shards(SHARDS)
        .recorder(collector.handle());
    let out = run_protocol(&mut sites, Rounds, options);
    assert_eq!(out.stats.num_rounds(), ROUNDS);
    collector.snapshot()
}

#[test]
fn mux_records_one_shard_poll_per_shard_per_round() {
    let trace = traced(TransportKind::Mux);
    let mut total = 0;
    for round in 0..ROUNDS {
        // The round's span: from its `RoundStart` to its `RoundEnd`.
        let start = trace
            .events
            .iter()
            .position(|e| matches!(e, Event::RoundStart { round: r } if *r == round))
            .expect("round opened");
        let end = trace
            .events
            .iter()
            .position(|e| matches!(e, Event::RoundEnd { round: r, .. } if *r == round))
            .expect("round closed");
        let polls: Vec<(usize, usize, u64)> = trace
            .events
            .iter()
            .enumerate()
            .filter_map(|(at, e)| match e {
                Event::ShardPoll {
                    round: r,
                    shard,
                    wakeups,
                } if *r == round => Some((at, *shard, *wakeups)),
                _ => None,
            })
            .collect();
        let shards: Vec<usize> = polls.iter().map(|p| p.1).collect();
        assert_eq!(shards, (0..SHARDS).collect::<Vec<_>>(), "round {round}");
        for &(at, shard, wakeups) in &polls {
            assert!(
                start < at && at < end,
                "round {round} shard {shard} poll outside its span"
            );
            // Every shard waits at least once for its sites' replies.
            assert!(wakeups > 0, "round {round} shard {shard} never polled");
            total += wakeups;
        }
    }
    assert_eq!(trace.counters[Counter::PollWakeups.index()], total);
}

#[test]
fn channel_records_no_shard_polls() {
    let trace = traced(TransportKind::Channel);
    assert!(!trace
        .events
        .iter()
        .any(|e| matches!(e, Event::ShardPoll { .. })));
    assert_eq!(trace.counters[Counter::PollWakeups.index()], 0);
    // The run itself was recorded: the absence is specific to polls.
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e, Event::RoundEnd { .. })));
}
