//! Transport-runtime benchmarks: the per-round cost of moving a round
//! trip through each backend, and the spawn overhead the persistent
//! worker runtime removed.
//!
//! `spawn_per_round` re-implements the pre-runtime simulator faithfully:
//! a fresh `thread::scope` with one thread per site on *every* round —
//! `r·s` spawns per protocol instead of the runtime's `s`. On the
//! 16-site multi-round workload below, `runtime/channel` must be no
//! slower than `baseline/spawn_per_round` (the acceptance bar for the
//! refactor); in practice the gap is the whole thread-spawn cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpc::coordinator::{
    run_protocol, Coordinator, CoordinatorStep, RunOptions, Site, TransportKind,
};
use dpc::metric::WireWriter;
use std::time::Instant;

use bytes::Bytes;

const SITES: usize = 16;
const ROUNDS: usize = 24;
const PAYLOAD: usize = 64;

/// A site with negligible compute: checksums the payload and echoes a
/// fixed-size reply, so the benchmark isolates transport cost.
struct EchoSite {
    id: u64,
}

impl Site for EchoSite {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        let sum: u64 = msg.as_ref().iter().map(|&b| b as u64).sum();
        let mut w = WireWriter::new();
        w.put_varint(sum ^ self.id ^ round as u64);
        w.finish()
    }
}

/// Coordinator driving `ROUNDS` broadcast rounds of `PAYLOAD` bytes.
struct PingCoordinator {
    rounds: usize,
    acc: u64,
}

impl Coordinator for PingCoordinator {
    type Output = u64;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        self.acc = self.acc.wrapping_add(
            replies
                .iter()
                .map(|r| r.as_ref().map_or(0, |r| r.len() as u64))
                .sum(),
        );
        if round < self.rounds {
            CoordinatorStep::Broadcast(Bytes::from(vec![round as u8; PAYLOAD]))
        } else {
            CoordinatorStep::Finish
        }
    }

    fn finish(self) -> u64 {
        self.acc
    }
}

fn sites() -> Vec<Box<dyn Site + 'static>> {
    (0..SITES)
        .map(|i| Box::new(EchoSite { id: i as u64 }) as Box<dyn Site>)
        .collect()
}

/// The pre-runtime simulator: spawn `s` OS threads on every round.
fn spawn_per_round(sites: &mut [Box<dyn Site + '_>], mut coordinator: PingCoordinator) -> u64 {
    let s = sites.len();
    let mut replies: Vec<Option<Bytes>> = Vec::new();
    for round in 0.. {
        let step = coordinator.step(round, std::mem::take(&mut replies));
        let msgs: Vec<Bytes> = match step {
            CoordinatorStep::Broadcast(m) => vec![m; s],
            CoordinatorStep::Messages(ms) => ms,
            CoordinatorStep::Finish => return coordinator.finish(),
        };
        let mut new_replies: Vec<Option<Bytes>> = vec![None; s];
        std::thread::scope(|scope| {
            for ((site, reply), msg) in sites.iter_mut().zip(new_replies.iter_mut()).zip(&msgs) {
                scope.spawn(move || {
                    let t = Instant::now();
                    *reply = Some(site.handle(round, msg));
                    std::hint::black_box(t.elapsed());
                });
            }
        });
        replies = new_replies;
    }
    unreachable!()
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_16_sites");
    g.sample_size(20);
    let coord = || PingCoordinator {
        rounds: ROUNDS,
        acc: 0,
    };

    g.bench_with_input(
        BenchmarkId::new("baseline", "spawn_per_round"),
        &(),
        |b, _| {
            b.iter(|| {
                let mut s = sites();
                spawn_per_round(&mut s, coord())
            });
        },
    );
    for (name, options) in [
        ("inline", RunOptions::sequential()),
        ("channel", RunOptions::new()),
        ("tcp", RunOptions::new().transport(TransportKind::Tcp)),
    ] {
        g.bench_with_input(BenchmarkId::new("runtime", name), &(), |b, _| {
            b.iter(|| {
                let mut s = sites();
                run_protocol(&mut s, coord(), options.clone()).output
            });
        });
    }
    g.finish();
}

/// The same comparison on a real protocol: Algorithm 1 at 16 sites.
/// Spawn overhead matters less here (site compute dominates), which is
/// exactly the point — the channel backend keeps the protocol path free
/// of per-round spawn cost without taxing compute-bound workloads.
fn bench_algo1_backends(c: &mut Criterion) {
    use dpc::prelude::*;
    // Benches measure the raw protocol paths, so they import the legacy
    // entry points at their crate-level paths.
    use dpc::core::run_distributed_median;
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 4,
        inliers: 1600,
        outliers: 16,
        seed: 42,
        ..Default::default()
    });
    let sh = partition(
        &mix.points,
        SITES,
        PartitionStrategy::Random,
        &mix.outlier_ids,
        42,
    );
    let mut g = c.benchmark_group("algo1_16_sites");
    g.sample_size(10);
    for (name, options) in [
        ("channel", RunOptions::new()),
        ("tcp", RunOptions::new().transport(TransportKind::Tcp)),
    ] {
        g.bench_with_input(BenchmarkId::new("median", name), &(), |b, _| {
            b.iter(|| run_distributed_median(&sh, MedianConfig::new(4, 16), options.clone()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_backends, bench_algo1_backends);
criterion_main!(benches);
