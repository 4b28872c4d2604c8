//! Echo-site transport probe: `run_protocol` over sites that do no work
//! and reply with the exact payload sizes a real run moved, so a probe
//! times the transport alone — fleet spawn and teardown with zero rounds,
//! and the full exchange with the workload's rounds.

use bytes::Bytes;
use dpc::coordinator::{
    run_protocol, CommStats, Coordinator, CoordinatorStep, RunOptions, Site, TransportKind,
};
use std::time::{Duration, Instant};

/// Per-round, per-site payload sizes of one protocol run. The default has
/// no rounds: probing it times fleet spawn and teardown alone.
#[derive(Clone, Debug, Default)]
pub struct Payloads {
    /// `down[round][site]`: coordinator → site bytes.
    pub down: Vec<Vec<usize>>,
    /// `up[round][site]`: site → coordinator bytes.
    pub up: Vec<Vec<usize>>,
}

impl Payloads {
    /// The sizes a real run charged.
    pub fn of(stats: &CommStats) -> Payloads {
        Payloads {
            down: stats
                .rounds
                .iter()
                .map(|r| r.coordinator_to_sites.clone())
                .collect(),
            up: stats
                .rounds
                .iter()
                .map(|r| r.sites_to_coordinator.clone())
                .collect(),
        }
    }

    fn total(&self) -> usize {
        self.down.iter().chain(&self.up).flatten().sum()
    }
}

struct EchoSite {
    replies: Vec<Bytes>,
}

impl Site for EchoSite {
    fn handle(&mut self, round: usize, _msg: &Bytes) -> Bytes {
        self.replies[round].clone()
    }
}

struct EchoCoordinator {
    rounds: std::vec::IntoIter<Vec<Bytes>>,
}

impl Coordinator for EchoCoordinator {
    type Output = ();

    fn step(&mut self, _round: usize, _replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        match self.rounds.next() {
            Some(msgs) => CoordinatorStep::Messages(msgs),
            None => CoordinatorStep::Finish,
        }
    }

    fn finish(self) {}
}

fn zeros(n: usize) -> Bytes {
    Bytes::from(vec![0u8; n])
}

/// Runs one echo protocol over `sites` sites on `transport` (parallel
/// sites, [`crate::THREADS`] mux shards) and returns its wall time, or an
/// error if the bytes it charged differ from the sizes it replayed.
pub fn probe(
    payloads: &Payloads,
    sites: usize,
    transport: TransportKind,
) -> Result<Duration, String> {
    // Buffers are built before the clock starts: the probe times the
    // transport, not allocation.
    let mut fleet: Vec<Box<dyn Site>> = (0..sites)
        .map(|i| {
            Box::new(EchoSite {
                replies: payloads.up.iter().map(|r| zeros(r[i])).collect(),
            }) as Box<dyn Site>
        })
        .collect();
    let rounds: Vec<Vec<Bytes>> = payloads
        .down
        .iter()
        .map(|r| r.iter().map(|&n| zeros(n)).collect())
        .collect();
    let coordinator = EchoCoordinator {
        rounds: rounds.into_iter(),
    };
    let options = RunOptions::new()
        .transport(transport)
        .shards(crate::THREADS);
    let t0 = Instant::now();
    let out = run_protocol(&mut fleet, coordinator, options);
    let wall = t0.elapsed();
    if out.stats.total_bytes() != payloads.total() {
        return Err(format!(
            "echo charged {} bytes, replayed {}",
            out.stats.total_bytes(),
            payloads.total()
        ));
    }
    Ok(wall)
}
