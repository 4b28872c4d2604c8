//! High-fanout smoke test for the shard pool: a single process drives
//! 1024 sites through 4 shards on each backend, produces byte-identical
//! charges to the sequential baseline, and — the point of the pool —
//! adds only O(shards) threads for the whole fleet, the mux site side
//! included.

use bytes::Bytes;
use dpc_coordinator::{
    run_protocol, CommStats, Coordinator, CoordinatorStep, RunOptions, Site, TransportKind,
};

const SITES: usize = 1024;
const SHARDS: usize = 4;

/// Threads of this process that carry the calling thread's name: the
/// caller plus every thread it spawned, since a new Linux thread inherits
/// its creator's name. The test harness names each test's thread after
/// the test, so concurrently running tests — and threads of a finished
/// fleet the kernel has not yet released — do not count each other's.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let me = std::fs::read_to_string("/proc/thread-self/comm").unwrap();
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter(|task| {
            let comm = std::fs::read_to_string(task.as_ref().unwrap().path().join("comm"));
            comm.is_ok_and(|comm| comm == me)
        })
        .count()
}

/// Site that tags its reply with its id and the round, so cross-wired
/// or reordered deliveries change both contents and charges.
struct TagSite {
    id: u32,
}

impl Site for TagSite {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        let mut v = msg.to_vec();
        v.extend_from_slice(&self.id.to_le_bytes());
        v.extend_from_slice(&(round as u32).to_le_bytes());
        // Length varies per site so per-site byte charges differ.
        v.resize(v.len() + (self.id as usize % 7), self.id as u8);
        Bytes::from(v)
    }
}

/// Two-round broadcast coordinator that checksums every reply and, on
/// Linux, samples the process thread count mid-protocol — while every
/// site and coordinator loop is alive.
struct FanoutCoordinator {
    checksum: u64,
    reply_bytes: u64,
    peak_threads: usize,
}

impl Coordinator for FanoutCoordinator {
    type Output = (u64, u64, usize);

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        #[cfg(target_os = "linux")]
        {
            self.peak_threads = self.peak_threads.max(thread_count());
        }
        if round > 0 {
            for (i, reply) in replies.iter().enumerate() {
                let r = reply.as_ref().expect("no faults injected");
                self.reply_bytes += r.len() as u64;
                for &b in r.iter() {
                    self.checksum = self
                        .checksum
                        .wrapping_mul(1099511628211)
                        .wrapping_add(b as u64 ^ i as u64);
                }
            }
        }
        if round < 2 {
            CoordinatorStep::Messages(
                (0..SITES)
                    .map(|i| Bytes::from(vec![(i % 251) as u8; 8 + i % 5]))
                    .collect(),
            )
        } else {
            CoordinatorStep::Finish
        }
    }

    fn finish(self) -> (u64, u64, usize) {
        (self.checksum, self.reply_bytes, self.peak_threads)
    }
}

fn run(options: RunOptions) -> ((u64, u64, usize), CommStats) {
    let mut sites: Vec<Box<dyn Site>> = (0..SITES)
        .map(|i| Box::new(TagSite { id: i as u32 }) as Box<dyn Site>)
        .collect();
    let out = run_protocol(
        &mut sites,
        FanoutCoordinator {
            checksum: 0,
            reply_bytes: 0,
            peak_threads: 0,
        },
        options,
    );
    (out.output, out.stats)
}

/// Runs the fleet under `options` and checks its transcript and
/// per-round charges against the sequential baseline; returns the
/// threads the fleet added at its peak (0 off Linux).
fn fleet_threads_matching_sequential(options: RunOptions) -> usize {
    #[cfg(target_os = "linux")]
    let before = thread_count();

    let (base, base_stats) = run(RunOptions::sequential());
    let (out, stats) = run(options);

    // Same transcript, same charges, at 1024 sites.
    assert_eq!(out.0, base.0, "reply checksum diverged");
    assert_eq!(out.1, base.1, "reply byte total diverged");
    assert!(out.1 > 0);
    assert_eq!(base_stats.num_rounds(), stats.num_rounds());
    for (ra, rb) in base_stats.rounds.iter().zip(&stats.rounds) {
        assert_eq!(ra.coordinator_to_sites, rb.coordinator_to_sites);
        assert_eq!(ra.sites_to_coordinator, rb.sites_to_coordinator);
    }

    #[cfg(target_os = "linux")]
    return out.2.saturating_sub(before);
    #[cfg(not(target_os = "linux"))]
    0
}

#[test]
fn mux_drives_1024_sites_with_a_handful_of_coordinator_threads() {
    let fleet = fleet_threads_matching_sequential(
        RunOptions::new()
            .transport(TransportKind::Mux)
            .shards(SHARDS),
    );
    // Thread budget: mid-protocol the whole fleet is a site loop and a
    // coordinator loop per shard, not a thread per site on either side —
    // allow O(1) slack for the test runner's own threads.
    if cfg!(target_os = "linux") {
        assert!(
            fleet <= 2 * SHARDS + 2,
            "the mux fleet added {fleet} threads, over the 2·{SHARDS}-shard budget"
        );
        assert!(fleet >= 2 * SHARDS - 2, "the shard loops were not running");
    }
}

#[test]
fn channel_drives_1024_sites_on_its_shard_workers() {
    let fleet = fleet_threads_matching_sequential(
        RunOptions::new()
            .transport(TransportKind::Channel)
            .shards(SHARDS),
    );
    // The in-process fleet is one worker per shard, not one per site.
    if cfg!(target_os = "linux") {
        assert!(
            fleet <= SHARDS + 2,
            "the channel fleet added {fleet} threads, over the {SHARDS}-shard budget"
        );
        assert!(fleet + 2 >= SHARDS, "the shard workers were not running");
    }
}
