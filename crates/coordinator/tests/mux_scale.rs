//! High-fanout smoke test for the multiplexed event-loop transport: a
//! single process drives 1024 sites through 4 mux shards, produces
//! byte-identical charges to the inline baseline, and — the point of the
//! backend — adds only O(shards) threads for the whole fleet, site side
//! included.

use bytes::Bytes;
use dpc_coordinator::{
    run_protocol, CommStats, Coordinator, CoordinatorStep, RunOptions, Site, TransportKind,
};

const SITES: usize = 1024;
const SHARDS: usize = 4;

/// Current thread count of this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line in /proc/self/status")
        .trim()
        .parse()
        .unwrap()
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

#[test]
fn mux_drives_1024_sites_with_a_handful_of_coordinator_threads() {
    #[cfg(target_os = "linux")]
    let before = thread_count();

    let (base, base_stats) = run(RunOptions::sequential());
    let (mux, mux_stats) = run(RunOptions::new()
        .transport(TransportKind::Mux)
        .shards(SHARDS));

    // Same transcript, same charges, at 1024 sites.
    assert_eq!(mux.0, base.0, "reply checksum diverged");
    assert_eq!(mux.1, base.1, "reply byte total diverged");
    assert!(mux.1 > 0);
    assert_eq!(base_stats.num_rounds(), mux_stats.num_rounds());
    for (ra, rb) in base_stats.rounds.iter().zip(&mux_stats.rounds) {
        assert_eq!(ra.coordinator_to_sites, rb.coordinator_to_sites);
        assert_eq!(ra.sites_to_coordinator, rb.sites_to_coordinator);
    }

    // Thread budget: mid-protocol the whole fleet is a site loop and a
    // coordinator loop per shard, not a thread per site on either side —
    // allow O(1) slack for the test runner's own threads.
    #[cfg(target_os = "linux")]
    {
        let fleet = mux.2.saturating_sub(before);
        assert!(
            fleet <= 2 * SHARDS + 2,
            "the mux fleet added {fleet} threads, over the 2·{SHARDS}-shard budget \
             (peak {}, baseline {before})",
            mux.2
        );
        assert!(fleet >= 2 * SHARDS - 2, "the shard loops were not running");
    }
}
