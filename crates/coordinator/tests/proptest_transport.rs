//! Cross-backend equivalence: for any protocol, the inline, persistent
//! channel-worker, and loopback-socket event-loop (mux) transports must
//! produce the same output and *byte-identical* [`CommStats`]
//! charges — timing is the only thing allowed to differ between
//! backends.

use bytes::Bytes;
use dpc_coordinator::{
    run_protocol, CommStats, Coordinator, CoordinatorStep, RunOptions, Site, TransportKind,
};
use proptest::prelude::*;

/// Site whose reply is a deterministic function of (site id, round,
/// message): every payload byte is mixed with the site id and round, an
/// id/round trailer is appended, and the reply *length* also depends on
/// the input — so any transport bug that reorders, truncates, or
/// cross-wires messages changes both contents and byte charges.
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

/// Coordinator that ships a pre-generated per-round, per-site payload
/// plan and records every reply verbatim.
struct PlannedCoordinator {
    /// `plan[round][site]` downlink payloads.
    plan: Vec<Vec<Vec<u8>>>,
    collected: Vec<Vec<Vec<u8>>>,
}

impl Coordinator for PlannedCoordinator {
    type Output = Vec<Vec<Vec<u8>>>;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        if round > 0 {
            self.collected.push(
                replies
                    .iter()
                    .map(|b| b.as_ref().expect("no faults injected").to_vec())
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

    fn finish(self) -> Vec<Vec<Vec<u8>>> {
        self.collected
    }
}

fn run_plan(
    plan: &[Vec<Vec<u8>>],
    sites: usize,
    options: RunOptions,
) -> (Vec<Vec<Vec<u8>>>, CommStats) {
    let mut site_boxes: Vec<Box<dyn Site>> = (0..sites)
        .map(|i| Box::new(ScrambleSite { id: i as u8 }) as Box<dyn Site>)
        .collect();
    let out = run_protocol(
        &mut site_boxes,
        PlannedCoordinator {
            plan: plan.to_vec(),
            collected: Vec::new(),
        },
        options,
    );
    (out.output, out.stats)
}

/// Asserts two runs charged exactly the same bytes, round by round,
/// direction by direction, site by site.
fn assert_charges_identical(a: &CommStats, b: &CommStats) {
    assert_eq!(a.num_rounds(), b.num_rounds());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.coordinator_to_sites, rb.coordinator_to_sites);
        assert_eq!(ra.sites_to_coordinator, rb.sites_to_coordinator);
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
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn channel_and_mux_match_inline_bytes_and_output((sites, plan) in arb_plan()) {
        let (base_out, base_stats) =
            run_plan(&plan, sites, RunOptions::sequential());
        for options in [
            RunOptions::new().shards(2),                        // in-process shard workers
            RunOptions::new().transport(TransportKind::Mux).shards(2), // loopback sockets, event loops
        ] {
            let (out, stats) = run_plan(&plan, sites, options.clone());
            prop_assert_eq!(&out, &base_out, "output diverged on {:?}", options.transport);
            assert_charges_identical(&base_stats, &stats);
        }
        // Five sites on three in-process shards: uneven groups of 2/2/1.
        let plan5: Vec<Vec<Vec<u8>>> = plan
            .iter()
            .map(|row| row.iter().cycle().take(5).cloned().collect())
            .collect();
        let (base_out, base_stats) = run_plan(&plan5, 5, RunOptions::sequential());
        let (out, stats) = run_plan(&plan5, 5, RunOptions::new().shards(3));
        prop_assert_eq!(&out, &base_out, "output diverged on 5 sites, 3 shards");
        assert_charges_identical(&base_stats, &stats);
    }
}

#[test]
fn large_frames_cross_the_socket_intact() {
    // One 256 KiB payload each way — bigger than any single socket
    // buffer default, so partial reads/writes are actually exercised.
    let plan = vec![vec![vec![0xA5u8; 256 * 1024]; 2]];
    let (base_out, base_stats) = run_plan(&plan, 2, RunOptions::sequential());
    let (mux_out, mux_stats) = run_plan(
        &plan,
        2,
        RunOptions::new().transport(TransportKind::Mux).shards(2),
    );
    assert_eq!(base_out, mux_out);
    assert_charges_identical(&base_stats, &mux_stats);
    assert_eq!(
        mux_stats.rounds[0].coordinator_to_sites,
        vec![256 * 1024; 2]
    );
    // The non-blocking mux state machines must deliver the same bytes
    // across WouldBlock mid-frame. Three sites on one shard put every
    // site on one site loop, and 4 MiB frames (about twenty times a
    // Unix-domain socket's default send buffer, `net.core.wmem_default`,
    // 212 992 B on a stock Linux host) make that loop park connections
    // mid-request and mid-reply while others are ready.
    let plan3 = vec![vec![vec![0xA5u8; 4 << 20]; 3]];
    let (base_out, base_stats) = run_plan(&plan3, 3, RunOptions::sequential());
    let (mux_out, mux_stats) = run_plan(
        &plan3,
        3,
        RunOptions::new().transport(TransportKind::Mux).shards(1),
    );
    assert_eq!(base_out, mux_out);
    assert_charges_identical(&base_stats, &mux_stats);
}
