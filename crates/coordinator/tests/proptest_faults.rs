//! Fault-injection properties: seeded fault schedules are decided by a
//! pure hash of `(seed, site, round, attempt)`, so the same `FaultPlan`
//! must produce the same drops, the same transcripts, and the same byte
//! charges on every transport backend — and the coordinator must charge
//! *nothing* for a site the plan silenced. The responder-subset
//! re-allocation the protocols run (`dpc_core::threshold_round`) is
//! checked against the Lemma 3.3 invariants (rank-`ρt` threshold,
//! per-site prefix winners, exchange optimality) directly.

use bytes::Bytes;
use dpc_codec::Encoding;
use dpc_coordinator::{
    run_protocol, CommStats, Coordinator, CoordinatorStep, FaultPlan, RunOptions, Site,
    TransportKind,
};
use dpc_core::wire::ThresholdMsg;
use dpc_core::{allocate_outliers, site_budget_from_threshold, threshold_round, ConvexProfile};
use proptest::prelude::*;
use std::time::Duration;

/// Deterministic reply that mixes site id, round, and payload (the same
/// scramble as `proptest_transport.rs`) so transcripts pin delivery
/// content, order, and length all at once.
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

/// Ships a pre-generated payload plan and records the full transcript of
/// replies, `None`s included — the transcript IS the value under test.
struct FaultTolerantPlanned {
    /// `plan[round][site]` downlink payloads.
    plan: Vec<Vec<Vec<u8>>>,
    collected: Vec<Vec<Option<Vec<u8>>>>,
}

impl Coordinator for FaultTolerantPlanned {
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

fn run_faulty_plan(
    plan: &[Vec<Vec<u8>>],
    sites: usize,
    options: RunOptions,
) -> (Vec<Vec<Option<Vec<u8>>>>, CommStats) {
    let mut site_boxes: Vec<Box<dyn Site>> = (0..sites)
        .map(|i| Box::new(ScrambleSite { id: i as u8 }) as Box<dyn Site>)
        .collect();
    let out = run_protocol(
        &mut site_boxes,
        FaultTolerantPlanned {
            plan: plan.to_vec(),
            collected: Vec::new(),
        },
        options,
    );
    (out.output, out.stats)
}

/// Random payload plan: up to 3 rounds for up to 4 sites (generated at
/// maximum size and truncated; the vendored proptest has no
/// `prop_flat_map`).
fn arb_plan() -> impl Strategy<Value = (usize, Vec<Vec<Vec<u8>>>)> {
    (
        1usize..5,
        1usize..4,
        proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(0usize..256, 0..32)
                    .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
                4..=4,
            ),
            3..=3,
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

/// Random fault plan: dropout up to 0.8, optional crash, stragglers that
/// may or may not beat the (optional) timeout, and up to 2 retries.
fn arb_faults() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::any::<u64>(),
        0.0f64..0.8,
        0u32..3,
        0.0f64..0.5,
        proptest::any::<bool>(),
    )
        .prop_map(|(seed, dropout, retries, straggler_prob, timed)| {
            let mut plan = FaultPlan::with_dropout(seed, dropout)
                .stragglers(straggler_prob, Duration::from_millis(5));
            if timed {
                // Timeout below the max straggler delay: some delayed
                // attempts fail, exercising the retry/abandon path.
                plan = plan.with_timeout(Duration::from_millis(2), retries);
            } else {
                plan.retries = retries;
            }
            if seed % 3 == 0 {
                plan = plan.crash(seed as usize % 4, (seed >> 2) as usize % 3);
            }
            plan
        })
}

/// Round-by-round equality of byte charges *and* fault accounting.
fn assert_runs_identical(a: &CommStats, b: &CommStats) {
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// (a) Same fault seed ⇒ byte-identical transcript — which sites
    /// dropped, what everyone else replied, what got charged, and the
    /// simulated clock — on every backend. Mux runs twice: on two
    /// shards, and on one, where a single site loop serves every site,
    /// so a dropped site sees no frame in a round while its neighbours
    /// on the same loop do. Channel also runs five sites on three
    /// shards, so the shard groups are uneven.
    #[test]
    fn fault_schedule_is_transport_independent(
        (sites, plan) in arb_plan(),
        faults in arb_faults(),
    ) {
        let base = RunOptions::sequential().faults(faults.clone());
        let (base_out, base_stats) = run_faulty_plan(&plan, sites, base.clone());
        for options in [
            RunOptions::new().faults(faults.clone()).shards(2),
            RunOptions::new().faults(faults.clone()).transport(TransportKind::Mux).shards(2),
            RunOptions::new().faults(faults.clone()).transport(TransportKind::Mux).shards(1),
        ] {
            let (out, stats) = run_faulty_plan(&plan, sites, options.clone());
            prop_assert_eq!(&out, &base_out, "transcript diverged on {:?}", options.transport);
            assert_runs_identical(&base_stats, &stats);
        }
        // Five sites on three in-process shards: uneven groups of 2/2/1.
        let plan5: Vec<Vec<Vec<u8>>> = plan
            .iter()
            .map(|row| row.iter().cycle().take(5).cloned().collect())
            .collect();
        let (base5_out, base5_stats) = run_faulty_plan(&plan5, 5, base.clone());
        let (out, stats) =
            run_faulty_plan(&plan5, 5, RunOptions::new().faults(faults.clone()).shards(3));
        prop_assert_eq!(&out, &base5_out, "transcript diverged on 5 sites, 3 shards");
        assert_runs_identical(&base5_stats, &stats);
        // And the run is self-reproducible: a second inline run matches.
        let (again_out, again_stats) = run_faulty_plan(&plan, sites, base);
        prop_assert_eq!(&again_out, &base_out);
        assert_runs_identical(&base_stats, &again_stats);
    }

    /// (c) The accounting only ever charges delivered bytes: a dropped
    /// site moves nothing in either direction that round, dropout counts
    /// match the `None`s in the transcript, and aliveness is monotone
    /// (crash-stop: a site that misses a round never comes back).
    #[test]
    fn dropped_sites_are_never_charged(
        (sites, plan) in arb_plan(),
        faults in arb_faults(),
    ) {
        let (out, stats) =
            run_faulty_plan(&plan, sites, RunOptions::sequential().faults(faults));
        prop_assert_eq!(out.len(), plan.len());
        let mut alive = vec![true; sites];
        for (round, (replies, rs)) in out.iter().zip(&stats.rounds).enumerate() {
            let mut nones = 0;
            for (i, reply) in replies.iter().enumerate() {
                match reply {
                    None => {
                        nones += 1;
                        prop_assert_eq!(
                            rs.coordinator_to_sites[i], 0,
                            "round {} charged a dropped site downstream", round
                        );
                        prop_assert_eq!(
                            rs.sites_to_coordinator[i], 0,
                            "round {} charged a dropped site upstream", round
                        );
                        alive[i] = false;
                    }
                    Some(_) => {
                        prop_assert!(
                            alive[i],
                            "site {} replied in round {} after dropping out", i, round
                        );
                        prop_assert_eq!(rs.coordinator_to_sites[i], plan[round][i].len());
                    }
                }
            }
            prop_assert_eq!(rs.dropouts, nones);
            prop_assert_eq!(rs.degraded, nones > 0);
        }
        let total_nones: usize = out
            .iter()
            .map(|r| r.iter().filter(|x| x.is_none()).count())
            .sum();
        prop_assert_eq!(stats.total_dropouts(), total_nones);
    }

    /// (b) Responder-subset allocation preserves the Lemma 3.3
    /// invariants. Dropping sites just deletes their profiles; the
    /// stable (ℓ, i, q) order over the survivors is order-isomorphic to
    /// the original-id order, so broadcasting the *original* exceptional
    /// id (the protocols' remap) makes every surviving site derive
    /// exactly its allocated prefix from the threshold.
    #[test]
    fn responder_allocation_preserves_lemma_3_3(
        grid in proptest::collection::vec(
            proptest::collection::vec(0.0f64..5.0, 6..=6),
            5..=5,
        ),
        sites in 2usize..6,
        t in 1usize..6,
        rho in 1.0f64..3.0,
        mask in proptest::any::<u32>(),
    ) {
        // Convex profiles from non-increasing marginal sequences.
        let profiles: Vec<ConvexProfile> = grid[..sites]
            .iter()
            .map(|marg| {
                let mut marg: Vec<f64> = marg[..t].to_vec();
                marg.sort_by(|a, b| b.total_cmp(a));
                let mut pts = vec![(0usize, 30.0)];
                let mut f = 30.0;
                for (q, m) in marg.iter().enumerate() {
                    f -= m;
                    pts.push((q + 1, f));
                }
                ConvexProfile::lower_hull(&pts)
            })
            .collect();
        // Any non-empty responder subset.
        let responders: Vec<usize> = (0..sites)
            .filter(|i| mask & (1 << i) != 0 || mask % sites as u32 == *i as u32)
            .collect();
        let subset: Vec<ConvexProfile> =
            responders.iter().map(|&i| profiles[i].clone()).collect();

        let alloc = allocate_outliers(&subset, t, rho);

        // Threshold invariant: `Σ t_i` equals the clamped rank `⌊ρt⌋`,
        // and the threshold is the rank-th largest surviving marginal.
        let rank = ((rho * t as f64).floor() as usize).clamp(1, subset.len() * t);
        prop_assert_eq!(alloc.total(), rank);
        let mut marginals: Vec<f64> = subset
            .iter()
            .flat_map(|p| (1..=t).map(|q| p.marginal(q)).collect::<Vec<_>>())
            .collect();
        marginals.sort_by(|a, b| b.total_cmp(a));
        prop_assert_eq!(alloc.threshold.to_bits(), marginals[rank - 1].to_bits());

        // Prefix invariant, through the sites' own threshold rule applied
        // to the messages the coordinators' shared threshold round sends
        // when only `responders` answered (it names `i₀` by original id).
        let replies: Vec<Option<Bytes>> = (0..sites)
            .map(|i| responders.contains(&i).then(|| profiles[i].encode_with(Encoding::F32)))
            .collect();
        let msgs = threshold_round(&replies, t, rho, Encoding::F32);
        prop_assert_eq!(msgs.len(), sites);
        let orig_i0 = responders[alloc.i0];
        for (sub_idx, &orig) in responders.iter().enumerate() {
            let thr = ThresholdMsg::decode_with(Encoding::F32, msgs[orig].clone());
            prop_assert_eq!(thr.threshold.to_bits(), alloc.threshold.to_bits());
            prop_assert_eq!((thr.i0, thr.q0), (orig_i0 as u64, alloc.q0 as u64));
            prop_assert_eq!(thr.exceptional, orig == orig_i0);
            let derived = site_budget_from_threshold(&profiles[orig], orig, t, &thr);
            if orig == orig_i0 {
                // The exceptional site snaps up to its next hull vertex.
                prop_assert!(derived >= alloc.q0.min(t));
                prop_assert!(profiles[orig].is_vertex(derived) || derived >= t);
            } else {
                prop_assert_eq!(
                    derived, alloc.t_i[sub_idx],
                    "site {} (responder {}) derived {} but was allocated {}",
                    orig, sub_idx, derived, alloc.t_i[sub_idx]
                );
            }
        }

        // Exchange optimality over the survivors: greedy matches the DP
        // optimum at the same budget.
        let greedy: f64 = subset
            .iter()
            .zip(&alloc.t_i)
            .map(|(p, &ti)| p.eval(ti as f64))
            .sum();
        let opt = dp_optimum(&subset, t, alloc.total());
        prop_assert!(greedy <= opt + 1e-6, "greedy {} vs dp {}", greedy, opt);
    }
}

/// DP optimum of `min Σ f_i(t_i)` s.t. `Σ t_i ≤ budget`, `0 ≤ t_i ≤ t`.
fn dp_optimum(profiles: &[ConvexProfile], t: usize, budget: usize) -> f64 {
    let mut dp = vec![f64::INFINITY; budget + 1];
    dp[0] = 0.0;
    for p in profiles {
        let mut next = vec![f64::INFINITY; budget + 1];
        for used in 0..=budget {
            if dp[used].is_finite() {
                for ti in 0..=t.min(budget - used) {
                    let v = dp[used] + p.eval(ti as f64);
                    if v < next[used + ti] {
                        next[used + ti] = v;
                    }
                }
            }
        }
        dp = next;
    }
    dp.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A crash at round 0 with no dropout: the exact planned site goes
/// silent at the exact planned round, on every backend.
#[test]
fn planned_crash_is_exact() {
    let plan = vec![vec![vec![1u8; 8]; 3]; 3];
    let faults = FaultPlan::none().crash(1, 1);
    for options in [
        RunOptions::sequential().faults(faults.clone()),
        RunOptions::new().faults(faults.clone()),
        RunOptions::new()
            .faults(faults.clone())
            .transport(TransportKind::Mux)
            .shards(2),
        RunOptions::new()
            .faults(faults)
            .transport(TransportKind::Mux)
            .shards(1),
    ] {
        let (out, stats) = run_faulty_plan(&plan, 3, options);
        assert!(out[0].iter().all(|r| r.is_some()), "round 0 is clean");
        for (replies, round) in out.iter().zip(&stats.rounds).skip(1) {
            assert!(replies[0].is_some());
            assert!(replies[1].is_none(), "site 1 crashed at round 1");
            assert!(replies[2].is_some());
            assert_eq!(round.dropouts, 1);
            assert!(round.degraded);
        }
    }
}
