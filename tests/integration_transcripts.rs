//! Transcript pins: every protocol on small fixed inputs, with its exact
//! per-round, per-site byte charges and the bits of its answer.
//!
//! Refactors that move code between protocols must keep every line here
//! byte-for-byte: a changed byte count, cost or center coordinate means a
//! protocol's behaviour moved, not just its code. Faulted runs also pin
//! which sites dropped in which round.

mod test_util;

use dpc::core::{
    run_distributed_center, run_distributed_median, run_one_round_center, run_one_round_median,
};
use dpc::prelude::*;
use dpc::uncertain::truncated::distance_range;
use dpc::uncertain::{run_center_g, run_center_g_one_round, run_uncertain_median};

/// One run as text: per round the down/up byte vectors (and the dropout
/// count when nonzero), then the cost bits and every center coordinate's
/// bits.
fn transcript(stats: &CommStats, cost: f64, centers: &PointSet) -> String {
    let mut s = String::new();
    for r in &stats.rounds {
        s += &format!(
            "down={:?} up={:?}",
            r.coordinator_to_sites, r.sites_to_coordinator
        );
        if r.dropouts > 0 {
            s += &format!(" drop={}", r.dropouts);
        }
        s += "; ";
    }
    s += &format!("cost={:016x} centers=[", cost.to_bits());
    for (i, p) in centers.iter() {
        if i > 0 {
            s += " ";
        }
        let bits: Vec<String> = p.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
        s += &bits.join(",");
    }
    s + "]"
}

fn point_shards() -> Vec<PointSet> {
    test_util::mixture_shards(3, 5, 150, 5, PartitionStrategy::Random, 61, 0x5a).0
}

fn dropout() -> RunOptions {
    RunOptions::sequential().faults(FaultPlan::with_dropout(4, 0.3))
}

/// Runs a continuous fleet through three syncs and pins each one.
fn continuous(encoding: Encoding, faults: FaultPlan) -> Vec<String> {
    let cfg = ContinuousConfig {
        stream: StreamConfig::new(3, 2).block(32),
        ..ContinuousConfig::new(3, 2)
    }
    .sync_every(u64::MAX)
    .encoding(encoding)
    .faults(faults);
    let mut fleet = ContinuousCluster::new(2, 3, cfg);
    let mut i = 0usize;
    for sync in 0..3 {
        let n = if sync == 0 { 240 } else { 40 };
        for _ in 0..n {
            let c = (i % 3) as f64 * 150.0;
            fleet.ingest(i % 3, &[c + 0.013 * (i % 7) as f64, 0.01 * (i % 5) as f64]);
            i += 1;
        }
        if sync == 1 {
            fleet.ingest(1, &[9e4, -9e4]);
        }
        fleet.sync();
    }
    fleet
        .history
        .iter()
        .map(|r| transcript(&r.stats, r.cost, &r.centers))
        .collect()
}

fn check(name: &str, got: &str, want: &str) {
    assert_eq!(got, want, "{name}: transcript moved");
}

#[test]
fn batch_protocol_transcripts_are_pinned() {
    let sh = point_shards();
    let cases: Vec<(&str, ProtocolRun)> = vec![
        (
            "median",
            run_distributed_median(&sh, MedianConfig::new(3, 5), RunOptions::sequential()).into(),
        ),
        (
            "means",
            run_distributed_median(
                &sh,
                MedianConfig::new(3, 5).means(),
                RunOptions::sequential(),
            )
            .into(),
        ),
        (
            "counts-only",
            run_distributed_median(
                &sh,
                MedianConfig::new(3, 5).counts_only(0.5),
                RunOptions::sequential(),
            )
            .into(),
        ),
        (
            "center",
            run_distributed_center(&sh, CenterConfig::new(3, 5), RunOptions::sequential()).into(),
        ),
        (
            "one-round median",
            run_one_round_median(&sh, MedianConfig::new(3, 5), RunOptions::sequential()).into(),
        ),
        (
            "one-round center",
            run_one_round_center(&sh, CenterConfig::new(3, 5), RunOptions::sequential()).into(),
        ),
        (
            "median dropout",
            run_distributed_median(&sh, MedianConfig::new(3, 5), dropout()).into(),
        ),
        (
            "center dropout",
            run_distributed_center(&sh, CenterConfig::new(3, 5), dropout()).into(),
        ),
    ];
    for ((name, run), want) in cases.iter().zip(BATCH) {
        check(name, &run.0, want);
    }
    assert_eq!(cases.len(), BATCH.len());
}

/// A finished run's transcript (the conversion keeps the case table flat).
struct ProtocolRun(String);

impl From<dpc::coordinator::ProtocolOutput<dpc::core::DistributedSolution>> for ProtocolRun {
    fn from(out: dpc::coordinator::ProtocolOutput<dpc::core::DistributedSolution>) -> Self {
        ProtocolRun(transcript(
            &out.stats,
            out.output.coordinator_cost,
            &out.output.centers,
        ))
    }
}

impl From<dpc::coordinator::ProtocolOutput<dpc::uncertain::UncertainSolution>> for ProtocolRun {
    fn from(out: dpc::coordinator::ProtocolOutput<dpc::uncertain::UncertainSolution>) -> Self {
        ProtocolRun(transcript(
            &out.stats,
            out.output.coordinator_cost,
            &out.output.centers,
        ))
    }
}

#[test]
fn uncertain_protocol_transcripts_are_pinned() {
    let sh = test_util::uncertain_shards(71, 3);
    let (d_min, d_max) = sh
        .iter()
        .filter_map(|ns| distance_range(&ns.ground))
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), (a, b)| {
            (lo.min(a), hi.max(b))
        });
    let cases: Vec<(&str, ProtocolRun)> = vec![
        (
            "uncertain median",
            run_uncertain_median(&sh, UncertainConfig::new(3, 3), RunOptions::sequential()).into(),
        ),
        (
            "uncertain center-pp",
            run_uncertain_median(
                &sh,
                UncertainConfig::new(3, 3).center_pp(),
                RunOptions::sequential(),
            )
            .into(),
        ),
        (
            "center-g",
            run_center_g(&sh, CenterGConfig::new(3, 3), RunOptions::sequential()).into(),
        ),
        (
            "center-g one-round",
            run_center_g_one_round(
                &sh,
                CenterGConfig::new(3, 3),
                d_min,
                d_max,
                RunOptions::sequential(),
            )
            .into(),
        ),
    ];
    for ((name, run), want) in cases.iter().zip(UNCERTAIN) {
        check(name, &run.0, want);
    }
    assert_eq!(cases.len(), UNCERTAIN.len());
}

#[test]
fn continuous_sync_transcripts_are_pinned() {
    let cases = [
        ("raw", continuous(Encoding::Raw, FaultPlan::none())),
        ("f32", continuous(Encoding::F32, FaultPlan::none())),
        ("rlz", continuous(Encoding::Rlz, FaultPlan::none())),
        (
            "f32 dropout",
            continuous(Encoding::F32, FaultPlan::with_dropout(3, 0.3)),
        ),
    ];
    for ((name, syncs), want) in cases.iter().zip(CONTINUOUS) {
        assert_eq!(syncs.len(), want.len(), "{name}: sync count");
        for (sync, (got, want)) in syncs.iter().zip(*want).enumerate() {
            check(&format!("{name} sync {sync}"), got, want);
        }
    }
    assert_eq!(cases.len(), CONTINUOUS.len());
}

const BATCH: &[&str] = &[
    "down=[20, 20, 20, 20, 20] up=[37, 46, 46, 37, 46]; down=[11, 11, 11, 11, 11] up=[180, 148, 164, 228, 180]; cost=4064438cb2ee4f83 centers=[40794ba0a07a9a5d,407ee8f86aa12f7d 40790cd28b6a3502,4001040ea1faa15e 4022c7546f3fb820,3fe7fd673f091b2a]",
    "down=[20, 20, 20, 20, 20] up=[37, 46, 46, 37, 46]; down=[11, 11, 11, 11, 11] up=[180, 148, 180, 212, 180]; cost=40708c18f9dd5fc4 centers=[40795a76d85f9bce,407ee464e4a708be 40790cd28b6a3502,4001040ea1faa15e 402533ad98767dbb,3fb494e1272e7694]",
    "down=[20, 20, 20, 20, 20] up=[37, 46, 46, 37, 46]; down=[11, 11, 11, 11, 11] up=[148, 148, 148, 148, 148]; cost=40625d309e860617 centers=[40794ba0a07a9a5d,407ee8f86aa12f7d 40790cd28b6a3502,4001040ea1faa15e 4022c7546f3fb820,3fe7fd673f091b2a]",
    "down=[10, 10, 10, 10, 10] up=[46, 46, 46, 46, 46]; down=[11, 11, 11, 11, 11] up=[100, 100, 100, 196, 124]; cost=401037d63dc4e408 centers=[4021d06fdaef6360,3fc088c2b836f28a 4079347941a7c297,3ffb45e1f78c7f88 407961b3bd45e9f0,407f0b18907e8dbd]",
    "down=[0, 0, 0, 0, 0] up=[228, 228, 228, 228, 228]; cost=40650f21fca75be6 centers=[40795a76d85f9bce,407ee464e4a708be 4022c7546f3fb820,3fe7fd673f091b2a 40790cd28b6a3502,4001040ea1faa15e]",
    "down=[0, 0, 0, 0, 0] up=[196, 196, 196, 196, 196]; cost=40126332f6aa7acc centers=[4022e9b4716ce013,3ff57e0da145afd9 4078f7ac11f0addb,4000256cd268a65e 407956ae11c001c8,407edc9cb1aaf44e]",
    "down=[0, 20, 20, 20, 20] up=[0, 46, 46, 37, 46] drop=1; down=[0, 11, 0, 11, 11] up=[0, 164, 0, 228, 180] drop=2; cost=40587140f244a460 centers=[40795a76d85f9bce,407ee464e4a708be 40251a7b24a6105f,3fe2adbfbc531df2 40790cd28b6a3502,4001040ea1faa15e]",
    "down=[0, 10, 10, 10, 10] up=[0, 46, 46, 46, 46] drop=1; down=[0, 11, 0, 11, 11] up=[0, 100, 0, 196, 124] drop=2; cost=4010ac17ffd80920 centers=[4024f839146ec75f,3fd0664e338ae205 4079347941a7c297,3ffb45e1f78c7f88 40795cb1299254c4,407f12461d8b6553]",
];

const UNCERTAIN: &[&str] = &[
    "down=[10, 10, 10, 10] up=[37, 37, 37, 28]; down=[11, 11, 11, 11] up=[291, 195, 195, 291]; cost=4051e7905c86e061 centers=[3fd4cc1ffe4d1aa8,404deb3bfd595390 405de49b52d01506,405de451ee70a0e6 406df1bc95d40f25,4072cbfea5ece590]",
    "down=[10, 10, 10, 10] up=[37, 37, 37, 37]; down=[11, 11, 11, 11] up=[259, 227, 195, 291]; cost=401ff6342615a368 centers=[406df9304e25fe43,4072da58b2fe63d4 3ff5851dd218b78a,404d6ee0e69dd63a 405e4f1890257d00,405e42ae35ed9f85]",
    "down=[2, 2, 2, 2] up=[16, 16, 16, 16]; down=[16, 16, 16, 16] up=[564, 564, 564, 573]; down=[12, 12, 12, 12] up=[310, 229, 148, 391]; cost=400a3738f11a6018 centers=[3ff94d8d867b8ad0,404d9b1bcb5c2caa 406df49fdbde5ffb,4072cf6f4876515e 405e4f1890257d00,405e42ae35ed9f85]",
    "down=[0, 0, 0, 0] up=[9133, 9133, 9133, 9133]; cost=400e3d22ec418776 centers=[3ff94d8d867b8ad0,404d9b1bcb5c2caa 406df49fdbde5ffb,4072cf6f4876515e 405e5ff6d4e46231,405dd4dbe62ee803]",
];

const CONTINUOUS: &[&[&str]] = &[
    &[
        "down=[19, 19, 19] up=[19, 28, 28]; down=[11, 11, 11] up=[196, 196, 148]; cost=401936dcb29ab0a8 centers=[4072c09fbe76c8b4,3f9eb851eb851eb8 4062c13f7ced9168,3f847ae147ae147b 3f9a9fbe76c8b439,3f847ae147ae147b]",
        "down=[19, 19, 19] up=[28, 28, 19]; down=[11, 11, 11] up=[196, 196, 148]; cost=401dc28280a496fb centers=[4072c09fbe76c8b4,3f9eb851eb851eb8 4062c13f7ced9168,3f847ae147ae147b 3fa3f7ced916872b,3f9eb851eb851eb8]",
        "down=[19, 19, 19] up=[28, 28, 28]; down=[11, 11, 11] up=[196, 196, 148]; cost=4020e63f617b01fd centers=[4072c06a7ef9db23,3f847ae147ae147b 3fa3f7ced916872b,3f9eb851eb851eb8 4062c13f7ced9168,3f847ae147ae147b]",
    ],
    &[
        "down=[24, 24, 24] up=[24, 33, 33]; down=[16, 16, 16] up=[170, 170, 130]; cost=401936fc829b8b5f centers=[4072c09fc0000000,3f9eb851e0000000 4062c13f80000000,3f847ae140000000 3f9a9fbe80000000,3f847ae140000000]",
        "down=[24, 24, 24] up=[33, 33, 24]; down=[16, 16, 16] up=[50, 67, 52]; cost=401dc2a7a30e73f1 centers=[4072c09fc0000000,3f9eb851e0000000 4062c13f80000000,3f847ae140000000 3fa3f7cee0000000,3f9eb851e0000000]",
        "down=[24, 24, 24] up=[33, 33, 33]; down=[16, 16, 16] up=[53, 58, 43]; cost=4020e655da4e637e centers=[4072c06a80000000,3f847ae140000000 3fa3f7cee0000000,3f9eb851e0000000 4062c13f80000000,3f847ae140000000]",
    ],
    &[
        "down=[31, 31, 31] up=[31, 40, 40]; down=[23, 23, 23] up=[210, 210, 162]; cost=401936dcb29ab0a8 centers=[4072c09fbe76c8b4,3f9eb851eb851eb8 4062c13f7ced9168,3f847ae147ae147b 3f9a9fbe76c8b439,3f847ae147ae147b]",
        "down=[31, 31, 31] up=[40, 40, 31]; down=[23, 23, 23] up=[48, 65, 37]; cost=401dc28280a496fb centers=[4072c09fbe76c8b4,3f9eb851eb851eb8 4062c13f7ced9168,3f847ae147ae147b 3fa3f7ced916872b,3f9eb851eb851eb8]",
        "down=[31, 31, 31] up=[40, 40, 40]; down=[23, 23, 23] up=[39, 41, 37]; cost=4020e63f617b01fd centers=[4072c06a7ef9db23,3f847ae147ae147b 3fa3f7ced916872b,3f9eb851eb851eb8 4062c13f7ced9168,3f847ae147ae147b]",
    ],
    &[
        "down=[24, 24, 0] up=[24, 33, 0] drop=1; down=[16, 16, 0] up=[170, 170, 0] drop=1; cost=400771f492df11f5 centers=[4062c13f80000000,3f847ae140000000 3fb0a3d700000000,3f9eb851e0000000 3f8a9fbe80000000,3f847ae140000000]",
        "down=[24, 0, 24] up=[33, 0, 24] drop=1; down=[16, 0, 0] up=[50, 0, 0] drop=2; cost=3fe4b4ce519dcbf7 centers=[3fb0a3d700000000,3f9eb851e0000000 3fa3f7cee0000000,3f9eb851e0000000 3f8a9fbe80000000,3f847ae140000000]",
        "down=[0, 24, 24] up=[0, 33, 33] drop=1; down=[0, 0, 16] up=[0, 0, 170] drop=2; cost=3fe9259844698ee1 centers=[4072c10a40000000,3f847ae140000000 4072c06a80000000,3f847ae140000000 4072c00000000000,3f9eb851e0000000]",
    ],
];
