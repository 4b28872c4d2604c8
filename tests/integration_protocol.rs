//! Protocol-level invariants: byte accounting, round structure, and the
//! communication *shapes* of Tables 1–2 measured on real message buffers.

use dpc::prelude::*;
// This suite pins the legacy entry points at their crate-level paths;
// Job-driven equivalence is covered by proptest_api.rs.
use dpc::core::{run_distributed_center, run_distributed_median, run_one_round_median};

mod test_util;

fn shards_with(sites: usize, inliers: usize, t: usize, seed: u64) -> Vec<PointSet> {
    test_util::mixture_shards(3, sites, inliers, t, PartitionStrategy::Random, seed, 0).0
}

/// Least-squares slope of log(y) against log(x).
fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.ln()).collect();
    let sx: f64 = lx.iter().sum();
    let sy: f64 = ly.iter().sum();
    let sxx: f64 = lx.iter().map(|v| v * v).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(a, b)| a * b).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[test]
fn two_round_median_comm_sublinear_in_t_times_s() {
    // Grow s at fixed k, t: 2-round bytes should grow ~ s (the sk term),
    // while 1-round grows ~ s·(k+t) — measure both slopes in log-log.
    let (k, t) = (3, 48);
    let sites_list = [4usize, 8, 16, 32];
    let mut two_bytes = Vec::new();
    let mut one_bytes = Vec::new();
    for &s in &sites_list {
        let sh = shards_with(s, 1200, t, 77);
        let cfg = MedianConfig::new(k, t);
        two_bytes.push(
            run_distributed_median(&sh, cfg, RunOptions::default())
                .stats
                .upstream_bytes() as f64,
        );
        one_bytes.push(
            run_one_round_median(&sh, cfg, RunOptions::default())
                .stats
                .upstream_bytes() as f64,
        );
    }
    let xs: Vec<f64> = sites_list.iter().map(|&s| s as f64).collect();
    let slope_two = loglog_slope(&xs, &two_bytes);
    let slope_one = loglog_slope(&xs, &one_bytes);
    // 1-round is ~linear in s with a large t-coefficient; 2-round's
    // t-term does NOT scale with s, so at t >> k its slope is much
    // smaller.
    assert!(
        slope_two < slope_one - 0.2,
        "slopes: two-round {slope_two:.2}, one-round {slope_one:.2} ({two_bytes:?} vs {one_bytes:?})"
    );
}

#[test]
fn median_comm_grows_linearly_in_t_not_st() {
    // Grow t at fixed s: 2-round upstream ~ sk + c·t with c independent
    // of s. Compare t-slopes at s = 4 and s = 16 — they should be close
    // (the t term is shared), unlike the 1-round protocol where the
    // t-coefficient is s itself.
    let k = 3;
    let ts = [16usize, 32, 64];
    let slope_at = |s: usize, one_round: bool| {
        let mut ys = Vec::new();
        for &t in &ts {
            let sh = shards_with(s, 900, t, 83);
            let cfg = MedianConfig::new(k, t);
            let b = if one_round {
                run_one_round_median(&sh, cfg, RunOptions::default())
                    .stats
                    .upstream_bytes()
            } else {
                run_distributed_median(&sh, cfg, RunOptions::default())
                    .stats
                    .upstream_bytes()
            };
            ys.push(b as f64);
        }
        // absolute growth per unit t
        (ys[2] - ys[0]) / ((ts[2] - ts[0]) as f64)
    };
    let two_s4 = slope_at(4, false);
    let two_s16 = slope_at(16, false);
    let one_s4 = slope_at(4, true);
    let one_s16 = slope_at(16, true);
    // 1-round t-coefficient quadruples with s; 2-round must not.
    assert!(
        one_s16 > 2.5 * one_s4,
        "one-round t-coefficient should scale with s: {one_s4} -> {one_s16}"
    );
    assert!(
        two_s16 < 2.0 * two_s4.max(8.0),
        "two-round t-coefficient must be ~s-independent: {two_s4} -> {two_s16}"
    );
}

#[test]
fn downstream_messages_are_tiny() {
    // The coordinator only ever sends configs and thresholds: O(s) small
    // messages, independent of n and t.
    let sh = shards_with(8, 2000, 64, 91);
    let out = run_distributed_median(&sh, MedianConfig::new(4, 64), RunOptions::default());
    assert!(
        out.stats.downstream_bytes() < 8 * 64,
        "downstream {}B",
        out.stats.downstream_bytes()
    );
}

#[test]
fn site_times_reported_per_round() {
    let sh = shards_with(4, 800, 16, 97);
    let out = run_distributed_median(&sh, MedianConfig::new(3, 16), RunOptions::default());
    for round in &out.stats.rounds {
        assert_eq!(round.site_compute.len(), 4);
    }
    // Round 0 (profile building, O(n_i^2) solves) dominates round 1.
    let r0 = out.stats.rounds[0].max_site_compute();
    assert!(r0.as_nanos() > 0);
}

#[test]
fn center_comm_matches_sk_plus_t_shape() {
    let k = 3;
    let t = 60;
    // At fixed t, growing s: upstream ≈ s·(k·B) + ~rho·t·B + profiles.
    let mut ys = Vec::new();
    let ss = [4usize, 8, 16];
    for &s in &ss {
        let sh = shards_with(s, 1500, t, 103);
        let out = run_distributed_center(&sh, CenterConfig::new(k, t), RunOptions::default());
        ys.push(out.stats.upstream_bytes() as f64);
    }
    // Fit bytes = a·s + b: residual t-term b must dominate at small s
    // (t >> k) — i.e. doubling s from 4 to 8 must far less than double
    // bytes.
    assert!(
        ys[1] < 1.6 * ys[0],
        "center comm nearly doubled when s doubled: {ys:?}"
    );
}

#[test]
fn empty_message_rounds_still_accounted() {
    let sh = shards_with(3, 120, 4, 107);
    let out = run_one_round_median(&sh, MedianConfig::new(2, 4), RunOptions::default());
    assert_eq!(out.stats.num_rounds(), 1);
    assert_eq!(out.stats.rounds[0].coordinator_to_sites, vec![0, 0, 0]);
}
