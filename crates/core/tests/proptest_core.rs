//! Property-based tests of the hull / allocation machinery and the
//! protocol-level invariants of Algorithm 1.

use dpc_coordinator::RunOptions;
use dpc_core::allocation::allocate_outliers;
use dpc_core::hull::{geometric_grid, ConvexProfile};
use dpc_core::{run_distributed_median, MedianConfig};
use dpc_metric::PointSet;
use proptest::prelude::*;

/// Random non-increasing cost profile on a geometric grid.
fn arb_profile(t: usize) -> impl Strategy<Value = Vec<(usize, f64)>> {
    let grid = geometric_grid(t, 2.0);
    let len = grid.len();
    proptest::collection::vec(0.0f64..100.0, len..=len).prop_map(move |drops| {
        let mut v = Vec::with_capacity(len);
        let mut acc: f64 = drops.iter().sum::<f64>() + 1.0;
        for (i, &q) in grid.iter().enumerate() {
            v.push((q, acc));
            acc -= drops[i];
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn hull_below_profile_and_convex(pts in arb_profile(64)) {
        let h = ConvexProfile::lower_hull(&pts);
        for &(q, c) in &pts {
            prop_assert!(h.eval(q as f64) <= c + 1e-9, "hull above profile at q={q}");
        }
        let mut prev = f64::INFINITY;
        for q in 1..=64usize {
            let m = h.marginal(q);
            prop_assert!(m >= -1e-12, "negative marginal at {q}");
            prop_assert!(m <= prev + 1e-9, "marginal increased at {q}");
            prev = m;
        }
    }

    #[test]
    fn hull_non_increasing(pts in arb_profile(32)) {
        let h = ConvexProfile::lower_hull(&pts);
        let mut prev = f64::INFINITY;
        for q in 0..=32usize {
            let v = h.eval(q as f64);
            prop_assert!(v <= prev + 1e-9);
            prev = v;
        }
    }

    #[test]
    fn allocation_is_optimal_vs_dp(
        p0 in arb_profile(8),
        p1 in arb_profile(8),
        p2 in arb_profile(8),
    ) {
        let profiles = vec![
            ConvexProfile::lower_hull(&p0),
            ConvexProfile::lower_hull(&p1),
            ConvexProfile::lower_hull(&p2),
        ];
        let t = 8;
        let alloc = allocate_outliers(&profiles, t, 2.0);
        let budget = alloc.total();
        let greedy: f64 = profiles.iter().zip(&alloc.t_i).map(|(p, &ti)| p.eval(ti as f64)).sum();
        // DP optimum over integer allocations with the same budget.
        let mut dp = vec![f64::INFINITY; budget + 1];
        dp[0] = 0.0;
        for p in &profiles {
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
        let opt = dp.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(greedy <= opt + 1e-6, "greedy {greedy} vs dp {opt}");
    }

    #[test]
    fn allocation_sums_to_rank(p0 in arb_profile(16), p1 in arb_profile(16)) {
        let profiles = vec![ConvexProfile::lower_hull(&p0), ConvexProfile::lower_hull(&p1)];
        for &rho in &[1.0f64, 1.5, 2.0] {
            let alloc = allocate_outliers(&profiles, 16, rho);
            let rank = ((rho * 16.0).floor() as usize).clamp(1, 2 * 16);
            prop_assert_eq!(alloc.total(), rank);
            for &ti in &alloc.t_i {
                prop_assert!(ti <= 16);
            }
        }
    }

    #[test]
    fn allocation_threshold_is_the_rank_rho_t_marginal(
        p0 in arb_profile(8),
        p1 in arb_profile(8),
        p2 in arb_profile(8),
        rho in 1.0f64..3.0,
    ) {
        // Lemma 3.3 structure: the allocation is exactly "threshold the
        // stably-sorted marginals at rank floor(rho*t)", the winners form a
        // per-site prefix, and the result is locally exchange-optimal.
        let profiles = vec![
            ConvexProfile::lower_hull(&p0),
            ConvexProfile::lower_hull(&p1),
            ConvexProfile::lower_hull(&p2),
        ];
        let t = 8;
        let alloc = allocate_outliers(&profiles, t, rho);

        // Recompute the paper's Equation (4) order independently.
        let mut items: Vec<(f64, usize, usize)> = Vec::new();
        for (i, p) in profiles.iter().enumerate() {
            for q in 1..=t {
                items.push((p.marginal(q), i, q));
            }
        }
        items.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let rank = ((rho * t as f64).floor() as usize).clamp(1, items.len());

        prop_assert_eq!(alloc.total(), rank, "sum t_i must equal the rank");
        prop_assert!(
            alloc.threshold == items[rank - 1].0,
            "threshold {} is not the rank-{} marginal {}",
            alloc.threshold, rank, items[rank - 1].0
        );
        prop_assert_eq!((alloc.i0, alloc.q0), (items[rank - 1].1, items[rank - 1].2));

        // Threshold separation over the winner set (the top-`rank` items of
        // the Equation (4) order): winners' marginals are >= the threshold,
        // losers' are <= it, and the per-site winner counts are the t_i.
        let mut counts = vec![0usize; profiles.len()];
        for &(m, i, q) in &items[..rank] {
            counts[i] += 1;
            prop_assert!(m >= alloc.threshold, "winner ({i},{q}) below threshold");
        }
        for &(m, i, q) in &items[rank..] {
            prop_assert!(m <= alloc.threshold, "loser ({i},{q}) above threshold");
        }
        prop_assert_eq!(&counts, &alloc.t_i);

        // The winners at each site form the prefix 1..=t_i — and at the
        // exceptional site it ends exactly at q0. Exactly-equal marginals on
        // one linear hull segment can come out of `eval` differing by ~1 ulp,
        // which legitimately reorders ties, so only require the exact prefix
        // shape when every computed sequence is truly non-increasing (always
        // so in exact arithmetic — Lemma 3.3).
        let exact_monotone = profiles
            .iter()
            .all(|p| (2..=t).all(|q| p.marginal(q - 1) >= p.marginal(q)));
        if exact_monotone {
            prop_assert_eq!(alloc.t_i[alloc.i0], alloc.q0);
            for &(_, i, q) in &items[..rank] {
                prop_assert!(q <= alloc.t_i[i], "winner ({i},{q}) outside prefix 1..={}", alloc.t_i[i]);
            }
        }

        // Exchange optimality: moving one outlier between any two sites
        // cannot lower the total cost (the convexity argument of Lemma 3.3).
        for a in 0..profiles.len() {
            for b in 0..profiles.len() {
                if a == b || alloc.t_i[a] == 0 || alloc.t_i[b] >= t {
                    continue;
                }
                let cur = profiles[a].eval(alloc.t_i[a] as f64)
                    + profiles[b].eval(alloc.t_i[b] as f64);
                let alt = profiles[a].eval((alloc.t_i[a] - 1) as f64)
                    + profiles[b].eval((alloc.t_i[b] + 1) as f64);
                prop_assert!(alt + 1e-9 >= cur, "exchange {a}->{b} improves: {alt} < {cur}");
            }
        }
    }

    #[test]
    fn protocol_invariants_on_random_shards(
        seed in 0u64..32,
        sites in 2usize..5,
        t in 1usize..6,
    ) {
        // Small random instances: the protocol must terminate in 2 rounds,
        // ship Sigma t_i <= 3t, and return at most k centers.
        let mut rows = Vec::new();
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut rnd = move || {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            ((x >> 11) as f64 / (1u64 << 53) as f64) * 100.0
        };
        for _ in 0..40 {
            rows.push(vec![rnd(), rnd()]);
        }
        let ps = PointSet::from_rows(&rows);
        let per = 40usize.div_ceil(sites);
        let shards: Vec<PointSet> = (0..sites)
            .map(|i| {
                let ids: Vec<usize> = (i * per..((i + 1) * per).min(40)).collect();
                ps.subset(&ids)
            })
            .collect();
        let k = 2;
        let out = run_distributed_median(
            &shards,
            MedianConfig::new(k, t),
            RunOptions::sequential(),
        );
        prop_assert_eq!(out.stats.num_rounds(), 2);
        prop_assert!(out.output.shipped_outliers <= (3 * t) as u64);
        prop_assert!(out.output.centers.len() <= k);
        prop_assert!(out.output.coordinator_cost.is_finite());
    }
}
