//! Water-filling outlier allocation (Algorithm 1, lines 7–14).
//!
//! Given the convex per-site profiles `f_i`, the coordinator must split the
//! global outlier budget: find `{t_i}` minimizing `Σ_i f_i(t_i)` subject to
//! `Σ_i t_i ≤ ρt`. Because every `f_i` is convex and non-increasing, the
//! greedy rule is optimal (Lemma 3.3): take the `ρt` largest marginals
//! `ℓ(i,q) = f_i(q−1) − f_i(q)` over all sites, *stably* sorted so that ties
//! are broken by the lexicographic order `(i, q)` of Equation (4) — the
//! stability is what makes the per-site winners a prefix `1..t_i` and pins
//! down the unique exceptional site `i₀`.

use crate::hull::ConvexProfile;
use crate::wire::ThresholdMsg;
use bytes::Bytes;
use dpc_codec::Encoding;

/// Result of the allocation step.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// The threshold marginal `ℓ(i₀, q₀)` (rank `⌊ρt⌋`).
    pub threshold: f64,
    /// Exceptional site index.
    pub i0: usize,
    /// Exceptional rank position `q₀`.
    pub q0: usize,
    /// Per-site outlier counts `t_i` (before the exceptional site's grid
    /// adjustment, which only the site itself can perform — line 13).
    pub t_i: Vec<usize>,
}

impl Allocation {
    /// Total allocated outliers `Σ t_i` (equals the effective rank).
    pub fn total(&self) -> usize {
        self.t_i.iter().sum()
    }
}

/// Runs the coordinator-side allocation.
///
/// Materializes all `s·t` marginals, stably sorts them in decreasing order
/// (ties by `(i, q)` ascending), thresholds at rank `⌊ρt⌋`, and counts each
/// site's prefix of winners. When `t = 0`, everything is zero.
///
/// # Panics
/// Panics if `rho < 1` or `profiles` is empty.
pub fn allocate_outliers(profiles: &[ConvexProfile], t: usize, rho: f64) -> Allocation {
    assert!(!profiles.is_empty(), "need at least one site profile");
    assert!(rho >= 1.0, "rho must be at least 1");
    let s = profiles.len();
    if t == 0 {
        return Allocation {
            threshold: f64::INFINITY,
            i0: 0,
            q0: 0,
            t_i: vec![0; s],
        };
    }

    // All marginals (ℓ, i, q) for q ∈ 1..=t.
    let mut items: Vec<(f64, usize, usize)> = Vec::with_capacity(s * t);
    for (i, p) in profiles.iter().enumerate() {
        for q in 1..=t {
            items.push((p.marginal(q), i, q));
        }
    }
    // Decreasing by ℓ; ties by (i, q) ascending — the paper's stable order.
    items.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let rank = ((rho * t as f64).floor() as usize).clamp(1, items.len());
    let (threshold, i0, q0) = items[rank - 1];

    let mut t_i = vec![0usize; s];
    for &(_, i, _) in &items[..rank] {
        t_i[i] += 1;
    }
    Allocation {
        threshold,
        i0,
        q0,
        t_i,
    }
}

/// The coordinator's threshold round of Algorithm 1 (lines 7–11), over
/// the sites that answered: decodes each responder's profile (framed with
/// `encoding`), water-fills `ρt` over them with [`allocate_outliers`], and
/// returns one framed [`ThresholdMsg`] per site, `None` slots included.
///
/// This is how every protocol degrades under dropout (Lemma 3.3 over the
/// responders). A site that missed the profile round contributes no
/// profile. Filtering keeps site order, so the stable `(ℓ, i, q)`
/// tie-break over responder indices orders the marginals exactly as over
/// the original ids; the message just names `i₀` by its *original* id,
/// which is what sites compare against. With `t = 0` or no responders
/// there is nothing to split: the threshold is `∞` with `i₀ = u64::MAX`,
/// so no marginal wins and every site keeps `t_i = 0`.
pub fn threshold_round(
    replies: &[Option<Bytes>],
    t: usize,
    rho: f64,
    encoding: Encoding,
) -> Vec<Bytes> {
    let (responders, profiles): (Vec<usize>, Vec<ConvexProfile>) = replies
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let b = r.as_ref()?;
            Some((i, ConvexProfile::decode_with(encoding, b.clone())))
        })
        .unzip();
    let (threshold, i0, q0) = if profiles.is_empty() || t == 0 {
        (f64::INFINITY, u64::MAX, 0)
    } else {
        let alloc = allocate_outliers(&profiles, t, rho);
        (
            alloc.threshold,
            responders[alloc.i0] as u64,
            alloc.q0 as u64,
        )
    };
    (0..replies.len() as u64)
        .map(|i| {
            ThresholdMsg {
                threshold,
                i0,
                q0,
                exceptional: i == i0,
            }
            .encode_with(encoding)
        })
        .collect()
}

/// Site-side dual of [`allocate_outliers`]: derives `t_i` from the
/// broadcast threshold (Algorithm 1, lines 12–13).
///
/// For the exceptional site `i₀`, `t_i` snaps up to the next hull vertex
/// at or after `q₀`; every other site takes the largest `q` whose marginal
/// ranks at or before the threshold element in the coordinator's stable
/// order (ties broken lexicographically by `(i, q)`, matching Equation
/// (4)). Every protocol deriving budgets from a [`ThresholdMsg`] uses
/// this one rule, or `Σ t_i` would drift from the allocation's rank:
/// the median/means and center sites of Algorithms 1–2, the uncertain
/// sites of Algorithms 3–4 (`dpc_uncertain`) and the continuous sync
/// sites (`dpc_stream`).
pub fn site_budget_from_threshold(
    profile: &ConvexProfile,
    site_id: usize,
    t: usize,
    thr: &ThresholdMsg,
) -> usize {
    if thr.exceptional {
        return profile.next_vertex_at_or_after((thr.q0 as usize).min(t));
    }
    let mut ti = 0usize;
    for q in 1..=t {
        let m = profile.marginal(q);
        let wins = m > thr.threshold
            || (m == thr.threshold && (site_id as u64, q as u64) <= (thr.i0, thr.q0));
        if wins {
            ti = q;
        } else {
            break; // marginals are non-increasing in q
        }
    }
    ti
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(points: &[(usize, f64)]) -> ConvexProfile {
        ConvexProfile::lower_hull(points)
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

    #[test]
    fn greedy_matches_dp_on_simple_profiles() {
        // Site 0 benefits hugely from early outliers; site 1 barely.
        let p0 = profile(&[(0, 100.0), (1, 10.0), (2, 5.0), (4, 1.0), (8, 0.0)]);
        let p1 = profile(&[(0, 3.0), (1, 2.5), (2, 2.0), (4, 1.5), (8, 1.0)]);
        let profiles = vec![p0, p1];
        let t = 8;
        let alloc = allocate_outliers(&profiles, t, 2.0);
        let rank = 16; // rho*t
        assert_eq!(alloc.total(), rank);
        let greedy_cost: f64 = profiles
            .iter()
            .zip(&alloc.t_i)
            .map(|(p, &ti)| p.eval(ti as f64))
            .sum();
        let opt = dp_optimum(&profiles, t, rank);
        assert!(
            greedy_cost <= opt + 1e-9,
            "greedy {greedy_cost} vs dp {opt} (t_i {:?})",
            alloc.t_i
        );
    }

    #[test]
    fn zero_budget() {
        let p = profile(&[(0, 5.0), (2, 0.0)]);
        let alloc = allocate_outliers(&[p], 0, 2.0);
        assert_eq!(alloc.t_i, vec![0]);
        assert_eq!(alloc.threshold, f64::INFINITY);
    }

    #[test]
    fn identical_profiles_split_lexicographically() {
        // With equal marginals everywhere the stable order favors low
        // (i, q): site 0 fills up first.
        let mk = || profile(&[(0, 4.0), (4, 0.0)]);
        let profiles = vec![mk(), mk()];
        let t = 4;
        let alloc = allocate_outliers(&profiles, t, 1.0);
        // rank = 4; all marginals equal 1.0 -> winners are (0,1..4).
        assert_eq!(alloc.t_i, vec![4, 0]);
        assert_eq!(alloc.i0, 0);
        assert_eq!(alloc.q0, 4);
    }

    #[test]
    fn rank_clamps_to_available_items() {
        let p = profile(&[(0, 4.0), (2, 0.0)]);
        // rho*t = 40 exceeds s*t = 2 items.
        let alloc = allocate_outliers(&[p], 2, 20.0);
        assert_eq!(alloc.total(), 2);
    }

    #[test]
    fn threshold_is_rank_rho_t() {
        let p0 = profile(&[(0, 10.0), (1, 6.0), (2, 3.0), (3, 1.0), (4, 0.0)]);
        let p1 = profile(&[(0, 2.0), (1, 1.5), (2, 1.1), (3, 0.8), (4, 0.6)]);
        let profiles = vec![p0, p1];
        let alloc = allocate_outliers(&profiles, 4, 1.5);
        // rank = 6 largest of the 8 marginals:
        // site0: 4,3,2,1 ; site1: 0.5,0.4,0.3,0.2
        // sorted: 4,3,2,1,0.5,0.4 | 0.3,0.2 -> threshold 0.4 at (1,2)
        assert!(
            (alloc.threshold - 0.4).abs() < 1e-9,
            "thr {}",
            alloc.threshold
        );
        assert_eq!((alloc.i0, alloc.q0), (1, 2));
        assert_eq!(alloc.t_i, vec![4, 2]);
    }

    #[test]
    fn exchange_optimality_random_convex() {
        // Random convex profiles via random non-increasing positive
        // marginal sequences; greedy must match DP.
        let mut seeds = 0xdeadbeefu64;
        let mut rnd = move || {
            seeds = seeds
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seeds >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..20 {
            let t = 6;
            let s = 3;
            let mut profiles = Vec::new();
            for _ in 0..s {
                let mut marg: Vec<f64> = (0..t).map(|_| rnd() * 5.0).collect();
                marg.sort_by(|a, b| b.total_cmp(a));
                let mut pts = vec![(0usize, 20.0)];
                let mut f = 20.0;
                for (q, m) in marg.iter().enumerate() {
                    f -= m;
                    pts.push((q + 1, f));
                }
                profiles.push(profile(&pts));
            }
            let alloc = allocate_outliers(&profiles, t, 2.0);
            let greedy: f64 = profiles
                .iter()
                .zip(&alloc.t_i)
                .map(|(p, &ti)| p.eval(ti as f64))
                .sum();
            let opt = dp_optimum(&profiles, t, alloc.total());
            assert!(greedy <= opt + 1e-6, "greedy {greedy} vs {opt}");
        }
    }
}
