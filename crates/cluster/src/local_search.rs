//! Weighted k-median/means local search with a Lagrangian per-point penalty.
//!
//! This is the computational core of the Theorem 3.1 substitute, which
//! replaces the paper's primal-dual solver with a search of the same
//! interface and guarantee shape: each point either pays its assignment
//! distance or opts out for a fixed penalty `λ`, i.e. we minimize
//!
//! ```text
//!   Σ_e  w_e · min( d(e, K), λ )         over |K| ≤ k
//! ```
//!
//! which is exactly the Lagrangian relaxation of the `(k,t)` objective that
//! the primal-dual algorithms of \[17\] (and their outlier extension in
//! \[4\]) optimize. `λ = ∞` recovers the plain k-median. For the means
//! objective, run this over a [`dpc_metric::SquaredMetric`].
//!
//! The search is the classic single-swap heuristic with weighted
//! D-sampling seeding. Single-swap local search is a constant-factor
//! approximation for k-median (Arya et al.), which is all the downstream
//! lemmas require of the preclustering oracle. Each iteration draws its
//! swap candidates up front and scores them with the `O(n + k)` delta
//! decomposition over nearest and second-nearest center distances
//! ([`swap_deltas`]). Candidates are scored in tiles of
//! [`DIST_TILE`]: one [`Metric::dist_tile_into`] pass over a block of
//! entries serves the whole tile, and each candidate's sums still run in
//! entry order, so every delta is bit-identical to scoring the candidates
//! one at a time. The tiles are shared out over the thread budget only
//! when the iteration's entry × candidate count reaches
//! [`TILE_PAR_MIN_PAIRS`]; smaller searches stay on the calling thread.
//!
//! Most (entry, candidate) distances cannot matter: once a candidate lies
//! at `dx ≥ min(d2, λ)` from an entry, that entry adds exactly `+0` to
//! the candidate's `a` term and `w·(min(d2, λ) − min(d1, λ))`, free of
//! `dx`, to its `b` term. Scoring orders the candidates by their own
//! nearest center, so a tile's anchors sit near one center, and bounds
//! each entry's distance to the whole tile from below by
//! [`Metric::triangle_lower_bound`] over the entry's nearest center
//! (Elkan, ICML 2003). Where the bound, deflated by a rounding margin,
//! clears `min(d2, λ)`, the entry skips the tile's distances and adds
//! those `dx`-free terms in its turn, so every sum runs over the same
//! values in the same entry order and the deltas stay bit for bit those
//! of the full pass. The anchor–center distances behind the bound also
//! serve as the tile's distances to the entries at the centers. A metric
//! without a bound can skip only at `λ = 0`, where every `dx` qualifies.

use crate::solution::Solution;
use dpc_metric::{
    Assignment2C, Metric, NearestAssigner, ThreadBudget, WeightedSet, DIST_TILE, TILE_PAR_MIN_PAIRS,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning for [`penalty_local_search`].
#[derive(Clone, Copy, Debug)]
pub struct LocalSearchParams {
    /// Maximum improving swaps applied.
    pub max_iters: usize,
    /// Candidate insertion points sampled per iteration (capped to `n`).
    pub swap_candidates: usize,
    /// Relative improvement threshold for accepting a swap.
    pub min_rel_gain: f64,
    /// RNG seed (seeding + candidate sampling are the only random choices).
    pub seed: u64,
    /// Thread budget for the bulk distance passes. Swap scoring shares its
    /// candidate tiles out over it only when an iteration's entry ×
    /// candidate count reaches [`TILE_PAR_MIN_PAIRS`]; seeding and state
    /// updates use it per distance pass. Wall-clock only — results are
    /// identical at any budget.
    pub threads: ThreadBudget,
}

impl Default for LocalSearchParams {
    fn default() -> Self {
        Self {
            max_iters: 60,
            swap_candidates: 48,
            min_rel_gain: 1e-6,
            seed: 0x5eed,
            threads: ThreadBudget::serial(),
        }
    }
}

/// State carried by the search: nearest / second-nearest center per entry
/// *with both positions* ([`NearestAssigner::assign2c`]), so an accepted
/// swap updates the state incrementally instead of re-scanning every
/// entry against every center.
type NearestState = Assignment2C;

/// Penalized cost of the current state.
fn penalized_cost(state: &NearestState, weights: &[f64], penalty: f64) -> f64 {
    state
        .d1
        .iter()
        .zip(weights)
        .map(|(&d, &w)| w * d.min(penalty))
        .sum()
}

/// Weighted D-sampling seeding (k-means++ style) under the penalty metric:
/// the first center is the weighted medoid-ish heaviest point, subsequent
/// centers are sampled proportionally to `w · min(d, λ)`.
fn seed_centers<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    penalty: f64,
    rng: &mut SmallRng,
    threads: ThreadBudget,
) -> Vec<usize> {
    let ids = points.ids();
    let weights = points.weights();
    let n = ids.len();
    let k = k.min(n);
    let mut centers = Vec::with_capacity(k);
    let assigner = NearestAssigner::with_threads(metric, threads);

    // First center: the entry with maximum weight (deterministic anchor).
    let first = (0..n)
        .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
        .expect("non-empty points");
    centers.push(ids[first]);

    let mut d1 = Vec::with_capacity(n);
    assigner.dists_from(ids[first], ids, &mut d1);
    let mut dists = Vec::with_capacity(n);
    while centers.len() < k {
        let scores: Vec<f64> = d1
            .iter()
            .zip(weights)
            .map(|(&d, &w)| w * d.min(penalty))
            .collect();
        let total: f64 = scores.iter().sum();
        let chosen = if total <= 0.0 {
            // Everything already covered at distance 0: any remaining entry.
            (0..n).find(|&e| d1[e] > 0.0).unwrap_or(centers.len() % n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (e, &s) in scores.iter().enumerate() {
                if target < s {
                    pick = e;
                    break;
                }
                target -= s;
            }
            pick
        };
        centers.push(ids[chosen]);
        assigner.dists_from(ids[chosen], ids, &mut dists);
        for (dd, &d) in d1.iter_mut().zip(&dists) {
            if d < *dd {
                *dd = d;
            }
        }
    }
    centers
}

/// Entries scored per [`Metric::dist_tile_into`] call: a tile's distances
/// to one block (`DIST_TILE × ENTRY_BLOCK` values, 16 KiB) stay in cache
/// while they are accumulated.
const ENTRY_BLOCK: usize = 256;

/// Swap-delta terms of every candidate entry in `cands` against `state`,
/// the nearest/second-nearest state of `centers` (`state.d1[e]` must be
/// the distance from entry `e` to `centers[state.c1[e]]`). Candidate `j`
/// fills `out[j·(k+1)..(j+1)·(k+1)]`, `k = centers.len()`, with
/// `[a, b[0], …, b[k−1]]`, where
///
/// ```text
///   a     = Σ_e w_e (min(dx, d1, λ) − min(d1, λ))
///   b[ci] = Σ_{e: c1 = ci} w_e (min(d2, dx, λ) − min(dx, d1, λ))
/// ```
///
/// so swapping candidate `j` in for the center at slot `ci` changes the
/// penalized cost by `a + b[ci]`. Returned beside the terms: the number
/// of (entry, candidate) pairs whose distance the triangle bound skipped.
///
/// The candidates are scored in the order of their own nearest center,
/// [`DIST_TILE`] at a time, one distance pass per block of entries for
/// the whole tile; the terms land at each candidate's original index.
/// For each center, a tile takes the range `[lo, hi]` of its anchors'
/// distances to that center. An entry at `d1` from its nearest center
/// `c1` lies at least `lb = triangle_lower_bound(dn, d1)` from every
/// anchor of the tile, where `dn = clamp(d1, lo, hi)` over `c1`'s range.
/// The entry skips the tile when
///
/// ```text
///   lb − 1e-9·(dn + d1) ≥ min(d2, λ)·(1 + 1e-9)
/// ```
///
/// The margin over-covers the few ulps by which the computed `d1`, the
/// anchor–center distances and `dx` may each stray, so a skipped pair's
/// computed `dx` is never below `min(d2, λ)`. For such a pair
/// `min(dx, d1, λ)` and `min(d2, dx, λ)` are exactly `min(d1, λ)` and
/// `min(d2, λ)`: the `a` term is `+0` and the `b` term needs no `dx`.
/// A skipped entry adds that `b` term to every lane in its turn, so each
/// sum still runs over the same values in entry order and the terms are
/// bit for bit those of scoring one candidate at a time over every entry.
/// An entry at a center takes its distances from the anchor–center pass
/// (the same pairs, so the same values); only the other kept entries go
/// through [`Metric::dist_tile_into`].
/// Beyond one thread the tiles are shared out under one `thread::scope`
/// — [`penalty_local_search`] asks for that only above
/// [`TILE_PAR_MIN_PAIRS`].
pub fn swap_deltas<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    state: &Assignment2C,
    centers: &[usize],
    penalty: f64,
    cands: &[usize],
    threads: ThreadBudget,
) -> (Vec<f64>, usize) {
    let width = centers.len() + 1;
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by_key(|&j| state.c1[cands[j]]);
    let sorted: Vec<usize> = order.iter().map(|&j| cands[j]).collect();
    let mut scored = vec![0.0; cands.len() * width];
    let workers = threads.get().min(cands.len().div_ceil(DIST_TILE));
    let skipped = if workers <= 1 {
        score_tiles(
            metric,
            points,
            state,
            centers,
            penalty,
            &sorted,
            &mut scored,
        )
    } else {
        let span = cands.len().div_ceil(DIST_TILE).div_ceil(workers) * DIST_TILE;
        std::thread::scope(|scope| {
            let runs: Vec<_> = sorted
                .chunks(span)
                .zip(scored.chunks_mut(span * width))
                .map(|(cs, os)| {
                    scope
                        .spawn(move || score_tiles(metric, points, state, centers, penalty, cs, os))
                })
                .collect();
            runs.into_iter()
                .map(|r| r.join().expect("swap scoring worker panicked"))
                .sum()
        })
    };
    let mut out = vec![0.0; cands.len() * width];
    for (&j, t) in order.iter().zip(scored.chunks_exact(width)) {
        out[j * width..(j + 1) * width].copy_from_slice(t);
    }
    (out, skipped)
}

/// How [`score_tiles`] treats one entry against one tile.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// Distances computed by the tile kernel.
    Compute,
    /// The entry is a center: distances from the anchor–center pass.
    AtCenter,
    /// Ruled out by the bound, or weightless: no distances.
    Skip,
}

/// The serial body of [`swap_deltas`] over one run of candidates;
/// returns the pairs it skipped.
fn score_tiles<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    state: &Assignment2C,
    centers: &[usize],
    penalty: f64,
    cands: &[usize],
    out: &mut [f64],
) -> usize {
    let ids = points.ids();
    let weights = points.weights();
    let k = centers.len();
    // Every anchor's distance to every center, in one pass, `DIST_TILE`
    // anchors per tile (the last tile padded): `tc[j·k + c]` in a tile's
    // slice `tc` is anchor `j` to center `c`. It gives the tile's ranges,
    // and it is the tile's distances to the entries at the centers, which
    // the pass below therefore never recomputes.
    let anchors_all: Vec<usize> = cands.iter().map(|&c| ids[c]).collect();
    let mut to_centers = vec![0.0f64; cands.len().next_multiple_of(DIST_TILE) * k];
    metric.dist_tile_into(&anchors_all, centers, &mut to_centers[..cands.len() * k]);
    let mut dx = vec![0.0f64; DIST_TILE * ENTRY_BLOCK.min(ids.len())];
    let mut range = vec![(0.0f64, 0.0f64); k];
    let (mut kept, mut pass) = ([0usize; ENTRY_BLOCK], [Pass::Compute; ENTRY_BLOCK]);
    let mut b = vec![[0.0f64; DIST_TILE]; k];
    let mut skipped = 0;
    for ((anchors, tc), terms) in anchors_all
        .chunks(DIST_TILE)
        .zip(to_centers.chunks_exact(DIST_TILE * k))
        .zip(out.chunks_mut(DIST_TILE * (k + 1)))
    {
        let width = anchors.len();
        range.fill((f64::INFINITY, 0.0));
        for row in tc[..width * k].chunks_exact(k) {
            for (r, &d) in range.iter_mut().zip(row) {
                if d < r.0 {
                    r.0 = d;
                }
                if d > r.1 {
                    r.1 = d;
                }
            }
        }
        // One accumulator per candidate, side by side; lanes past the
        // tile's width sum stale distances and are never read back.
        let mut a = [0.0f64; DIST_TILE];
        b.fill([0.0; DIST_TILE]);
        for start in (0..ids.len()).step_by(ENTRY_BLOCK) {
            let len = ENTRY_BLOCK.min(ids.len() - start);
            // Choose each entry's pass; the compute list grows without
            // a branch.
            let mut nk = 0;
            for (p, e) in (start..start + len).enumerate() {
                let (d1, d2, c1) = (state.d1[e], state.d2[e], state.c1[e]);
                let (lo, hi) = range[c1];
                let dn = d1.max(lo).min(hi);
                let lb = metric.triangle_lower_bound(dn, d1) - 1e-9 * (dn + d1);
                pass[p] = if lb >= d2.min(penalty) * (1.0 + 1e-9) || weights[e] == 0.0 {
                    Pass::Skip
                } else if ids[e] == centers[c1] {
                    Pass::AtCenter
                } else {
                    Pass::Compute
                };
                kept[nk] = ids[e];
                nk += (pass[p] == Pass::Compute) as usize;
            }
            if nk > 0 {
                metric.dist_tile_into(anchors, &kept[..nk], &mut dx[..width * nk]);
            }
            let mut o = 0;
            for (p, e) in (start..start + len).enumerate() {
                let w = weights[e];
                let c1 = state.c1[e];
                // min(x, d1, λ) and min(d2, x, λ) as min(x, near) and
                // min(x, cut): the same operands, so the same values.
                let (near, cut) = (state.d1[e].min(penalty), state.d2[e].min(penalty));
                let (src, at, stride) = match pass[p] {
                    Pass::Skip => {
                        if w != 0.0 {
                            // Every anchor lies at dx ≥ cut: `a` gains +0
                            // and each lane of `b` the same term.
                            let t = w * (cut - near);
                            for v in b[c1].iter_mut() {
                                *v += t;
                            }
                            skipped += width;
                        }
                        continue;
                    }
                    Pass::AtCenter => (tc, c1, k),
                    Pass::Compute => {
                        o += 1;
                        (&dx[..], o - 1, nk)
                    }
                };
                let bc = &mut b[c1];
                for j in 0..DIST_TILE {
                    let x = src[j * stride + at];
                    let with_x = x.min(near);
                    a[j] += w * (with_x - near);
                    bc[j] += w * (x.min(cut) - with_x);
                }
            }
        }
        for (j, t) in terms.chunks_exact_mut(k + 1).enumerate() {
            t[0] = a[j];
            for (tc, bc) in t[1..].iter_mut().zip(&b) {
                *tc = bc[j];
            }
        }
    }
    skipped
}

/// Runs the penalized single-swap local search.
///
/// Returns the chosen centers together with the *penalized* objective in
/// `cost`; `outliers` lists entries whose nearest-center distance strictly
/// exceeds `penalty` (their full weight is charged the penalty), and
/// `assignment` is nearest-center as usual. Callers wanting the `(k,t)`
/// semantics should re-evaluate the centers with
/// [`Solution::evaluate`](crate::solution::Solution::evaluate).
///
/// # Panics
/// Panics if `points` is empty or `k == 0`.
pub fn penalty_local_search<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    penalty: f64,
    params: LocalSearchParams,
) -> Solution {
    assert!(!points.is_empty(), "local search requires points");
    assert!(k > 0, "need at least one center");
    let ids = points.ids();
    let weights = points.weights();
    let n = ids.len();
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let assigner = NearestAssigner::with_threads(metric, params.threads);

    let mut centers = seed_centers(metric, points, k, penalty, &mut rng, params.threads);
    let mut state: NearestState = assigner.assign2c(ids, &centers);
    let mut cost = penalized_cost(&state, weights, penalty);
    let mut dx_all = Vec::with_capacity(n);
    let mut stale: Vec<usize> = Vec::new();
    let mut cands: Vec<usize> = Vec::with_capacity(params.swap_candidates.min(n));

    for _ in 0..params.max_iters {
        let kk = centers.len();
        // Draw the iteration's candidate insertions, one draw per slot.
        // Current centers are skipped; a repeated draw would only tie its
        // own first score, which the strict `<` below never prefers.
        cands.clear();
        for _ in 0..params.swap_candidates.min(n) {
            let cand = rng.gen_range(0..n);
            if !centers.contains(&ids[cand]) && !cands.contains(&cand) {
                cands.push(cand);
            }
        }
        let threads = if n * cands.len() >= TILE_PAR_MIN_PAIRS {
            params.threads
        } else {
            ThreadBudget::serial()
        };
        let (terms, _) = swap_deltas(metric, points, &state, &centers, penalty, &cands, threads);
        let mut best: Option<(usize, usize, f64)> = None; // (cand entry, removed pos, delta)
        for (&cand, t) in cands.iter().zip(terms.chunks_exact(kk + 1)) {
            for (ci, &bc) in t[1..].iter().enumerate() {
                let delta = t[0] + bc;
                if best.is_none_or(|(_, _, bd)| delta < bd) {
                    best = Some((cand, ci, delta));
                }
            }
        }
        match best {
            Some((cand, ci, delta)) if delta < -params.min_rel_gain * cost.max(1e-30) => {
                centers[ci] = ids[cand];
                // Incremental state update. Only the center at slot `ci`
                // changed, so for entries whose top-2 did not involve it
                // the new top-2 is the lex merge of the old pair with the
                // one new `(dx, ci)` candidate — a single bulk distance
                // pass. Entries whose nearest or second-nearest *was* the
                // replaced slot lose that anchor and rescan against the
                // full center list, but they are the minority (one
                // cluster's worth per swap).
                assigner.dists_from(ids[cand], ids, &mut dx_all);
                stale.clear();
                for (e, &dx) in dx_all.iter().enumerate().take(n) {
                    if state.c1[e] == ci || state.c2[e] == ci {
                        stale.push(e);
                        continue;
                    }
                    // Lex merge on (distance, position): reproduces the
                    // strict-< first-wins scan under any visit order.
                    if dx < state.d1[e] || (dx == state.d1[e] && ci < state.c1[e]) {
                        state.d2[e] = state.d1[e];
                        state.c2[e] = state.c1[e];
                        state.d1[e] = dx;
                        state.c1[e] = ci;
                    } else if dx < state.d2[e] || (dx == state.d2[e] && ci < state.c2[e]) {
                        state.d2[e] = dx;
                        state.c2[e] = ci;
                    }
                }
                if !stale.is_empty() {
                    let stale_ids: Vec<usize> = stale.iter().map(|&e| ids[e]).collect();
                    let sub = assigner.assign2c(&stale_ids, &centers);
                    for (s, &e) in stale.iter().enumerate() {
                        state.c1[e] = sub.c1[s];
                        state.c2[e] = sub.c2[s];
                        state.d1[e] = sub.d1[s];
                        state.d2[e] = sub.d2[s];
                    }
                }
                #[cfg(debug_assertions)]
                {
                    // The incremental state must agree with a fresh full
                    // rescan: bit-identical for metrics whose bulk hooks
                    // share one distance domain (Euclidean), within the
                    // documented ~1-ulp squared-routing exception
                    // otherwise — so distances are compared with a
                    // tolerance and positions only where the gap is
                    // decisive.
                    let fresh = assigner.assign2c(ids, &centers);
                    let close =
                        |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
                    for e in 0..n {
                        debug_assert!(
                            close(state.d1[e], fresh.d1[e]) && close(state.d2[e], fresh.d2[e]),
                            "incremental top-2 distances diverged at entry {e}"
                        );
                        if !close(fresh.d1[e], fresh.d2[e]) {
                            debug_assert_eq!(
                                state.c1[e], fresh.c1[e],
                                "incremental nearest position diverged at entry {e}"
                            );
                        }
                    }
                }
                cost += delta;
                // Guard against floating drift.
                debug_assert!(
                    (penalized_cost(&state, weights, penalty) - cost).abs()
                        <= 1e-6 * cost.abs().max(1.0)
                );
                cost = penalized_cost(&state, weights, penalty);
            }
            _ => break,
        }
    }

    let outliers: Vec<(usize, f64)> = state
        .d1
        .iter()
        .enumerate()
        .filter(|&(e, &d)| d > penalty && weights[e] > 0.0)
        .map(|(e, _)| (e, weights[e]))
        .collect();
    Solution {
        centers,
        cost,
        outliers,
        assignment: state.c1,
    }
}

/// Plain weighted k-median local search (no penalty): a convenience wrapper
/// used for `t = 0` instances and baselines.
pub fn kmedian_local_search<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    params: LocalSearchParams,
) -> Solution {
    let mut sol = penalty_local_search(metric, points, k, f64::INFINITY, params);
    sol.outliers.clear();
    sol
}

/// Evaluates the penalized objective for arbitrary centers (test helper and
/// cross-check used by the λ-search).
pub fn penalized_objective<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    centers: &[usize],
    penalty: f64,
) -> f64 {
    points
        .iter()
        .map(|(id, w)| {
            let d = centers
                .iter()
                .map(|&c| metric.dist(id, c))
                .fold(f64::INFINITY, f64::min);
            w * d.min(penalty)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_metric::{EuclideanMetric, PointSet, SquaredMetric};

    fn two_clumps() -> PointSet {
        let mut rows = Vec::new();
        for i in 0..10 {
            rows.push(vec![0.0 + 0.01 * i as f64, 0.0]);
        }
        for i in 0..10 {
            rows.push(vec![100.0 + 0.01 * i as f64, 0.0]);
        }
        PointSet::from_rows(&rows)
    }

    #[test]
    fn finds_both_clumps() {
        let ps = two_clumps();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(20);
        let sol = kmedian_local_search(&m, &w, 2, LocalSearchParams::default());
        // One center in each clump: cost well below 1.0 (vs ~1000 for a
        // single-clump placement).
        assert!(sol.cost < 1.0, "cost {}", sol.cost);
        let c0 = ps.point(sol.centers[0])[0];
        let c1 = ps.point(sol.centers[1])[0];
        assert!((c0 < 50.0) != (c1 < 50.0), "centers must split the clumps");
    }

    #[test]
    fn penalty_marks_far_points_outliers() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![500.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(4);
        let sol = penalty_local_search(&m, &w, 1, 10.0, LocalSearchParams::default());
        assert_eq!(sol.outliers.len(), 1);
        assert_eq!(sol.outliers[0].0, 3);
        // Penalized cost = within-clump cost + λ for the outlier.
        assert!(sol.cost <= 0.3 + 10.0 + 1e-9);
    }

    #[test]
    fn infinite_penalty_equals_plain() {
        let ps = two_clumps();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(20);
        let a = penalty_local_search(&m, &w, 2, f64::INFINITY, LocalSearchParams::default());
        let b = kmedian_local_search(&m, &w, 2, LocalSearchParams::default());
        assert_eq!(a.centers, b.centers);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn respects_weights() {
        // A weight-100 point far away must attract a center over a weight-1
        // clump when k=1.
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![1000.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::from_parts(vec![0, 1, 2], vec![1.0, 1.0, 100.0]);
        let sol = kmedian_local_search(&m, &w, 1, LocalSearchParams::default());
        assert_eq!(sol.centers, vec![2]);
    }

    #[test]
    fn works_with_squared_metric_for_means() {
        let ps = two_clumps();
        let m = SquaredMetric::new(EuclideanMetric::new(&ps));
        let w = WeightedSet::unit(20);
        let sol = kmedian_local_search(&m, &w, 2, LocalSearchParams::default());
        assert!(sol.cost < 1.0, "means cost {}", sol.cost);
    }

    #[test]
    fn k_larger_than_n_caps() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![5.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(2);
        let sol = kmedian_local_search(&m, &w, 5, LocalSearchParams::default());
        assert!(sol.cost <= 1e-12);
    }

    #[test]
    fn objective_helper_matches_search_cost() {
        let ps = two_clumps();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(20);
        let sol = penalty_local_search(&m, &w, 2, 3.0, LocalSearchParams::default());
        let check = penalized_objective(&m, &w, &sol.centers, 3.0);
        assert!((sol.cost - check).abs() <= 1e-9 * check.max(1.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let ps = two_clumps();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(20);
        let p = LocalSearchParams {
            seed: 42,
            ..Default::default()
        };
        let a = kmedian_local_search(&m, &w, 3, p);
        let b = kmedian_local_search(&m, &w, 3, p);
        assert_eq!(a.centers, b.centers);
    }
}
