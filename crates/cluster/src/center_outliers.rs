//! `(k,t)`-center with outliers — the Charikar et al. \[4\] greedy-disk
//! algorithm, generalized to weighted points.
//!
//! For a guessed radius `r`, the greedy step repeatedly picks the disk of
//! radius `r` covering the most uncovered weight and then removes everything
//! within the expanded radius `3r`; if after `k` picks at most `t` weight is
//! uncovered, radius `r` is feasible and the returned solution costs at most
//! `3r`. The smallest feasible `r` is found by bisection on the distance
//! value range, giving the classic 3-approximation (the paper invokes this
//! as "the algorithm in \[4\] for the k-center problem with exactly t
//! outliers" at the coordinator, Algorithm 2 line 7).
//!
//! Runtime: the `n²` pairwise distances are computed once per solve and
//! kept in an `n × n` matrix (`8n²` bytes); each radius probe then makes
//! `O(k · n · |uncovered|)` comparisons against matrix entries and no
//! distance evaluations. Run on coordinator-sized inputs (`O(sk + t)`
//! points), exactly as Table 1 charges.

use crate::solution::Solution;
use dpc_metric::kernel::par_chunks_mut;
use dpc_metric::{Metric, Objective, ThreadBudget, WeightedSet};
use std::cmp::Ordering;

/// Tuning for [`charikar_center`].
#[derive(Clone, Copy, Debug)]
pub struct CenterParams {
    /// Expansion factor applied when removing covered points (3 in \[4\];
    /// raising it trades cost for fewer uncovered points).
    pub expansion: f64,
    /// Bisection iterations over the radius value range.
    pub radius_iters: usize,
    /// Thread budget for computing the distance-matrix rows (wall-clock
    /// only — identical centers and costs at any budget). The radius
    /// probes run on the calling thread: at coordinator sizes a probe
    /// step is shorter than spawning its workers.
    pub threads: ThreadBudget,
}

impl Default for CenterParams {
    fn default() -> Self {
        Self {
            expansion: 3.0,
            radius_iters: 48,
            threads: ThreadBudget::serial(),
        }
    }
}

/// Runs the weighted greedy-disk algorithm for `(k, t)`-center.
///
/// `t` is an outlier *weight* budget. Returns the best solution found; its
/// `outliers` / `cost` fields come from re-evaluating the chosen centers
/// with budget `t` (so partially excluded aggregated points are handled per
/// Remark 1 of the paper).
///
/// # Panics
/// Panics if `k == 0` while points are present.
pub fn charikar_center<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    t: f64,
    params: CenterParams,
) -> Solution {
    if points.is_empty() {
        return Solution {
            centers: Vec::new(),
            cost: 0.0,
            outliers: Vec::new(),
            assignment: Vec::new(),
        };
    }
    assert!(k > 0, "need at least one center");
    let ids = points.ids();
    let dist = DistMatrix::new(metric, ids, params.threads);

    // Radius value range: [0, max pairwise distance among entries].
    let mut hi = 0.0f64;
    for a in 1..dist.n {
        for &d in &dist.row(a)[..a] {
            hi = hi.max(d);
        }
    }
    if hi == 0.0 {
        // All points coincide: any single center is optimal.
        return Solution::evaluate(metric, points, vec![ids[0]], t, Objective::Center);
    }

    let feasible = |r: f64| -> Option<Vec<usize>> {
        let (centers, uncovered) = greedy_disks(&dist, points.weights(), k, r, params.expansion);
        if uncovered <= t + 1e-9 {
            Some(centers.into_iter().map(|c| ids[c]).collect())
        } else {
            None
        }
    };

    // hi is always feasible (one disk of radius d_max covers everything).
    let mut lo = 0.0f64;
    let mut hi_r = hi;
    let mut best_centers = feasible(hi).expect("max radius must be feasible");
    for _ in 0..params.radius_iters {
        let mid = 0.5 * (lo + hi_r);
        match feasible(mid) {
            Some(c) => {
                best_centers = c;
                hi_r = mid;
            }
            None => lo = mid,
        }
        if hi_r - lo <= 1e-12 * hi {
            break;
        }
    }
    Solution::evaluate(metric, points, best_centers, t, Objective::Center)
}

/// All pairwise distances among a solve's entries, row-major: row `c`
/// holds the distances from entry `c` to every entry, in entry order.
struct DistMatrix {
    n: usize,
    flat: Vec<f64>,
}

impl DistMatrix {
    /// One bulk distance row per entry; rows fan out over the budget.
    fn new<M: Metric>(metric: &M, ids: &[usize], threads: ThreadBudget) -> Self {
        let n = ids.len();
        let mut flat = vec![0.0; n * n];
        let mut rows: Vec<&mut [f64]> = flat.chunks_mut(n).collect();
        par_chunks_mut(threads, &mut rows[..], |start, rows| {
            for (c, row) in rows.iter_mut().enumerate() {
                metric.dist_to_many_into(ids[start + c], ids, row);
            }
        });
        Self { n, flat }
    }

    fn row(&self, c: usize) -> &[f64] {
        &self.flat[c * self.n..(c + 1) * self.n]
    }
}

/// One greedy pass at radius `r`: returns the chosen centers (as entry
/// positions) and the uncovered weight.
fn greedy_disks(
    dist: &DistMatrix,
    weights: &[f64],
    k: usize,
    r: f64,
    expansion: f64,
) -> (Vec<usize>, f64) {
    // Uncovered entries in index order, so every gain and the final
    // uncovered weight sum the same terms in the same order as a scan
    // over all entries that skips covered ones.
    let mut uncovered: Vec<usize> = (0..dist.n).collect();
    let mut centers = Vec::with_capacity(k);

    for _ in 0..k {
        // Pick the disk center covering the most uncovered weight.
        let (best_idx, best_gain) = best_disk(dist, weights, &uncovered, r);
        if best_gain <= 0.0 {
            // Nothing with positive weight left to cover; place remaining
            // centers on any uncovered entry (harmless) or stop.
            if uncovered.is_empty() {
                break;
            }
            centers.push(uncovered.remove(0));
            continue;
        }
        centers.push(best_idx);
        let er = expansion * r;
        let row = dist.row(best_idx);
        // Keep what lies beyond the expanded disk (a NaN distance covers
        // nothing).
        uncovered.retain(|&e| row[e].partial_cmp(&er).is_none_or(Ordering::is_gt));
    }

    let uncovered: f64 = uncovered.iter().map(|&e| weights[e]).sum();
    (centers, uncovered)
}

/// Candidates scored together by [`best_disk`]: independent gain sums
/// keep the adder busy where one sum would wait on each addition.
const LANES: usize = 4;

/// The candidate with the largest uncovered weight inside radius `r`
/// (first candidate wins ties). Every entry is a candidate.
///
/// Each gain adds the weights of the uncovered entries within `r` in
/// index order, and adds `0.0` for the others: a gain starts at `+0.0`,
/// so adding zero never changes it, and the sum is bit-identical to one
/// that skips those entries.
fn best_disk(dist: &DistMatrix, weights: &[f64], uncovered: &[usize], r: f64) -> (usize, f64) {
    let n = dist.n;
    let mut best = (usize::MAX, -1.0f64);
    for c0 in (0..n).step_by(LANES) {
        // A short last group scores the final candidate in spare lanes.
        let rows: [&[f64]; LANES] = std::array::from_fn(|l| dist.row((c0 + l).min(n - 1)));
        let mut gains = [0.0f64; LANES];
        for &e in uncovered {
            let w = weights[e];
            for l in 0..LANES {
                gains[l] += if rows[l][e] <= r { w } else { 0.0 };
            }
        }
        for (c, &gain) in (c0..n).zip(&gains) {
            if gain > best.1 {
                best = (c, gain);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_metric::{center_cost, EuclideanMetric, PointSet};

    #[test]
    fn two_clusters_one_outlier() {
        let ps = PointSet::from_rows(&[
            vec![0.0],
            vec![0.5],
            vec![1.0],
            vec![10.0],
            vec![10.5],
            vec![11.0],
            vec![100.0], // outlier
        ]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(7);
        let sol = charikar_center(&m, &w, 2, 1.0, CenterParams::default());
        // optimal cost with 2 centers ignoring the outlier is 0.5;
        // 3-approximation allows up to 1.5.
        assert!(sol.cost <= 1.5 + 1e-9, "cost {}", sol.cost);
        assert!(sol.outlier_weight() <= 1.0 + 1e-9);
    }

    #[test]
    fn outlier_budget_zero_covers_all() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![4.0], vec![8.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(3);
        let sol = charikar_center(&m, &w, 1, 0.0, CenterParams::default());
        // single center must cover everything: optimal 4 (center at 4),
        // 3-approx bound 12.
        assert!(sol.cost <= 12.0 + 1e-9);
        assert!(sol.cost >= 4.0 - 1e-9);
    }

    #[test]
    fn weighted_outliers_prefer_light_points() {
        // A heavy far clump cannot be discarded with budget 1, but a light
        // singleton can.
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![50.0], vec![200.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::from_parts(vec![0, 1, 2, 3], vec![1.0, 1.0, 5.0, 1.0]);
        let sol = charikar_center(&m, &w, 2, 1.0, CenterParams::default());
        // Must keep the weight-5 point covered: centers near {0/1} and {50},
        // discarding the 200 singleton -> small cost.
        assert!(sol.cost <= 3.0 + 1e-9, "cost {}", sol.cost);
    }

    #[test]
    fn coincident_points_zero_cost() {
        let ps = PointSet::from_rows(&[vec![2.0], vec![2.0], vec![2.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(3);
        let sol = charikar_center(&m, &w, 1, 0.0, CenterParams::default());
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn empty_input() {
        let ps = PointSet::from_rows(&[vec![0.0]]);
        let m = EuclideanMetric::new(&ps);
        let sol = charikar_center(&m, &WeightedSet::new(), 3, 0.0, CenterParams::default());
        assert!(sol.centers.is_empty());
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn three_approximation_vs_bruteforce() {
        // Small random-ish instance; compare to exact (k=2, t=1).
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![((i * 31) % 17) as f64, ((i * 7) % 13) as f64])
            .collect();
        let ps = PointSet::from_rows(&rows);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(12);
        let sol = charikar_center(&m, &w, 2, 1.0, CenterParams::default());
        let mut opt = f64::INFINITY;
        for a in 0..12 {
            for b in 0..a {
                opt = opt.min(center_cost(&m, &[a, b], 1));
            }
        }
        assert!(
            sol.cost <= 3.0 * opt + 1e-9,
            "sol {} vs opt {}",
            sol.cost,
            opt
        );
    }
}
