//! Gonzalez's farthest-first traversal \[13\].
//!
//! Produces a re-ordering `p₁, p₂, …` of the points such that for every
//! prefix length `r`, the set `{p₁, …, p_r}` is a 2-approximate solution to
//! the `r`-center problem. The *insertion radius* of `p_r` — its distance to
//! the earlier points — is exactly the quantity Algorithm 2 uses as the
//! marginal `ℓ(i, q) = min{d(a_j, a_{k+q}) : j < k+q}`: it is non-increasing
//! in `r`, so the per-site profiles are automatically "convex enough" for the
//! water-filling allocation, with no hull computation needed.
//!
//! Runs in `O(m · n)` time for an `m`-point prefix over `n` points.

use dpc_metric::{Metric, NearestAssigner, ThreadBudget};
use dpc_obs::RecorderHandle;

/// Output of the traversal: the prefix ordering plus per-point bookkeeping.
#[derive(Clone, Debug)]
pub struct GonzalezOrdering {
    /// Selected point ids, in selection order.
    pub order: Vec<usize>,
    /// `radii[r]` = insertion radius of `order[r]` (distance to the previous
    /// selections); `radii[0] = f64::INFINITY` by convention.
    pub radii: Vec<f64>,
    /// For each input point, position (within `order`) of its nearest
    /// selected point, after the full prefix was selected.
    pub assignment: Vec<usize>,
    /// For each input point, the distance to its assigned selection.
    pub dist_to_center: Vec<f64>,
}

impl GonzalezOrdering {
    /// Number of selected points.
    pub fn prefix_len(&self) -> usize {
        self.order.len()
    }
}

/// Runs the farthest-first traversal over `ids`, selecting at most
/// `prefix_len` points (capped to `ids.len()`).
///
/// `start` selects the first point deterministically (position within `ids`);
/// the classic analysis holds for any start.
///
/// # Panics
/// Panics if `ids` is empty or `start >= ids.len()`.
pub fn gonzalez<M: Metric>(
    metric: &M,
    ids: &[usize],
    prefix_len: usize,
    start: usize,
) -> GonzalezOrdering {
    gonzalez_with(metric, ids, prefix_len, start, ThreadBudget::serial())
}

/// [`gonzalez`] with an explicit thread budget for the per-step relax
/// scan (the `O(n)` distance pass against the newest selection).
///
/// Each step relaxes the state against the newest selection through the
/// bulk [`Metric::relax_min_block`] hook, handing it the per-point norms
/// of [`Metric::relax_norms`] (Euclidean; empty for other metrics) so it
/// can skip points the reverse triangle inequality proves cannot improve.
/// The farthest-point scan then runs on the calling thread in index
/// order. Both follow the scalar traversal's strict-`<` rules, so the
/// ordering, radii, and assignments are identical to it at any budget.
pub fn gonzalez_with<M: Metric>(
    metric: &M,
    ids: &[usize],
    prefix_len: usize,
    start: usize,
    threads: ThreadBudget,
) -> GonzalezOrdering {
    gonzalez_recorded(
        metric,
        ids,
        prefix_len,
        start,
        threads,
        &RecorderHandle::noop(),
    )
}

/// [`gonzalez_with`] flushing bulk-kernel counters (one relax pass per
/// selection step) to `recorder`. The ordering, radii, and assignments
/// are identical to the unrecorded traversal.
pub fn gonzalez_recorded<M: Metric>(
    metric: &M,
    ids: &[usize],
    prefix_len: usize,
    start: usize,
    threads: ThreadBudget,
    recorder: &RecorderHandle,
) -> GonzalezOrdering {
    assert!(!ids.is_empty(), "gonzalez requires at least one point");
    assert!(start < ids.len(), "start index out of range");
    let n = ids.len();
    let m = prefix_len.min(n);
    let assigner = NearestAssigner::with_recorder(metric, threads, recorder);
    // Per-point norms amortized over every relax round: metrics with a
    // reverse-triangle bound (Euclidean) skip non-improvable points in
    // O(1) per point regardless of dimension, so the bulk relax wins
    // even where partial-distance pruning cannot pay for itself.
    let norms = metric.relax_norms(ids);

    let mut order = Vec::with_capacity(m);
    let mut radii = Vec::with_capacity(m);
    // Nearest selected distance / position per point (positions are into `order`).
    let mut best_d = vec![f64::INFINITY; n];
    let mut best_pos = vec![0usize; n];

    let mut next = start;
    let mut next_d = f64::INFINITY;
    for step in 0..m {
        let chosen = next;
        order.push(ids[chosen]);
        radii.push(next_d);
        // Bulk relax against the newly selected point (norm-bounded and/or
        // partial-distance pruned for Euclidean metrics), then find the
        // next farthest point in a sequential first-wins scan.
        assigner.relax_min(ids[chosen], ids, &norms, &mut best_d, &mut best_pos, step);
        let mut far_idx = 0usize;
        let mut far_d = -1.0f64;
        for (idx, &bd) in best_d.iter().enumerate() {
            if bd > far_d {
                far_d = bd;
                far_idx = idx;
            }
        }
        next = far_idx;
        next_d = far_d;
    }

    GonzalezOrdering {
        order,
        radii,
        assignment: best_pos,
        dist_to_center: best_d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_metric::{EuclideanMetric, PointSet};

    fn ids(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn selects_extremes_first() {
        // 0, 1, 2, 100: starting at 0, farthest is 100, then 2 (farthest
        // from {0,100}... actually 2 is at distance 2 from 0 and 98 from
        // 100 -> min 2; point 1 -> min 1; so 2 next).
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![100.0]]);
        let m = EuclideanMetric::new(&ps);
        let g = gonzalez(&m, &ids(4), 3, 0);
        assert_eq!(g.order, vec![0, 3, 2]);
        assert_eq!(g.radii[0], f64::INFINITY);
        assert_eq!(g.radii[1], 100.0);
        assert_eq!(g.radii[2], 2.0);
    }

    #[test]
    fn radii_non_increasing() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i * 37 % 23) as f64, (i * 17 % 11) as f64])
            .collect();
        let ps = PointSet::from_rows(&rows);
        let m = EuclideanMetric::new(&ps);
        let g = gonzalez(&m, &ids(40), 40, 0);
        for w in g.radii.windows(2) {
            assert!(w[0] >= w[1], "radii must be non-increasing: {:?}", g.radii);
        }
    }

    #[test]
    fn assignment_within_last_radius() {
        // Classic invariant: after selecting r points, every point is within
        // the *next* insertion radius of its nearest center; in particular
        // dist_to_center <= radii[r-1].
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i as f64).sin() * 50.0, (i as f64).cos() * 50.0])
            .collect();
        let ps = PointSet::from_rows(&rows);
        let m = EuclideanMetric::new(&ps);
        let g = gonzalez(&m, &ids(30), 5, 0);
        let last_r = g.radii[4];
        for (&d, &a) in g.dist_to_center.iter().zip(&g.assignment) {
            assert!(d <= last_r + 1e-9);
            assert!(a < 5);
        }
    }

    #[test]
    fn two_approximation_for_k_center() {
        // Brute-force optimal 2-center cost vs Gonzalez prefix of 2.
        let ps = PointSet::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![10.0, 10.0],
            vec![11.0, 10.0],
        ]);
        let m = EuclideanMetric::new(&ps);
        let g = gonzalez(&m, &ids(5), 2, 0);
        let gonz_cost = g.dist_to_center.iter().cloned().fold(0.0, f64::max);
        // exact optimum over all pairs
        let mut best = f64::INFINITY;
        for a in 0..5 {
            for b in 0..a {
                let c = (0..5)
                    .map(|p| m.dist(p, a).min(m.dist(p, b)))
                    .fold(0.0, f64::max);
                best = best.min(c);
            }
        }
        assert!(gonz_cost <= 2.0 * best + 1e-9);
    }

    #[test]
    fn prefix_longer_than_input_caps() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![5.0]]);
        let m = EuclideanMetric::new(&ps);
        let g = gonzalez(&m, &ids(2), 10, 0);
        assert_eq!(g.prefix_len(), 2);
    }

    #[test]
    fn works_on_subset_ids() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let m = EuclideanMetric::new(&ps);
        let g = gonzalez(&m, &[1, 3], 2, 0);
        assert_eq!(g.order, vec![1, 3]);
        assert_eq!(g.radii[1], 2.0);
    }

    #[test]
    fn single_point() {
        let ps = PointSet::from_rows(&[vec![42.0]]);
        let m = EuclideanMetric::new(&ps);
        let g = gonzalez(&m, &[0], 3, 0);
        assert_eq!(g.order, vec![0]);
        assert_eq!(g.dist_to_center, vec![0.0]);
    }
}
