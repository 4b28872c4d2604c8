//! Mergeable per-block summaries — the coreset objects of the streaming
//! layer.
//!
//! A [`Summary`] is exactly the shape Algorithm 1/2 sites ship to the
//! coordinator: `2k` weighted centers (each standing in for the points
//! attached to it) plus up to `t` explicitly retained outlier candidates.
//! Two summaries *merge* by clustering the union of their weighted points
//! again with the same `(2k, t)` budget — the reduce step of a classic
//! merge-and-reduce tree. Total weight is conserved exactly by
//! construction, the per-summary size never exceeds `2k + t + 1` entries,
//! and the accumulated representation error composes additively for
//! median/center (by the triangle inequality) and with factor 2 per level
//! for means (relaxed triangle inequality), which [`Summary::cost_bound`]
//! tracks.

use dpc_cluster::{
    charikar_center, median_bicriteria_grid, BicriteriaParams, CenterParams, LocalSearchParams,
    Solution,
};
use dpc_metric::{EuclideanMetric, Objective, PointSet, SquaredMetric, WeightedSet};

/// Budgets and solver knobs shared by every summarize/reduce step.
#[derive(Clone, Copy, Debug)]
pub struct SummaryParams {
    /// Number of final centers `k`; summaries keep `2k` (the same
    /// preclustering headroom Algorithm 1 uses at sites).
    pub k: usize,
    /// Outlier budget `t` tracked through every level: each summary retains
    /// at most `t` units of outlier weight explicitly.
    pub t: usize,
    /// Which objective the summaries are built for.
    pub objective: Objective,
    /// λ-bisection iterations inside the bicriteria solver.
    pub lambda_iters: usize,
    /// Inner local-search tuning.
    pub ls: LocalSearchParams,
}

impl SummaryParams {
    /// Sensible defaults for `(k, t)`-median summaries.
    pub fn new(k: usize, t: usize) -> Self {
        Self {
            k,
            t,
            objective: Objective::Median,
            lambda_iters: 12,
            ls: LocalSearchParams::default(),
        }
    }

    fn solver_params(&self) -> BicriteriaParams {
        // Summaries are exact-budget objects: relaxation happens only at
        // query time, never inside the tree.
        BicriteriaParams {
            eps: 0.0,
            lambda_iters: self.lambda_iters,
            ls: self.ls,
        }
    }

    /// Hard cap on the entries a single summary may hold: `2k` centers,
    /// `t` units of outlier weight (at most `t` whole entries) plus one
    /// possible fractional remainder from a partial exclusion.
    pub fn max_entries(&self) -> usize {
        2 * self.k + self.t + 1
    }
}

/// Runs the objective-appropriate weighted `(k', (1+ε)t')` solver on an
/// instance whose [`WeightedSet`] ids index `points` directly.
///
/// `params.eps` relaxes the outlier budget for every objective: the
/// median/means solver applies it internally; the center solver takes the
/// relaxed budget directly (it has no ε of its own). `params.ls` tunes
/// only the median/means local search — `charikar_center` is
/// deterministic. This is `solve_weighted_grid` over the single budget
/// `t`.
pub fn solve_weighted(
    points: &PointSet,
    weights: &WeightedSet,
    k: usize,
    t: f64,
    objective: Objective,
    params: BicriteriaParams,
) -> Solution {
    solve_weighted_grid(points, weights, k, &[t], objective, params)
        .pop()
        .expect("one solution per budget")
}

/// [`solve_weighted`] at every budget of `budgets`, in order. The
/// median/means objectives solve the whole list with one
/// [`median_bicriteria_grid`] call; the center objective runs
/// `charikar_center` once per budget.
pub(crate) fn solve_weighted_grid(
    points: &PointSet,
    weights: &WeightedSet,
    k: usize,
    budgets: &[f64],
    objective: Objective,
    params: BicriteriaParams,
) -> Vec<Solution> {
    match objective {
        Objective::Median => {
            let m = EuclideanMetric::new(points);
            median_bicriteria_grid(&m, weights, k, budgets, Objective::Median, params)
        }
        Objective::Means => {
            let m = SquaredMetric::new(EuclideanMetric::new(points));
            median_bicriteria_grid(&m, weights, k, budgets, Objective::Median, params)
        }
        Objective::Center => {
            let m = EuclideanMetric::new(points);
            budgets
                .iter()
                .map(|&t| {
                    charikar_center(
                        &m,
                        weights,
                        k,
                        t * (1.0 + params.eps),
                        CenterParams {
                            threads: params.ls.threads,
                            ..CenterParams::default()
                        },
                    )
                })
                .collect()
        }
    }
}

/// A weighted coreset for one contiguous chunk of the stream.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Representative centers.
    pub centers: PointSet,
    /// Retained weight attached to each center.
    pub center_weights: Vec<f64>,
    /// Outlier candidates kept verbatim (so later levels and the final
    /// query can still disregard them).
    pub outliers: PointSet,
    /// Excluded weight carried by each outlier entry.
    pub outlier_weights: Vec<f64>,
    /// Merge-and-reduce level: 0 for a freshly summarized block,
    /// `max(a,b) + 1` after a merge.
    pub level: u32,
    /// Upper bound on the accumulated representation error of this summary
    /// against the raw points it stands for (see module docs for how it
    /// composes per objective).
    pub cost_bound: f64,
}

impl Summary {
    /// An empty summary (weight 0).
    pub fn empty(dim: usize) -> Self {
        Self {
            centers: PointSet::new(dim),
            center_weights: Vec::new(),
            outliers: PointSet::new(dim),
            outlier_weights: Vec::new(),
            level: 0,
            cost_bound: 0.0,
        }
    }

    /// Builds a summary from reduce-step output (a [`SummaryMsg`] carries
    /// exactly the entry layout a summary stores).
    ///
    /// [`SummaryMsg`]: crate::wire::SummaryMsg
    fn from_msg(msg: crate::wire::SummaryMsg, level: u32, cost_bound: f64) -> Self {
        Self {
            centers: msg.centers,
            center_weights: msg.weights,
            outliers: msg.outliers,
            outlier_weights: msg.outlier_weights,
            level,
            cost_bound,
        }
    }

    /// Summarizes one block of raw (unit-weight) points.
    ///
    /// Blocks no larger than the summary budget are kept verbatim (an
    /// exact, zero-error summary); larger blocks are clustered with the
    /// `(2k, t)` bicriteria solver and represented by weighted centers
    /// plus their excluded points.
    pub fn from_block(block: &PointSet, params: &SummaryParams) -> Self {
        let n = block.len();
        if n <= params.max_entries() {
            return Self {
                centers: block.clone(),
                center_weights: vec![1.0; n],
                outliers: PointSet::new(block.dim()),
                outlier_weights: Vec::new(),
                level: 0,
                cost_bound: 0.0,
            };
        }
        let w = WeightedSet::unit(n);
        let (msg, cost) = reduce(block, &w, params);
        Self::from_msg(msg, 0, cost)
    }

    /// Merges two summaries into one at the next level, re-reducing the
    /// union of their weighted points when it exceeds the size cap.
    pub fn merge(a: &Summary, b: &Summary, params: &SummaryParams) -> Summary {
        assert_eq!(a.dim(), b.dim(), "summary dimension mismatch");
        let level = a.level.max(b.level) + 1;
        let mut pts = PointSet::new(a.dim());
        let mut w = WeightedSet::new();
        a.append_to(&mut pts, &mut w);
        b.append_to(&mut pts, &mut w);
        if pts.len() <= params.max_entries() {
            // Union still fits: concatenate without a lossy reduce. The
            // outlier sets concatenate too (their combined weight may
            // transiently exceed t; the next reduce re-selects the worst t).
            let mut centers = a.centers.clone();
            centers.extend_from(&b.centers);
            let mut center_weights = a.center_weights.clone();
            center_weights.extend_from_slice(&b.center_weights);
            let mut outliers = a.outliers.clone();
            outliers.extend_from(&b.outliers);
            let mut outlier_weights = a.outlier_weights.clone();
            outlier_weights.extend_from_slice(&b.outlier_weights);
            return Summary {
                centers,
                center_weights,
                outliers,
                outlier_weights,
                level,
                cost_bound: a.cost_bound + b.cost_bound,
            };
        }
        let (msg, cost) = reduce(&pts, &w, params);
        let cost_bound = match params.objective {
            // d(x,D) <= d(x,c) + d(c,D): errors add up the tree.
            Objective::Median | Objective::Center => a.cost_bound + b.cost_bound + cost,
            // d(x,D)^2 <= 2 d(x,c)^2 + 2 d(c,D)^2: factor 2 per level.
            Objective::Means => 2.0 * (a.cost_bound + b.cost_bound) + 2.0 * cost,
        };
        Summary::from_msg(msg, level, cost_bound)
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.centers.dim()
    }

    /// Number of stored entries (centers + outlier candidates).
    pub fn len(&self) -> usize {
        self.centers.len() + self.outliers.len()
    }

    /// True when the summary represents no weight.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty() && self.outliers.is_empty()
    }

    /// Total represented weight (= number of raw points summarized).
    pub fn total_weight(&self) -> f64 {
        self.center_weights.iter().sum::<f64>() + self.outlier_weights.iter().sum::<f64>()
    }

    /// Total weight currently marked as outlier.
    pub fn outlier_weight(&self) -> f64 {
        self.outlier_weights.iter().sum()
    }

    /// Appends this summary's entries to a weighted instance (ids aligned
    /// with positions in `pts`).
    pub fn append_to(&self, pts: &mut PointSet, w: &mut WeightedSet) {
        append_weighted(
            pts,
            w,
            &self.centers,
            &self.center_weights,
            &self.outliers,
            &self.outlier_weights,
        );
    }
}

/// Appends weighted centers followed by weighted outlier entries to an
/// instance whose [`WeightedSet`] ids align with positions in `pts` — the
/// one entry layout shared by [`Summary`] and [`crate::wire::SummaryMsg`].
pub(crate) fn append_weighted(
    pts: &mut PointSet,
    w: &mut WeightedSet,
    centers: &PointSet,
    center_weights: &[f64],
    outliers: &PointSet,
    outlier_weights: &[f64],
) {
    let off = pts.extend_from(centers);
    for (j, &cw) in center_weights.iter().enumerate() {
        w.push(off + j, cw);
    }
    let off = pts.extend_from(outliers);
    for (j, &ow) in outlier_weights.iter().enumerate() {
        w.push(off + j, ow);
    }
}

/// The reduce step: clusters a weighted instance with budget `(2k, t)` and
/// splits the result into weighted centers, explicit outlier entries
/// (weight conserved exactly), and the representation cost of the step.
fn reduce(
    pts: &PointSet,
    w: &WeightedSet,
    params: &SummaryParams,
) -> (crate::wire::SummaryMsg, f64) {
    let sol = solve_weighted(
        pts,
        w,
        2 * params.k,
        params.t as f64,
        params.objective,
        params.solver_params(),
    );
    let cost = sol.cost;
    let msg = crate::wire::SummaryMsg::from_solution(pts, w, &sol, params.t as u64);
    (msg, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(offset: f64, n: usize) -> PointSet {
        let mut rows = Vec::new();
        for i in 0..n {
            rows.push(vec![offset + 0.01 * (i % 7) as f64, 0.0]);
        }
        PointSet::from_rows(&rows)
    }

    #[test]
    fn small_block_is_exact() {
        let b = block(0.0, 5);
        let s = Summary::from_block(&b, &SummaryParams::new(2, 3));
        assert_eq!(s.len(), 5);
        assert_eq!(s.total_weight(), 5.0);
        assert_eq!(s.cost_bound, 0.0);
        assert_eq!(s.level, 0);
    }

    #[test]
    fn large_block_respects_size_cap_and_weight() {
        let mut b = block(0.0, 30);
        b.extend_from(&block(50.0, 30));
        b.push(&[1e5, 1e5]); // outlier
        let p = SummaryParams::new(2, 1);
        let s = Summary::from_block(&b, &p);
        assert!(s.len() <= p.max_entries(), "{} entries", s.len());
        assert!((s.total_weight() - 61.0).abs() < 1e-9);
        assert!(s.outlier_weight() <= 1.0 + 1e-9);
    }

    #[test]
    fn merge_conserves_weight_and_caps_size() {
        let p = SummaryParams::new(2, 2);
        let a = Summary::from_block(&block(0.0, 40), &p);
        let b = Summary::from_block(&block(80.0, 40), &p);
        let m = Summary::merge(&a, &b, &p);
        assert!((m.total_weight() - 80.0).abs() < 1e-9);
        assert!(m.len() <= p.max_entries());
        assert_eq!(m.level, 1);
        assert!(m.cost_bound >= a.cost_bound + b.cost_bound);
    }

    #[test]
    fn merge_of_tiny_summaries_is_lossless() {
        let p = SummaryParams::new(3, 2);
        let a = Summary::from_block(&block(0.0, 3), &p);
        let b = Summary::from_block(&block(9.0, 3), &p);
        let m = Summary::merge(&a, &b, &p);
        assert_eq!(m.len(), 6);
        assert_eq!(m.cost_bound, 0.0);
    }

    #[test]
    fn append_to_builds_aligned_instance() {
        let p = SummaryParams::new(2, 1);
        let s = Summary::from_block(&block(0.0, 4), &p);
        let mut pts = PointSet::new(2);
        let mut w = WeightedSet::new();
        s.append_to(&mut pts, &mut w);
        assert_eq!(pts.len(), w.len());
        assert!((w.total_weight() - 4.0).abs() < 1e-12);
    }
}
