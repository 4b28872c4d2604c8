//! **Theorem 3.10**: subquadratic centralized `(k,t)`-median/means by
//! sequential self-simulation of the distributed algorithm (§3.1).
//!
//! The quadratic-time Theorem 3.1 solver is turned into an
//! `O˜(n^{(2+2α)/(2+α)} k²)`-time one (Lemma 3.9) by splitting the input
//! into `s` arbitrary pieces, simulating the `s` sites sequentially (each
//! runs the solver on `n/s` points at the grid budgets), water-filling the
//! outlier budget exactly as Algorithm 1 does, and solving the merged
//! `O(sk + t)`-point weighted instance once. Balancing piece work against
//! coordinator work gives `s = n^{(1+α₀)/(2+α₀)}` — for the quadratic base
//! solver (`α₀ = 1`) that is `s = n^{2/3}`, pieces of size `n^{1/3}`, and
//! total time `O˜(t² + n^{4/3} k²)`. Recursing (`levels ≥ 2`) pushes the
//! exponent towards 1 at the cost of a `(c₀γ)^j` approximation factor.

use crate::allocation::allocate_outliers;
use crate::hull::{geometric_grid, ConvexProfile};
use dpc_cluster::{
    median_bicriteria, median_bicriteria_grid, BicriteriaParams, LocalSearchParams, Solution,
};
use dpc_metric::{
    CenterBlock, EuclideanMetric, Objective, PointSet, SquaredMetric, ThreadBudget, WeightedSet,
};

/// Tuning for [`subquadratic_median`].
#[derive(Clone, Copy, Debug)]
pub struct SubquadraticParams {
    /// Recursion depth `j` (`1` = one application of Lemma 3.9).
    pub levels: usize,
    /// Below this size the quadratic base solver runs directly.
    pub base_threshold: usize,
    /// Outlier relaxation `ε` (output excludes up to `(1+ε)·2^j·t`-ish; see
    /// Theorem 3.10's `2t`).
    pub eps: f64,
    /// Grid ratio `ρ` for per-piece budgets.
    pub rho: f64,
    /// `false` = median, `true` = means.
    pub means: bool,
    /// λ-bisection iterations in the base solver.
    pub lambda_iters: usize,
    /// Local-search tuning of the base solver.
    pub ls: LocalSearchParams,
    /// Thread budget for the bulk kernels (piece assignment, evaluation,
    /// base-solver distance passes). Wall-clock only.
    pub threads: ThreadBudget,
}

impl Default for SubquadraticParams {
    fn default() -> Self {
        Self {
            levels: 1,
            base_threshold: 256,
            eps: 1.0,
            rho: 2.0,
            means: false,
            lambda_iters: 10,
            ls: LocalSearchParams::default(),
            threads: ThreadBudget::serial(),
        }
    }
}

/// Output of the centralized subquadratic algorithm.
#[derive(Clone, Debug)]
pub struct CentralizedSolution {
    /// Chosen centers as coordinates.
    pub centers: PointSet,
    /// Objective value on the input, excluding the budget's worst points.
    pub cost: f64,
    /// Points excluded in the final evaluation.
    pub excluded: usize,
}

/// Runs the Theorem 3.10 algorithm: `sol(A, k, 2t)`-style bicriteria in
/// subquadratic time.
///
/// # Panics
/// Panics on an empty input or `k == 0`.
pub fn subquadratic_median(
    points: &PointSet,
    k: usize,
    t: usize,
    params: SubquadraticParams,
) -> CentralizedSolution {
    assert!(!points.is_empty(), "input must be non-empty");
    assert!(k > 0, "need at least one center");
    let centers = solve_rec(points, k, t, params.levels, &params);
    let budget = (((1.0 + params.eps) * t as f64).floor() as usize).min(points.len());
    let objective = if params.means {
        Objective::Means
    } else {
        Objective::Median
    };
    let (cost, excluded) = eval_coords(points, &centers, budget, objective, params.threads);
    CentralizedSolution {
        centers,
        cost,
        excluded,
    }
}

/// Recursive solver returning center *coordinates* (size ≤ 2k at inner
/// levels because the site role doubles centers, ≤ k at the top).
fn solve_rec(
    points: &PointSet,
    k: usize,
    t: usize,
    level: usize,
    params: &SubquadraticParams,
) -> PointSet {
    let n = points.len();
    if solves_directly(n, k, t, level, params) {
        return base_solve(points, k, t, params);
    }

    // s = n^{2/3} pieces of size ~ n^{1/3} (α₀ = 1 balance).
    let s = ((n as f64).powf(2.0 / 3.0).ceil() as usize).clamp(2, n.div_ceil(2).max(2));
    let piece_len = n.div_ceil(s);
    let pieces: Vec<PointSet> = (0..s)
        .map(|i| {
            let lo = i * piece_len;
            let hi = ((i + 1) * piece_len).min(n);
            let ids: Vec<usize> = (lo..hi.max(lo)).collect();
            points.subset(&ids)
        })
        .filter(|p| !p.is_empty())
        .collect();

    // Per-piece profiles on the geometric grid, solved by the
    // *lower-level* algorithm (the sequential simulation of the sites).
    let grid = geometric_grid(t, params.rho);
    let mut piece_sols: Vec<Vec<PointSet>> = Vec::with_capacity(pieces.len());
    let mut profiles: Vec<ConvexProfile> = Vec::with_capacity(pieces.len());
    let objective = if params.means {
        Objective::Means
    } else {
        Objective::Median
    };
    for piece in &pieces {
        // The budgets this piece solves directly share one grid solve,
        // exactly as a site's do; each answer is the one its own base
        // solve would give.
        let direct =
            |q: usize| q < piece.len() && solves_directly(piece.len(), 2 * k, q, level - 1, params);
        let direct_qs: Vec<usize> = grid.iter().copied().filter(|&q| direct(q)).collect();
        let mut direct_sols = base_solve_grid(piece, 2 * k, &direct_qs, params).into_iter();
        let mut sols = Vec::with_capacity(grid.len());
        let mut prof_pts = Vec::with_capacity(grid.len());
        for &q in &grid {
            if q >= piece.len() {
                prof_pts.push((q, 0.0));
                sols.push(piece.subset(&[0]));
                continue;
            }
            let centers = if direct(q) {
                direct_sols.next().expect("one solution per direct budget")
            } else {
                solve_rec(piece, 2 * k, q, level - 1, params)
            };
            let (cost, _) = eval_coords(piece, &centers, q, objective, params.threads);
            prof_pts.push((q, cost));
            sols.push(centers);
        }
        profiles.push(ConvexProfile::lower_hull(&prof_pts));
        piece_sols.push(sols);
    }

    // Water-fill the budget and build the merged weighted instance.
    let alloc = allocate_outliers(&profiles, t, params.rho);
    let mut merged = PointSet::new(points.dim());
    let mut weighted = WeightedSet::new();
    for (i, piece) in pieces.iter().enumerate() {
        let ti = profiles[i].next_vertex_at_or_after(alloc.t_i[i]);
        let gi = grid.binary_search(&ti).expect("vertex is a grid point");
        let centers = &piece_sols[i][gi];
        // Assign piece points to the local centers; worst ti become shipped
        // outliers, the rest aggregate onto centers.
        let budget = ti.min(piece.len());
        let block = CenterBlock::new(centers);
        let piece_ids: Vec<usize> = (0..piece.len()).collect();
        let assigned = block.assign(piece, &piece_ids, params.threads);
        let mut per: Vec<(usize, usize, f64)> = (0..piece.len())
            .map(|p| (p, assigned.pos[p], objective.transform(assigned.dist[p])))
            .collect();
        per.sort_by(|a, b| b.2.total_cmp(&a.2));
        let (outl, kept) = per.split_at(budget);
        let mut w = vec![0.0f64; centers.len()];
        for &(_, c, _) in kept {
            w[c] += 1.0;
        }
        for (c, &wc) in w.iter().enumerate() {
            if wc > 0.0 {
                let id = merged.push(centers.point(c));
                weighted.push(id, wc);
            }
        }
        for &(p, _, _) in outl {
            let id = merged.push(piece.point(p));
            weighted.push(id, 1.0);
        }
    }

    // Coordinator step: Theorem 3.1 solver on the merged instance.
    let mut ls = params.ls;
    ls.threads = params.threads;
    let bparams = BicriteriaParams {
        eps: params.eps,
        lambda_iters: params.lambda_iters,
        ls,
    };
    let sol = if params.means {
        let m = SquaredMetric::new(EuclideanMetric::new(&merged));
        median_bicriteria(&m, &weighted, k, t as f64, Objective::Median, bparams)
    } else {
        let m = EuclideanMetric::new(&merged);
        median_bicriteria(&m, &weighted, k, t as f64, Objective::Median, bparams)
    };
    merged.subset(&sol.centers)
}

/// Whether [`solve_rec`] solves `n` points at this level with the base
/// solver rather than recursing.
fn solves_directly(
    n: usize,
    k: usize,
    t: usize,
    level: usize,
    params: &SubquadraticParams,
) -> bool {
    level == 0 || n <= params.base_threshold.max(4 * k + 2 * t)
}

/// Direct quadratic solve, returning center coordinates.
fn base_solve(points: &PointSet, k: usize, t: usize, params: &SubquadraticParams) -> PointSet {
    base_solve_grid(points, k, &[t], params)
        .pop()
        .expect("one solution per budget")
}

/// [`base_solve`] at every budget of `budgets`, in order, through one
/// [`median_bicriteria_grid`] call.
fn base_solve_grid(
    points: &PointSet,
    k: usize,
    budgets: &[usize],
    params: &SubquadraticParams,
) -> Vec<PointSet> {
    if budgets.is_empty() {
        return Vec::new();
    }
    let w = WeightedSet::unit(points.len());
    let mut ls = params.ls;
    ls.threads = params.threads;
    let bparams = BicriteriaParams {
        eps: 0.0,
        lambda_iters: params.lambda_iters,
        ls,
    };
    let budgets: Vec<f64> = budgets.iter().map(|&t| t as f64).collect();
    let sols: Vec<Solution> = if params.means {
        let m = SquaredMetric::new(EuclideanMetric::new(points));
        median_bicriteria_grid(&m, &w, k, &budgets, Objective::Median, bparams)
    } else {
        let m = EuclideanMetric::new(points);
        median_bicriteria_grid(&m, &w, k, &budgets, Objective::Median, bparams)
    };
    sols.iter().map(|sol| points.subset(&sol.centers)).collect()
}

/// Evaluates coordinate centers on `points` with an integral exclusion
/// budget.
fn eval_coords(
    points: &PointSet,
    centers: &PointSet,
    budget: usize,
    objective: Objective,
    threads: ThreadBudget,
) -> (f64, usize) {
    if centers.is_empty() || points.is_empty() {
        return (0.0, 0);
    }
    let block = CenterBlock::new(centers);
    let ids: Vec<usize> = (0..points.len()).collect();
    let mut d = block.assign(points, &ids, threads).dist;
    for v in d.iter_mut() {
        *v = objective.transform(*v);
    }
    d.sort_by(|a, b| b.total_cmp(a));
    let excluded = budget.min(d.len());
    let rest = &d[excluded..];
    let cost = match objective {
        Objective::Center => rest.first().copied().unwrap_or(0.0),
        _ => rest.iter().sum(),
    };
    (cost, excluded)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clumpy instance with planted outliers, size ~n.
    fn instance(n: usize, outliers: usize) -> PointSet {
        let mut rows = Vec::with_capacity(n + outliers);
        for i in 0..n {
            let c = (i % 3) as f64 * 500.0;
            rows.push(vec![c + (i % 17) as f64 * 0.3, (i % 13) as f64 * 0.3]);
        }
        for o in 0..outliers {
            rows.push(vec![1e5 + o as f64 * 3e4, -8e4]);
        }
        PointSet::from_rows(&rows)
    }

    #[test]
    fn matches_direct_quality_on_medium_instance() {
        let ps = instance(600, 4);
        let t = 4;
        let sub = subquadratic_median(&ps, 3, t, SubquadraticParams::default());
        // Direct quadratic reference.
        let direct = base_solve(&ps, 3, t, &SubquadraticParams::default());
        let (dc, _) = eval_coords(
            &ps,
            &direct,
            2 * t,
            Objective::Median,
            ThreadBudget::serial(),
        );
        assert!(
            sub.cost <= 8.0 * dc.max(1.0) + 1e-6,
            "subquadratic {} vs direct {}",
            sub.cost,
            dc
        );
        // Planted outliers must not be paid for.
        assert!(sub.cost < 5e4, "cost {}", sub.cost);
    }

    #[test]
    fn small_input_short_circuits() {
        let ps = instance(50, 2);
        let sol = subquadratic_median(&ps, 2, 2, SubquadraticParams::default());
        assert!(sol.centers.len() <= 2);
        assert!(sol.cost.is_finite());
    }

    #[test]
    fn two_levels_recursion_runs() {
        let ps = instance(800, 3);
        let params = SubquadraticParams {
            levels: 2,
            base_threshold: 64,
            ..Default::default()
        };
        let sol = subquadratic_median(&ps, 3, 3, params);
        assert!(sol.cost < 1e5, "cost {}", sol.cost);
    }

    #[test]
    fn means_variant() {
        let ps = instance(400, 3);
        let params = SubquadraticParams {
            means: true,
            ..Default::default()
        };
        let sol = subquadratic_median(&ps, 3, 3, params);
        assert!(sol.cost < 1e7, "means cost {}", sol.cost);
    }

    #[test]
    fn t_zero() {
        let ps = instance(300, 0);
        let sol = subquadratic_median(&ps, 3, 0, SubquadraticParams::default());
        assert_eq!(sol.excluded, 0);
        assert!(sol.cost.is_finite());
    }
}
