//! **Algorithm 1**: distributed `(k, (1+ε)t)`-median / means clustering
//! (Theorem 3.6), plus the `ρ = 1+δ` counts-only variant (Theorem 3.8).
//!
//! The 2-round protocol (plus the configuration kick, which the paper folds
//! into round 1):
//!
//! 1. each site computes local bicriteria solutions `sol(A_i, 2k, q)` for
//!    every `q` in the geometric grid `I` — in one grid solve
//!    ([`dpc_cluster::median_bicriteria_grid`]), whose λ-bisections share
//!    every local search their paths have in common — takes the lower
//!    convex hull of the cost profile, and ships the `O(log t)` hull
//!    vertices;
//! 2. the coordinator water-fills the outlier budget across sites
//!    ([`crate::allocation`]) and returns the rank-`ρt` threshold marginal
//!    `ℓ(i₀, q₀)` to every site;
//! 3. each site derives its own `t_i` from the threshold (a hull vertex for
//!    all `i ≠ i₀`; the exceptional site snaps up to the next vertex — or,
//!    in the δ-variant, merges the two bracketing vertex solutions into a
//!    `4k`-center solution, Lemma 3.7) and ships the `2k` weighted centers
//!    plus its `t_i` unassigned points (counts only in the δ-variant);
//! 4. the coordinator solves the induced weighted `(k, (1+ε)t)` instance
//!    with the Theorem 3.1 solver.
//!
//! Communication: `O((sk + t)·B)` bytes (`O(s/δ + sk·B)` for the
//! δ-variant) — measured, not just bounded, by the runner.

use crate::allocation::{site_budget_from_threshold, threshold_round};
use crate::hull::{geometric_grid, ConvexProfile};
use crate::merge::merge_solutions_with;
use crate::wire::{merge_summaries, DistributedSolution, PreclusterMsg, ThresholdMsg};
use bytes::Bytes;
use dpc_cluster::{
    median_bicriteria, median_bicriteria_grid, median_bicriteria_relaxed_centers, BicriteriaParams,
    LocalSearchParams, Solution,
};
use dpc_codec::Encoding;
use dpc_coordinator::{run_fleet, Coordinator, CoordinatorStep, ProtocolOutput, RunOptions, Site};
use dpc_metric::{
    EuclideanMetric, Metric, Objective, PointSet, SquaredMetric, ThreadBudget, WeightedSet,
    WireWriter,
};

/// Which flavour of Algorithm 1 to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaVariant {
    /// Standard Algorithm 1 (`ρ = 2` recommended): sites ship their `t_i`
    /// unassigned points; the output excludes `(1+ε)t` points
    /// (Theorem 3.6).
    ShipOutliers,
    /// Theorem 3.8 (`ρ = 1+δ` recommended): sites ship only the *count*
    /// `t_i`; the exceptional site ships a merged `4k`-center solution; the
    /// output excludes up to `(2+ε+δ)t` points but communication drops to
    /// `O(s/δ + sk·B)`.
    CountsOnly,
}

/// Configuration for the distributed median/means protocol.
#[derive(Clone, Copy, Debug)]
pub struct MedianConfig {
    /// Number of centers `k`.
    pub k: usize,
    /// Outlier budget `t`.
    pub t: usize,
    /// Grid/allocation ratio `ρ` (`2.0` for Theorem 3.6, `1+δ` for 3.8).
    pub rho: f64,
    /// Coordinator-side outlier relaxation `ε` (output excludes `(1+ε)t`).
    pub eps: f64,
    /// `false` = median (distances), `true` = means (squared distances).
    pub means: bool,
    /// Ship outliers or counts only.
    pub variant: DeltaVariant,
    /// λ-bisection iterations inside the Theorem 3.1 substitute.
    pub lambda_iters: usize,
    /// Inner local-search tuning (its `threads` is replaced by
    /// [`Self::threads`]).
    pub ls: LocalSearchParams,
    /// Use the second form of Theorem 3.1 at the coordinator: open up to
    /// `(1+ε)k` centers but exclude only exactly `t` weight (Table 2's
    /// `(1+ε)k` rows). The 2-round and the one-round protocols share the
    /// coordinator solve, so both honour it. No job, CLI flag or
    /// benchmark sets it; only the library's own tests do.
    pub relax_centers: bool,
    /// Thread budget for the bulk distance kernels: the site grid solve,
    /// evaluation and merge, and the coordinator solve (the local search
    /// runs with this budget in place of `ls.threads`). Sites get it only
    /// when they run one at a time ([`RunOptions::site_threads`]); the
    /// coordinator always does. Wall-clock only — transcripts, selected
    /// centers, and costs are identical at any budget.
    pub threads: ThreadBudget,
    /// Wire encoding every protocol message is framed with.
    /// [`Encoding::Raw`] (the default) keeps the exact legacy byte
    /// layout; lossy encodings narrow shipped coordinates within the
    /// codec's declared per-coordinate error envelope.
    pub encoding: Encoding,
}

impl MedianConfig {
    /// Sensible defaults for `(k, t)`-median with `ρ = 2`, `ε = 1`.
    pub fn new(k: usize, t: usize) -> Self {
        Self {
            k,
            t,
            rho: 2.0,
            eps: 1.0,
            means: false,
            variant: DeltaVariant::ShipOutliers,
            lambda_iters: 12,
            ls: LocalSearchParams::default(),
            relax_centers: false,
            threads: ThreadBudget::serial(),
            encoding: Encoding::Raw,
        }
    }

    /// Frames every protocol message with the given wire encoding.
    pub fn encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Caps the bulk-kernel thread budget (per site / coordinator solve).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = ThreadBudget::new(n);
        self
    }

    /// Switches the coordinator to the `(1+ε)k` center-relaxed output
    /// (exactly `t` excluded).
    pub fn relax_centers(mut self) -> Self {
        self.relax_centers = true;
        self
    }

    /// Switches to the means objective.
    pub fn means(mut self) -> Self {
        self.means = true;
        self
    }

    /// Switches to the Theorem 3.8 counts-only variant with ratio `1+δ`.
    pub fn counts_only(mut self, delta: f64) -> Self {
        self.variant = DeltaVariant::CountsOnly;
        self.rho = 1.0 + delta;
        self
    }

    fn site_solver_params(&self, site_id: usize) -> BicriteriaParams {
        // Sites solve at *exact* budgets (the grid point q), so no
        // relaxation inside; relaxation happens at the coordinator. Each
        // site offsets the search seed by its id.
        let mut ls = self.ls;
        ls.seed = ls.seed.wrapping_add(site_id as u64);
        ls.threads = self.threads;
        BicriteriaParams {
            eps: 0.0,
            lambda_iters: self.lambda_iters,
            ls,
        }
    }

    fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        w.put_varint(self.k as u64);
        w.put_varint(self.t as u64);
        w.put_f64(self.rho);
        w.put_f64(self.eps);
        w.put_varint(u64::from(self.means));
        w.put_varint(u64::from(self.variant == DeltaVariant::CountsOnly));
        // The kick is framed like every other message so the driver can
        // account raw vs compressed bytes uniformly (sites are handed
        // their config at construction and never decode it).
        dpc_codec::frame(self.encoding, w, &[])
    }
}

/// A site's local bicriteria `(2k, q)` solutions at each exact budget `q`
/// of `budgets`, in one grid solve.
pub(crate) fn site_grid_solve(
    data: &PointSet,
    site_id: usize,
    cfg: &MedianConfig,
    budgets: &[f64],
) -> Vec<Solution> {
    let params = cfg.site_solver_params(site_id);
    let w = WeightedSet::unit(data.len());
    let k = 2 * cfg.k;
    if cfg.means {
        let m = SquaredMetric::new(EuclideanMetric::new(data));
        median_bicriteria_grid(&m, &w, k, budgets, Objective::Median, params)
    } else {
        let m = EuclideanMetric::new(data);
        median_bicriteria_grid(&m, &w, k, budgets, Objective::Median, params)
    }
}

/// Re-evaluates `centers` on a shard at an exact integral budget, returning
/// the full assignment record.
pub(crate) fn local_evaluate(
    data: &PointSet,
    means: bool,
    centers: Vec<usize>,
    budget: f64,
    threads: ThreadBudget,
) -> Solution {
    let w = WeightedSet::unit(data.len());
    if means {
        let m = SquaredMetric::new(EuclideanMetric::new(data));
        Solution::evaluate_with(&m, &w, centers, budget, Objective::Median, threads)
    } else {
        let m = EuclideanMetric::new(data);
        Solution::evaluate_with(&m, &w, centers, budget, Objective::Median, threads)
    }
}

/// Builds the site→coordinator preclustering summary from a local solution.
pub(crate) fn precluster_msg(
    data: &PointSet,
    sol: &Solution,
    ship_outliers: bool,
    t_i: usize,
) -> PreclusterMsg {
    let excluded: Vec<usize> = sol.outlier_positions();
    let mut is_out = vec![false; data.len()];
    for &e in &excluded {
        is_out[e] = true;
    }
    let mut weights = vec![0.0f64; sol.centers.len()];
    for (e, &a) in sol.assignment.iter().enumerate() {
        if !is_out[e] {
            weights[a] += 1.0;
        }
    }
    let centers = data.subset(&sol.centers);
    let outliers = if ship_outliers {
        data.subset(&excluded)
    } else {
        PointSet::new(data.dim())
    };
    PreclusterMsg {
        centers,
        weights,
        outliers,
        t_i: t_i as u64,
    }
}

/// Site-side state of Algorithm 1.
struct MedianSite<'a> {
    data: &'a PointSet,
    site_id: usize,
    cfg: MedianConfig,
    grid: Vec<usize>,
    /// One local solution per grid point (empty shard ⇒ empty).
    sols: Vec<Solution>,
    profile: Option<ConvexProfile>,
}

impl<'a> MedianSite<'a> {
    fn new(data: &'a PointSet, site_id: usize, cfg: MedianConfig) -> Self {
        Self {
            data,
            site_id,
            cfg,
            grid: Vec::new(),
            sols: Vec::new(),
            profile: None,
        }
    }

    /// Round 0: build the cost profile and ship its hull.
    fn build_profile(&mut self) -> Bytes {
        self.grid = geometric_grid(self.cfg.t, self.cfg.rho.max(1.0 + 1e-9));
        let n = self.data.len();
        // One grid solve covers every non-degenerate grid point; the
        // grid is sorted, so those are a prefix.
        let solvable = self.grid.partition_point(|&q| q < n);
        let budgets: Vec<f64> = self.grid[..solvable].iter().map(|&q| q as f64).collect();
        self.sols = site_grid_solve(self.data, self.site_id, &self.cfg, &budgets);
        // Degenerate grid points (q >= n): the whole shard can be ignored.
        self.sols.resize_with(self.grid.len(), || Solution {
            centers: if n == 0 { Vec::new() } else { vec![0] },
            cost: 0.0,
            outliers: Vec::new(),
            assignment: vec![0; n],
        });
        let pts: Vec<(usize, f64)> = self
            .grid
            .iter()
            .zip(&self.sols)
            .map(|(&q, sol)| (q, sol.cost))
            .collect();
        let profile = ConvexProfile::lower_hull(&pts);
        let bytes = profile.encode_with(self.cfg.encoding);
        self.profile = Some(profile);
        bytes
    }

    /// Round 1: derive `t_i`, pick/merge the local solution, ship it.
    fn respond_threshold(&mut self, msg: &Bytes) -> Bytes {
        let thr = ThresholdMsg::decode_with(self.cfg.encoding, msg.clone());
        let prof = self.profile.as_ref().expect("profile built in round 0");
        let n = self.data.len();
        if n == 0 {
            return PreclusterMsg::empty(self.data.dim()).encode_with(self.cfg.encoding);
        }
        let ship = self.cfg.variant == DeltaVariant::ShipOutliers;

        if thr.exceptional && self.cfg.variant == DeltaVariant::CountsOnly {
            // Lemma 3.7 merge of the two vertex solutions bracketing q₀.
            let ti = (thr.q0 as usize).min(self.cfg.t);
            let lo_v = prof
                .vertices()
                .filter(|&(q, _)| q <= ti)
                .map(|(q, _)| q)
                .last()
                .unwrap_or(0);
            let hi_v = prof.next_vertex_at_or_after(ti);
            let s1 = &self.sols[self.grid_index(lo_v)];
            let s2 = &self.sols[self.grid_index(hi_v)];
            let merged = self.merge_local(s1, s2, ti);
            return precluster_msg(self.data, &merged, false, ti).encode_with(self.cfg.encoding);
        }

        let ti = site_budget_from_threshold(prof, self.site_id, self.cfg.t, &thr);
        // Non-exceptional t_i is always a hull vertex (Lemma 3.4); hull
        // vertices are grid points, so the round-0 solution is reusable.
        let gi = self.grid_index(ti);
        let centers = self.sols[gi].centers.clone();
        let budget = (ti.min(n)) as f64;
        let sol = local_evaluate(self.data, self.cfg.means, centers, budget, self.cfg.threads);
        precluster_msg(self.data, &sol, ship, ti).encode_with(self.cfg.encoding)
    }

    fn grid_index(&self, q: usize) -> usize {
        self.grid
            .binary_search(&q)
            .unwrap_or_else(|_| panic!("t_i = {q} is not a grid point (grid {:?})", self.grid))
    }

    fn merge_local(&self, s1: &Solution, s2: &Solution, ti: usize) -> Solution {
        let w = WeightedSet::unit(self.data.len());
        let budget = (ti.min(self.data.len())) as f64;
        if self.cfg.means {
            let m = SquaredMetric::new(EuclideanMetric::new(self.data));
            merge_solutions_with(&m, &w, s1, s2, budget, Objective::Median, self.cfg.threads)
        } else {
            let m = EuclideanMetric::new(self.data);
            merge_solutions_with(&m, &w, s1, s2, budget, Objective::Median, self.cfg.threads)
        }
    }
}

impl Site for MedianSite<'_> {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        match round {
            0 => self.build_profile(),
            1 => self.respond_threshold(msg),
            r => panic!("median site has no round {r}"),
        }
    }
}

/// Coordinator-side state of Algorithm 1.
struct MedianCoordinator {
    cfg: MedianConfig,
    dim: usize,
    result: Option<DistributedSolution>,
}

impl Coordinator for MedianCoordinator {
    type Output = DistributedSolution;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        match round {
            0 => CoordinatorStep::Broadcast(self.cfg.encode()),
            1 => CoordinatorStep::Messages(threshold_round(
                &replies,
                self.cfg.t,
                self.cfg.rho,
                self.cfg.encoding,
            )),
            2 => {
                self.result = Some(solve_summaries(&self.cfg, self.dim, replies));
                CoordinatorStep::Finish
            }
            r => panic!("median coordinator has no round {r}"),
        }
    }

    fn finish(self) -> DistributedSolution {
        self.result.expect("protocol finished")
    }
}

/// The coordinator's final solve: round 2 of Algorithm 1, and the only
/// round of the one-round protocol. Merges the summaries into one
/// weighted instance and runs the Theorem 3.1 solver with the `(1+ε)t`
/// budget (`t`, ε-relaxed inside the solver). In the counts-only variant
/// the `t_i` locally ignored points were never shipped, hence the
/// `(2+ε+δ)t` total of Theorem 3.8. Sites that dropped out contribute
/// nothing: their points are simply absent from the merged instance.
pub(crate) fn solve_summaries(
    cfg: &MedianConfig,
    dim: usize,
    replies: Vec<Option<Bytes>>,
) -> DistributedSolution {
    let (merged, weighted, shipped) = merge_summaries(replies, cfg.encoding, dim);
    if weighted.is_empty() {
        return DistributedSolution {
            centers: PointSet::new(dim),
            coordinator_cost: 0.0,
            excluded_weight: 0.0,
            shipped_outliers: 0,
        };
    }
    let sol = if cfg.means {
        let m = SquaredMetric::new(EuclideanMetric::new(&merged));
        coordinator_solve(&m, &weighted, cfg)
    } else {
        coordinator_solve(&EuclideanMetric::new(&merged), &weighted, cfg)
    };
    DistributedSolution {
        centers: merged.subset(&sol.centers),
        coordinator_cost: sol.cost,
        excluded_weight: sol.outlier_weight(),
        shipped_outliers: shipped,
    }
}

/// The Theorem 3.1 solve of [`solve_summaries`], in the form
/// [`MedianConfig::relax_centers`] picks.
fn coordinator_solve<M: Metric>(m: &M, w: &WeightedSet, cfg: &MedianConfig) -> Solution {
    let mut ls = cfg.ls;
    ls.threads = cfg.threads;
    let params = BicriteriaParams {
        eps: cfg.eps,
        lambda_iters: cfg.lambda_iters,
        ls,
    };
    let solve = if cfg.relax_centers {
        median_bicriteria_relaxed_centers::<M>
    } else {
        median_bicriteria::<M>
    };
    solve(m, w, cfg.k, cfg.t as f64, Objective::Median, params)
}

/// Runs the full distributed `(k,(1+ε)t)`-median/means protocol over the
/// given shards.
///
/// Returns the coordinator's solution plus the complete communication /
/// compute accounting.
pub fn run_distributed_median(
    shards: &[PointSet],
    cfg: MedianConfig,
    options: RunOptions,
) -> ProtocolOutput<DistributedSolution> {
    // The driver needs the encoding to account raw vs compressed bytes.
    run_fleet(
        shards,
        cfg.threads,
        options.encoding(cfg.encoding),
        |i, ps, threads| MedianSite::new(ps, i, MedianConfig { threads, ..cfg }),
        || MedianCoordinator {
            cfg,
            dim: shards[0].dim(),
            result: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_on_full_data;

    /// Two sites, each with a clump; outliers planted on site 1.
    fn shards_with_outliers() -> Vec<PointSet> {
        let mut a = Vec::new();
        for i in 0..20 {
            a.push(vec![(i % 5) as f64 * 0.1, 0.0]);
        }
        let mut b = Vec::new();
        for i in 0..20 {
            b.push(vec![200.0 + (i % 5) as f64 * 0.1, 0.0]);
        }
        b.push(vec![5e4, 0.0]);
        b.push(vec![-7e4, 0.0]);
        b.push(vec![9e4, 9e4]);
        vec![PointSet::from_rows(&a), PointSet::from_rows(&b)]
    }

    #[test]
    fn recovers_clumps_and_outliers() {
        let shards = shards_with_outliers();
        let cfg = MedianConfig::new(2, 3);
        let out = run_distributed_median(&shards, cfg, RunOptions::sequential());
        let sol = out.output;
        // Evaluate on the full data with the (1+eps)t budget.
        let (cost, _) = evaluate_on_full_data(&shards, &sol.centers, 6, Objective::Median);
        assert!(cost < 50.0, "true cost {cost}");
        assert_eq!(out.stats.num_rounds(), 2); // the paper's 2 rounds
        assert!(sol.shipped_outliers <= 3 * 3); // Σ t_i ≤ ρt + t = 3t
    }

    #[test]
    #[should_panic(expected = "need at least one site")]
    fn empty_fleet_is_rejected() {
        // The coordinator reads the first shard's dimension; that must
        // not turn the empty-fleet message into an index panic.
        let _ = run_distributed_median(&[], MedianConfig::new(2, 3), RunOptions::sequential());
    }

    #[test]
    fn means_variant_runs() {
        let shards = shards_with_outliers();
        let cfg = MedianConfig::new(2, 3).means();
        let out = run_distributed_median(&shards, cfg, RunOptions::sequential());
        let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 6, Objective::Means);
        assert!(cost < 100.0, "true means cost {cost}");
    }

    #[test]
    fn counts_only_ships_no_outliers() {
        let shards = shards_with_outliers();
        let cfg = MedianConfig::new(2, 3).counts_only(0.5);
        let out = run_distributed_median(&shards, cfg, RunOptions::sequential());
        // Communication in the final round must carry no outlier points:
        // compare against the ship variant.
        let ship =
            run_distributed_median(&shards, MedianConfig::new(2, 3), RunOptions::sequential());
        let last = out.stats.rounds.last().unwrap();
        let last_ship = ship.stats.rounds.last().unwrap();
        assert!(
            last.sites_to_coordinator.iter().sum::<usize>()
                < last_ship.sites_to_coordinator.iter().sum::<usize>(),
            "counts-only must ship fewer bytes"
        );
        // Quality still holds with the (2+ε+δ)t budget.
        let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 11, Objective::Median);
        assert!(cost < 100.0, "true cost {cost}");
    }

    #[test]
    fn t_zero_no_outlier_machinery() {
        let shards = shards_with_outliers();
        let cfg = MedianConfig::new(3, 0); // 3 centers can cover clumps + 1 outlier... not needed; just runs
        let out = run_distributed_median(&shards, cfg, RunOptions::sequential());
        assert_eq!(out.output.shipped_outliers, 0);
    }

    #[test]
    fn single_site_degenerates_gracefully() {
        let shards = vec![shards_with_outliers().remove(1)];
        let cfg = MedianConfig::new(1, 3);
        let out = run_distributed_median(&shards, cfg, RunOptions::sequential());
        let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 6, Objective::Median);
        assert!(cost < 50.0, "true cost {cost}");
    }

    #[test]
    fn empty_site_tolerated() {
        let mut shards = shards_with_outliers();
        shards.push(PointSet::new(2));
        let cfg = MedianConfig::new(2, 3);
        let out = run_distributed_median(&shards, cfg, RunOptions::sequential());
        let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 6, Objective::Median);
        assert!(cost < 50.0, "true cost {cost}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let shards = shards_with_outliers();
        let cfg = MedianConfig::new(2, 3);
        let a = run_distributed_median(&shards, cfg, RunOptions::sequential());
        let b = run_distributed_median(&shards, cfg, RunOptions::new().shards(2));
        assert_eq!(a.output.centers, b.output.centers);
        assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
    }

    #[test]
    fn encoded_protocols_run_and_stay_close() {
        let shards = shards_with_outliers();
        let opts = || RunOptions::sequential();
        let raw = run_distributed_median(&shards, MedianConfig::new(2, 3), opts());
        let (raw_cost, _) =
            evaluate_on_full_data(&shards, &raw.output.centers, 6, Objective::Median);
        for enc in [Encoding::F32, Encoding::Rlz] {
            let cfg = MedianConfig::new(2, 3).encoding(enc);
            let out = run_distributed_median(&shards, cfg, opts());
            // Message *sizes* are value-independent, so the pre-codec byte
            // totals must match the uncompressed run exactly.
            assert_eq!(
                out.stats.raw_bytes(),
                raw.stats.total_bytes(),
                "{enc}: raw accounting"
            );
            if enc.is_lossless() {
                assert_eq!(out.output.centers, raw.output.centers, "{enc}: lossless");
            }
            let (cost, _) =
                evaluate_on_full_data(&shards, &out.output.centers, 6, Objective::Median);
            // Lossy narrowing perturbs shipped coordinates within the
            // declared envelope; the objective moves by at most a hair on
            // this well-separated instance.
            assert!(
                (cost - raw_cost).abs() <= 0.05 * raw_cost.max(1.0),
                "{enc}: cost {cost} vs raw {raw_cost}"
            );
        }
    }

    #[test]
    fn profile_messages_are_logarithmic() {
        // Hull messages must be O(log t) vertices, not O(t).
        let shards = shards_with_outliers();
        let cfg = MedianConfig::new(2, 16);
        let out = run_distributed_median(&shards, cfg, RunOptions::sequential());
        let r0 = &out.stats.rounds[0];
        for &bytes in &r0.sites_to_coordinator {
            // grid of t=16, rho=2 has ≤ 7 points; each vertex ≤ ~11 bytes.
            assert!(bytes < 120, "profile message too large: {bytes}B");
        }
    }
}

#[cfg(test)]
mod relax_centers_tests {
    use super::*;
    use crate::evaluate::evaluate_on_full_data;

    #[test]
    fn relaxed_centers_exact_t_exclusions() {
        let mut a = Vec::new();
        for c in [0.0f64, 60.0, 140.0] {
            for i in 0..10 {
                a.push(vec![c + 0.1 * i as f64, 0.0]);
            }
        }
        a.push(vec![7e4, 0.0]);
        a.push(vec![-9e4, 1e4]);
        let shards = vec![PointSet::from_rows(&a[..16]), PointSet::from_rows(&a[16..])];
        let cfg = MedianConfig {
            eps: 0.5,
            ..MedianConfig::new(2, 2)
        }
        .relax_centers();
        let out = run_distributed_median(&shards, cfg, RunOptions::sequential());
        // (1+0.5)*2 = 3 centers may open; coordinator excludes exactly t=2.
        assert!(out.output.centers.len() <= 3);
        assert!(out.output.excluded_weight <= 2.0 + 1e-9);
        let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 2, Objective::Median);
        assert!(cost < 50.0, "cost {cost}");
    }
}
