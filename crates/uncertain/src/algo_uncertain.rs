//! **Algorithm 3**: distributed partial clustering of uncertain data via
//! the compression scheme (Theorem 5.6).
//!
//! Every site collapses its nodes (1-median / 1-mean), builds the local
//! compressed graph (Figure 1), and runs the *deterministic* distributed
//! machinery on it — Algorithm 1 for median/means, Algorithm 2's
//! Gonzalez-marginal machinery for center-pp. The single amendment (line 4
//! of Algorithm 3): whenever a site would communicate a demand vertex
//! `p_j`, it ships the pair `(y_j, ℓ_j)` — a point plus one scalar — which
//! at most doubles communication. The coordinator's merged instance is
//! again a tentacled metric, so the final solve is the same deterministic
//! solver once more. Output centers are points of `P` (the `y`
//! coordinates), per Definition 1.2.

use crate::compressed::CompressedGraph;
use crate::node::NodeSet;
use bytes::Bytes;
use dpc_cluster::{
    charikar_center, gonzalez_with, median_bicriteria, median_bicriteria_grid, BicriteriaParams,
    CenterParams, LocalSearchParams, Solution,
};
use dpc_codec::Encoding;
use dpc_coordinator::{run_fleet, Coordinator, CoordinatorStep, ProtocolOutput, RunOptions, Site};
use dpc_core::allocation::{allocate_outliers, site_budget_from_threshold};
use dpc_core::hull::{geometric_grid, ConvexProfile};
use dpc_core::wire::ThresholdMsg;
use dpc_metric::{
    NearestAssigner, Objective, PointSet, ThreadBudget, WeightedSet, WireReader, WireWriter,
};

/// Which uncertain objective Algorithm 3 optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UObjective {
    /// Uncertain `(k,t)`-median (Equation 1).
    Median,
    /// Uncertain `(k,t)`-means.
    Means,
    /// Uncertain `(k,t)`-center-pp (Equation 2, per-point max).
    CenterPp,
}

/// Configuration for the distributed uncertain protocol.
#[derive(Clone, Copy, Debug)]
pub struct UncertainConfig {
    /// Number of centers `k`.
    pub k: usize,
    /// Outlier budget `t`.
    pub t: usize,
    /// Grid/allocation ratio `ρ`.
    pub rho: f64,
    /// Coordinator-side outlier relaxation `ε`.
    pub eps: f64,
    /// The objective.
    pub objective: UObjective,
    /// λ-bisection iterations (median/means).
    pub lambda_iters: usize,
    /// Inner local-search tuning (median/means).
    pub ls: LocalSearchParams,
    /// Coordinator greedy-disk tuning (center-pp).
    pub charikar: CenterParams,
    /// Thread budget for the bulk kernels in the site and coordinator
    /// solvers. Sites get it only when they run one at a time
    /// ([`RunOptions::site_threads`]); the coordinator always does.
    /// Wall-clock only.
    pub threads: ThreadBudget,
}

impl UncertainConfig {
    /// Defaults for uncertain `(k,t)`-median.
    pub fn new(k: usize, t: usize) -> Self {
        Self {
            k,
            t,
            rho: 2.0,
            eps: 1.0,
            objective: UObjective::Median,
            lambda_iters: 12,
            ls: LocalSearchParams::default(),
            charikar: CenterParams::default(),
            threads: ThreadBudget::serial(),
        }
    }

    /// Caps the bulk-kernel thread budget.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = ThreadBudget::new(n);
        self
    }

    /// Switch to the means objective.
    pub fn means(mut self) -> Self {
        self.objective = UObjective::Means;
        self
    }

    /// Switch to the center-pp objective.
    pub fn center_pp(mut self) -> Self {
        self.objective = UObjective::CenterPp;
        self
    }

    fn squared(&self) -> bool {
        self.objective == UObjective::Means
    }
}

/// A site→coordinator summary over tentacled entities `(y, ℓ, weight)`.
#[derive(Clone, Debug, PartialEq)]
pub struct TentacledMsg {
    /// Entity base points.
    pub ys: PointSet,
    /// Entity tentacles (collapse costs; 0 for pure points).
    pub ells: Vec<f64>,
    /// Entity weights (attached node counts; 1 for shipped outliers).
    pub weights: Vec<f64>,
    /// Locally ignored node count `t_i`.
    pub t_i: u64,
}

impl TentacledMsg {
    fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        w.put_varint(self.ys.dim() as u64);
        w.put_varint(self.ys.len() as u64);
        for (i, p) in self.ys.iter() {
            w.put_point(p);
            w.put_f64(self.ells[i]);
            w.put_f64(self.weights[i]);
        }
        w.put_varint(self.t_i);
        w.finish()
    }

    fn decode(buf: Bytes) -> Self {
        let mut r = WireReader::new(buf);
        let dim = r.get_varint() as usize;
        let n = r.get_varint() as usize;
        let mut ys = PointSet::with_capacity(dim, n);
        let mut ells = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        let mut p = Vec::with_capacity(dim);
        for _ in 0..n {
            r.read_point_into(dim, &mut p);
            ys.push(&p);
            ells.push(r.get_f64());
            weights.push(r.get_f64());
        }
        let t_i = r.get_varint();
        TentacledMsg {
            ys,
            ells,
            weights,
            t_i,
        }
    }
}

/// Output of Algorithm 3.
#[derive(Clone, Debug)]
pub struct UncertainSolution {
    /// Chosen centers, as points of `P` (the `y` coordinates of the chosen
    /// vertices — Definition 1.2 requires `K ⊆ P`).
    pub centers: PointSet,
    /// Coordinator's weighted-instance objective value.
    pub coordinator_cost: f64,
    /// Outlier weight excluded at the coordinator.
    pub excluded_weight: f64,
    /// Total `Σ t_i` shipped by sites.
    pub shipped_outliers: u64,
}

/// Site-side state.
struct UncertainSite<'a> {
    data: &'a NodeSet,
    site_id: usize,
    cfg: UncertainConfig,
    grid: Vec<usize>,
    graph: Option<CompressedGraph>,
    demands: Option<WeightedSet>,
    sols: Vec<Solution>,
    gonzalez_order: Vec<usize>,
    profile: Option<ConvexProfile>,
}

impl<'a> UncertainSite<'a> {
    fn new(data: &'a NodeSet, site_id: usize, cfg: UncertainConfig) -> Self {
        Self {
            data,
            site_id,
            cfg,
            grid: Vec::new(),
            graph: None,
            demands: None,
            sols: Vec::new(),
            gonzalez_order: Vec::new(),
            profile: None,
        }
    }

    fn empty_msg(&self) -> Bytes {
        TentacledMsg {
            ys: PointSet::new(self.data.ground.dim().max(1)),
            ells: Vec::new(),
            weights: Vec::new(),
            t_i: 0,
        }
        .encode()
    }

    fn build_profile(&mut self) -> Bytes {
        let n = self.data.len();
        self.grid = geometric_grid(self.cfg.t, self.cfg.rho.max(1.0 + 1e-9));
        if n == 0 {
            let profile = ConvexProfile::lower_hull(&[(0, 0.0)]);
            let bytes = profile.encode_with(Encoding::Raw);
            self.profile = Some(profile);
            return bytes;
        }
        let (graph, demands) = CompressedGraph::from_nodes(self.data, self.cfg.squared());
        let profile = match self.cfg.objective {
            UObjective::Median | UObjective::Means => {
                let mut ls = self.cfg.ls;
                ls.seed = ls.seed.wrapping_add(self.site_id as u64);
                ls.threads = self.cfg.threads;
                let params = BicriteriaParams {
                    eps: 0.0,
                    lambda_iters: self.cfg.lambda_iters,
                    ls,
                };
                // One grid solve covers every non-degenerate grid point;
                // the grid is sorted, so those are a prefix.
                let solvable = self.grid.partition_point(|&q| q < n);
                let budgets: Vec<f64> = self.grid[..solvable].iter().map(|&q| q as f64).collect();
                self.sols = median_bicriteria_grid(
                    &graph,
                    &demands,
                    2 * self.cfg.k,
                    &budgets,
                    Objective::Median,
                    params,
                );
                self.sols.resize_with(self.grid.len(), || Solution {
                    centers: vec![0],
                    cost: 0.0,
                    outliers: Vec::new(),
                    assignment: vec![0; demands.len()],
                });
                let pts: Vec<(usize, f64)> = self
                    .grid
                    .iter()
                    .zip(&self.sols)
                    .map(|(&q, sol)| (q, sol.cost))
                    .collect();
                ConvexProfile::lower_hull(&pts)
            }
            UObjective::CenterPp => {
                // Gonzalez over the demand vertices (ids n..2n) under the
                // graph metric; marginals are insertion radii.
                let demand_ids: Vec<usize> = (n..2 * n).collect();
                let prefix = (2 * self.cfg.k + self.cfg.t + 1).min(n);
                let ord = gonzalez_with(&graph, &demand_ids, prefix, 0, self.cfg.threads);
                self.gonzalez_order = ord.order;
                // Algorithm 2's cumulative profile, `2k` selections kept.
                ConvexProfile::cumulative_radii(
                    &ord.radii,
                    2 * self.cfg.k,
                    self.cfg.t,
                    self.cfg.rho,
                )
            }
        };
        let bytes = profile.encode_with(Encoding::Raw);
        self.profile = Some(profile);
        self.graph = Some(graph);
        self.demands = Some(demands);
        bytes
    }

    fn respond_threshold(&mut self, msg: &Bytes) -> Bytes {
        let thr = ThresholdMsg::decode(msg.clone());
        let n = self.data.len();
        if n == 0 {
            return self.empty_msg();
        }
        let prof = self.profile.as_ref().expect("profile built");
        let ti = site_budget_from_threshold(prof, self.site_id, self.cfg.t, &thr);
        let graph = self.graph.as_ref().expect("graph built");
        match self.cfg.objective {
            UObjective::Median | UObjective::Means => {
                let demands = self.demands.as_ref().expect("demands built");
                let gi = self
                    .grid
                    .binary_search(&ti)
                    .unwrap_or_else(|_| panic!("t_i = {ti} not a grid point"));
                let centers = self.sols[gi].centers.clone();
                let sol = Solution::evaluate_with(
                    graph,
                    demands,
                    centers,
                    (ti.min(n)) as f64,
                    Objective::Median,
                    self.cfg.threads,
                );
                // Centers: tentacled entities with aggregated weights.
                let excluded: Vec<usize> = sol.outlier_positions();
                let mut is_out = vec![false; demands.len()];
                for &e in &excluded {
                    is_out[e] = true;
                }
                let mut weights = vec![0.0f64; sol.centers.len()];
                for (e, (id, w)) in demands.iter().enumerate() {
                    let _ = id;
                    if !is_out[e] && w > 0.0 {
                        weights[sol.assignment[e]] += w;
                    }
                }
                let mut ys = PointSet::new(self.data.ground.dim());
                let mut ells = Vec::new();
                let mut out_weights = Vec::new();
                for (ci, &c) in sol.centers.iter().enumerate() {
                    ys.push(graph.y_coords(c));
                    ells.push(graph.tentacle(c));
                    out_weights.push(weights[ci]);
                }
                // Outliers: ship (y_j, ℓ_j) per ignored demand (weight 1).
                for &e in &excluded {
                    let v = demands.ids()[e];
                    ys.push(graph.y_coords(v));
                    ells.push(graph.tentacle(v));
                    out_weights.push(1.0);
                }
                TentacledMsg {
                    ys,
                    ells,
                    weights: out_weights,
                    t_i: ti as u64,
                }
                .encode()
            }
            UObjective::CenterPp => {
                let prefix = (2 * self.cfg.k + ti).min(self.gonzalez_order.len());
                let chosen = &self.gonzalez_order[..prefix];
                // Attach every demand to its nearest prefix vertex, in one
                // bulk assignment pass.
                let demand_ids: Vec<usize> = (n..2 * n).collect();
                let assigned = NearestAssigner::with_threads(graph, self.cfg.threads)
                    .assign(&demand_ids, chosen);
                let mut weights = vec![0.0f64; prefix];
                for &pos in &assigned.pos {
                    weights[pos] += 1.0;
                }
                let mut ys = PointSet::new(self.data.ground.dim());
                let mut ells = Vec::new();
                for &v in chosen {
                    ys.push(graph.y_coords(v));
                    ells.push(graph.tentacle(v));
                }
                TentacledMsg {
                    ys,
                    ells,
                    weights,
                    t_i: ti as u64,
                }
                .encode()
            }
        }
    }
}

impl Site for UncertainSite<'_> {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        match round {
            0 => self.build_profile(),
            1 => self.respond_threshold(msg),
            r => panic!("uncertain site has no round {r}"),
        }
    }
}

/// Coordinator-side state.
struct UncertainCoordinator {
    cfg: UncertainConfig,
    dim: usize,
    result: Option<UncertainSolution>,
}

impl Coordinator for UncertainCoordinator {
    type Output = UncertainSolution;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        // The uncertain protocols do not tolerate dropout: every reply
        // feeds the τ̂/threshold selection, so a missing site is fatal.
        let replies: Vec<Bytes> = replies
            .into_iter()
            .map(|r| r.expect("uncertain protocol does not tolerate site dropout"))
            .collect();
        match round {
            0 => {
                let mut w = WireWriter::new();
                w.put_varint(self.cfg.k as u64);
                w.put_varint(self.cfg.t as u64);
                w.put_f64(self.cfg.rho);
                CoordinatorStep::Broadcast(w.finish())
            }
            1 => {
                let profiles: Vec<ConvexProfile> = replies
                    .iter()
                    .map(|b| ConvexProfile::decode_with(Encoding::Raw, b.clone()))
                    .collect();
                let alloc = allocate_outliers(&profiles, self.cfg.t, self.cfg.rho);
                let msgs = (0..replies.len())
                    .map(|i| {
                        ThresholdMsg {
                            threshold: alloc.threshold,
                            i0: alloc.i0 as u64,
                            q0: alloc.q0 as u64,
                            exceptional: i == alloc.i0 && self.cfg.t > 0,
                        }
                        .encode()
                    })
                    .collect();
                CoordinatorStep::Messages(msgs)
            }
            2 => {
                self.result = Some(self.solve_final(replies));
                CoordinatorStep::Finish
            }
            r => panic!("uncertain coordinator has no round {r}"),
        }
    }

    fn finish(self) -> UncertainSolution {
        self.result.expect("protocol finished")
    }
}

impl UncertainCoordinator {
    fn solve_final(&mut self, replies: Vec<Bytes>) -> UncertainSolution {
        let msgs: Vec<TentacledMsg> = replies.into_iter().map(TentacledMsg::decode).collect();
        let dim = msgs
            .iter()
            .find(|m| !m.ys.is_empty())
            .map(|m| m.ys.dim())
            .unwrap_or(self.dim);
        let mut ys = PointSet::new(dim);
        let mut ells = Vec::new();
        let mut weighted = WeightedSet::new();
        let mut shipped = 0u64;
        for m in &msgs {
            shipped += m.t_i;
            let off = ys.extend_from(&m.ys);
            for (j, (&l, &w)) in m.ells.iter().zip(&m.weights).enumerate() {
                ells.push(l);
                weighted.push(off + j, w);
            }
        }
        if weighted.is_empty() {
            return UncertainSolution {
                centers: PointSet::new(dim),
                coordinator_cost: 0.0,
                excluded_weight: 0.0,
                shipped_outliers: 0,
            };
        }
        let metric = CompressedGraph::from_parts(ys.clone(), ells, self.cfg.squared());
        let sol = match self.cfg.objective {
            UObjective::Median | UObjective::Means => {
                let mut ls = self.cfg.ls;
                ls.threads = self.cfg.threads;
                let params = BicriteriaParams {
                    eps: self.cfg.eps,
                    lambda_iters: self.cfg.lambda_iters,
                    ls,
                };
                median_bicriteria(
                    &metric,
                    &weighted,
                    self.cfg.k,
                    self.cfg.t as f64,
                    Objective::Median,
                    params,
                )
            }
            UObjective::CenterPp => charikar_center(
                &metric,
                &weighted,
                self.cfg.k,
                self.cfg.t as f64,
                CenterParams {
                    threads: self.cfg.threads,
                    ..self.cfg.charikar
                },
            ),
        };
        UncertainSolution {
            centers: ys.subset(&sol.centers),
            coordinator_cost: sol.cost,
            excluded_weight: sol.outlier_weight(),
            shipped_outliers: shipped,
        }
    }
}

/// Runs Algorithm 3 over the node shards.
pub fn run_uncertain_median(
    shards: &[NodeSet],
    cfg: UncertainConfig,
    options: RunOptions,
) -> ProtocolOutput<UncertainSolution> {
    run_fleet(
        shards,
        cfg.threads,
        options,
        |i, ns, threads| UncertainSite::new(ns, i, UncertainConfig { threads, ..cfg }),
        || UncertainCoordinator {
            cfg,
            dim: shards[0].ground.dim(),
            result: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::estimate_expected_cost;
    use crate::node::UncertainNode;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Two uncertain clusters (nodes jitter around two sites' worth of
    /// ground locations) plus noise nodes with scattered support.
    fn shards(seed: u64) -> Vec<NodeSet> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for site in 0..2 {
            let center = site as f64 * 100.0;
            let mut ground = PointSet::new(2);
            let mut nodes = Vec::new();
            for _ in 0..12 {
                // Each node: 3 support points near the cluster center.
                let mut support = Vec::new();
                for _ in 0..3 {
                    let p =
                        ground.push(&[center + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
                    support.push(p);
                }
                nodes.push(UncertainNode::new(support, vec![0.4, 0.3, 0.3]));
            }
            if site == 1 {
                // Noise nodes with far-flung support.
                for _ in 0..2 {
                    let a = ground.push(&[rng.gen_range(5e3..6e3), 9e3]);
                    let b = ground.push(&[-7e3, rng.gen_range(1e3..2e3)]);
                    nodes.push(UncertainNode::new(vec![a, b], vec![0.5, 0.5]));
                }
            }
            out.push(NodeSet { ground, nodes });
        }
        out
    }

    #[test]
    fn uncertain_median_recovers_clusters() {
        let sh = shards(3);
        let cfg = UncertainConfig::new(2, 2);
        let out = run_uncertain_median(&sh, cfg, RunOptions::sequential());
        let cost = estimate_expected_cost(&sh, &out.output.centers, 4, false, false);
        // 24 honest nodes with ~1-unit jitter: expected cost O(24·2); noise
        // nodes excluded. A solution paying for noise costs > 5e3.
        assert!(cost < 150.0, "uncertain median cost {cost}");
        assert_eq!(out.stats.num_rounds(), 2);
    }

    #[test]
    fn uncertain_means_runs() {
        let sh = shards(5);
        let cfg = UncertainConfig::new(2, 2).means();
        let out = run_uncertain_median(&sh, cfg, RunOptions::sequential());
        let cost = estimate_expected_cost(&sh, &out.output.centers, 4, true, false);
        assert!(cost < 500.0, "uncertain means cost {cost}");
    }

    #[test]
    fn uncertain_center_pp_runs() {
        let sh = shards(7);
        let cfg = UncertainConfig::new(2, 2).center_pp();
        let out = run_uncertain_median(&sh, cfg, RunOptions::sequential());
        let cost = estimate_expected_cost(&sh, &out.output.centers, 4, false, true);
        assert!(cost < 20.0, "uncertain center-pp cost {cost}");
    }

    #[test]
    fn tentacled_msg_roundtrip() {
        let msg = TentacledMsg {
            ys: PointSet::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
            ells: vec![0.0, 0.7],
            weights: vec![5.0, 1.0],
            t_i: 1,
        };
        assert_eq!(TentacledMsg::decode(msg.encode()), msg);
    }

    #[test]
    fn empty_site_tolerated() {
        let mut sh = shards(9);
        sh.push(NodeSet::new(2));
        let cfg = UncertainConfig::new(2, 2);
        let out = run_uncertain_median(&sh, cfg, RunOptions::sequential());
        let cost = estimate_expected_cost(&sh, &out.output.centers, 4, false, false);
        assert!(cost < 150.0, "cost {cost}");
    }

    #[test]
    fn deterministic_nodes_match_deterministic_algorithm_shape() {
        // Point-mass nodes: the compressed graph has zero tentacles, so
        // Algorithm 3 degenerates to Algorithm 1 on the ground points.
        let mut ground = PointSet::new(1);
        let mut nodes = Vec::new();
        for i in 0..10 {
            let p = ground.push(&[i as f64 * 0.1]);
            nodes.push(UncertainNode::deterministic(p));
        }
        let far = ground.push(&[1e4]);
        nodes.push(UncertainNode::deterministic(far));
        let sh = vec![NodeSet { ground, nodes }];
        let cfg = UncertainConfig::new(1, 1);
        let out = run_uncertain_median(&sh, cfg, RunOptions::sequential());
        let cost = estimate_expected_cost(&sh, &out.output.centers, 2, false, false);
        assert!(cost < 3.0, "cost {cost}");
    }
}
