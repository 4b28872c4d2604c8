//! **Algorithm 4**: distributed uncertain `(k,t)`-center-g (Theorem 5.14).
//!
//! The global objective `E[max_j d(σ(j), π(j))]` does not factorize over
//! nodes, so the compression scheme of Algorithm 3 is not enough. Following
//! \[15\], the algorithm works with the truncated expected distances
//! `ρ_τ(j,u) = E[max(d − τ, 0)]` and performs a parametric search over
//! `τ ∈ T = {2^i d_min/18}`:
//!
//! 1. sites report their local `(d_min, d_max)`; the coordinator combines
//!    and broadcasts the global range (the `s·log Δ` term of the bound);
//! 2. for *every* `τ ∈ T`, each site preclusters its nodes under
//!    `ρ_{6τ}` — Gonzalez's traversal on the node-node truncated metric —
//!    and ships the `O(log t)` cumulative-radius hull per τ;
//! 3. the coordinator runs the water-filling allocation per τ, finds
//!    `τ̂ = min{τ : Σ_i C_sol(A_i, 2k, t_i(τ), ρ_{6τ}) ≤ 12τ}`
//!    (Lemma 5.10's selection rule; costs are read off the shipped
//!    profiles), and returns the τ̂-allocation thresholds;
//! 4. sites ship the `2k` preclustering centers as *collapsed points*
//!    (`sk·B` bytes) and the `t_i` tentative outliers as *full
//!    distributions* (`t·I` bytes — an outlier's whole distribution is
//!    needed to price it globally); the coordinator solves the weighted
//!    center instance on expected distances (the collapsing argument of
//!    Lemma 5.11 bounds the error by `O(τ̂) = O(C_opt)`).
//!
//! We spend 3 protocol rounds instead of the paper's 2: Algorithm 4's
//! line 1 ("all parties compute d_min and d_max") is itself a round unless
//! the range is known a priori; the communication totals match the bound.

use crate::node::{NodeSet, UncertainNode};
use crate::truncated::{distance_range, tau_grid};
use bytes::Bytes;
use dpc_cluster::{charikar_center, gonzalez_with, CenterParams};
use dpc_coordinator::{run_fleet, Coordinator, CoordinatorStep, ProtocolOutput, RunOptions, Site};
use dpc_core::allocation::{allocate_outliers, site_budget_from_threshold};
use dpc_core::hull::ConvexProfile;
use dpc_core::wire::ThresholdMsg;
use dpc_metric::{MatrixMetric, Metric, PointSet, WeightedSet, WireReader, WireWriter};

/// Configuration for Algorithm 4.
#[derive(Clone, Copy, Debug)]
pub struct CenterGConfig {
    /// Number of centers `k`.
    pub k: usize,
    /// Outlier budget `t`.
    pub t: usize,
    /// Allocation ratio `ρ`.
    pub rho: f64,
    /// Coordinator greedy-disk tuning.
    pub charikar: CenterParams,
    /// Thread budget for the bulk kernels (per-τ Gonzalez relax, the
    /// coordinator's distance matrix). Sites get it only when they run
    /// one at a time ([`RunOptions::site_threads`]); the coordinator
    /// always does. Wall-clock only.
    pub threads: dpc_metric::ThreadBudget,
}

impl CenterGConfig {
    /// Defaults: `ρ = 2`.
    pub fn new(k: usize, t: usize) -> Self {
        Self {
            k,
            t,
            rho: 2.0,
            charikar: CenterParams::default(),
            threads: dpc_metric::ThreadBudget::serial(),
        }
    }

    /// Caps the bulk-kernel thread budget.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = dpc_metric::ThreadBudget::new(n);
        self
    }
}

/// Output of Algorithm 4 (same shape as Algorithm 3's).
pub use crate::algo_uncertain::UncertainSolution;

/// Truncated node↔node distance: route through one of the two 1-medians,
/// whichever is cheaper (symmetric by construction).
fn node_node_dist(
    a: &UncertainNode,
    b: &UncertainNode,
    ground: &PointSet,
    ya: usize,
    yb: usize,
    tau: f64,
) -> f64 {
    let via = |y: usize| {
        let u = ground.point(y);
        crate::truncated::truncated_expected_distance(a, ground, u, tau)
            + crate::truncated::truncated_expected_distance(b, ground, u, tau)
    };
    via(ya).min(via(yb))
}

/// Per-τ preclustering state kept by a site between rounds.
struct TauState {
    order: Vec<usize>,
    profile: ConvexProfile,
}

/// Site-side state of Algorithm 4.
struct CenterGSite<'a> {
    data: &'a NodeSet,
    site_id: usize,
    cfg: CenterGConfig,
    /// 1-medians of the local nodes (collapse targets).
    y: Vec<usize>,
    taus: Vec<f64>,
    states: Vec<TauState>,
}

impl<'a> CenterGSite<'a> {
    fn new(data: &'a NodeSet, site_id: usize, cfg: CenterGConfig) -> Self {
        Self {
            data,
            site_id,
            cfg,
            y: Vec::new(),
            taus: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Round 0: local distance range over the support points.
    fn report_range(&mut self) -> Bytes {
        let mut w = WireWriter::new();
        match distance_range(&self.data.ground) {
            Some((lo, hi)) => {
                w.put_f64(lo);
                w.put_f64(hi);
            }
            None => {
                w.put_f64(f64::INFINITY);
                w.put_f64(0.0);
            }
        }
        w.finish()
    }

    /// Round 1: per-τ preclustering profiles.
    fn build_profiles(&mut self, msg: &Bytes) -> Bytes {
        let mut r = WireReader::new(msg.clone());
        let d_min = r.get_f64();
        let d_max = r.get_f64();
        self.taus = if d_min.is_finite() && d_min > 0.0 {
            tau_grid(d_min, d_max.max(d_min))
        } else {
            vec![0.0]
        };
        let n = self.data.len();
        let mut w = WireWriter::new();
        w.put_varint(self.taus.len() as u64);
        if n > 0 {
            self.y = self
                .data
                .collapse(false)
                .into_iter()
                .map(|(y, _)| y)
                .collect();
        }
        for &tau in &self.taus.clone() {
            if n == 0 {
                let profile = ConvexProfile::lower_hull(&[(0, 0.0)]);
                profile.encode(&mut w);
                self.states.push(TauState {
                    order: Vec::new(),
                    profile,
                });
                continue;
            }
            // Node-node matrix under ρ_{6τ}.
            let m6 = MatrixMetric::from_fn(n, |i, j| {
                node_node_dist(
                    &self.data.nodes[i],
                    &self.data.nodes[j],
                    &self.data.ground,
                    self.y[i],
                    self.y[j],
                    6.0 * tau,
                )
            });
            let ids: Vec<usize> = (0..n).collect();
            let prefix = (2 * self.cfg.k + self.cfg.t + 1).min(n);
            let ord = gonzalez_with(&m6, &ids, prefix, 0, self.cfg.threads);
            let profile = ConvexProfile::cumulative_radii(
                &ord.radii,
                2 * self.cfg.k,
                self.cfg.t,
                self.cfg.rho,
            );
            profile.encode(&mut w);
            self.states.push(TauState {
                order: ord.order,
                profile,
            });
        }
        w.finish()
    }

    /// Round 2: the τ̂ allocation arrived; ship the preclustering.
    fn respond_threshold(&mut self, msg: &Bytes) -> Bytes {
        let mut r = WireReader::new(msg.clone());
        let tau_idx = r.get_varint() as usize;
        let thr = ThresholdMsg {
            threshold: r.get_f64(),
            i0: r.get_varint(),
            q0: r.get_varint(),
            exceptional: r.get_varint() != 0,
        };

        let n = self.data.len();
        let mut w = WireWriter::new();
        let dim = self.data.ground.dim();
        if n == 0 {
            w.put_varint(dim as u64);
            w.put_varint(0); // points
            w.put_varint(0); // nodes
            w.put_varint(0); // t_i
            return w.finish();
        }
        let state = &self.states[tau_idx.min(self.states.len() - 1)];
        let ti = site_budget_from_threshold(&state.profile, self.site_id, self.cfg.t, &thr);
        let prefix = (2 * self.cfg.k + ti).min(state.order.len());
        let chosen = &state.order[..prefix];
        // Attach every node to its nearest prefix node under ρ_{6τ̂}
        // (recompute distances on demand; O(prefix · n · m²) worst case).
        let tau = self.taus[tau_idx.min(self.taus.len() - 1)];
        let mut weights = vec![0.0f64; prefix];
        for j in 0..n {
            let mut best = (0usize, f64::INFINITY);
            for (pos, &c) in chosen.iter().enumerate() {
                let d = node_node_dist(
                    &self.data.nodes[j],
                    &self.data.nodes[c],
                    &self.data.ground,
                    self.y[j],
                    self.y[c],
                    6.0 * tau,
                );
                if d < best.1 {
                    best = (pos, d);
                }
            }
            weights[best.0] += 1.0;
        }
        // First 2k prefix entries ship as collapsed points (sk·B); the
        // rest (the t_i tentative outliers) ship as full distributions
        // (t·I).
        let cut = (2 * self.cfg.k).min(prefix);
        w.put_varint(dim as u64);
        w.put_varint(cut as u64);
        for (pos, &c) in chosen[..cut].iter().enumerate() {
            w.put_point(self.data.ground.point(self.y[c]));
            w.put_f64(weights[pos]);
        }
        w.put_varint((prefix - cut) as u64);
        for (pos, &c) in chosen[cut..].iter().enumerate() {
            self.data.nodes[c].encode(&self.data.ground, &mut w);
            w.put_f64(weights[cut + pos]);
        }
        w.put_varint(ti as u64);
        w.finish()
    }
}

impl Site for CenterGSite<'_> {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        match round {
            0 => self.report_range(),
            1 => self.build_profiles(msg),
            2 => self.respond_threshold(msg),
            r => panic!("center-g site has no round {r}"),
        }
    }
}

/// A merged entity at the coordinator: a collapsed point or a full node.
enum Entity {
    Point(Vec<f64>),
    Node {
        node: UncertainNode,
        ground: PointSet,
        y: usize,
    },
}

impl Entity {
    /// Representative coordinates (for output centers).
    fn coords(&self) -> Vec<f64> {
        match self {
            Entity::Point(p) => p.clone(),
            Entity::Node { node: _, ground, y } => ground.point(*y).to_vec(),
        }
    }
}

/// Expected distance between two merged entities (τ = 0 at the final
/// solve; the τ̂-preclustering already absorbed the truncation per
/// Lemma 5.11).
fn entity_dist(a: &Entity, b: &Entity) -> f64 {
    match (a, b) {
        (Entity::Point(p), Entity::Point(q)) => dpc_metric::points::sq_dist(p, q).sqrt(),
        (Entity::Point(p), Entity::Node { node, ground, .. })
        | (Entity::Node { node, ground, .. }, Entity::Point(p)) => {
            node.expected_distance(ground, p)
        }
        (
            Entity::Node {
                node: na,
                ground: ga,
                y: ya,
            },
            Entity::Node {
                node: nb,
                ground: gb,
                y: yb,
            },
        ) => {
            let via_a = {
                let u = ga.point(*ya);
                na.expected_distance(ga, u) + nb.expected_distance(gb, u)
            };
            let via_b = {
                let u = gb.point(*yb);
                na.expected_distance(ga, u) + nb.expected_distance(gb, u)
            };
            via_a.min(via_b)
        }
    }
}

/// Coordinator-side state of Algorithm 4.
struct CenterGCoordinator {
    cfg: CenterGConfig,
    dim: usize,
    /// `d_min/18`, fixed when the global range is combined in round 1.
    tau_base: f64,
    result: Option<UncertainSolution>,
}

impl Coordinator for CenterGCoordinator {
    type Output = UncertainSolution;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        // The center-g protocol does not tolerate dropout: the τ grid is
        // aligned across sites, so a missing reply is fatal.
        let replies: Vec<Bytes> = replies
            .into_iter()
            .map(|r| r.expect("center-g protocol does not tolerate site dropout"))
            .collect();
        match round {
            0 => {
                let mut w = WireWriter::new();
                w.put_varint(self.cfg.k as u64);
                w.put_varint(self.cfg.t as u64);
                CoordinatorStep::Broadcast(w.finish())
            }
            1 => {
                // Combine local ranges, broadcast the global one.
                let mut d_min = f64::INFINITY;
                let mut d_max: f64 = 0.0;
                for b in &replies {
                    let mut r = WireReader::new(b.clone());
                    d_min = d_min.min(r.get_f64());
                    d_max = d_max.max(r.get_f64());
                }
                self.tau_base = if d_min.is_finite() && d_min > 0.0 {
                    d_min / 18.0
                } else {
                    1.0
                };
                let mut w = WireWriter::new();
                w.put_f64(d_min);
                w.put_f64(d_max);
                CoordinatorStep::Broadcast(w.finish())
            }
            2 => {
                // Per-τ allocation; pick τ̂ by the Lemma 5.10 rule.
                let per_site: Vec<Vec<ConvexProfile>> = replies
                    .iter()
                    .map(|b| {
                        let mut r = WireReader::new(b.clone());
                        let cnt = r.get_varint() as usize;
                        (0..cnt).map(|_| ConvexProfile::decode(&mut r)).collect()
                    })
                    .collect();
                let n_taus = per_site.iter().map(Vec::len).max().unwrap_or(1);
                let mut chosen: Option<(usize, dpc_core::allocation::Allocation)> = None;
                let mut taus_checked = 0usize;
                for ti in 0..n_taus {
                    let profiles: Vec<ConvexProfile> = per_site
                        .iter()
                        .map(|ps| {
                            ps.get(ti)
                                .cloned()
                                .unwrap_or_else(|| ConvexProfile::lower_hull(&[(0, 0.0)]))
                        })
                        .collect();
                    let alloc = allocate_outliers(&profiles, self.cfg.t, self.cfg.rho);
                    // Cost proxy: the residual max-radius of each site after
                    // ignoring t_i nodes = the next marginal.
                    let total: f64 = profiles
                        .iter()
                        .zip(&alloc.t_i)
                        .map(|(p, &ti)| p.marginal(ti + 1))
                        .sum();
                    let tau = self.tau_value(ti);
                    taus_checked = ti;
                    if total <= 12.0 * tau {
                        chosen = Some((ti, alloc));
                        break;
                    }
                }
                let (tau_idx, alloc) = chosen.unwrap_or_else(|| {
                    // Fallback (always feasible at τ_max per Lemma 5.10).
                    let profiles: Vec<ConvexProfile> = per_site
                        .iter()
                        .map(|ps| {
                            ps.last()
                                .cloned()
                                .unwrap_or_else(|| ConvexProfile::lower_hull(&[(0, 0.0)]))
                        })
                        .collect();
                    (
                        taus_checked,
                        allocate_outliers(&profiles, self.cfg.t, self.cfg.rho),
                    )
                });
                let msgs = (0..replies.len())
                    .map(|i| {
                        let mut w = WireWriter::new();
                        w.put_varint(tau_idx as u64);
                        w.put_f64(alloc.threshold);
                        w.put_varint(alloc.i0 as u64);
                        w.put_varint(alloc.q0 as u64);
                        w.put_varint(u64::from(i == alloc.i0 && self.cfg.t > 0));
                        w.finish()
                    })
                    .collect();
                CoordinatorStep::Messages(msgs)
            }
            3 => {
                self.result = Some(self.solve_final(replies));
                CoordinatorStep::Finish
            }
            r => panic!("center-g coordinator has no round {r}"),
        }
    }

    fn finish(self) -> UncertainSolution {
        self.result.expect("protocol finished")
    }
}

impl CenterGCoordinator {
    /// The τ value for grid index `i` (`2^i · d_min/18`, from the range
    /// combined in round 1).
    fn tau_value(&self, i: usize) -> f64 {
        self.tau_base * (2.0f64).powi(i as i32)
    }

    fn solve_final(&mut self, replies: Vec<Bytes>) -> UncertainSolution {
        let mut entities: Vec<Entity> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut shipped = 0u64;
        let mut dim = self.dim;
        for b in replies {
            let mut r = WireReader::new(b);
            let d = r.get_varint() as usize;
            if d > 0 {
                dim = d;
            }
            let npts = r.get_varint() as usize;
            for _ in 0..npts {
                let p = r.get_point(dim);
                entities.push(Entity::Point(p));
                weights.push(r.get_f64());
            }
            let nnodes = r.get_varint() as usize;
            for _ in 0..nnodes {
                let mut ground = PointSet::new(dim);
                let node = UncertainNode::decode(&mut ground, &mut r);
                let (y, _) = node.one_median(&ground);
                entities.push(Entity::Node { node, ground, y });
                weights.push(r.get_f64());
            }
            shipped += r.get_varint();
        }
        if entities.is_empty() {
            return UncertainSolution {
                centers: PointSet::new(dim.max(1)),
                coordinator_cost: 0.0,
                excluded_weight: 0.0,
                shipped_outliers: 0,
            };
        }
        let n = entities.len();
        let metric = MatrixMetric::from_fn(n, |i, j| entity_dist(&entities[i], &entities[j]));
        let weighted = WeightedSet::from_parts((0..n).collect(), weights);
        let sol = charikar_center(
            &metric,
            &weighted,
            self.cfg.k,
            self.cfg.t as f64,
            CenterParams {
                threads: self.cfg.threads,
                ..self.cfg.charikar
            },
        );
        let mut centers = PointSet::new(dim);
        for &c in &sol.centers {
            centers.push(&entities[c].coords());
        }
        UncertainSolution {
            centers,
            coordinator_cost: sol.cost,
            excluded_weight: sol.outlier_weight(),
            shipped_outliers: shipped,
        }
    }
}

/// Runs Algorithm 4 over the node shards.
pub fn run_center_g(
    shards: &[NodeSet],
    cfg: CenterGConfig,
    options: RunOptions,
) -> ProtocolOutput<UncertainSolution> {
    run_fleet(
        shards,
        cfg.threads,
        options,
        |i, ns, threads| CenterGSite::new(ns, i, CenterGConfig { threads, ..cfg }),
        || CenterGCoordinator {
            cfg,
            dim: shards[0].ground.dim(),
            tau_base: 1.0,
            result: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::estimate_center_g_cost;
    use crate::node::UncertainNode;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn shards(seed: u64) -> Vec<NodeSet> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for site in 0..2 {
            let center = site as f64 * 60.0;
            let mut ground = PointSet::new(2);
            let mut nodes = Vec::new();
            for _ in 0..8 {
                let mut support = Vec::new();
                for _ in 0..2 {
                    let p =
                        ground.push(&[center + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
                    support.push(p);
                }
                nodes.push(UncertainNode::new(support, vec![0.5, 0.5]));
            }
            if site == 0 {
                let a = ground.push(&[4e3, -4e3]);
                let b = ground.push(&[4e3, -4.1e3]);
                nodes.push(UncertainNode::new(vec![a, b], vec![0.5, 0.5]));
            }
            out.push(NodeSet { ground, nodes });
        }
        out
    }

    #[test]
    fn center_g_recovers_clusters() {
        let sh = shards(13);
        let cfg = CenterGConfig::new(2, 1);
        let out = run_center_g(&sh, cfg, RunOptions::sequential());
        // Monte-Carlo E[max] with the noise node excluded must be O(cluster
        // jitter), far below the 4e3 of paying for the noise node.
        let g = estimate_center_g_cost(&sh, &out.output.centers, 1, 500, 7);
        assert!(g < 60.0, "E[max] estimate {g}");
        assert_eq!(out.stats.num_rounds(), 3);
    }

    #[test]
    fn comm_includes_full_distributions_for_outliers() {
        let sh = shards(17);
        let cfg = CenterGConfig::new(2, 1);
        let out = run_center_g(&sh, cfg, RunOptions::sequential());
        // The final round must be heavier than points alone: t·I term.
        let last = out.stats.rounds.last().unwrap();
        let upstream: usize = last.sites_to_coordinator.iter().sum();
        assert!(upstream > 0);
    }

    #[test]
    fn single_site_degenerate() {
        let sh = vec![shards(19).remove(0)];
        let cfg = CenterGConfig::new(1, 1);
        let out = run_center_g(&sh, cfg, RunOptions::sequential());
        let g = estimate_center_g_cost(&sh, &out.output.centers, 1, 300, 23);
        assert!(g < 60.0, "E[max] {g}");
    }
}

// ---------------------------------------------------------------------------
// 1-round variant (Table 2, last row): O(s(kB + tI)·log Δ) communication.
// ---------------------------------------------------------------------------

/// Site for the 1-round center-g protocol: with the global distance range
/// known a priori (the assumption that removes the range round — e.g.
/// sensor-range limits), each site ships, for *every* `τ ∈ T`, its full
/// `t`-hedged preclustering: `2k` collapsed points, `t` full outlier
/// distributions, and the residual-radius cost scalar the coordinator's
/// `Σ ≤ 12τ` rule needs. One round, `O(s(kB + tI)·log Δ)` bytes.
struct OneRoundCenterGSite<'a> {
    data: &'a NodeSet,
    cfg: CenterGConfig,
    d_min: f64,
    d_max: f64,
}

impl OneRoundCenterGSite<'_> {
    fn ship_all_taus(&mut self) -> Bytes {
        let n = self.data.len();
        let taus = if self.d_min > 0.0 && self.d_min.is_finite() {
            tau_grid(self.d_min, self.d_max.max(self.d_min))
        } else {
            vec![0.0]
        };
        let dim = self.data.ground.dim();
        let mut w = WireWriter::new();
        w.put_varint(dim as u64);
        w.put_varint(taus.len() as u64);
        if n == 0 {
            for _ in &taus {
                w.put_f64(0.0); // residual cost
                w.put_varint(0); // points
                w.put_varint(0); // nodes
            }
            return w.finish();
        }
        let y: Vec<usize> = self
            .data
            .collapse(false)
            .into_iter()
            .map(|(y, _)| y)
            .collect();
        for &tau in &taus {
            let m6 = MatrixMetric::from_fn(n, |i, j| {
                node_node_dist(
                    &self.data.nodes[i],
                    &self.data.nodes[j],
                    &self.data.ground,
                    y[i],
                    y[j],
                    6.0 * tau,
                )
            });
            let ids: Vec<usize> = (0..n).collect();
            let prefix_len = (2 * self.cfg.k + self.cfg.t).min(n);
            let ord = gonzalez_with(&m6, &ids, prefix_len + 1, 0, self.cfg.threads);
            // Residual cost proxy: the next insertion radius.
            let residual = if prefix_len < ord.radii.len() {
                ord.radii[prefix_len]
            } else {
                0.0
            };
            let chosen = &ord.order[..prefix_len.min(ord.order.len())];
            // Reassign against the prefix only (gonzalez ran one selection
            // further to expose the residual radius).
            let mut weights = vec![0.0f64; chosen.len()];
            for j in 0..n {
                let (pos, _) = m6.nearest(j, chosen).expect("non-empty prefix");
                weights[pos] += 1.0;
            }
            let cut = (2 * self.cfg.k).min(chosen.len());
            w.put_f64(residual);
            w.put_varint(cut as u64);
            for (pos, &c) in chosen[..cut].iter().enumerate() {
                w.put_point(self.data.ground.point(y[c]));
                w.put_f64(weights[pos]);
            }
            w.put_varint((chosen.len() - cut) as u64);
            for (pos, &c) in chosen[cut..].iter().enumerate() {
                self.data.nodes[c].encode(&self.data.ground, &mut w);
                w.put_f64(weights[cut + pos]);
            }
        }
        w.finish()
    }
}

impl Site for OneRoundCenterGSite<'_> {
    fn handle(&mut self, round: usize, _msg: &Bytes) -> Bytes {
        assert_eq!(round, 0, "one-round site called twice");
        self.ship_all_taus()
    }
}

/// Coordinator for the 1-round center-g protocol.
struct OneRoundCenterGCoordinator {
    cfg: CenterGConfig,
    dim: usize,
    tau_base: f64,
    result: Option<UncertainSolution>,
}

/// One site's per-τ shipment, decoded.
struct TauShipment {
    residual: f64,
    entities: Vec<Entity>,
    weights: Vec<f64>,
}

impl Coordinator for OneRoundCenterGCoordinator {
    type Output = UncertainSolution;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        let replies: Vec<Bytes> = replies
            .into_iter()
            .map(|r| r.expect("one-round center-g protocol does not tolerate site dropout"))
            .collect();
        match round {
            0 => CoordinatorStep::Broadcast(Bytes::new()),
            1 => {
                // Decode: per site, per τ, the shipment.
                let mut per_site: Vec<Vec<TauShipment>> = Vec::with_capacity(replies.len());
                let mut dim = self.dim;
                for b in replies {
                    let mut r = WireReader::new(b);
                    let d = r.get_varint() as usize;
                    if d > 0 {
                        dim = d;
                    }
                    let ntaus = r.get_varint() as usize;
                    let mut ships = Vec::with_capacity(ntaus);
                    for _ in 0..ntaus {
                        let residual = r.get_f64();
                        let mut entities = Vec::new();
                        let mut weights = Vec::new();
                        let npts = r.get_varint() as usize;
                        for _ in 0..npts {
                            entities.push(Entity::Point(r.get_point(dim)));
                            weights.push(r.get_f64());
                        }
                        let nnodes = r.get_varint() as usize;
                        for _ in 0..nnodes {
                            let mut ground = PointSet::new(dim);
                            let node = UncertainNode::decode(&mut ground, &mut r);
                            let (yc, _) = node.one_median(&ground);
                            entities.push(Entity::Node {
                                node,
                                ground,
                                y: yc,
                            });
                            weights.push(r.get_f64());
                        }
                        ships.push(TauShipment {
                            residual,
                            entities,
                            weights,
                        });
                    }
                    per_site.push(ships);
                }
                // τ̂ rule: smallest τ with Σ residual ≤ 12τ.
                let n_taus = per_site.iter().map(Vec::len).max().unwrap_or(1);
                let mut tau_idx = n_taus.saturating_sub(1);
                for ti in 0..n_taus {
                    let total: f64 = per_site
                        .iter()
                        .map(|s| s.get(ti).map_or(0.0, |x| x.residual))
                        .sum();
                    let tau = self.tau_base * (2.0f64).powi(ti as i32);
                    if total <= 12.0 * tau {
                        tau_idx = ti;
                        break;
                    }
                }
                // Merge the τ̂ shipments and solve with exactly t outliers.
                let mut entities: Vec<Entity> = Vec::new();
                let mut weights: Vec<f64> = Vec::new();
                for ships in &mut per_site {
                    if ships.is_empty() {
                        continue;
                    }
                    let idx = tau_idx.min(ships.len() - 1);
                    let s = &mut ships[idx];
                    entities.append(&mut s.entities);
                    weights.append(&mut s.weights);
                }
                let result = if entities.is_empty() {
                    UncertainSolution {
                        centers: PointSet::new(dim.max(1)),
                        coordinator_cost: 0.0,
                        excluded_weight: 0.0,
                        shipped_outliers: 0,
                    }
                } else {
                    let n = entities.len();
                    let metric =
                        MatrixMetric::from_fn(n, |i, j| entity_dist(&entities[i], &entities[j]));
                    let weighted = WeightedSet::from_parts((0..n).collect(), weights);
                    let sol = charikar_center(
                        &metric,
                        &weighted,
                        self.cfg.k,
                        self.cfg.t as f64,
                        CenterParams {
                            threads: self.cfg.threads,
                            ..self.cfg.charikar
                        },
                    );
                    let mut centers = PointSet::new(dim);
                    for &c in &sol.centers {
                        centers.push(&entities[c].coords());
                    }
                    UncertainSolution {
                        centers,
                        coordinator_cost: sol.cost,
                        excluded_weight: sol.outlier_weight(),
                        shipped_outliers: (self.cfg.t * per_site.len()) as u64,
                    }
                };
                self.result = Some(result);
                CoordinatorStep::Finish
            }
            r => panic!("one-round center-g coordinator has no round {r}"),
        }
    }

    fn finish(self) -> UncertainSolution {
        self.result.expect("protocol finished")
    }
}

/// Runs the 1-round center-g protocol (Table 2, last row). The global
/// distance range `(d_min, d_max)` must be known a priori — that is the
/// assumption that removes the extra rounds; obtain it from
/// [`crate::truncated::distance_range`] over the ground sets if needed
/// (at the cost of a round, which is what [`run_center_g`] does).
pub fn run_center_g_one_round(
    shards: &[NodeSet],
    cfg: CenterGConfig,
    d_min: f64,
    d_max: f64,
    options: RunOptions,
) -> ProtocolOutput<UncertainSolution> {
    let tau_base = if d_min > 0.0 && d_min.is_finite() {
        d_min / 18.0
    } else {
        1.0
    };
    run_fleet(
        shards,
        cfg.threads,
        options,
        |_, ns, threads| OneRoundCenterGSite {
            data: ns,
            cfg: CenterGConfig { threads, ..cfg },
            d_min,
            d_max,
        },
        || OneRoundCenterGCoordinator {
            cfg,
            dim: shards[0].ground.dim(),
            tau_base,
            result: None,
        },
    )
}

#[cfg(test)]
mod one_round_tests {
    use super::*;
    use crate::monte_carlo::estimate_center_g_cost;
    use crate::node::UncertainNode;
    use crate::truncated::distance_range;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn shards(seed: u64) -> Vec<NodeSet> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for site in 0..3 {
            let center = site as f64 * 70.0;
            let mut ground = PointSet::new(2);
            let mut nodes = Vec::new();
            for _ in 0..7 {
                let a = ground.push(&[center + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
                let b = ground.push(&[center + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
                nodes.push(UncertainNode::new(vec![a, b], vec![0.5, 0.5]));
            }
            if site == 2 {
                let a = ground.push(&[5e3, 5e3]);
                let b = ground.push(&[5e3, 5.1e3]);
                nodes.push(UncertainNode::new(vec![a, b], vec![0.5, 0.5]));
            }
            out.push(NodeSet { ground, nodes });
        }
        out
    }

    fn global_range(shards: &[NodeSet]) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for s in shards {
            if let Some((a, b)) = distance_range(&s.ground) {
                lo = lo.min(a);
                hi = hi.max(b);
            }
        }
        (lo, hi)
    }

    #[test]
    fn one_round_center_g_quality() {
        let sh = shards(71);
        let (lo, hi) = global_range(&sh);
        let out = run_center_g_one_round(
            &sh,
            CenterGConfig::new(3, 1),
            lo,
            hi,
            RunOptions::sequential(),
        );
        assert_eq!(out.stats.num_rounds(), 1);
        let g = estimate_center_g_cost(&sh, &out.output.centers, 1, 400, 5);
        assert!(g < 70.0, "E[max] {g}");
    }

    #[test]
    fn one_round_ships_more_than_multi_round() {
        // The tau sweep is shipped in full: bytes carry the log Delta
        // factor relative to the adaptive 3-round protocol's final round.
        let sh = shards(73);
        let (lo, hi) = global_range(&sh);
        let cfg = CenterGConfig::new(2, 1);
        let one = run_center_g_one_round(&sh, cfg, lo, hi, RunOptions::sequential());
        let multi = run_center_g(&sh, cfg, RunOptions::sequential());
        assert!(
            one.stats.upstream_bytes() > multi.stats.upstream_bytes(),
            "1-round {}B should exceed adaptive {}B",
            one.stats.upstream_bytes(),
            multi.stats.upstream_bytes()
        );
    }

    #[test]
    fn one_round_empty_site() {
        let mut sh = shards(79);
        sh.push(NodeSet::new(2));
        let (lo, hi) = global_range(&sh);
        let out = run_center_g_one_round(
            &sh,
            CenterGConfig::new(2, 1),
            lo,
            hi,
            RunOptions::sequential(),
        );
        assert!(out.output.centers.len() <= 2);
    }
}
