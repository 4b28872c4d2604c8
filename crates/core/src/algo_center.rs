//! **Algorithm 2**: distributed `(k,t)`-center clustering (Theorem 4.3).
//!
//! The preclustering is Gonzalez's farthest-first traversal \[13\]: the
//! insertion radius of the `(k+q)`-th selected point is simultaneously
//!
//! * a 2-approximate certificate of the local `(k, q)`-center cost
//!   (`ℓ(i,q) = min{d(a_j, a_{k+q}) : j < k+q}`, Algorithm 2 line 4), and
//! * a globally comparable marginal: radii are non-increasing in `q`, so
//!   the per-site profiles are convex with no hull computation needed.
//!
//! To keep communication at `O(log t)` values per site (the same budget as
//! Algorithm 1's hull messages), sites ship the *cumulative* profile
//! `F_i(q) = Σ_{r>q} ℓ(i,r)` sampled on the geometric grid `I`; its
//! piecewise-linear marginals are segment-averages of the true radii, and
//! the `ρ = 2` slack of the allocation absorbs the sampling (this is the
//! natural reading of the paper's "follow the subsequent steps as in
//! Algorithm 1", which ships hulls rather than all `t` marginals).
//!
//! After the allocation, site `i` ships its first `k + t_i` Gonzalez
//! points, each weighted by the number of input points attached to it — per
//! Remark 3, *no* input point is ignored in the preclustering; the
//! tentative outliers travel as weight-1 prefix points. The coordinator
//! runs the Charikar et al. greedy-disk algorithm with exactly `t` outliers
//! on the union (Algorithm 2 line 7).

use crate::allocation::{site_budget_from_threshold, threshold_round};
use crate::hull::ConvexProfile;
use crate::wire::{merge_summaries, DistributedSolution, PreclusterMsg, ThresholdMsg};
use bytes::Bytes;
use dpc_cluster::{charikar_center, gonzalez_with, CenterParams, GonzalezOrdering};
use dpc_codec::Encoding;
use dpc_coordinator::{run_fleet, Coordinator, CoordinatorStep, ProtocolOutput, RunOptions, Site};
use dpc_metric::{EuclideanMetric, NearestAssigner, PointSet, ThreadBudget, WireWriter};

/// Configuration for the distributed `(k,t)`-center protocol.
#[derive(Clone, Copy, Debug)]
pub struct CenterConfig {
    /// Number of centers `k`.
    pub k: usize,
    /// Outlier budget `t` (exactly `t` at the coordinator).
    pub t: usize,
    /// Allocation ratio `ρ` (2 recommended).
    pub rho: f64,
    /// Coordinator-side greedy-disk tuning.
    pub charikar: CenterParams,
    /// Thread budget for the bulk kernels: site Gonzalez relax and weight
    /// attachment, and the coordinator's distance matrix. Sites get it
    /// only when they run one at a time ([`RunOptions::site_threads`]);
    /// the coordinator always does. Wall-clock only.
    pub threads: ThreadBudget,
    /// Wire encoding every protocol message is framed with
    /// ([`Encoding::Raw`] keeps the exact legacy byte layout).
    pub encoding: Encoding,
}

impl CenterConfig {
    /// Defaults: `ρ = 2`, standard Charikar parameters.
    pub fn new(k: usize, t: usize) -> Self {
        Self {
            k,
            t,
            rho: 2.0,
            charikar: CenterParams::default(),
            threads: ThreadBudget::serial(),
            encoding: Encoding::Raw,
        }
    }

    /// Frames every protocol message with the given wire encoding.
    pub fn encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Caps the bulk-kernel thread budget.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = ThreadBudget::new(n);
        self
    }

    fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        w.put_varint(self.k as u64);
        w.put_varint(self.t as u64);
        w.put_f64(self.rho);
        // Framed for uniform driver accounting; sites never decode it.
        dpc_codec::frame(self.encoding, w, &[])
    }
}

/// Site-side state of Algorithm 2.
struct CenterSite<'a> {
    data: &'a PointSet,
    site_id: usize,
    cfg: CenterConfig,
    ordering: Option<GonzalezOrdering>,
    profile: Option<ConvexProfile>,
}

impl<'a> CenterSite<'a> {
    fn new(data: &'a PointSet, site_id: usize, cfg: CenterConfig) -> Self {
        Self {
            data,
            site_id,
            cfg,
            ordering: None,
            profile: None,
        }
    }

    /// Round 0: Gonzalez's traversal and its cumulative-radius profile.
    fn build_profile(&mut self) -> Bytes {
        let n = self.data.len();
        let (k, t) = (self.cfg.k, self.cfg.t);
        let profile = if n == 0 {
            ConvexProfile::lower_hull(&[(0, 0.0)])
        } else {
            let m = EuclideanMetric::new(self.data);
            let ids: Vec<usize> = (0..n).collect();
            // Only the first k + t selections are ever needed (Theorem
            // 4.3's O((k+t)·n_i) site time comes from exactly this cap).
            let ord = gonzalez_with(&m, &ids, k + t + 1, 0, self.cfg.threads);
            // ℓ(i,q) is the insertion radius of the (k+q)-th selection.
            let profile = ConvexProfile::cumulative_radii(&ord.radii, k, t, self.cfg.rho);
            self.ordering = Some(ord);
            profile
        };
        let bytes = profile.encode_with(self.cfg.encoding);
        self.profile = Some(profile);
        bytes
    }

    /// Round 1: derive `t_i` from the threshold on the *shipped* profile
    /// (identical bytes on both ends ⇒ identical marginals ⇒ consistent
    /// tie-breaking) and ship the `k + t_i` Gonzalez prefix.
    fn respond_threshold(&mut self, msg: &Bytes) -> Bytes {
        let thr = ThresholdMsg::decode_with(self.cfg.encoding, msg.clone());
        let n = self.data.len();
        if n == 0 {
            return PreclusterMsg::empty(self.data.dim()).encode_with(self.cfg.encoding);
        }
        let prof = self.profile.as_ref().expect("profile built");
        let ti = site_budget_from_threshold(prof, self.site_id, self.cfg.t, &thr);
        let ord = self.ordering.as_ref().expect("gonzalez run");
        let prefix = (self.cfg.k + ti).min(ord.order.len());
        prefix_msg(self.data, &ord.order[..prefix], ti, self.cfg.threads)
            .encode_with(self.cfg.encoding)
    }
}

/// A center site's summary: the `chosen` Gonzalez prefix, each selection
/// weighted by the points attached to it. Every point is attached (none
/// ignored — Remark 3), in one bulk nearest-selection pass.
pub(crate) fn prefix_msg(
    data: &PointSet,
    chosen: &[usize],
    t_i: usize,
    threads: ThreadBudget,
) -> PreclusterMsg {
    let m = EuclideanMetric::new(data);
    let ids: Vec<usize> = (0..data.len()).collect();
    let assigned = NearestAssigner::with_threads(&m, threads).assign(&ids, chosen);
    let mut weights = vec![0.0f64; chosen.len()];
    for &pos in &assigned.pos {
        weights[pos] += 1.0;
    }
    PreclusterMsg {
        centers: data.subset(chosen),
        weights,
        outliers: PointSet::new(data.dim()),
        t_i: t_i as u64,
    }
}

impl Site for CenterSite<'_> {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        match round {
            0 => self.build_profile(),
            1 => self.respond_threshold(msg),
            r => panic!("center site has no round {r}"),
        }
    }
}

/// Coordinator-side state of Algorithm 2.
struct CenterCoordinator {
    cfg: CenterConfig,
    dim: usize,
    result: Option<DistributedSolution>,
}

impl Coordinator for CenterCoordinator {
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
            r => panic!("center coordinator has no round {r}"),
        }
    }

    fn finish(self) -> DistributedSolution {
        self.result.expect("protocol finished")
    }
}

/// The coordinator's final solve: round 2 of Algorithm 2, and the only
/// round of the one-round protocol. Merges the weighted prefixes that
/// arrived and runs the Charikar et al. greedy-disk algorithm with
/// exactly `t` outliers on the union (Algorithm 2 line 7).
pub(crate) fn solve_summaries(
    cfg: &CenterConfig,
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
    let metric = EuclideanMetric::new(&merged);
    let sol = charikar_center(
        &metric,
        &weighted,
        cfg.k,
        cfg.t as f64,
        CenterParams {
            threads: cfg.threads,
            ..cfg.charikar
        },
    );
    DistributedSolution {
        centers: merged.subset(&sol.centers),
        coordinator_cost: sol.cost,
        excluded_weight: sol.outlier_weight(),
        shipped_outliers: shipped,
    }
}

/// Runs the full distributed `(k,t)`-center protocol over the shards.
pub fn run_distributed_center(
    shards: &[PointSet],
    cfg: CenterConfig,
    options: RunOptions,
) -> ProtocolOutput<DistributedSolution> {
    run_fleet(
        shards,
        cfg.threads,
        options.encoding(cfg.encoding),
        |i, ps, threads| CenterSite::new(ps, i, CenterConfig { threads, ..cfg }),
        || CenterCoordinator {
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
    use dpc_metric::Objective;

    fn shards() -> Vec<PointSet> {
        let mut a = Vec::new();
        for i in 0..25 {
            a.push(vec![(i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2]);
        }
        let mut b = Vec::new();
        for i in 0..25 {
            b.push(vec![300.0 + (i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2]);
        }
        // outliers split across sites
        a.push(vec![-4e3, 0.0]);
        b.push(vec![8e3, 8e3]);
        b.push(vec![0.0, -6e3]);
        vec![PointSet::from_rows(&a), PointSet::from_rows(&b)]
    }

    #[test]
    fn center_recovers_clusters() {
        let shards = shards();
        let out =
            run_distributed_center(&shards, CenterConfig::new(2, 3), RunOptions::sequential());
        let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 3, Objective::Center);
        // Optimal radius ~ 0.57 (grid diagonal); allow the distributed
        // constant factor.
        assert!(cost <= 6.0, "true center cost {cost}");
        assert_eq!(out.stats.num_rounds(), 2);
    }

    #[test]
    fn exactly_t_outliers_at_coordinator() {
        let shards = shards();
        let out =
            run_distributed_center(&shards, CenterConfig::new(2, 3), RunOptions::sequential());
        assert!(out.output.excluded_weight <= 3.0 + 1e-9);
    }

    #[test]
    fn communication_is_sublinear_in_n() {
        // Doubling points per site must not change round-1/2 bytes
        // (profiles are O(log t), summaries O(k + t_i)).
        let mk = |per: usize| {
            let rows: Vec<Vec<f64>> = (0..per)
                .map(|i| vec![(i % 7) as f64, (i % 11) as f64])
                .collect();
            vec![PointSet::from_rows(&rows), PointSet::from_rows(&rows)]
        };
        let small = mk(100);
        let big = mk(200);
        let cfg = CenterConfig::new(3, 5);
        let so = run_distributed_center(&small, cfg, RunOptions::sequential());
        let bo = run_distributed_center(&big, cfg, RunOptions::sequential());
        // Weights differ (varint size may wiggle by a byte or two) but the
        // totals must be essentially identical, not 2x.
        let s = so.stats.upstream_bytes() as f64;
        let b = bo.stats.upstream_bytes() as f64;
        assert!(b <= 1.1 * s, "upstream bytes grew with n: {s} -> {b}");
    }

    #[test]
    fn single_site() {
        let shards = vec![shards().remove(0)];
        let out =
            run_distributed_center(&shards, CenterConfig::new(1, 1), RunOptions::sequential());
        let (cost, _) = evaluate_on_full_data(&shards, &out.output.centers, 1, Objective::Center);
        assert!(cost <= 4.0, "cost {cost}");
    }

    #[test]
    fn empty_and_tiny_sites() {
        let mut s = shards();
        s.push(PointSet::new(2));
        s.push(PointSet::from_rows(&[vec![0.1, 0.1]]));
        let out = run_distributed_center(&s, CenterConfig::new(2, 3), RunOptions::sequential());
        let (cost, _) = evaluate_on_full_data(&s, &out.output.centers, 3, Objective::Center);
        assert!(cost <= 6.0, "cost {cost}");
    }
}
