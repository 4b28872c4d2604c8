//! 1-round variants (Appendix A, Table 2): set `t_i = t` at every site.
//!
//! Without the allocation round each site must hedge by ignoring the full
//! `t` points locally, so communication grows to `O((sk + st)·B)` — the
//! `Θ(st)` burden the paper's 2-round algorithms remove. For the center
//! objective this is precisely the Malkomes et al. \[19\] algorithm (each
//! site ships its `k + t` Gonzalez prefix), which Theorem 4.3 improves on;
//! it doubles as the experimental baseline for E4/E11.

use crate::algo_center::{self, prefix_msg, CenterConfig};
use crate::algo_median::{self, local_evaluate, precluster_msg, site_grid_solve, MedianConfig};
use crate::wire::{DistributedSolution, PreclusterMsg};
use bytes::Bytes;
use dpc_cluster::gonzalez_with;
use dpc_codec::Encoding;
use dpc_coordinator::{run_fleet, Coordinator, CoordinatorStep, ProtocolOutput, RunOptions, Site};
use dpc_metric::{EuclideanMetric, PointSet, WireWriter};

/// Site for the 1-round median/means protocol: one shot, full hedge.
struct OneRoundMedianSite<'a> {
    data: &'a PointSet,
    site_id: usize,
    cfg: MedianConfig,
}

impl Site for OneRoundMedianSite<'_> {
    fn handle(&mut self, round: usize, _msg: &Bytes) -> Bytes {
        assert_eq!(round, 0, "one-round site called twice");
        let n = self.data.len();
        if n == 0 {
            return PreclusterMsg::empty(self.data.dim()).encode_with(self.cfg.encoding);
        }
        let t_local = self.cfg.t.min(n);
        let budget = [t_local as f64];
        let local = site_grid_solve(self.data, self.site_id, &self.cfg, &budget);
        let centers = local.into_iter().next().expect("one solution").centers;
        let sol = local_evaluate(
            self.data,
            self.cfg.means,
            centers,
            budget[0],
            self.cfg.threads,
        );
        precluster_msg(self.data, &sol, true, t_local).encode_with(self.cfg.encoding)
    }
}

/// The one round's kick: an empty payload that still travels inside a
/// codec frame, so the driver can read a raw length out of every
/// delivered payload.
fn empty_kick(encoding: Encoding) -> CoordinatorStep {
    CoordinatorStep::Broadcast(dpc_codec::frame(encoding, WireWriter::new(), &[]))
}

/// Coordinator for the 1-round median/means protocol.
struct OneRoundMedianCoordinator {
    cfg: MedianConfig,
    dim: usize,
    result: Option<DistributedSolution>,
}

impl Coordinator for OneRoundMedianCoordinator {
    type Output = DistributedSolution;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        match round {
            0 => empty_kick(self.cfg.encoding),
            // One-round degradation is trivial: the final solve merges
            // whatever summaries arrived.
            1 => {
                self.result = Some(algo_median::solve_summaries(&self.cfg, self.dim, replies));
                CoordinatorStep::Finish
            }
            r => panic!("one-round coordinator has no round {r}"),
        }
    }

    fn finish(self) -> DistributedSolution {
        self.result.expect("protocol finished")
    }
}

/// Runs the 1-round `(k, (1+ε)t)`-median/means protocol (`t_i = t`
/// everywhere; `O((sk+st)B)` communication).
pub fn run_one_round_median(
    shards: &[PointSet],
    cfg: MedianConfig,
    options: RunOptions,
) -> ProtocolOutput<DistributedSolution> {
    run_fleet(
        shards,
        cfg.threads,
        options.encoding(cfg.encoding),
        |i, ps, threads| OneRoundMedianSite {
            data: ps,
            site_id: i,
            cfg: MedianConfig { threads, ..cfg },
        },
        || OneRoundMedianCoordinator {
            cfg,
            dim: shards[0].dim(),
            result: None,
        },
    )
}

/// Site for the 1-round center protocol (the Malkomes et al. baseline):
/// ships the `k + t` Gonzalez prefix, weighted by attachment counts.
struct OneRoundCenterSite<'a> {
    data: &'a PointSet,
    cfg: CenterConfig,
}

impl Site for OneRoundCenterSite<'_> {
    fn handle(&mut self, round: usize, _msg: &Bytes) -> Bytes {
        assert_eq!(round, 0, "one-round site called twice");
        let n = self.data.len();
        if n == 0 {
            return PreclusterMsg::empty(self.data.dim()).encode_with(self.cfg.encoding);
        }
        let m = EuclideanMetric::new(self.data);
        let ids: Vec<usize> = (0..n).collect();
        let prefix_len = (self.cfg.k + self.cfg.t).min(n);
        let ord = gonzalez_with(&m, &ids, prefix_len, 0, self.cfg.threads);
        prefix_msg(self.data, &ord.order, self.cfg.t, self.cfg.threads)
            .encode_with(self.cfg.encoding)
    }
}

/// Coordinator for the 1-round center protocol.
struct OneRoundCenterCoordinator {
    cfg: CenterConfig,
    dim: usize,
    result: Option<DistributedSolution>,
}

impl Coordinator for OneRoundCenterCoordinator {
    type Output = DistributedSolution;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        match round {
            0 => empty_kick(self.cfg.encoding),
            1 => {
                self.result = Some(algo_center::solve_summaries(&self.cfg, self.dim, replies));
                CoordinatorStep::Finish
            }
            r => panic!("one-round coordinator has no round {r}"),
        }
    }

    fn finish(self) -> DistributedSolution {
        self.result.expect("protocol finished")
    }
}

/// Runs the 1-round `(k,t)`-center protocol (Malkomes et al. style,
/// `O((sk+st)B)` communication).
pub fn run_one_round_center(
    shards: &[PointSet],
    cfg: CenterConfig,
    options: RunOptions,
) -> ProtocolOutput<DistributedSolution> {
    run_fleet(
        shards,
        cfg.threads,
        options.encoding(cfg.encoding),
        |_, ps, threads| OneRoundCenterSite {
            data: ps,
            cfg: CenterConfig { threads, ..cfg },
        },
        || OneRoundCenterCoordinator {
            cfg,
            dim: shards[0].dim(),
            result: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_center::run_distributed_center;
    use crate::algo_median::run_distributed_median;
    use crate::evaluate::evaluate_on_full_data;
    use dpc_metric::Objective;

    fn shards(s: usize, outliers: usize) -> Vec<PointSet> {
        (0..s)
            .map(|i| {
                let mut rows: Vec<Vec<f64>> = (0..30)
                    .map(|j| vec![(i * 100) as f64 + (j % 5) as f64 * 0.1, 0.0])
                    .collect();
                if i == 0 {
                    for o in 0..outliers {
                        rows.push(vec![1e5 + (o as f64) * 1e4, 5e4]);
                    }
                }
                PointSet::from_rows(&rows)
            })
            .collect()
    }

    #[test]
    fn one_round_median_works_but_ships_more() {
        let sh = shards(4, 3);
        let cfg = MedianConfig::new(4, 3);
        let one = run_one_round_median(&sh, cfg, RunOptions::sequential());
        let two = run_distributed_median(&sh, cfg, RunOptions::sequential());
        let (c1, _) = evaluate_on_full_data(&sh, &one.output.centers, 6, Objective::Median);
        let (c2, _) = evaluate_on_full_data(&sh, &two.output.centers, 6, Objective::Median);
        assert!(c1 < 50.0, "one-round cost {c1}");
        assert!(c2 < 50.0, "two-round cost {c2}");
        assert_eq!(one.stats.num_rounds(), 1);
        // Every site hedges t outliers in one round: Σ t_i = s·t versus ≤ 3t.
        assert_eq!(one.output.shipped_outliers, 4 * 3);
        assert!(two.output.shipped_outliers <= 3 * 3);
    }

    #[test]
    fn one_round_center_is_malkomes_baseline() {
        // The 2-round win needs the paper's regime t >> s, k (each 1-round
        // site hedges a full t extra points; 2-round pays only O(log t)
        // profile values plus a shared ~rho*t).
        let sh = shards(3, 20);
        let cfg = CenterConfig::new(3, 20);
        let one = run_one_round_center(&sh, cfg, RunOptions::sequential());
        let two = run_distributed_center(&sh, cfg, RunOptions::sequential());
        let (c1, _) = evaluate_on_full_data(&sh, &one.output.centers, 20, Objective::Center);
        let (c2, _) = evaluate_on_full_data(&sh, &two.output.centers, 20, Objective::Center);
        assert!(c1 <= 6.0, "one-round center cost {c1}");
        assert!(c2 <= 6.0, "two-round center cost {c2}");
        // The 1-round protocol ships k+t points per site; the 2-round one
        // ships k + t_i with Σ t_i ≤ ~ρt, so it wins once s > ~ρ + k-ish.
        assert!(
            two.stats.upstream_bytes() < one.stats.upstream_bytes(),
            "2-round {}B vs 1-round {}B",
            two.stats.upstream_bytes(),
            one.stats.upstream_bytes()
        );
    }

    #[test]
    fn empty_shards_one_round() {
        let mut sh = shards(2, 1);
        sh.push(PointSet::new(2));
        let m = run_one_round_median(&sh, MedianConfig::new(2, 1), RunOptions::sequential());
        assert!(m.output.centers.len() <= 2);
        let c = run_one_round_center(&sh, CenterConfig::new(2, 1), RunOptions::sequential());
        assert!(c.output.centers.len() <= 2);
    }
}
