//! Continuous distributed clustering: every site ingests its own stream
//! and the fleet periodically re-runs the paper's 2-round protocol on the
//! sites' *current summaries*.
//!
//! Each simulated site owns a [`StreamEngine`]; every `sync_every`
//! ingested points (across the fleet) a sync fires. A sync is a faithful
//! weighted re-run of Algorithm 1 over the live summary instances —
//! round 0 ships each site's lower convex hull of
//! `{(q, C_sol(S_i, 2k, q))}` over the geometric grid, the coordinator
//! runs Algorithm 1's threshold round ([`dpc_core::threshold_round`],
//! the same water-filling over responders as the batch protocols), and
//! each site derives its `t_i` by the shared rule
//! ([`dpc_core::site_budget_from_threshold`]) and ships `2k` weighted
//! centers plus its `t_i` outlier entries. Only the local solve (over a
//! weighted summary, not a raw shard) and the upload
//! ([`SummaryMsg`], with weighted outliers and a reference-coding
//! dictionary) are the sync's own. Every byte crosses the
//! wire and is charged through [`CommStats`], so the communication cost
//! of *keeping the clustering current* is measured per sync, exactly
//! like the one-shot protocols. The sync builds its fleet like the batch
//! protocols ([`dpc_coordinator::run_fleet`], which also gives each site
//! its kernel budget): one [`TransportKind`] /
//! [`LinkModel`] switch moves both paths between in-process channels
//! and the loopback-socket event-loop backend (mux), with identical byte
//! accounting. Because sites summarize
//! locally, a sync costs `O((s·k + t)·B)` regardless of how many points
//! arrived since the last one.

use crate::engine::{StreamConfig, StreamEngine};
use crate::wire::SummaryMsg;
use bytes::Bytes;
use dpc_cluster::{BicriteriaParams, Solution};
use dpc_codec::Encoding;
use dpc_coordinator::{
    run_fleet, CommStats, Coordinator, CoordinatorStep, FaultPlan, LinkModel, RunOptions, Site,
    TransportKind,
};
use dpc_core::wire::ThresholdMsg;
use dpc_core::{geometric_grid, site_budget_from_threshold, threshold_round, ConvexProfile};
use dpc_metric::{
    EuclideanMetric, Objective, PointSet, SquaredMetric, ThreadBudget, WeightedSet, WireWriter,
};
use dpc_obs::{Counter, Event, RecorderHandle};
use std::sync::{Arc, Mutex};

use crate::summary::{solve_weighted, solve_weighted_grid};

/// Configuration of the continuous distributed mode.
#[derive(Clone, Debug)]
pub struct ContinuousConfig {
    /// Per-site streaming engine configuration (k, t, objective, blocks).
    pub stream: StreamConfig,
    /// Grid/allocation ratio ρ of the sync protocol.
    pub rho: f64,
    /// Coordinator-side outlier relaxation ε at sync time.
    pub eps: f64,
    /// Fleet-wide ingested points between automatic syncs.
    pub sync_every: u64,
    /// Serve a sync's sites from `stream.threads` shards (`true`) or
    /// from one shard, every site on the caller's thread (`false`) —
    /// the batch jobs' rule; see [`RunOptions::shards`].
    pub parallel: bool,
    /// Transport backend the sync protocol executes on — the same
    /// runtime and backends as the one-shot batch protocols, so one
    /// switch covers both paths.
    pub transport: TransportKind,
    /// Simulated link model charged per sync round.
    pub link: LinkModel,
    /// Fault plan applied to every sync. Each sync re-derives an
    /// independent per-sync seed ([`FaultPlan::derive`] on the sync
    /// index), so a site that drops out of one sync participates in the
    /// next — crash-stop aliveness is scoped to a single protocol
    /// execution, not the fleet's lifetime.
    pub faults: FaultPlan,
    /// Wire encoding every sync message is framed with. From the second
    /// sync on, each site's round-1 summary upload is also
    /// reference-coded against its upload from the *previous* sync — the
    /// continuous mode's natural dictionary. Under [`Encoding::F32`]
    /// that stage runs after quantization, against the previous
    /// quantized body, so the two gains compose; under
    /// [`Encoding::Rlz`] it runs on the raw summary.
    pub encoding: Encoding,
}

impl ContinuousConfig {
    /// Defaults: ρ = 2, ε = 1, sync every 1024 points, one shard on the
    /// in-process channel backend over an ideal link.
    pub fn new(k: usize, t: usize) -> Self {
        Self {
            stream: StreamConfig::new(k, t),
            rho: 2.0,
            eps: 1.0,
            sync_every: 1024,
            parallel: false,
            transport: TransportKind::Channel,
            link: LinkModel::ideal(),
            faults: FaultPlan::none(),
            encoding: Encoding::Raw,
        }
    }

    /// Frames every sync message with the given wire encoding.
    pub fn encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Switches the sync protocol's transport backend.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the simulated link model of the sync protocol.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Sets the fault plan injected into every sync.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the sync cadence.
    pub fn sync_every(mut self, points: u64) -> Self {
        assert!(points > 0, "sync cadence must be positive");
        self.sync_every = points;
        self
    }

    fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        w.put_varint(self.stream.k as u64);
        w.put_varint(self.stream.t as u64);
        w.put_f64(self.rho);
        w.put_f64(self.eps);
        w.put_varint(u64::from(self.stream.objective == Objective::Means));
        // Framed like every sync message for uniform driver accounting.
        dpc_codec::frame(self.encoding, w, &[])
    }
}

/// Record of one executed sync.
#[derive(Clone, Debug)]
pub struct SyncRecord {
    /// Fleet-wide ingested point count when the sync fired.
    pub at: u64,
    /// Full per-round communication/compute accounting of the sync.
    pub stats: CommStats,
    /// Centers chosen by the coordinator.
    pub centers: PointSet,
    /// Coordinator objective value over the merged summary instance.
    pub cost: f64,
    /// Outlier weight the coordinator excluded.
    pub excluded_weight: f64,
}

/// A fleet of streaming sites plus the periodic sync machinery.
#[derive(Debug)]
pub struct ContinuousCluster {
    cfg: ContinuousConfig,
    dim: usize,
    sites: Vec<StreamEngine>,
    ingested: u64,
    since_sync: u64,
    recorder: RecorderHandle,
    /// Per-site reference dictionary slot: the stage input of the
    /// summary the site uploaded in its last *delivered* sync round (see
    /// [`dpc_codec::frame_and_next_dict`]). A site writes its slot
    /// exactly when the coordinator receives its reply (the fault plan
    /// decides delivery before the site runs), so encoder and decoder
    /// always agree on the reference.
    prev_summaries: Vec<Arc<Mutex<Option<Bytes>>>>,
    /// Every sync executed so far, in order.
    pub history: Vec<SyncRecord>,
}

impl Clone for ContinuousCluster {
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            dim: self.dim,
            sites: self.sites.clone(),
            ingested: self.ingested,
            since_sync: self.since_sync,
            recorder: self.recorder.clone(),
            // Deep-copy the dictionary slots: a cloned fleet must not
            // mutate the original's references.
            prev_summaries: self
                .prev_summaries
                .iter()
                .map(|s| Arc::new(Mutex::new(s.lock().unwrap().clone())))
                .collect(),
            history: self.history.clone(),
        }
    }
}

impl ContinuousCluster {
    /// Creates a fleet of `sites` streaming engines over `R^dim`.
    pub fn new(dim: usize, sites: usize, cfg: ContinuousConfig) -> Self {
        assert!(sites > 0, "need at least one site");
        cfg.stream.validate();
        assert!(
            cfg.eps.is_finite() && cfg.eps >= 0.0,
            "sync eps must be finite and non-negative, got {}",
            cfg.eps
        );
        assert!(
            cfg.stream.objective != Objective::Center,
            "continuous sync re-runs Algorithm 1 (median/means only)"
        );
        Self {
            sites: (0..sites)
                .map(|_| StreamEngine::new(dim, cfg.stream))
                .collect(),
            prev_summaries: (0..sites).map(|_| Arc::new(Mutex::new(None))).collect(),
            cfg,
            dim,
            ingested: 0,
            since_sync: 0,
            recorder: RecorderHandle::noop(),
            history: Vec::new(),
        }
    }

    /// Attaches an observability recorder to the fleet: every site's
    /// streaming engine tallies summarize/merge counters through it, and
    /// each sync emits `SyncStart`/`SyncEnd` events plus the full span
    /// tree of its underlying 2-round protocol run.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        for s in &mut self.sites {
            s.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
        self
    }

    /// Number of simulated sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Fleet-wide ingested point count.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Total live summary entries across all sites.
    pub fn live_points(&self) -> usize {
        self.sites.iter().map(StreamEngine::live_points).sum()
    }

    /// Ingests one point at `site`; fires a sync when the cadence is due.
    /// Returns the index into [`Self::history`] of the sync it triggered,
    /// if any.
    pub fn ingest(&mut self, site: usize, coords: &[f64]) -> Option<usize> {
        self.sites[site].push(coords);
        self.ingested += 1;
        self.since_sync += 1;
        if self.since_sync >= self.cfg.sync_every {
            Some(self.sync())
        } else {
            None
        }
    }

    /// The most recent sync result, if any sync has fired.
    pub fn latest(&self) -> Option<&SyncRecord> {
        self.history.last()
    }

    /// Total bytes moved on the simulated wire across all syncs.
    pub fn total_comm_bytes(&self) -> usize {
        self.history.iter().map(|r| r.stats.total_bytes()).sum()
    }

    /// Runs a sync only if points arrived since the last one (or none has
    /// run yet), returning the index of the sync that covers the current
    /// ingest count. The teardown idiom: callers finishing a stream want a
    /// final sync without duplicating one the cadence just fired.
    pub fn sync_if_stale(&mut self) -> usize {
        match self.history.iter().rposition(|r| r.at == self.ingested) {
            Some(i) => i,
            None => self.sync(),
        }
    }

    /// Runs the 2-round sync protocol now, regardless of cadence, and
    /// returns the index of the new [`SyncRecord`].
    pub fn sync(&mut self) -> usize {
        self.since_sync = 0;
        if self.recorder.enabled() {
            self.recorder.record(Event::SyncStart {
                sync: self.history.len(),
                at: self.ingested,
            });
        }
        for s in &mut self.sites {
            s.flush();
        }
        // Each sync gets an independently-seeded copy of the fault plan:
        // dropout in one sync must not doom a site for the fleet's
        // remaining lifetime.
        let options = self.sync_options(self.cfg.faults.derive(self.history.len() as u64));
        let instances: Vec<(PointSet, WeightedSet)> =
            self.sites.iter().map(StreamEngine::live_instance).collect();
        // Snapshot the pre-sync dictionaries now: sites overwrite their
        // slots with this sync's uploads while the protocol runs, and
        // the coordinator must decode against the *previous* ones.
        let dicts: Vec<Bytes> = self
            .prev_summaries
            .iter()
            .map(|s| s.lock().unwrap().clone().unwrap_or_default())
            .collect();
        let out = run_fleet(
            &instances,
            self.cfg.stream.threads,
            options,
            |i, instance, threads| self.summary_site(i, instance, threads),
            || SyncCoordinator {
                cfg: self.cfg.clone(),
                dim: self.dim,
                dicts,
                result: None,
            },
        );
        let (centers, cost, excluded_weight) = out.output;
        if self.recorder.enabled() {
            self.recorder.record(Event::SyncEnd {
                sync: self.history.len(),
                bytes: out.stats.total_bytes() as u64,
            });
            self.recorder.add(Counter::SyncsRun, 1);
        }
        self.history.push(SyncRecord {
            at: self.ingested,
            stats: out.stats,
            centers,
            cost,
            excluded_weight,
        });
        self.history.len() - 1
    }

    /// Runtime options of one sync under the given fault plan.
    fn sync_options(&self, faults: FaultPlan) -> RunOptions {
        let shards = if self.cfg.parallel {
            self.cfg.stream.threads.get()
        } else {
            1
        };
        RunOptions {
            faults,
            recorder: self.recorder.clone(),
            ..RunOptions::new()
                .transport(self.cfg.transport)
                .link(self.cfg.link)
                .encoding(self.cfg.encoding)
                .shards(shards)
        }
    }

    /// Sync site `i` over its live `instance`, solving with the kernel
    /// budget `threads` the fleet gives it.
    fn summary_site<'a>(
        &self,
        i: usize,
        (pts, w): &'a (PointSet, WeightedSet),
        threads: ThreadBudget,
    ) -> SummarySite<'a> {
        let mut cfg = self.cfg.clone();
        cfg.stream.threads = threads;
        SummarySite::new(pts, w, i, cfg, Arc::clone(&self.prev_summaries[i]))
    }
}

/// Site-side state of the weighted sync protocol: Algorithm 1's site
/// over a weighted summary instance instead of a raw shard. It shares
/// the hull and the `t_i` rule with the batch sites; its grid solve and
/// its [`SummaryMsg`] upload are its own.
struct SummarySite<'a> {
    pts: &'a PointSet,
    w: &'a WeightedSet,
    site_id: usize,
    cfg: ContinuousConfig,
    /// This site's reference dictionary slot (see
    /// [`ContinuousCluster::prev_summaries`]): read to reference-code
    /// this sync's upload, then overwritten with its stage input.
    prev: Arc<Mutex<Option<Bytes>>>,
    grid: Vec<usize>,
    sols: Vec<Solution>,
    profile: Option<ConvexProfile>,
}

impl<'a> SummarySite<'a> {
    fn new(
        pts: &'a PointSet,
        w: &'a WeightedSet,
        site_id: usize,
        cfg: ContinuousConfig,
        prev: Arc<Mutex<Option<Bytes>>>,
    ) -> Self {
        Self {
            pts,
            w,
            site_id,
            cfg,
            prev,
            grid: Vec::new(),
            sols: Vec::new(),
            profile: None,
        }
    }

    /// Frames this sync's summary upload against the previous sync's
    /// upload, then installs its stage input as the next dictionary.
    fn ship_summary(&self, msg: &SummaryMsg) -> Bytes {
        let mut slot = self.prev.lock().unwrap();
        let dict = slot.take().unwrap_or_default();
        let (framed, next) = msg.encode_and_next_dict(self.cfg.encoding, &dict);
        *slot = Some(next);
        framed
    }

    /// The grid solve's parameters: the engine's solver (with the site's
    /// kernel budget), no outlier relaxation, and a per-site seed.
    fn grid_params(&self) -> BicriteriaParams {
        let mut params = self.cfg.stream.solver_params();
        params.eps = 0.0;
        params.ls.seed = params.ls.seed.wrapping_add(self.site_id as u64);
        params
    }

    fn evaluate(&self, centers: Vec<usize>, budget: f64) -> Solution {
        let obj = self.cfg.stream.objective;
        if obj == Objective::Means {
            let m = SquaredMetric::new(EuclideanMetric::new(self.pts));
            Solution::evaluate(&m, self.w, centers, budget, Objective::Median)
        } else {
            let m = EuclideanMetric::new(self.pts);
            Solution::evaluate(&m, self.w, centers, budget, Objective::Median)
        }
    }

    /// Round 0: cost profile over the geometric grid, hull shipped.
    fn build_profile(&mut self) -> Bytes {
        let t = self.cfg.stream.t;
        self.grid = geometric_grid(t, self.cfg.rho.max(1.0 + 1e-9));
        // An empty live summary needs no special case: both solvers
        // return an empty zero-cost solution per grid point.
        let params = self.grid_params();
        let budgets: Vec<f64> = self.grid.iter().map(|&q| q as f64).collect();
        self.sols = solve_weighted_grid(
            self.pts,
            self.w,
            2 * self.cfg.stream.k,
            &budgets,
            self.cfg.stream.objective,
            params,
        );
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

    /// Round 1: derive `t_i` (the shared Algorithm 1 line 12–13 rule),
    /// re-evaluate the matching grid solution, ship the weighted summary.
    fn respond_threshold(&mut self, msg: &Bytes) -> Bytes {
        let thr = ThresholdMsg::decode_with(self.cfg.encoding, msg.clone());
        if self.w.is_empty() {
            return self.ship_summary(&SummaryMsg::empty(self.pts.dim()));
        }
        let prof = self.profile.as_ref().expect("profile built in round 0");
        let ti = site_budget_from_threshold(prof, self.site_id, self.cfg.stream.t, &thr);
        let gi = self
            .grid
            .binary_search(&ti)
            .unwrap_or_else(|_| panic!("t_i = {ti} is not a grid point"));
        let centers = self.sols[gi].centers.clone();
        // Same clamp as the batch protocol's `ti.min(n)`: a site whose live
        // weight is below its allotted t_i must not exclude everything (and
        // then ship every live entry as a weighted outlier).
        let budget = (ti as f64).min(self.w.total_weight());
        let sol = self.evaluate(centers, budget);
        self.ship_summary(&SummaryMsg::from_solution(
            self.pts, self.w, &sol, ti as u64,
        ))
    }
}

impl Site for SummarySite<'_> {
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
        match round {
            0 => self.build_profile(),
            1 => self.respond_threshold(msg),
            r => panic!("sync site has no round {r}"),
        }
    }
}

/// Coordinator side of the sync protocol.
struct SyncCoordinator {
    cfg: ContinuousConfig,
    dim: usize,
    /// Per-site decode dictionaries: each site's previous-sync upload
    /// (its stage input), snapshotted before this sync's protocol
    /// started.
    dicts: Vec<Bytes>,
    result: Option<(PointSet, f64, f64)>,
}

impl Coordinator for SyncCoordinator {
    type Output = (PointSet, f64, f64);

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        match round {
            0 => CoordinatorStep::Broadcast(self.cfg.encode()),
            1 => CoordinatorStep::Messages(threshold_round(
                &replies,
                self.cfg.stream.t,
                self.cfg.rho,
                self.cfg.encoding,
            )),
            2 => {
                self.result = Some(self.solve_final(replies));
                CoordinatorStep::Finish
            }
            r => panic!("sync coordinator has no round {r}"),
        }
    }

    fn finish(self) -> (PointSet, f64, f64) {
        self.result.expect("protocol finished")
    }
}

impl SyncCoordinator {
    /// Merge whatever summaries arrived; a dropped site's live points are
    /// simply absent from this sync (they return in the next one).
    fn solve_final(&self, replies: Vec<Option<Bytes>>) -> (PointSet, f64, f64) {
        let msgs: Vec<SummaryMsg> = replies
            .into_iter()
            .enumerate()
            .filter_map(|(i, r)| {
                // Decode site i's upload against site i's dictionary: the
                // responder index must survive the drop-out filter.
                r.map(|b| SummaryMsg::decode_with(self.cfg.encoding, b, &self.dicts[i]))
            })
            .collect();
        let dim = msgs
            .iter()
            .find(|m| !m.centers.is_empty() || !m.outliers.is_empty())
            .map(|m| m.centers.dim())
            .unwrap_or(self.dim);
        let mut merged = PointSet::new(dim);
        let mut weighted = WeightedSet::new();
        for m in &msgs {
            m.append_to(&mut merged, &mut weighted);
        }
        if weighted.is_empty() {
            return (PointSet::new(dim), 0.0, 0.0);
        }
        let mut params = self.cfg.stream.solver_params();
        params.eps = self.cfg.eps;
        let sol = solve_weighted(
            &merged,
            &weighted,
            self.cfg.stream.k,
            self.cfg.stream.t as f64,
            self.cfg.stream.objective,
            params,
        );
        let excluded = sol.outlier_weight();
        (merged.subset(&sol.centers), sol.cost, excluded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(cluster: &mut ContinuousCluster, n: usize) {
        let s = cluster.num_sites();
        for i in 0..n {
            let c = (i % 3) as f64 * 200.0;
            cluster.ingest(i % s, &[c + 0.01 * (i % 5) as f64, 0.0]);
        }
    }

    #[test]
    fn syncs_fire_on_cadence_and_charge_bytes() {
        let cfg = ContinuousConfig {
            stream: StreamConfig::new(3, 2).block(64),
            ..ContinuousConfig::new(3, 2)
        }
        .sync_every(500);
        let mut c = ContinuousCluster::new(2, 3, cfg);
        feed(&mut c, 1600);
        assert_eq!(c.history.len(), 3); // at 500, 1000, 1500
        for rec in &c.history {
            assert_eq!(rec.stats.num_rounds(), 2, "the paper's 2 rounds");
            assert!(rec.stats.total_bytes() > 0);
        }
        assert!(c.total_comm_bytes() > 0);
    }

    #[test]
    fn sync_recovers_clusters() {
        let cfg = ContinuousConfig {
            stream: StreamConfig::new(3, 2).block(64),
            ..ContinuousConfig::new(3, 2)
        }
        .sync_every(900);
        let mut c = ContinuousCluster::new(2, 3, cfg);
        feed(&mut c, 900);
        // Two planted outliers after the fact, then a manual sync.
        c.ingest(0, &[9e4, 9e4]);
        c.ingest(1, &[-8e4, 0.0]);
        c.sync();
        let rec = c.latest().unwrap();
        assert_eq!(rec.centers.len(), 3);
        for planted in [0.0, 200.0, 400.0] {
            let near =
                (0..rec.centers.len()).any(|i| (rec.centers.point(i)[0] - planted).abs() < 1.0);
            assert!(near, "no center near {planted}: {:?}", rec.centers);
        }
    }

    #[test]
    fn sync_bytes_independent_of_stream_length() {
        // Summaries keep sync cost flat while the stream grows 8x.
        let mk = |n: usize| {
            let cfg = ContinuousConfig {
                stream: StreamConfig::new(2, 2).block(64),
                ..ContinuousConfig::new(2, 2)
            }
            .sync_every(u64::MAX);
            let mut c = ContinuousCluster::new(2, 2, cfg);
            feed(&mut c, n);
            c.sync();
            c.latest().unwrap().stats.total_bytes()
        };
        let small = mk(512);
        let big = mk(4096);
        assert!(big <= small * 3, "sync bytes grew with n: {small} -> {big}");
    }

    #[test]
    fn socket_syncs_match_channel_sync() {
        // One backend switch covers the streaming path too: the same
        // fleet synced over the mux backend's loopback sockets must
        // charge the same bytes and pick the same centers as the
        // in-process backend.
        let run = |transport: TransportKind| {
            let cfg = ContinuousConfig {
                stream: StreamConfig::new(2, 1).block(32),
                ..ContinuousConfig::new(2, 1)
            }
            .sync_every(u64::MAX)
            .transport(transport);
            let mut c = ContinuousCluster::new(2, 2, cfg);
            feed(&mut c, 300);
            c.sync();
            let rec = c.latest().unwrap().clone();
            (rec.stats, rec.centers, rec.cost)
        };
        let (a_stats, a_centers, a_cost) = run(TransportKind::Channel);
        let (b_stats, b_centers, b_cost) = run(TransportKind::Mux);
        assert_eq!(a_stats.num_rounds(), b_stats.num_rounds());
        for (ra, rb) in a_stats.rounds.iter().zip(&b_stats.rounds) {
            assert_eq!(ra.coordinator_to_sites, rb.coordinator_to_sites);
            assert_eq!(ra.sites_to_coordinator, rb.sites_to_coordinator);
        }
        assert_eq!(a_cost, b_cost);
        assert_eq!(a_centers.len(), b_centers.len());
        for i in 0..a_centers.len() {
            assert_eq!(a_centers.point(i), b_centers.point(i));
        }
    }

    #[test]
    fn link_model_charges_sync_network_time() {
        let cfg = ContinuousConfig {
            stream: StreamConfig::new(2, 1).block(32),
            ..ContinuousConfig::new(2, 1)
        }
        .sync_every(u64::MAX)
        .link(LinkModel::new(std::time::Duration::from_millis(5), 1e6));
        let mut c = ContinuousCluster::new(2, 2, cfg);
        feed(&mut c, 200);
        c.sync();
        let stats = &c.latest().unwrap().stats;
        // 2 rounds, each paying at least down+up latency.
        assert!(stats.network_time() >= std::time::Duration::from_millis(20));
    }

    #[test]
    fn sync_if_stale_skips_covered_ingests() {
        let cfg = ContinuousConfig {
            stream: StreamConfig::new(2, 1).block(32),
            ..ContinuousConfig::new(2, 1)
        }
        .sync_every(100);
        let mut c = ContinuousCluster::new(2, 2, cfg);
        feed(&mut c, 100); // cadence fires exactly at 100
        assert_eq!(c.history.len(), 1);
        let idx = c.sync_if_stale();
        assert_eq!((idx, c.history.len()), (0, 1), "no duplicate sync");
        c.ingest(0, &[1.0, 1.0]);
        let idx = c.sync_if_stale();
        assert_eq!((idx, c.history.len()), (1, 2), "stale ingest forces a sync");
    }

    #[test]
    fn rlz_sync_references_previous_summary() {
        // A slowly drifting fleet produces near-identical consecutive
        // summaries; once the first sync seeds the per-site dictionaries,
        // RLZ syncs must (a) pick exactly the centers a Raw run picks
        // (lossless) and (b) spend visibly fewer wire bytes than their
        // own raw payloads.
        let run = |encoding: Encoding| {
            let cfg = ContinuousConfig {
                stream: StreamConfig::new(3, 2).block(64),
                ..ContinuousConfig::new(3, 2)
            }
            .sync_every(u64::MAX)
            .encoding(encoding);
            let mut c = ContinuousCluster::new(2, 3, cfg);
            feed(&mut c, 600);
            c.sync(); // seeds the dictionaries
            feed(&mut c, 60); // small drift
            c.sync(); // reference-coded against sync 0
            c
        };
        let raw = run(Encoding::Raw);
        let rlz = run(Encoding::Rlz);
        let (raw_rec, rlz_rec) = (&raw.history[1], &rlz.history[1]);
        assert_eq!(raw_rec.centers.len(), rlz_rec.centers.len());
        for i in 0..raw_rec.centers.len() {
            assert_eq!(raw_rec.centers.point(i), rlz_rec.centers.point(i));
        }
        assert_eq!(raw_rec.cost, rlz_rec.cost, "RLZ is lossless");
        // Pre-codec sizes match the raw run; wire bytes shrink on the
        // dictionary-backed second sync.
        assert_eq!(rlz_rec.stats.raw_bytes(), raw_rec.stats.total_bytes());
        assert!(
            rlz_rec.stats.compression_ratio() > 1.2,
            "second-sync ratio {}",
            rlz_rec.stats.compression_ratio()
        );
    }

    #[test]
    fn f32_sync_references_previous_quantized_summary() {
        // Sync 0 has no dictionary, so the reference stage is off; from
        // sync 1 on, each site codes its quantized summary against its
        // previous one. A twin fleet whose dictionaries are wiped before
        // every sync never runs the stage: it must match sync 0 byte for
        // byte, upload more from sync 1 on, and agree on every center
        // and cost (the stage is lossless over the quantized body).
        let mk = |encoding: Encoding| {
            let cfg = ContinuousConfig {
                stream: StreamConfig::new(3, 2).block(64),
                ..ContinuousConfig::new(3, 2)
            }
            .sync_every(u64::MAX)
            .encoding(encoding);
            ContinuousCluster::new(2, 3, cfg)
        };
        let uploads = |c: &ContinuousCluster, sync: usize| -> Vec<usize> {
            c.history[sync].stats.rounds[1].sites_to_coordinator.clone()
        };
        let (mut staged, mut plain, mut rlz) =
            (mk(Encoding::F32), mk(Encoding::F32), mk(Encoding::Rlz));
        for sync in 0..3 {
            for c in [&mut staged, &mut plain, &mut rlz] {
                feed(c, if sync == 0 { 600 } else { 60 });
            }
            for slot in &plain.prev_summaries {
                *slot.lock().unwrap() = None;
            }
            for c in [&mut staged, &mut plain, &mut rlz] {
                c.sync();
            }
            let (a, b) = (&staged.history[sync], &plain.history[sync]);
            assert_eq!(a.centers, b.centers, "sync {sync}");
            assert_eq!(a.cost, b.cost, "sync {sync}");
            assert_eq!(a.stats.raw_bytes(), b.stats.raw_bytes(), "sync {sync}");
            let (with, without) = (uploads(&staged, sync), uploads(&plain, sync));
            if sync == 0 {
                assert_eq!(with, without, "no dictionary on the first sync");
            } else {
                for (site, (w, wo)) in with.iter().zip(&without).enumerate() {
                    assert!(w < wo, "sync {sync} site {site}: {w}B not below {wo}B");
                }
            }
        }
        // Quantize-then-reference beats referencing the raw summary.
        let (f32_rec, rlz_rec) = (&staged.history[1], &rlz.history[1]);
        assert_eq!(f32_rec.stats.raw_bytes(), rlz_rec.stats.raw_bytes());
        assert!(
            f32_rec.stats.total_bytes() < rlz_rec.stats.total_bytes(),
            "f32 {}B not below rlz {}B",
            f32_rec.stats.total_bytes(),
            rlz_rec.stats.total_bytes()
        );
    }

    #[test]
    fn sync_shards_follow_the_thread_budget() {
        // The batch jobs' rule: `threads` shards when parallel, else one;
        // each site solves serially when shards run sites at once, with
        // the whole budget when one shard runs them in turn.
        let shards = |parallel: bool, threads: usize| {
            let cfg = ContinuousConfig {
                stream: StreamConfig::new(2, 1).threads(threads),
                parallel,
                ..ContinuousConfig::new(2, 1)
            };
            let fleet = ContinuousCluster::new(2, 8, cfg);
            let options = fleet.sync_options(FaultPlan::none());
            let budget = options.site_threads(fleet.num_sites(), fleet.cfg.stream.threads);
            let instance = fleet.sites[0].live_instance();
            // The budget must reach the kernels the site's grid solve runs.
            let params = fleet.summary_site(0, &instance, budget).grid_params();
            assert_eq!(params.ls.threads, budget);
            (options.shards, params.ls.threads.get())
        };
        assert_eq!(shards(true, 3), (Some(3), 1));
        assert_eq!(shards(true, 1), (Some(1), 1));
        assert_eq!(shards(false, 4), (Some(1), 4));
    }

    #[test]
    fn empty_fleet_sync_is_graceful() {
        let mut c = ContinuousCluster::new(2, 2, ContinuousConfig::new(2, 1));
        c.sync();
        let rec = c.latest().unwrap();
        assert!(rec.centers.is_empty());
        assert_eq!(rec.cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "median/means")]
    fn center_objective_rejected() {
        let cfg = ContinuousConfig {
            stream: StreamConfig::new(2, 1).center(),
            ..ContinuousConfig::new(2, 1)
        };
        let _ = ContinuousCluster::new(2, 2, cfg);
    }
}
