//! The typed front door: describe a run as a [`Job`], refine it with the
//! fluent [`JobBuilder`], check it with [`JobBuilder::validate`], execute
//! it with [`ValidJob::run`].

use crate::artifact::{round_breakdowns, Artifact};
use crate::data::Dataset;
use crate::error::{ConfigError, ConfigWarning};
use dpc_codec::Encoding;
use dpc_coordinator::{FaultPlan, LinkModel, RunOptions, TransportKind};
use dpc_core::{
    evaluate_on_full_data_recorded, merge_shards, run_distributed_center, run_distributed_median,
    run_one_round_center, run_one_round_median, subquadratic_median, CenterConfig, MedianConfig,
    SubquadraticParams,
};
use dpc_metric::{Objective, PointSet, ThreadBudget};
use dpc_obs::{Collector, Event, RecorderHandle};
use dpc_stream::{
    ContinuousCluster, ContinuousConfig, SlidingWindowEngine, StreamConfig, StreamEngine,
};
use dpc_uncertain::{
    estimate_expected_cost_recorded, run_center_g, run_center_g_one_round, run_uncertain_median,
    CenterGConfig, UncertainConfig,
};
use dpc_workloads::{gaussian_blobs, BlobsSpec, PartitionStrategy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// On-disk format of a job trace ([`JobBuilder::trace`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line, schema [`dpc_obs::TRACE_SCHEMA`] — the
    /// deterministic, diffable format (identical seeds produce identical
    /// bytes on every transport backend).
    #[default]
    Jsonl,
    /// Chrome trace-event JSON, openable in `chrome://tracing` or
    /// Perfetto. Schematic: mixes wall-clock and simulated time, and is
    /// not byte-deterministic.
    Chrome,
}

/// Which protocol a job targets — every entry point in the workspace,
/// behind one enum.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum Job {
    /// 2-round distributed `(k,(1+ε)t)`-median (Algorithm 1).
    Median,
    /// 2-round distributed `(k,(1+ε)t)`-means.
    Means,
    /// 2-round distributed `(k,t)`-center (Algorithm 2).
    Center,
    /// The 1-round `O((sk+st)B)` baselines of Table 2.
    OneRound {
        /// Which objective's baseline.
        objective: Objective,
    },
    /// Uncertain `(k,t)`-median via the compressed graph (Algorithm 3).
    UncertainMedian,
    /// Uncertain `(k,t)`-center-g (Algorithm 4).
    CenterG {
        /// `Some((d_min, d_max))` runs the 1-round variant, which needs
        /// the global distance range a priori.
        d_range: Option<(f64, f64)>,
    },
    /// Single-machine streaming (merge-and-reduce; `window > 0` solves
    /// over a sliding window instead of the whole stream).
    Stream {
        /// Query objective.
        objective: Objective,
        /// Sliding-window length in points (0 = insertion-only).
        window: u64,
    },
    /// Continuous distributed streaming: per-site engines plus the
    /// periodic 2-round sync protocol.
    Continuous {
        /// Query/sync objective (median or means).
        objective: Objective,
        /// Fleet-wide ingested points between syncs.
        sync_every: u64,
    },
    /// Centralized subquadratic `(k,2t)`-median (Theorem 3.10).
    Subquadratic,
}

impl Job {
    /// Stable name of the protocol (used in artifacts and tables).
    pub fn name(&self) -> &'static str {
        match self {
            Job::Median => "median",
            Job::Means => "means",
            Job::Center => "center",
            Job::OneRound {
                objective: Objective::Median,
            } => "one-round-median",
            Job::OneRound {
                objective: Objective::Means,
            } => "one-round-means",
            Job::OneRound { .. } => "one-round-center",
            Job::UncertainMedian => "uncertain-median",
            Job::CenterG { d_range: None } => "center-g",
            Job::CenterG { .. } => "one-round-center-g",
            Job::Stream { window: 0, .. } => "stream",
            Job::Stream { .. } => "stream-window",
            Job::Continuous { .. } => "continuous",
            Job::Subquadratic => "subquadratic",
        }
    }

    /// True when the job drives the protocol runtime (and transport/link
    /// settings therefore have an effect).
    fn uses_runtime(&self) -> bool {
        !matches!(self, Job::Subquadratic | Job::Stream { .. })
    }

    /// True for jobs over uncertain nodes rather than points.
    fn is_uncertain(&self) -> bool {
        matches!(self, Job::UncertainMedian | Job::CenterG { .. })
    }

    /// True when the job's wire messages go through the codec layer
    /// (the uncertain protocols and the non-protocol jobs always run
    /// [`Encoding::Raw`]).
    fn uses_encoding(&self) -> bool {
        matches!(
            self,
            Job::Median | Job::Means | Job::Center | Job::OneRound { .. } | Job::Continuous { .. }
        )
    }

    /// True for the streaming kinds (which also accept row-at-a-time
    /// ingest through [`ValidJob::session`]).
    fn is_streaming(&self) -> bool {
        matches!(self, Job::Stream { .. } | Job::Continuous { .. })
    }

    /// Builder for this job kind.
    pub fn builder(self, k: usize, t: usize) -> JobBuilder {
        JobBuilder::new(self, k, t)
    }

    /// Builder for the 2-round `(k,(1+ε)t)`-median protocol.
    pub fn median(k: usize, t: usize) -> JobBuilder {
        Job::Median.builder(k, t)
    }

    /// Builder for the 2-round `(k,(1+ε)t)`-means protocol.
    pub fn means(k: usize, t: usize) -> JobBuilder {
        Job::Means.builder(k, t)
    }

    /// Builder for the 2-round `(k,t)`-center protocol.
    pub fn center(k: usize, t: usize) -> JobBuilder {
        Job::Center.builder(k, t)
    }

    /// Builder for a 1-round baseline with the given objective.
    pub fn one_round(objective: Objective, k: usize, t: usize) -> JobBuilder {
        Job::OneRound { objective }.builder(k, t)
    }

    /// Builder for uncertain `(k,t)`-median (Algorithm 3).
    pub fn uncertain_median(k: usize, t: usize) -> JobBuilder {
        Job::UncertainMedian.builder(k, t)
    }

    /// Builder for uncertain `(k,t)`-center-g (Algorithm 4).
    pub fn center_g(k: usize, t: usize) -> JobBuilder {
        Job::CenterG { d_range: None }.builder(k, t)
    }

    /// Builder for single-machine streaming (median objective; use
    /// [`JobBuilder::objective`] / [`JobBuilder::window`] to refine).
    pub fn stream(k: usize, t: usize) -> JobBuilder {
        Job::Stream {
            objective: Objective::Median,
            window: 0,
        }
        .builder(k, t)
    }

    /// Builder for continuous distributed streaming (sync every 1024
    /// points by default; use [`JobBuilder::sync_every`] to change).
    pub fn continuous(k: usize, t: usize) -> JobBuilder {
        Job::Continuous {
            objective: Objective::Median,
            sync_every: 1024,
        }
        .builder(k, t)
    }

    /// Builder for the centralized subquadratic `(k,2t)`-median.
    pub fn subquadratic(k: usize, t: usize) -> JobBuilder {
        Job::Subquadratic.builder(k, t)
    }
}

/// Fluent configuration of a [`Job`].
///
/// Every knob has a sensible default (matching the historical config
/// structs), so `Job::median(5, 20).validate()?.run()` is a complete
/// program. Knobs that do not apply to the chosen job kind are recorded
/// and surface as [`ConfigWarning::KnobUnused`] at validation time —
/// never silently dropped, never fatal.
#[derive(Clone, Debug)]
pub struct JobBuilder {
    job: Job,
    k: usize,
    t: usize,
    eps: f64,
    rho: f64,
    delta: f64,
    sites: usize,
    sites_set: bool,
    seed: u64,
    strategy: PartitionStrategy,
    block: usize,
    parallel: bool,
    transport: TransportKind,
    link: LinkModel,
    transport_set: bool,
    encoding: Encoding,
    threads: usize,
    dropout: f64,
    fault_seed: u64,
    timeout: Option<std::time::Duration>,
    retries: u32,
    trace: Option<PathBuf>,
    trace_format: TraceFormat,
    trace_format_set: bool,
    metrics: bool,
    unused_knobs: Vec<&'static str>,
    data: Option<Arc<Dataset>>,
}

impl JobBuilder {
    fn new(job: Job, k: usize, t: usize) -> Self {
        Self {
            job,
            k,
            t,
            eps: 1.0,
            rho: 2.0,
            delta: 0.0,
            sites: 4,
            sites_set: false,
            seed: 42,
            strategy: PartitionStrategy::Random,
            block: 256,
            parallel: true,
            transport: TransportKind::Channel,
            link: LinkModel::ideal(),
            transport_set: false,
            encoding: Encoding::Raw,
            threads: 1,
            dropout: 0.0,
            fault_seed: 0,
            timeout: None,
            retries: 0,
            trace: None,
            trace_format: TraceFormat::Jsonl,
            trace_format_set: false,
            metrics: false,
            unused_knobs: Vec::new(),
            data: None,
        }
    }

    /// The job kind under construction.
    pub fn job(&self) -> &Job {
        &self.job
    }

    /// Sets the number of centers `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the outlier budget `t`.
    pub fn t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Sets the outlier relaxation ε.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the grid/allocation ratio ρ.
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Switches median/means jobs to the Theorem 3.8 counts-only variant
    /// with ratio `1 + delta` (a no-effect warning elsewhere).
    pub fn delta(mut self, delta: f64) -> Self {
        if !matches!(
            self.job,
            Job::Median
                | Job::Means
                | Job::OneRound {
                    objective: Objective::Median | Objective::Means,
                }
        ) {
            self.unused_knobs.push("delta");
        }
        self.delta = delta;
        self
    }

    /// Sets the number of simulated sites.
    pub fn sites(mut self, sites: usize) -> Self {
        self.sites = sites;
        self.sites_set = true;
        self
    }

    /// Sets the partition seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how unsharded point data is split across sites.
    pub fn strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the streaming block size (a no-effect warning on batch jobs).
    pub fn block(mut self, block: usize) -> Self {
        if !self.job.is_streaming() {
            self.unused_knobs.push("block");
        }
        self.block = block;
        self
    }

    /// Sets the sliding-window length of a [`Job::Stream`] job (a
    /// no-effect warning elsewhere).
    pub fn window(mut self, window: u64) -> Self {
        match &mut self.job {
            Job::Stream { window: w, .. } => *w = window,
            _ => self.unused_knobs.push("window"),
        }
        self
    }

    /// Sets the sync cadence of a [`Job::Continuous`] job (a no-effect
    /// warning elsewhere).
    pub fn sync_every(mut self, points: u64) -> Self {
        match &mut self.job {
            Job::Continuous { sync_every, .. } => *sync_every = points,
            _ => self.unused_knobs.push("sync_every"),
        }
        self
    }

    /// Sets the query objective of a streaming job (a no-effect warning
    /// elsewhere).
    pub fn objective(mut self, objective: Objective) -> Self {
        match &mut self.job {
            Job::Stream { objective: o, .. } | Job::Continuous { objective: o, .. } => {
                *o = objective
            }
            _ => self.unused_knobs.push("objective"),
        }
        self
    }

    /// Supplies the a-priori distance range that turns [`Job::CenterG`]
    /// into its 1-round variant (a no-effect warning elsewhere).
    pub fn d_range(mut self, d_min: f64, d_max: f64) -> Self {
        match &mut self.job {
            Job::CenterG { d_range } => *d_range = Some((d_min, d_max)),
            _ => self.unused_knobs.push("d_range"),
        }
        self
    }

    /// Switches the protocol runtime backend.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self.transport_set = true;
        self
    }

    /// Selects the wire codec protocol messages travel through
    /// ([`Encoding::Raw`] by default, which is byte-identical to not
    /// having a codec at all). A no-effect warning on jobs whose
    /// messages never go through the codec layer (uncertain protocols,
    /// single-machine streaming, centralized jobs).
    pub fn encoding(mut self, encoding: Encoding) -> Self {
        if !self.job.uses_encoding() {
            self.unused_knobs.push("encoding");
        }
        self.encoding = encoding;
        self
    }

    /// Sets the simulated link model.
    pub fn link(mut self, link: LinkModel) -> Self {
        if link.latency != std::time::Duration::ZERO || link.bandwidth.is_finite() {
            self.transport_set = true;
        }
        self.link = link;
        self
    }

    /// Injects seed-deterministic dropout: each delivery attempt to a
    /// site fails with probability `p` (see
    /// [`dpc_coordinator::FaultPlan`]). Validation rejects `p` outside
    /// `[0, 1)`; a no-effect warning on jobs that never drive the
    /// protocol runtime.
    pub fn dropout(mut self, p: f64) -> Self {
        if !self.job.uses_runtime() {
            self.unused_knobs.push("dropout");
        }
        self.dropout = p;
        self
    }

    /// Sets the seed behind every injected fault (independent of the
    /// partition seed, so workload and chaos schedule vary separately).
    pub fn fault_seed(mut self, seed: u64) -> Self {
        if !self.job.uses_runtime() {
            self.unused_knobs.push("fault_seed");
        }
        self.fault_seed = seed;
        self
    }

    /// Sets the per-attempt timeout the coordinator charges to simulated
    /// time when a site fails to answer.
    pub fn timeout(mut self, timeout: std::time::Duration) -> Self {
        if !self.job.uses_runtime() {
            self.unused_knobs.push("timeout");
        }
        self.timeout = Some(timeout);
        self
    }

    /// Sets how many extra delivery attempts the coordinator makes after
    /// a failed one.
    pub fn retries(mut self, retries: u32) -> Self {
        if !self.job.uses_runtime() {
            self.unused_knobs.push("retries");
        }
        self.retries = retries;
        self
    }

    /// Writes a structured trace of the run to `path` (format per
    /// [`Self::trace_format`]). Jobs that never drive the protocol
    /// runtime still write a trace, but it carries only the run span and
    /// kernel counters — validation surfaces that as
    /// [`ConfigWarning::TraceWithoutProtocol`].
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Selects the trace file format (default: deterministic JSONL).
    pub fn trace_format(mut self, format: TraceFormat) -> Self {
        self.trace_format = format;
        self.trace_format_set = true;
        self
    }

    /// Collects aggregated run metrics into the artifact's
    /// [`crate::Artifact::metrics`] field.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// The encoding the run will actually use: the configured one on
    /// codec-aware jobs, [`Encoding::Raw`] everywhere else (where the
    /// knob already produced a no-effect warning).
    fn effective_encoding(&self) -> Encoding {
        if self.job.uses_encoding() {
            self.encoding
        } else {
            Encoding::Raw
        }
    }

    /// The fault plan this configuration injects into protocol runs.
    fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.seed = self.fault_seed;
        plan.dropout = self.dropout;
        plan.timeout = self.timeout;
        plan.retries = self.retries;
        plan
    }

    /// Runs on one shard: every site takes its turn on the caller's
    /// thread with the whole kernel budget, whatever [`Self::threads`]
    /// says (deterministic timing; bytes are identical either way).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Caps the bulk-kernel thread budget inside the solvers (site-side
    /// assignment, coordinator scoring) and sizes the shard pool that
    /// serves the sites, on either transport. More than one shard runs
    /// sites at once, each with a serial kernel budget; one shard runs
    /// them one at a time with the whole budget. Defaults to 1 so jobs
    /// compose with [`crate::Sweep`] workers without oversubscribing;
    /// results are identical at any budget.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a generated [`dpc_workloads::gaussian_blobs`] point
    /// workload — the high-dimensional kernel-stress input.
    pub fn gaussian_blobs(self, spec: BlobsSpec) -> Self {
        self.points(gaussian_blobs(spec).points)
    }

    /// Attaches the input dataset.
    pub fn data(mut self, data: impl Into<Dataset>) -> Self {
        self.data = Some(Arc::new(data.into()));
        self
    }

    /// Attaches a shared dataset without copying it (how [`crate::Sweep`]
    /// fans one input out to many cells).
    pub fn data_arc(mut self, data: Arc<Dataset>) -> Self {
        self.data = Some(data);
        self
    }

    /// Attaches raw points, partitioned across sites at run time.
    pub fn points(self, points: PointSet) -> Self {
        self.data(Dataset::Points(points))
    }

    /// Attaches pre-sharded points (one per site).
    pub fn shards(self, shards: Vec<PointSet>) -> Self {
        self.data(Dataset::Shards(shards))
    }

    /// The empty artifact skeleton carrying this job's echo fields
    /// (protocol name, parameters) — run paths fill in the results.
    fn base_artifact(&self, n: usize) -> Artifact {
        Artifact {
            job: self.job.name().to_string(),
            k: self.k,
            t: self.t,
            eps: self.eps,
            sites: self.sites,
            seed: self.seed,
            n,
            centers: Vec::new(),
            cost: 0.0,
            budget: 0,
            bytes: 0,
            rounds: 0,
            round_stats: Vec::new(),
            transport: None,
            network_ms: 0.0,
            live_points: None,
            syncs: None,
            points_per_sec: None,
            metrics: None,
            encoding: None,
            bytes_raw: None,
            quality_delta: None,
        }
    }

    /// Checks every invariant the configuration can violate, returning a
    /// runnable [`ValidJob`] or the first [`ConfigError`].
    ///
    /// Hard errors cover configurations that cannot run correctly
    /// (including the formerly warning-only `eps = 0` streaming footgun);
    /// no-effect knobs become structured [`ConfigWarning`]s on the
    /// returned job. Data-dependent checks (`k` vs `n`, kind mismatch)
    /// run only when a dataset is attached.
    pub fn validate(self) -> Result<ValidJob, ConfigError> {
        if self.k == 0 {
            return Err(ConfigError::ZeroParam { param: "k" });
        }
        if self.sites == 0 {
            return Err(ConfigError::ZeroParam { param: "sites" });
        }
        for (param, value) in [("eps", self.eps), ("delta", self.delta)] {
            if !value.is_finite() {
                return Err(ConfigError::NonFinite { param, value });
            }
            if value < 0.0 {
                return Err(ConfigError::Negative { param, value });
            }
        }
        if !self.rho.is_finite() || self.rho <= 1.0 {
            return Err(ConfigError::RhoNotAboveOne { value: self.rho });
        }
        if !self.dropout.is_finite() || !(0.0..1.0).contains(&self.dropout) {
            return Err(ConfigError::DropoutOutOfRange {
                value: self.dropout,
            });
        }
        match self.job {
            Job::Stream { window, .. } => {
                if self.eps == 0.0 {
                    return Err(ConfigError::ExactOutlierQueries);
                }
                if self.block == 0 {
                    return Err(ConfigError::ZeroParam { param: "block" });
                }
                if window > 0 && window < self.block as u64 {
                    return Err(ConfigError::WindowBelowBlock {
                        window,
                        block: self.block,
                    });
                }
            }
            Job::Continuous {
                objective,
                sync_every,
            } => {
                if self.eps == 0.0 {
                    return Err(ConfigError::ExactOutlierQueries);
                }
                if self.block == 0 {
                    return Err(ConfigError::ZeroParam { param: "block" });
                }
                if sync_every == 0 {
                    return Err(ConfigError::ZeroParam {
                        param: "sync_every",
                    });
                }
                if objective == Objective::Center {
                    return Err(ConfigError::CenterObjectiveInContinuous);
                }
            }
            Job::CenterG {
                d_range: Some((d_min, d_max)),
            } if !(d_min.is_finite() && d_max.is_finite() && 0.0 < d_min && d_min <= d_max) => {
                return Err(ConfigError::InvalidDistanceRange { d_min, d_max });
            }
            _ => {}
        }

        let mut warnings: Vec<ConfigWarning> = self
            .unused_knobs
            .iter()
            .map(|&knob| ConfigWarning::KnobUnused {
                knob,
                job: self.job.name(),
            })
            .collect();
        if self.transport_set && !self.job.uses_runtime() {
            warnings.push(ConfigWarning::TransportUnused {
                job: self.job.name(),
            });
        }
        if self.trace.is_some() && !self.job.uses_runtime() {
            warnings.push(ConfigWarning::TraceWithoutProtocol {
                job: self.job.name(),
            });
        }
        if self.trace_format_set && self.trace.is_none() {
            warnings.push(ConfigWarning::TraceFormatWithoutTrace);
        }

        let mut resolved = self;
        if let Some(data) = resolved.data.clone() {
            let (expects, matches) = if resolved.job.is_uncertain() {
                ("uncertain nodes", !data.is_points())
            } else {
                ("points", data.is_points())
            };
            if !matches {
                return Err(ConfigError::DataKindMismatch {
                    job: resolved.job.name(),
                    expects,
                });
            }
            if data.is_empty() {
                return Err(ConfigError::EmptyData);
            }
            if resolved.k > data.len() {
                return Err(ConfigError::KExceedsInput {
                    k: resolved.k,
                    n: data.len(),
                    unit: if resolved.job.is_uncertain() {
                        "nodes"
                    } else {
                        "points"
                    },
                });
            }
            // Pre-sharded data fixes the site count.
            let shard_count = match &*data {
                Dataset::Shards(sh) => Some(sh.len()),
                Dataset::NodeShards(sh) => Some(sh.len()),
                _ => None,
            };
            if let Some(shards) = shard_count {
                if resolved.sites_set && resolved.sites != shards {
                    warnings.push(ConfigWarning::SitesIgnoredForShards {
                        sites: resolved.sites,
                        shards,
                    });
                }
                resolved.sites = shards;
            }
        }

        Ok(ValidJob {
            spec: resolved,
            warnings,
        })
    }
}

/// A validated, runnable job.
#[derive(Clone, Debug)]
pub struct ValidJob {
    spec: JobBuilder,
    warnings: Vec<ConfigWarning>,
}

impl ValidJob {
    /// Structured no-effect diagnostics collected during validation.
    pub fn warnings(&self) -> &[ConfigWarning] {
        &self.warnings
    }

    /// The job kind this will run.
    pub fn job(&self) -> &Job {
        &self.spec.job
    }

    /// Errors unless a dataset is attached ([`Self::run`] needs one;
    /// `Sweep` checks every cell before spawning workers).
    pub(crate) fn require_data(&self) -> Result<(), ConfigError> {
        if self.spec.data.is_none() {
            return Err(ConfigError::MissingData {
                job: self.spec.job.name(),
            });
        }
        Ok(())
    }

    fn kernel_threads(&self) -> ThreadBudget {
        ThreadBudget::new(self.spec.threads)
    }

    fn run_options(&self, rec: &RecorderHandle) -> RunOptions {
        let s = &self.spec;
        RunOptions {
            faults: s.fault_plan(),
            recorder: rec.clone(),
            // The thread budget doubles as the shard budget; a sequential
            // job runs on one shard.
            ..RunOptions::new()
                .transport(s.transport)
                .link(s.link)
                .shards(if s.parallel { s.threads } else { 1 })
        }
    }

    /// One collector per run, shared by every layer, present only when
    /// the configuration asked for observability — the disabled path
    /// stays a no-op handle.
    fn collector(&self) -> Option<Arc<Collector>> {
        (self.spec.trace.is_some() || self.spec.metrics).then(|| Arc::new(Collector::new()))
    }

    fn base_artifact(&self, n: usize) -> Artifact {
        self.spec.base_artifact(n)
    }

    /// Executes the job on its attached dataset.
    ///
    /// # Panics
    /// Panics if no dataset was attached (streaming jobs may instead be
    /// fed row by row through [`Self::session`]).
    pub fn run(&self) -> Artifact {
        let data = self.spec.data.clone().unwrap_or_else(|| {
            panic!(
                "{}",
                ConfigError::MissingData {
                    job: self.spec.job.name()
                }
            )
        });
        let s = &self.spec;
        if s.job.is_streaming() {
            // The session owns the run span and the trace finalization.
            let mut session = self.session();
            match &*data {
                Dataset::Points(ps) => {
                    for (_, p) in ps.iter() {
                        session.push(p);
                    }
                }
                // Pre-sharded data fixes the site assignment: shard
                // `i`'s points are ingested at site `i` (shard by
                // shard), not re-dealt round-robin.
                Dataset::Shards(sh) => {
                    for (site, ps) in sh.iter().enumerate() {
                        for (_, p) in ps.iter() {
                            session.push_at(site, p);
                        }
                    }
                }
                _ => unreachable!("validated as point data"),
            }
            return session.finish();
        }
        let collector = self.collector();
        let rec = collector.as_ref().map(|c| c.handle()).unwrap_or_default();
        if rec.enabled() {
            rec.record(run_start(s));
        }
        let mut artifact = match s.job {
            Job::Median
            | Job::Means
            | Job::OneRound {
                objective: Objective::Median,
            }
            | Job::OneRound {
                objective: Objective::Means,
            } => self.run_median_family(&data, &rec),
            Job::Center
            | Job::OneRound {
                objective: Objective::Center,
            } => self.run_center_family(&data, &rec),
            Job::UncertainMedian => self.run_uncertain(&data, &rec),
            Job::CenterG { d_range } => self.run_center_g(&data, d_range, &rec),
            Job::Subquadratic => self.run_subquadratic(&data, &rec),
            Job::Stream { .. } | Job::Continuous { .. } => unreachable!("handled above"),
        };
        if rec.enabled() {
            rec.record(Event::RunEnd {
                rounds: artifact.rounds,
            });
        }
        finalize_observability(s, collector, &mut artifact);
        artifact
    }

    /// Measured objective delta of a codec run against the exact
    /// ([`Encoding::Raw`]) baseline: `(cost - cost_raw) / cost_raw`,
    /// signed. Lossless codecs are `Some(0.0)` by construction — no
    /// baseline rerun; `Raw` has nothing to compare against (`None`).
    fn quality_delta(
        &self,
        encoding: Encoding,
        cost: f64,
        raw_cost: impl FnOnce() -> f64,
    ) -> Option<f64> {
        if encoding == Encoding::Raw {
            return None;
        }
        if encoding.is_lossless() {
            return Some(0.0);
        }
        let raw = raw_cost();
        Some((cost - raw) / raw.abs().max(1e-9))
    }

    fn run_median_family(&self, data: &Dataset, rec: &RecorderHandle) -> Artifact {
        let enc = self.spec.effective_encoding();
        let mut artifact = self.run_median_encoded(data, rec, enc);
        // Lossy codecs pay one silent Raw rerun to measure the quality
        // side of the bytes/quality trade they bought.
        artifact.quality_delta = self.quality_delta(enc, artifact.cost, || {
            self.run_median_encoded(data, &RecorderHandle::noop(), Encoding::Raw)
                .cost
        });
        artifact
    }

    fn run_median_encoded(
        &self,
        data: &Dataset,
        rec: &RecorderHandle,
        encoding: Encoding,
    ) -> Artifact {
        let s = &self.spec;
        let shards = data.point_shards(s.sites, s.strategy, s.seed);
        let means = matches!(
            s.job,
            Job::Means
                | Job::OneRound {
                    objective: Objective::Means
                }
        );
        let one_round = matches!(s.job, Job::OneRound { .. });
        let mut cfg = MedianConfig::new(s.k, s.t);
        cfg.eps = s.eps;
        cfg.rho = s.rho;
        cfg.threads = self.kernel_threads();
        cfg.encoding = encoding;
        if means {
            cfg = cfg.means();
        }
        if s.delta > 0.0 {
            cfg = cfg.counts_only(s.delta);
        }
        let out = if one_round {
            run_one_round_median(&shards, cfg, self.run_options(rec))
        } else {
            run_distributed_median(&shards, cfg, self.run_options(rec))
        };
        let objective = if means {
            Objective::Means
        } else {
            Objective::Median
        };
        let factor = if s.delta > 0.0 {
            2.0 + s.eps + s.delta
        } else {
            1.0 + s.eps
        };
        let budget = (factor * s.t as f64).floor() as usize;
        let (cost, budget) = evaluate_on_full_data_recorded(
            &shards,
            &out.output.centers,
            budget,
            objective,
            self.kernel_threads(),
            rec,
        );
        Artifact {
            centers: centers_to_rows(&out.output.centers),
            cost,
            budget,
            ..self.protocol_artifact(data.len(), &out.stats)
        }
    }

    fn run_center_family(&self, data: &Dataset, rec: &RecorderHandle) -> Artifact {
        let enc = self.spec.effective_encoding();
        let mut artifact = self.run_center_encoded(data, rec, enc);
        artifact.quality_delta = self.quality_delta(enc, artifact.cost, || {
            self.run_center_encoded(data, &RecorderHandle::noop(), Encoding::Raw)
                .cost
        });
        artifact
    }

    fn run_center_encoded(
        &self,
        data: &Dataset,
        rec: &RecorderHandle,
        encoding: Encoding,
    ) -> Artifact {
        let s = &self.spec;
        let shards = data.point_shards(s.sites, s.strategy, s.seed);
        let mut cfg = CenterConfig::new(s.k, s.t);
        cfg.rho = s.rho;
        cfg.threads = self.kernel_threads();
        cfg.encoding = encoding;
        let out = if matches!(s.job, Job::OneRound { .. }) {
            run_one_round_center(&shards, cfg, self.run_options(rec))
        } else {
            run_distributed_center(&shards, cfg, self.run_options(rec))
        };
        let (cost, budget) = evaluate_on_full_data_recorded(
            &shards,
            &out.output.centers,
            s.t,
            Objective::Center,
            self.kernel_threads(),
            rec,
        );
        Artifact {
            centers: centers_to_rows(&out.output.centers),
            cost,
            budget,
            ..self.protocol_artifact(data.len(), &out.stats)
        }
    }

    fn run_uncertain(&self, data: &Dataset, rec: &RecorderHandle) -> Artifact {
        let s = &self.spec;
        let shards = data.node_shards(s.sites);
        let mut cfg = UncertainConfig::new(s.k, s.t);
        cfg.eps = s.eps;
        cfg.rho = s.rho;
        cfg.threads = self.kernel_threads();
        let out = run_uncertain_median(&shards, cfg, self.run_options(rec));
        let budget = ((1.0 + s.eps) * s.t as f64).floor() as usize;
        let cost = estimate_expected_cost_recorded(
            &shards,
            &out.output.centers,
            budget,
            false,
            false,
            self.kernel_threads(),
            rec,
        );
        Artifact {
            centers: centers_to_rows(&out.output.centers),
            cost,
            budget,
            ..self.protocol_artifact(data.len(), &out.stats)
        }
    }

    fn run_center_g(
        &self,
        data: &Dataset,
        d_range: Option<(f64, f64)>,
        rec: &RecorderHandle,
    ) -> Artifact {
        let s = &self.spec;
        let shards = data.node_shards(s.sites);
        let mut cfg = CenterGConfig::new(s.k, s.t);
        cfg.rho = s.rho;
        cfg.threads = self.kernel_threads();
        let out = match d_range {
            Some((d_min, d_max)) => {
                run_center_g_one_round(&shards, cfg, d_min, d_max, self.run_options(rec))
            }
            None => run_center_g(&shards, cfg, self.run_options(rec)),
        };
        Artifact {
            centers: centers_to_rows(&out.output.centers),
            cost: out.output.coordinator_cost,
            budget: s.t,
            ..self.protocol_artifact(data.len(), &out.stats)
        }
    }

    fn run_subquadratic(&self, data: &Dataset, _rec: &RecorderHandle) -> Artifact {
        let s = &self.spec;
        let points = match data {
            Dataset::Points(ps) => ps.clone(),
            Dataset::Shards(sh) => merge_shards(sh),
            _ => unreachable!("validated as point data"),
        };
        let sol = subquadratic_median(
            &points,
            s.k,
            s.t,
            SubquadraticParams {
                eps: s.eps,
                threads: self.kernel_threads(),
                ..Default::default()
            },
        );
        Artifact {
            centers: centers_to_rows(&sol.centers),
            cost: sol.cost,
            budget: sol.excluded,
            ..self.base_artifact(points.len())
        }
    }

    fn protocol_artifact(&self, n: usize, stats: &dpc_coordinator::CommStats) -> Artifact {
        // Raw artifacts carry no codec fields at all, so their JSON
        // stays byte-identical to pre-codec output.
        let enc = self.spec.effective_encoding();
        let (encoding, bytes_raw) = if enc == Encoding::Raw {
            (None, None)
        } else {
            (Some(enc.name().to_string()), Some(stats.raw_bytes()))
        };
        Artifact {
            bytes: stats.total_bytes(),
            rounds: stats.num_rounds(),
            round_stats: round_breakdowns(stats),
            transport: Some(self.spec.transport.name().to_string()),
            network_ms: stats.network_time().as_secs_f64() * 1e3,
            encoding,
            bytes_raw,
            ..self.base_artifact(n)
        }
    }

    /// Opens a row-at-a-time ingest session for a streaming job — how
    /// the CLI feeds CSV rows without materializing the input.
    ///
    /// # Panics
    /// Panics for non-streaming job kinds.
    pub fn session(&self) -> StreamSession {
        assert!(
            self.spec.job.is_streaming(),
            "'{}' is a batch job; attach a dataset and call run()",
            self.spec.job.name()
        );
        let collector = self.collector();
        let recorder = collector.as_ref().map(|c| c.handle()).unwrap_or_default();
        if recorder.enabled() {
            recorder.record(run_start(&self.spec));
        }
        StreamSession {
            spec: self.spec.clone(),
            collector,
            recorder,
            mode: None,
            rows: 0,
            started: Instant::now(),
        }
    }
}

/// The run-opening event every traced job emits (the api layer owns the
/// run span: continuous jobs execute many protocol drives per trace).
fn run_start(spec: &JobBuilder) -> Event {
    Event::RunStart {
        label: spec.job.name().to_string(),
        sites: spec.sites,
        seed: spec.seed,
        fault_seed: spec.fault_seed,
    }
}

/// Drains a run's collector: writes the trace file when one was
/// requested and attaches the metrics digest to the artifact.
///
/// # Panics
/// Panics if the trace file cannot be written.
fn finalize_observability(
    spec: &JobBuilder,
    collector: Option<Arc<Collector>>,
    artifact: &mut Artifact,
) {
    let Some(collector) = collector else { return };
    let trace = collector.snapshot();
    if let Some(path) = &spec.trace {
        let doc = match spec.trace_format {
            TraceFormat::Jsonl => trace.to_jsonl(),
            TraceFormat::Chrome => trace.to_chrome(),
        };
        if let Err(e) = std::fs::write(path, doc) {
            panic!("failed to write trace file '{}': {e}", path.display());
        }
    }
    if spec.metrics {
        artifact.metrics = Some(trace.metrics().summary());
    }
}

/// Row-at-a-time execution of a streaming job.
pub struct StreamSession {
    spec: JobBuilder,
    collector: Option<Arc<Collector>>,
    recorder: RecorderHandle,
    mode: Option<SessionMode>,
    rows: usize,
    started: Instant,
}

enum SessionMode {
    Engine(StreamEngine),
    Window(SlidingWindowEngine),
    Continuous(ContinuousCluster),
}

impl StreamSession {
    fn stream_config(&self) -> StreamConfig {
        let s = &self.spec;
        let objective = match s.job {
            Job::Stream { objective, .. } | Job::Continuous { objective, .. } => objective,
            _ => unreachable!("sessions only open on streaming jobs"),
        };
        let mut cfg = StreamConfig::new(s.k, s.t)
            .block(s.block)
            .eps(s.eps)
            .threads(s.threads);
        cfg = match objective {
            Objective::Median => cfg,
            Objective::Means => cfg.means(),
            Objective::Center => cfg.center(),
        };
        cfg
    }

    /// Feeds one point, in arrival order. In continuous mode points are
    /// dealt to sites round-robin; use [`Self::push_at`] to control the
    /// site.
    pub fn push(&mut self, coords: &[f64]) {
        self.push_at(self.rows % self.spec.sites, coords);
    }

    /// Feeds one point at an explicit site (continuous mode; the
    /// single-machine modes have one engine and ignore `site`).
    pub fn push_at(&mut self, site: usize, coords: &[f64]) {
        // First push fixes the dimension and builds the engine; later
        // pushes skip all configuration work (this is the per-row hot
        // path of CLI ingest).
        if self.mode.is_none() {
            let spec = &self.spec;
            let cfg = self.stream_config();
            let dim = coords.len();
            self.mode = Some(match spec.job {
                Job::Continuous { sync_every, .. } => {
                    let ccfg = ContinuousConfig {
                        stream: cfg,
                        eps: spec.eps,
                        rho: spec.rho,
                        parallel: spec.parallel,
                        ..ContinuousConfig::new(spec.k, spec.t)
                    }
                    .sync_every(sync_every)
                    .transport(spec.transport)
                    .link(spec.link)
                    .faults(spec.fault_plan())
                    .encoding(spec.effective_encoding());
                    SessionMode::Continuous(
                        ContinuousCluster::new(dim, spec.sites, ccfg)
                            .with_recorder(self.recorder.clone()),
                    )
                }
                Job::Stream { window, .. } if window > 0 => {
                    SessionMode::Window(SlidingWindowEngine::new(dim, window, cfg))
                }
                _ => {
                    let mut e = StreamEngine::new(dim, cfg);
                    e.set_recorder(self.recorder.clone());
                    SessionMode::Engine(e)
                }
            });
        }
        match self.mode.as_mut().expect("initialized above") {
            SessionMode::Engine(e) => e.push(coords),
            SessionMode::Window(e) => e.push(coords),
            SessionMode::Continuous(c) => {
                c.ingest(site % self.spec.sites, coords);
            }
        }
        self.rows += 1;
    }

    /// Points ingested so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Finishes the stream (flushing partial blocks, running a final
    /// covering sync in continuous mode) and produces the artifact.
    pub fn finish(self) -> Artifact {
        let StreamSession {
            spec,
            collector,
            recorder,
            mode,
            rows,
            started,
        } = self;
        let budget = ((1.0 + spec.eps) * spec.t as f64).floor() as usize;
        let mut artifact = match mode {
            None => spec.base_artifact(0),
            Some(SessionMode::Engine(mut e)) => {
                e.flush();
                let sol = e.solve();
                Artifact {
                    centers: centers_to_rows(&sol.centers),
                    cost: sol.cost,
                    budget,
                    live_points: Some(sol.live_points),
                    ..spec.base_artifact(rows)
                }
            }
            Some(SessionMode::Window(e)) => {
                let sol = e.solve();
                Artifact {
                    centers: centers_to_rows(&sol.centers),
                    cost: sol.cost,
                    budget,
                    live_points: Some(sol.live_points),
                    ..spec.base_artifact(rows)
                }
            }
            Some(SessionMode::Continuous(mut c)) => {
                c.sync_if_stale();
                let mut round_stats = Vec::new();
                for rec in &c.history {
                    round_stats.extend(round_breakdowns(&rec.stats));
                }
                let rec = c.latest().expect("sync just ran");
                let enc = spec.effective_encoding();
                let (encoding, bytes_raw) = if enc == Encoding::Raw {
                    (None, None)
                } else {
                    (
                        Some(enc.name().to_string()),
                        Some(c.history.iter().map(|r| r.stats.raw_bytes()).sum()),
                    )
                };
                // No Raw baseline rerun here: a continuous stream cannot
                // be replayed from inside the session, so only lossless
                // codecs get a (trivially zero) quality delta.
                let quality_delta = (enc != Encoding::Raw && enc.is_lossless()).then_some(0.0);
                Artifact {
                    encoding,
                    bytes_raw,
                    quality_delta,
                    centers: centers_to_rows(&rec.centers),
                    cost: rec.cost,
                    budget,
                    bytes: c.total_comm_bytes(),
                    rounds: c.history.iter().map(|r| r.stats.num_rounds()).sum(),
                    round_stats,
                    live_points: Some(c.live_points()),
                    syncs: Some(c.history.len()),
                    transport: Some(spec.transport.name().to_string()),
                    network_ms: c
                        .history
                        .iter()
                        .map(|r| r.stats.network_time().as_secs_f64() * 1e3)
                        .sum(),
                    ..spec.base_artifact(rows)
                }
            }
        };
        artifact.points_per_sec = Some(rows as f64 / started.elapsed().as_secs_f64().max(1e-9));
        if recorder.enabled() {
            recorder.record(Event::RunEnd {
                rounds: artifact.rounds,
            });
        }
        finalize_observability(&spec, collector, &mut artifact);
        artifact
    }
}

fn centers_to_rows(ps: &PointSet) -> Vec<Vec<f64>> {
    (0..ps.len()).map(|i| ps.point(i).to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_workloads::{gaussian_mixture, MixtureSpec};

    fn mix(n: usize, t: usize) -> PointSet {
        gaussian_mixture(MixtureSpec {
            clusters: 3,
            inliers: n,
            outliers: t,
            seed: 7,
            ..Default::default()
        })
        .points
    }

    #[test]
    fn median_job_runs_end_to_end() {
        let art = Job::median(3, 4)
            .sites(3)
            .eps(0.5)
            .points(mix(300, 4))
            .validate()
            .unwrap()
            .run();
        assert_eq!(art.job, "median");
        assert_eq!(art.rounds, 2);
        assert!(art.bytes > 0);
        assert_eq!(art.centers.len(), 3);
        assert!(art.cost.is_finite());
        assert_eq!(art.transport.as_deref(), Some("channel"));
        assert_eq!(art.bytes, art.upstream_bytes() + art.downstream_bytes());
    }

    #[test]
    fn validate_catches_hard_errors() {
        assert_eq!(
            Job::median(0, 1).validate().unwrap_err(),
            ConfigError::ZeroParam { param: "k" }
        );
        assert_eq!(
            Job::median(2, 1).sites(0).validate().unwrap_err(),
            ConfigError::ZeroParam { param: "sites" }
        );
        assert_eq!(
            Job::stream(2, 1).eps(0.0).validate().unwrap_err(),
            ConfigError::ExactOutlierQueries
        );
        assert!(matches!(
            Job::median(2, 1).eps(f64::NAN).validate().unwrap_err(),
            ConfigError::NonFinite { param: "eps", .. }
        ));
        assert!(matches!(
            Job::stream(2, 1)
                .block(64)
                .window(10)
                .validate()
                .unwrap_err(),
            ConfigError::WindowBelowBlock { .. }
        ));
        assert_eq!(
            Job::continuous(2, 1)
                .objective(Objective::Center)
                .validate()
                .unwrap_err(),
            ConfigError::CenterObjectiveInContinuous
        );
        assert!(matches!(
            Job::center_g(2, 1)
                .d_range(-1.0, 2.0)
                .validate()
                .unwrap_err(),
            ConfigError::InvalidDistanceRange { .. }
        ));
        let pts = mix(20, 0);
        let n = pts.len();
        assert_eq!(
            Job::median(50, 0).points(pts).validate().unwrap_err(),
            ConfigError::KExceedsInput {
                k: 50,
                n,
                unit: "points"
            }
        );
        assert!(matches!(
            Job::uncertain_median(2, 0)
                .points(mix(20, 0))
                .validate()
                .unwrap_err(),
            ConfigError::DataKindMismatch { .. }
        ));
    }

    #[test]
    fn dropout_validation_and_degraded_artifact() {
        assert_eq!(
            Job::median(2, 1).dropout(1.0).validate().unwrap_err(),
            ConfigError::DropoutOutOfRange { value: 1.0 }
        );
        assert!(matches!(
            Job::median(2, 1).dropout(f64::NAN).validate().unwrap_err(),
            ConfigError::DropoutOutOfRange { .. }
        ));
        // A heavily faulted run still completes, and the artifact carries
        // the per-round fault accounting.
        let art = Job::median(3, 4)
            .sites(6)
            .eps(0.5)
            .dropout(0.4)
            .fault_seed(6)
            .points(mix(300, 4))
            .validate()
            .unwrap()
            .run();
        assert_eq!(art.rounds, 2);
        assert_eq!(art.centers.len(), 3);
        assert!(art.cost.is_finite());
        assert!(
            art.degraded_rounds() > 0,
            "dropout 0.4 over 6 sites x 2 rounds should degrade at least one round: {:?}",
            art.round_stats
        );
        assert_eq!(
            art.total_dropouts(),
            art.round_stats.iter().map(|r| r.dropouts).sum::<usize>()
        );
        // Same seeds ⇒ byte-identical artifact (modulo wall-clock times).
        let art2 = Job::median(3, 4)
            .sites(6)
            .eps(0.5)
            .dropout(0.4)
            .fault_seed(6)
            .points(mix(300, 4))
            .validate()
            .unwrap()
            .run();
        assert_eq!(art.centers, art2.centers);
        for (a, b) in art.round_stats.iter().zip(&art2.round_stats) {
            assert_eq!(a.bytes_down, b.bytes_down);
            assert_eq!(a.bytes_up, b.bytes_up);
            assert_eq!(
                (a.dropouts, a.retries, a.degraded),
                (b.dropouts, b.retries, b.degraded)
            );
        }
    }

    #[test]
    fn fault_knobs_warn_on_non_runtime_jobs() {
        let vj = Job::stream(2, 1)
            .dropout(0.1)
            .retries(2)
            .points(mix(100, 1))
            .validate()
            .unwrap();
        assert!(
            vj.warnings().iter().any(|w| matches!(
                w,
                ConfigWarning::KnobUnused {
                    knob: "dropout",
                    ..
                }
            )),
            "{:?}",
            vj.warnings()
        );
    }

    #[test]
    fn no_effect_knobs_warn_but_run() {
        let vj = Job::subquadratic(2, 1)
            .transport(TransportKind::Mux)
            .block(64)
            .points(mix(100, 1))
            .validate()
            .unwrap();
        let warnings = vj.warnings();
        assert!(
            warnings.iter().any(|w| matches!(
                w,
                ConfigWarning::TransportUnused {
                    job: "subquadratic"
                }
            )),
            "{warnings:?}"
        );
        assert!(
            warnings
                .iter()
                .any(|w| matches!(w, ConfigWarning::KnobUnused { knob: "block", .. })),
            "{warnings:?}"
        );
        let art = vj.run();
        assert_eq!(art.transport, None);
        assert!(art.cost.is_finite());
    }

    #[test]
    fn encoded_jobs_carry_codec_accounting() {
        let pts = mix(300, 4);
        let raw = Job::median(3, 4)
            .sites(3)
            .eps(0.5)
            .points(pts.clone())
            .validate()
            .unwrap()
            .run();
        assert_eq!(raw.encoding, None);
        assert_eq!(raw.bytes_raw, None);
        assert_eq!(raw.quality_delta, None);

        // Lossy: fewer bytes, exact raw accounting, measured delta.
        let f32_run = Job::median(3, 4)
            .sites(3)
            .eps(0.5)
            .encoding(Encoding::F32)
            .points(pts.clone())
            .validate()
            .unwrap()
            .run();
        assert_eq!(f32_run.encoding.as_deref(), Some("f32"));
        assert_eq!(f32_run.bytes_raw, Some(raw.bytes));
        assert!(
            f32_run.bytes < raw.bytes,
            "{} vs {}",
            f32_run.bytes,
            raw.bytes
        );
        let qd = f32_run.quality_delta.expect("lossy runs measure quality");
        assert!(qd.abs() <= 0.05, "f32 quality delta too large: {qd}");

        // Lossless: identical answer, zero delta by construction.
        let rlz_run = Job::median(3, 4)
            .sites(3)
            .eps(0.5)
            .encoding(Encoding::Rlz)
            .points(pts.clone())
            .validate()
            .unwrap()
            .run();
        assert_eq!(rlz_run.centers, raw.centers);
        assert_eq!(rlz_run.cost, raw.cost);
        assert_eq!(rlz_run.quality_delta, Some(0.0));

        // Jobs whose wire never sees the codec warn and stay raw.
        let vj = Job::subquadratic(2, 1)
            .encoding(Encoding::F32)
            .points(mix(100, 1))
            .validate()
            .unwrap();
        assert!(
            vj.warnings().iter().any(|w| matches!(
                w,
                ConfigWarning::KnobUnused {
                    knob: "encoding",
                    ..
                }
            )),
            "{:?}",
            vj.warnings()
        );
        assert_eq!(vj.run().encoding, None);
    }

    #[test]
    fn mux_shard_budget_beyond_sites_validates_clean_and_runs() {
        // The shard count is clamped to the site count, and the whole
        // budget still serves the coordinator's kernels: nothing to warn.
        let vj = Job::median(2, 1)
            .transport(TransportKind::Mux)
            .sites(2)
            .threads(8)
            .points(mix(100, 1))
            .validate()
            .unwrap();
        assert!(vj.warnings().is_empty(), "{:?}", vj.warnings());
        let art = vj.run();
        assert_eq!(art.sites, 2);
    }

    #[test]
    fn shards_fix_the_site_count() {
        let points = mix(200, 2);
        let shards = dpc_workloads::partition(&points, 5, PartitionStrategy::RoundRobin, &[], 1);
        let vj = Job::center(2, 2)
            .sites(3)
            .shards(shards)
            .validate()
            .unwrap();
        assert!(vj.warnings().iter().any(|w| matches!(
            w,
            ConfigWarning::SitesIgnoredForShards {
                sites: 3,
                shards: 5
            }
        )));
        let art = vj.run();
        assert_eq!(art.sites, 5);
        assert_eq!(art.rounds, 2);
    }

    #[test]
    fn stream_session_matches_run() {
        let points = mix(400, 3);
        let job = Job::stream(3, 3).block(64).points(points.clone());
        let a = job.clone().validate().unwrap().run();
        let vj = job.validate().unwrap();
        let mut session = vj.session();
        for (_, p) in points.iter() {
            session.push(p);
        }
        let b = session.finish();
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.live_points, b.live_points);
        assert_eq!(a.n, b.n);
    }

    #[test]
    fn continuous_shards_keep_their_sites() {
        // Pre-sharded continuous input: shard i's points must be
        // ingested at site i, matching a hand-driven fleet exactly.
        let mk_shard = |center: f64, n: usize| {
            let mut ps = PointSet::new(2);
            for i in 0..n {
                ps.push(&[center + 0.01 * (i % 7) as f64, 0.0]);
            }
            ps
        };
        let shards = vec![mk_shard(0.0, 120), mk_shard(500.0, 120)];
        let artifact = Job::continuous(2, 1)
            .block(32)
            .sync_every(80)
            .sequential()
            .shards(shards.clone())
            .validate()
            .unwrap()
            .run();
        let cfg = ContinuousConfig {
            stream: StreamConfig::new(2, 1).block(32),
            ..ContinuousConfig::new(2, 1)
        }
        .sync_every(80);
        let mut fleet = ContinuousCluster::new(2, 2, cfg);
        for (site, ps) in shards.iter().enumerate() {
            for (_, p) in ps.iter() {
                fleet.ingest(site, p);
            }
        }
        fleet.sync_if_stale();
        let rec = fleet.latest().unwrap();
        assert_eq!(artifact.sites, 2);
        assert_eq!(artifact.syncs, Some(fleet.history.len()));
        assert_eq!(artifact.bytes, fleet.total_comm_bytes());
        assert_eq!(artifact.centers, centers_to_rows(&rec.centers));
    }

    #[test]
    fn continuous_job_charges_sync_bytes() {
        let art = Job::continuous(2, 2)
            .sync_every(100)
            .block(32)
            .sites(2)
            .sequential()
            .points(mix(300, 2))
            .validate()
            .unwrap()
            .run();
        let syncs = art.syncs.unwrap();
        assert!(syncs >= 2, "{syncs}");
        assert_eq!(art.rounds, 2 * syncs);
        assert!(art.bytes > 0);
        assert_eq!(art.round_stats.len(), art.rounds);
        assert_eq!(art.transport.as_deref(), Some("channel"));
    }
}
