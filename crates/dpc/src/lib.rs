//! # Distributed Partial Clustering
//!
//! A from-scratch Rust implementation of *Distributed Partial Clustering*
//! (Guha, Li, Zhang — SPAA 2017): communication-efficient distributed
//! `(k,t)`-median, `(k,t)`-means and `(k,t)`-center clustering — `k`
//! centers, up to `t` points disregarded as outliers — plus the paper's
//! uncertain-data algorithms and its subquadratic centralized corollary.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`api`] — **the front door**: describe any run as a typed
//!   [`Job`](api::Job), validate it, execute it, get an
//!   [`Artifact`](api::Artifact); sweep parameter grids in parallel with
//!   [`Sweep`](api::Sweep);
//! * [`metric`] — points, distance oracles, weighted sets, outlier-aware
//!   costs, wire encoding;
//! * [`cluster`] — centralized substrates (Gonzalez, Charikar-style
//!   `(k,t)`-center, Lagrangian bicriteria `(k,t)`-median/means, Lloyd,
//!   exact oracles);
//! * [`codec`] — the wire codec subsystem: lossless and lossy message
//!   encodings (`raw`/`f32`/`rlz`) that trade wire bytes against
//!   solution quality;
//! * [`coordinator`] — the transport-abstracted coordinator-model
//!   runtime: a driver that runs each round on one shard pool of
//!   in-process site workers or Unix-domain socket pairs served by
//!   event-loop shards (mux), one fleet builder with the site kernel
//!   budget rule, exact byte accounting, and a simulated link model;
//! * [`core`] — Algorithms 1–2, the Theorem 3.8 δ-variant, 1-round
//!   baselines, and the Theorem 3.10 subquadratic centralized algorithm;
//! * [`uncertain`] — uncertain nodes, the compressed graph (Figure 1),
//!   Algorithm 3, and the center-g Algorithm 4;
//! * [`stream`] — the streaming layer: merge-and-reduce coresets, sliding
//!   windows, and continuous distributed clustering with per-sync
//!   communication accounting;
//! * [`workloads`] — seeded synthetic workload generators;
//! * [`obs`] — structured tracing and metrics: deterministic JSONL run
//!   traces, Chrome trace-event export, and an aggregating
//!   [`MetricsReport`](obs::MetricsReport), all zero-cost when disabled.
//!
//! ## Quickstart
//!
//! ```
//! use dpc::prelude::*;
//!
//! // Generate a noisy mixture; the job partitions it across 4 sites.
//! let mix = gaussian_mixture(MixtureSpec { inliers: 200, outliers: 5, ..Default::default() });
//!
//! // The 2-round distributed (k, (1+eps)t)-median protocol, through the
//! // typed front door: build, validate, run.
//! let artifact = Job::median(5, 5)
//!     .sites(4)
//!     .points(mix.points)
//!     .validate()
//!     .expect("sound config")
//!     .run();
//!
//! // Exact bytes on the wire, and the solution quality on the full data.
//! println!("{} bytes over {} rounds", artifact.bytes, artifact.rounds);
//! assert!(artifact.cost.is_finite());
//! ```
//!
//! ## Sweeps
//!
//! ```
//! use dpc::prelude::*;
//!
//! let mix = gaussian_mixture(MixtureSpec { inliers: 150, outliers: 4, ..Default::default() });
//! let artifacts = Sweep::grid(Job::median(0, 0).sites(3).points(mix.points))
//!     .k(&[3, 5])
//!     .t(&[2, 4])
//!     .run()
//!     .expect("every cell validates");
//! assert_eq!(artifacts.len(), 4);
//! println!("{}", dpc::api::csv_table(&artifacts));
//! ```
//!
//! ## Migrating from the free functions
//!
//! The historical entry points (`run_distributed_median`,
//! `run_one_round_center`, `subquadratic_median`, …) are exactly what
//! [`api::Job`] drives under the hood — job-driven runs are
//! byte-identical — and live at their crate paths ([`core`],
//! [`uncertain`]), not in the prelude. Replace
//!
//! ```text
//! run_distributed_median(&shards, MedianConfig::new(k, t), RunOptions::default())
//! ```
//!
//! with
//!
//! ```text
//! Job::median(k, t).shards(shards).validate()?.run()
//! ```
//!
//! Code that needs the raw `ProtocolOutput` (e.g. to inspect
//! coordinator-side weights) calls the originals at those paths, e.g.
//! `dpc::core::run_distributed_median`.

pub use dpc_api as api;
pub use dpc_cluster as cluster;
pub use dpc_codec as codec;
pub use dpc_coordinator as coordinator;
pub use dpc_core as core;
pub use dpc_metric as metric;
pub use dpc_obs as obs;
pub use dpc_stream as stream;
pub use dpc_uncertain as uncertain;
pub use dpc_workloads as workloads;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use dpc_api::{
        Artifact, ConfigError, ConfigWarning, Dataset, Job, JobBuilder, RoundBreakdown,
        StreamSession, Sweep, TraceFormat, ValidJob,
    };
    pub use dpc_cluster::{
        charikar_center, exact_best, gonzalez, lloyd_kmeans, median_bicriteria, BicriteriaParams,
        CenterParams, LloydParams, LocalSearchParams, Solution,
    };
    pub use dpc_codec::Encoding;
    pub use dpc_coordinator::{CommStats, FaultPlan, LinkModel, RunOptions, TransportKind};
    pub use dpc_core::{
        evaluate_on_full_data, merge_shards, CenterConfig, DeltaVariant, MedianConfig,
        SubquadraticParams,
    };
    pub use dpc_metric::{
        center_cost, means_cost, median_cost, CenterBlock, EuclideanMetric, Metric,
        NearestAssigner, Objective, PointSet, SquaredMetric, ThreadBudget, WeightedSet,
    };
    pub use dpc_stream::{
        ContinuousCluster, ContinuousConfig, SlidingWindowEngine, StreamConfig, StreamEngine,
        StreamSolution, Summary, SummaryParams, SyncRecord,
    };
    pub use dpc_uncertain::{
        estimate_center_g_cost, estimate_expected_cost, CenterGConfig, CompressedGraph, NodeSet,
        UncertainConfig, UncertainNode,
    };
    pub use dpc_workloads::{
        drifting_stream, gaussian_blobs, gaussian_mixture, partition, uncertain_mixture, BlobsSpec,
        DriftSpec, DriftStream, Mixture, MixtureSpec, PartitionStrategy, UncertainSpec,
    };
}
