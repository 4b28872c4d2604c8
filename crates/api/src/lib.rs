//! One front door for every protocol in the workspace.
//!
//! The paper's value is comparative — 2-round vs 1-round, `(k,t)`-median
//! vs means vs center, exact-`t` vs `(1+ε)t`, batch vs continuous — and
//! before this crate each comparison went through a different ad-hoc
//! entry point with its own config struct. `dpc_api` replaces that with
//! one typed pipeline:
//!
//! ```text
//! Job (what to run)  ──fluent──▶ JobBuilder (how to run it)
//!        ──validate()──▶ ValidJob (typed ConfigError / ConfigWarning)
//!        ──run()──▶ Artifact (solution + comm stats + one JSON schema)
//! ```
//!
//! * [`Job`] — every protocol behind one enum: Algorithm 1 median/means,
//!   Algorithm 2 center, the 1-round baselines, uncertain median
//!   (Algorithm 3) and center-g (Algorithm 4), streaming (insertion-only,
//!   sliding-window, continuous distributed), and the subquadratic
//!   centralized corollary.
//! * [`JobBuilder`] — fluent knobs with the historical defaults:
//!   `Job::median(5, 20).eps(0.5).transport(TransportKind::Mux)`.
//! * [`JobBuilder::validate`] — hard [`ConfigError`]s for configurations
//!   that cannot run correctly, structured [`ConfigWarning`]s for legal
//!   ones where a knob has no effect.
//! * [`Artifact`] — the unified result: solution, per-round per-site byte
//!   accounting, simulated network time, and one JSON schema
//!   ([`ARTIFACT_SCHEMA`]) shared by the CLI, benches and sweep tables.
//! * [`Sweep`] — cartesian parameter grids (`k × t × transport × …`)
//!   expanded into jobs and executed on scoped threads, plus
//!   [`csv_table`] / [`json_table`] writers.
//!
//! ## Quickstart
//!
//! ```
//! use dpc_api::Job;
//! use dpc_workloads::{gaussian_mixture, MixtureSpec};
//!
//! let mix = gaussian_mixture(MixtureSpec { inliers: 200, outliers: 5, ..Default::default() });
//! let artifact = Job::median(5, 5)
//!     .sites(4)
//!     .points(mix.points)
//!     .validate()
//!     .expect("config is sound")
//!     .run();
//! assert_eq!(artifact.rounds, 2);
//! assert!(artifact.bytes > 0 && artifact.cost.is_finite());
//! // One schema everywhere: serialize, ship, read back.
//! let back = dpc_api::Artifact::from_json(&artifact.to_json()).unwrap();
//! assert_eq!(back.centers, artifact.centers);
//! ```
//!
//! The legacy free functions (`run_distributed_median` & co.) are what
//! this crate calls under the hood — job-driven runs are byte-identical
//! to them — but new code should come through [`Job`]; the functions
//! stay at their crate paths (`dpc_core`, `dpc_uncertain`).

pub mod artifact;
pub mod data;
pub mod error;
pub mod job;
pub mod sweep;

pub use artifact::{Artifact, RoundBreakdown, ARTIFACT_SCHEMA};
pub use data::Dataset;
pub use error::{ConfigError, ConfigWarning};
pub use job::{Job, JobBuilder, StreamSession, TraceFormat, ValidJob};
pub use sweep::{csv_table, json_table, Sweep};
