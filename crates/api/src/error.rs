//! Typed configuration diagnostics.
//!
//! [`crate::JobBuilder::validate`] splits configuration smells into two
//! severities: [`ConfigError`] for configurations that cannot run
//! correctly (the run is refused), and [`ConfigWarning`] for legal
//! configurations where some knob has no effect (the run proceeds, the
//! caller decides whether to surface the warning). Both are
//! `#[non_exhaustive]` enums so future PRs can add diagnostics without
//! breaking matches downstream.

use std::fmt;

/// A configuration the API refuses to run.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A count parameter that must be positive was zero.
    ZeroParam {
        /// Which parameter (`"k"`, `"sites"`, `"block"`, `"sync_every"`,
        /// `"parallelism"`).
        param: &'static str,
    },
    /// A numeric parameter was NaN or infinite.
    NonFinite {
        /// Which parameter.
        param: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A numeric parameter that must be non-negative was negative.
    Negative {
        /// Which parameter.
        param: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The grid/allocation ratio `rho` must exceed 1.
    RhoNotAboveOne {
        /// The offending value.
        value: f64,
    },
    /// `eps = 0` on a streaming job: queries become exact-`t`, so a
    /// single burst of more than `t` far outliers is unexcludable and
    /// hijacks centers. Formerly a CLI warning; now refused outright.
    ExactOutlierQueries,
    /// A sliding window shorter than one block can never hold a summary.
    WindowBelowBlock {
        /// Configured window length in points.
        window: u64,
        /// Configured block size.
        block: usize,
    },
    /// The continuous sync protocol re-runs Algorithm 1, which exists for
    /// the median and means objectives only.
    CenterObjectiveInContinuous,
    /// The job needs an input dataset and none was attached.
    MissingData {
        /// The job that needs data.
        job: &'static str,
    },
    /// The attached dataset kind does not match the job (point protocols
    /// need points, uncertain protocols need nodes).
    DataKindMismatch {
        /// The job.
        job: &'static str,
        /// What the job needs (`"points"` or `"uncertain nodes"`).
        expects: &'static str,
    },
    /// More centers requested than input items.
    KExceedsInput {
        /// Requested number of centers.
        k: usize,
        /// Input size.
        n: usize,
        /// What the items are (`"points"` or `"nodes"`).
        unit: &'static str,
    },
    /// The attached dataset has no items.
    EmptyData,
    /// The one-round center-g variant needs a valid a-priori distance
    /// range `0 < d_min <= d_max`, both finite.
    InvalidDistanceRange {
        /// Supplied lower bound.
        d_min: f64,
        /// Supplied upper bound.
        d_max: f64,
    },
    /// A sweep axis was given an empty value list.
    EmptySweepAxis {
        /// Which axis.
        axis: &'static str,
    },
    /// The dropout probability must lie in `[0, 1)` — a probability of 1
    /// deterministically kills every site in round 0.
    DropoutOutOfRange {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroParam { param } => write!(f, "{param} must be positive"),
            ConfigError::NonFinite { param, value } => {
                write!(f, "{param} must be finite, got {value}")
            }
            ConfigError::Negative { param, value } => {
                write!(f, "{param} must be non-negative, got {value}")
            }
            ConfigError::RhoNotAboveOne { value } => {
                write!(f, "rho must be greater than 1, got {value}")
            }
            ConfigError::ExactOutlierQueries => write!(
                f,
                "eps = 0 on a streaming job makes queries exact-t: a single burst of \
                 more than t far outliers becomes unexcludable and will hijack \
                 centers; use eps > 0"
            ),
            ConfigError::WindowBelowBlock { window, block } => write!(
                f,
                "window of {window} points is shorter than one block of {block}"
            ),
            ConfigError::CenterObjectiveInContinuous => write!(
                f,
                "continuous sync re-runs Algorithm 1 (median/means only); \
                 the center objective is not supported"
            ),
            ConfigError::MissingData { job } => {
                write!(
                    f,
                    "'{job}' needs an input dataset; attach one before running"
                )
            }
            ConfigError::DataKindMismatch { job, expects } => {
                write!(f, "'{job}' expects {expects} as input")
            }
            ConfigError::KExceedsInput { k, n, unit } => {
                write!(f, "k={k} exceeds the {n} input {unit}")
            }
            ConfigError::EmptyData => write!(f, "the attached dataset is empty"),
            ConfigError::InvalidDistanceRange { d_min, d_max } => write!(
                f,
                "one-round center-g needs 0 < d_min <= d_max (finite), got ({d_min}, {d_max})"
            ),
            ConfigError::EmptySweepAxis { axis } => {
                write!(f, "sweep axis '{axis}' has no values")
            }
            ConfigError::DropoutOutOfRange { value } => {
                write!(f, "dropout probability must lie in [0, 1), got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A legal configuration where some knob has no effect.
///
/// Warnings are collected by [`crate::JobBuilder::validate`] and carried
/// on the [`crate::ValidJob`]; they never block a run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigWarning {
    /// Transport or link-model flags were set, but the job never drives
    /// the protocol runtime (centralized and single-machine-streaming
    /// jobs move no messages).
    TransportUnused {
        /// The job the flags were set on.
        job: &'static str,
    },
    /// A builder knob was set on a job kind it does not apply to
    /// (e.g. a block size on a batch protocol).
    KnobUnused {
        /// The knob (builder method name).
        knob: &'static str,
        /// The job it was set on.
        job: &'static str,
    },
    /// An explicit site count was set alongside pre-sharded data; the
    /// shard count wins.
    SitesIgnoredForShards {
        /// The explicitly configured site count.
        sites: usize,
        /// The number of shards actually used.
        shards: usize,
    },
    /// A trace was requested on a job that never drives the protocol
    /// runtime: the trace file will carry only the run span and kernel
    /// counters — no rounds, no transfers, no fault events.
    TraceWithoutProtocol {
        /// The job the trace was requested on.
        job: &'static str,
    },
    /// A trace format was chosen but no trace path was set, so nothing
    /// will be written.
    TraceFormatWithoutTrace,
}

impl fmt::Display for ConfigWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigWarning::TransportUnused { job } => write!(
                f,
                "transport/link settings have no effect on '{job}' (no protocol runs)"
            ),
            ConfigWarning::KnobUnused { knob, job } => {
                write!(f, "'{knob}' has no effect on '{job}'")
            }
            ConfigWarning::SitesIgnoredForShards { sites, shards } => write!(
                f,
                "explicit sites = {sites} ignored: the dataset is pre-sharded into {shards}"
            ),
            ConfigWarning::TraceWithoutProtocol { job } => write!(
                f,
                "'{job}' runs no protocol rounds; the trace will carry only the \
                 run span and kernel counters"
            ),
            ConfigWarning::TraceFormatWithoutTrace => write!(
                f,
                "a trace format was set but no trace path; nothing will be written \
                 (add a trace path)"
            ),
        }
    }
}
