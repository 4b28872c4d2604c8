//! `dpc_obs` — structured tracing and metrics for the distributed
//! partial-clustering runtime.
//!
//! Every layer of the workspace emits observations through one tiny
//! interface, the [`Recorder`] trait: the protocol driver reports round,
//! site, and fault *events*; the bulk distance kernels and the streaming
//! tree report monotone *counters*. Three sinks consume what was
//! recorded, all derived from an immutable [`Trace`] snapshot:
//!
//! * a schema-versioned JSONL writer ([`Trace::to_jsonl`],
//!   [`TRACE_SCHEMA`]) that serializes only the *deterministic* subset of
//!   each event — byte counts, round/site indices, fault decisions, and
//!   simulated time as exact integer nanoseconds — so identical
//!   `(seed, fault seed, job)` runs produce **byte-identical** traces on
//!   every transport backend;
//! * an in-memory aggregator ([`Trace::metrics`] →
//!   [`MetricsReport`]) with per-phase and per-site breakdowns,
//!   log-bucketed histograms, and percentiles over rounds;
//! * a Chrome trace-event exporter ([`Trace::to_chrome`]) for
//!   `chrome://tracing` / Perfetto timeline inspection.
//!
//! # The zero-cost no-op contract
//!
//! Recording is opt-in per run. The default recorder is
//! [`NoopRecorder`]; a [`RecorderHandle`] caches the recorder's
//! `enabled()` answer at construction, so the hot-path guard
//! `handle.enabled()` is a plain field read — no virtual call, no
//! atomic, no allocation. Instrumented code follows two rules:
//!
//! 1. **events are gated**: build an [`Event`] only under an
//!    `if handle.enabled()` check, so the disabled path does not even
//!    construct the payload;
//! 2. **counters are amortized**: hot loops tally into plain local
//!    integers (or derive counts from values already in registers) and
//!    flush *once per call* through [`RecorderHandle::add`], again behind
//!    the `enabled()` guard.
//!
//! Under those rules a disabled recorder costs one predictable branch
//! per *batch* of work — unmeasurable next to the work itself, which the
//! pinned kernel benchmarks assert.
//!
//! This crate sits at the very bottom of the workspace DAG (std only, no
//! dependencies) so every other crate can record through it. It also
//! hosts the workspace's hand-rolled JSON layer ([`json`]): the
//! workspace has no serialization dependency, so the artifact schema and
//! the trace schema share one parser and one set of writer helpers here.

pub mod json;
pub mod metrics;
pub mod record;
pub mod trace;

pub use metrics::{LogHistogram, MetricsReport, MetricsSummary, SiteMetrics};
pub use record::{Collector, Counter, Event, FaultKind, NoopRecorder, Recorder, RecorderHandle};
pub use trace::{Trace, TRACE_SCHEMA};
