//! Metric substrate for distributed partial clustering.
//!
//! This crate provides the geometric and metric primitives every other crate
//! builds on:
//!
//! * [`PointSet`] — a dense, flat collection of points in `R^d`;
//! * [`Metric`] — the distance-oracle abstraction used by all clustering
//!   algorithms (the paper's `d(·,·)`), with Euclidean, squared-Euclidean
//!   (for `(k,t)`-means), matrix-backed and truncated (`L_τ`) implementations;
//! * [`weighted`] — weighted point sets produced by preclustering (a center
//!   standing in for the points attached to it);
//! * [`cost`] — outlier-aware cost evaluation for the three objectives
//!   (median / means / center), the paper's `C_sol(Z, k, t, d)`;
//! * [`encode`] — the compact wire encoding used to charge *actual bytes* to
//!   every message in the coordinator model (the paper's `B`);
//! * [`kernel`] — the bulk distance layer: blocked nearest-center kernels
//!   ([`NearestAssigner`], [`CenterBlock`], [`BoundedAssigner`]) and the
//!   [`ThreadBudget`] that caps intra-kernel parallelism so it composes
//!   with sweep- and site-level threading instead of oversubscribing;
//! * [`layout`] — cache-aware scan-order permutations (Morton/Z-order)
//!   that group spatially close queries into adjacent slots before a
//!   blocked scan, with results scattered back to original positions.
//!
//! # The kernel layer
//!
//! Every solver's hot path is "distances from one point to many
//! candidates". The [`Metric`] trait therefore carries bulk hooks
//! ([`Metric::dist_to_many`], [`Metric::assign_block`], …) next to the
//! one-pair [`Metric::dist`]; concrete metrics override them with blocked
//! kernels ([`EuclideanMetric`] prunes candidates with precomputed center
//! norms and partial-distance aborts, resolving every winner on the exact
//! squared sum). Three mechanisms sit behind those hooks, each engaging
//! only where it wins:
//!
//! * **Register-blocked tiles** — low dimensions with enough candidates
//!   run queries transposed into lane-major tiles of [`kernel::TILE_Q`],
//!   accumulating the exact `(x−c)²` sums with `chunks_exact` so LLVM
//!   autovectorizes; each lane's arithmetic is the scalar loop's.
//! * **Triangle-inequality bounds** — iterative callers (Lloyd) hold a
//!   [`BoundedAssigner`] whose per-query lower bounds shrink by center
//!   drift each round, so most queries pay one exact distance instead of
//!   `k` after the first iteration; skips fire only on margin-separated
//!   strict domination, never on ties.
//! * **Z-order layout** — [`BoundedAssigner`] gathers its queries into a
//!   Morton-sorted contiguous buffer ([`layout::zorder_permutation`]), so
//!   neighbouring scan slots prune against similar centers; centers are
//!   never reordered (their positions feed the tie-break).
//!
//! The contract is strict and unchanged by all three:
//! bulk results — selected ids, tie-breaks, and distance values — equal
//! the scalar loop's bit for bit ([`SquaredMetric`]'s squared routing is
//! the one documented ~1-ulp exception), so protocol transcripts stay
//! byte-identical no matter which form runs, at any thread budget.
//!
//! The paper's Definition 1.1 (`(k,t)`-median/means/center) is expressed here
//! as: choose `k` center indices and discard up to `t` units of weight so the
//! remaining assignment cost is minimized. Everything in this crate is
//! deterministic and allocation-conscious; distance evaluation is the hot
//! path of the whole workspace.

pub mod cost;
pub mod encode;
pub mod kernel;
pub mod layout;
pub mod metric;
pub mod points;
pub mod truncated;
pub mod weighted;

pub use cost::{
    center_cost, cost_excluding_outliers, cost_excluding_outliers_with, means_cost, median_cost,
    Objective,
};
pub use encode::{WireReader, WireWriter};
pub use kernel::{
    sq_dists_to_coords, Assignment, Assignment2, Assignment2C, BoundedAssigner, CenterBlock,
    NearestAssigner, ThreadBudget, DIST_TILE, TILE_PAR_MIN_PAIRS,
};
pub use layout::zorder_permutation;
pub use metric::{CrossMetric, EuclideanMetric, MatrixMetric, Metric, SquaredMetric};
pub use points::{PointId, PointSet};
pub use truncated::TruncatedMetric;
pub use weighted::WeightedSet;
