//! Centralized clustering substrates.
//!
//! These are the building blocks the paper's distributed algorithms invoke on
//! each site and at the coordinator:
//!
//! * [`mod@gonzalez`] — Gonzalez's farthest-first traversal \[13\]: a single
//!   reordering of the points whose every prefix is a 2-approximate
//!   `r`-center solution. Algorithm 2 derives both the preclustering *and*
//!   the globally comparable marginals `ℓ(i,q)` from it.
//! * [`center_outliers`] — the Charikar et al. \[4\] style greedy-disk
//!   3-approximation for `(k,t)`-center with outliers (weighted), run by the
//!   coordinator in Algorithms 2 and 4.
//! * [`median_outliers`] — the Theorem 3.1 analogue: a Lagrangian λ-penalty
//!   local search for `(k, (1+ε)t)`-median/means (weighted), with a
//!   parametric search on λ, standing in for the paper's primal-dual
//!   solver with the same interface and guarantee shape.
//! * [`local_search`] — weighted k-median/means local search with an
//!   optional per-point penalty (the Lagrangian core).
//! * [`lloyd`] — Lloyd's k-means (with trimming) as a classical baseline.
//! * [`exact`] — brute-force optimal solvers for small instances; the test
//!   oracle every approximation claim is validated against.
//! * [`solution`] — the common solution representation
//!   (`sol(Z,k,t,d)` of §2).

pub mod center_outliers;
pub mod exact;
pub mod gonzalez;
pub mod lloyd;
pub mod local_search;
pub mod median_outliers;
pub mod solution;

pub use center_outliers::{charikar_center, CenterParams};
pub use exact::{exact_best, ExactSolution};
pub use gonzalez::{gonzalez, gonzalez_recorded, gonzalez_with, GonzalezOrdering};
pub use lloyd::{lloyd_kmeans, LloydParams};
pub use local_search::{
    kmedian_local_search, penalty_local_search, swap_deltas, LocalSearchParams,
};
pub use median_outliers::{
    median_bicriteria, median_bicriteria_grid, median_bicriteria_relaxed_centers, BicriteriaParams,
};
pub use solution::Solution;
