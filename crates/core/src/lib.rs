//! Distributed partial clustering — the paper's primary contribution.
//!
//! This crate implements the SPAA 2017 algorithms end-to-end on top of the
//! coordinator-model simulator:
//!
//! * [`hull`] — lower convex hulls of per-site cost profiles
//!   `{(q, C_sol(A_i, 2k, q))}_{q ∈ I}` (Algorithm 1, line 4), including the
//!   geometric grid `I = {⌊ρ^r⌋} ∪ {0, t}`;
//! * [`allocation`] — the water-filling outlier allocation: the coordinator
//!   stably sorts all marginals `ℓ(i,q) = f_i(q−1) − f_i(q)` in decreasing
//!   lexicographic-tie-broken order and thresholds at rank `ρt`
//!   (Algorithm 1, lines 7–14; optimality is Lemma 3.3). It holds the
//!   steps every protocol shares: [`threshold_round`], the coordinator's
//!   round over the sites that answered (the one place dropout re-runs
//!   Lemma 3.3), and [`site_budget_from_threshold`], the site's `t_i`
//!   rule (lines 12–13);
//! * [`algo_median`] — **Algorithm 1**: distributed `(k,(1+ε)t)`-median and
//!   means in 2 rounds with `O˜((sk+t)B)` communication (Theorem 3.6), plus
//!   the `ρ = 1+δ` counts-only variant of **Theorem 3.8**;
//! * [`merge`] — the Lemma 3.7 pairing construction combining two hull-
//!   vertex solutions into a `4k`-center solution at the exceptional site;
//! * [`algo_center`] — **Algorithm 2**: distributed `(k,t)`-center where
//!   Gonzalez insertion radii serve simultaneously as preclustering and as
//!   globally comparable marginals (Theorem 4.3);
//! * [`one_round`] — the 1-round `O˜((sk+st)B)` variants of Table 2
//!   (`t_i = t` at every site); for the center objective this is exactly the
//!   Malkomes et al. \[19\] baseline the paper improves on;
//! * [`subquadratic`] — **Theorem 3.10**: the first subquadratic
//!   centralized `(k,t)`-median, obtained by simulating the distributed
//!   algorithm sequentially and recursing;
//! * [`wire`] — message formats shared by the protocols;
//! * [`evaluate`] — re-evaluation of distributed solutions against the full
//!   original data (for experiments; not part of the protocols).

pub mod algo_center;
pub mod algo_median;
pub mod allocation;
pub mod evaluate;
pub mod hull;
pub mod merge;
pub mod one_round;
pub mod subquadratic;
pub mod wire;

pub use algo_center::{run_distributed_center, CenterConfig};
pub use algo_median::{run_distributed_median, DeltaVariant, MedianConfig};
pub use allocation::{allocate_outliers, site_budget_from_threshold, threshold_round, Allocation};
pub use evaluate::{
    evaluate_on_full_data, evaluate_on_full_data_recorded, evaluate_on_full_data_with, merge_shards,
};
pub use hull::{geometric_grid, ConvexProfile};
pub use one_round::{run_one_round_center, run_one_round_median};
pub use subquadratic::{subquadratic_median, SubquadraticParams};
pub use wire::DistributedSolution;
