//! Library backing the `dpc` command-line tool.
//!
//! Split out of `main.rs` so parsing and orchestration are unit-testable.
//! [`parse_args`] reads argv through one flag table straight onto a
//! `dpc::api::JobBuilder` (plus a [`Grid`] of `dpc::api::Sweep` axes for
//! `dpc sweep`); [`preflight`] and [`execute`] hand that job to the API.
//! The CLI runs the distributed partial-clustering protocols on CSV data:
//!
//! ```text
//! dpc median  --k 5 --t 20 --sites 8 data.csv
//! dpc means   --k 5 --t 20 --sites 8 --eps 0.5 data.csv
//! dpc center  --k 5 --t 20 --sites 8 --one-round data.csv
//! dpc uncertain-median --k 3 --t 4 --sites 3 nodes.csv
//! dpc stream  --k 5 --t 20 --block 256 --window 4096 data.csv
//! dpc stream  --k 5 --t 20 --sync-every 1024 --sites 8 data.csv
//! ```
//!
//! Deterministic point CSV: one point per row, numeric columns, optional
//! header. Uncertain CSV: `node_id,prob,coord0,coord1,…` rows; rows sharing
//! a `node_id` form one distribution. Input is consumed through a
//! [`std::io::BufRead`] row iterator, so large files are never loaded
//! whole; the `stream` subcommand feeds rows to the engine as they parse.

pub mod args;
pub mod csv;
pub mod run;

pub use args::{parse_args, Grid, Invocation};
pub use csv::{
    for_each_point_row, parse_points_csv, parse_uncertain_csv, read_points_csv, read_uncertain_csv,
};
pub use dpc::api::{Artifact, ConfigWarning, RoundBreakdown};
pub use run::{execute, execute_sweep, is_synthetic_input, preflight};
