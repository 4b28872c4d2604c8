//! The coordinator model (§1 "Models and Problems") as a
//! message-passing runtime.
//!
//! `s` sites and one coordinator are connected in a star. Computation
//! proceeds in rounds: the coordinator sends a (possibly empty) message to
//! each site, every site replies, and the coordinator outputs the answer at
//! the end. Direct site-to-site communication is simulated by routing
//! through the coordinator (at most doubling communication), so the star is
//! the only topology we need.
//!
//! The crate is layered:
//!
//! * **Protocol logic** is written against the [`Site`] / [`Coordinator`]
//!   traits and never sees the wire — algorithm crates stay
//!   backend-agnostic.
//! * **The driver** ([`run_protocol`]) alternates coordinator and sites
//!   until the coordinator finishes. Every message is a real serialized
//!   byte buffer ([`bytes::Bytes`]) and [`CommStats`] charges its exact
//!   payload length to the right round and direction — the communication
//!   columns of Tables 1–2 are reproduced from these counters, identically
//!   on every backend.
//! * **The shard pool** carries the messages: the driver runs each
//!   round on it directly. Sites are dealt round-robin to
//!   [`RunOptions::shards`] workers, each running its group one site at
//!   a time, so one process sustains thousands of sites with O(shards)
//!   threads, and one shard runs every site on the caller's thread (the
//!   deterministic test mode). A shard's body is the backend, selected
//!   by [`RunOptions::transport`]: the in-process
//!   [`TransportKind::Channel`] worker calls its sites directly; the
//!   [`TransportKind::Mux`] worker puts every site behind one end of a
//!   Unix-domain socket pair with length-prefixed frames, proving the
//!   wire formats round-trip a real socket, and runs a `poll(2)` site
//!   loop plus a coordinator loop driving per-connection frame state
//!   machines with vectored writes (the `poll` syscall comes from the
//!   thin vendored `sys_poll` FFI wrapper, same no-registry discipline
//!   as the rest of `vendor/`). Protocol crates build their fleet with [`run_fleet`],
//!   which also gives each site its kernel budget
//!   ([`RunOptions::site_threads`]).
//! * **The link model** ([`LinkModel`]) simulates per-message latency and
//!   bandwidth, folded into [`RoundStats::network`], so the
//!   communication-vs-time trade-off is a measurable, tunable axis: the
//!   "local time" columns are observed wall-clock, the network column is
//!   modeled from the exact bytes moved.
//! * **The fault layer** ([`FaultPlan`]) extends the same idea to
//!   failures: per-site/per-round dropout, crash-at-round, straggler
//!   delays, and the coordinator's timeout/retry/backoff schedule.
//!   Every decision is a pure hash of `(seed, site, round, attempt)`
//!   and all simulated time flows through the link model, so a chaos
//!   run is reproducible bit for bit on every backend. The driver
//!   consults the plan *before* each exchange and hands fault-tolerant
//!   coordinators a `None` reply slot per failed site; a site that
//!   misses a round is crash-stopped for the rest of the execution, and
//!   [`RoundStats`] records `dropouts`/`retries`/`degraded` per round.
//!   See the [`fault`] module docs for the exact attempt semantics.

pub mod fault;
mod mux;
mod pool;
pub mod protocol;
mod sockets;
pub mod stats;
pub mod transport;

pub use fault::{Attempt, FaultPlan};
pub use protocol::{
    run_fleet, run_protocol, Coordinator, CoordinatorStep, ProtocolOutput, RunOptions, Site,
};
pub use stats::{CommStats, RoundStats};
pub use transport::{LinkModel, TransportKind};
