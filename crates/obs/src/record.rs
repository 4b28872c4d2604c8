//! The recording interface: [`Recorder`], the cached [`RecorderHandle`],
//! the canonical [`Event`] schema, and the in-memory [`Collector`] sink.

use crate::trace::Trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Kind of a fault-injection decision surfaced by the protocol driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A site missed the round entirely (all delivery attempts failed).
    Dropout,
    /// One delivery attempt failed and the runtime moved to the next
    /// (the wait is the detection timeout, zero with a perfect failure
    /// detector).
    Retry,
    /// A reply was delayed: either accepted late (wait = the delay) or
    /// abandoned past the timeout (wait = the timeout, and the attempt
    /// also counts as a retry).
    Straggler,
}

impl FaultKind {
    /// Stable lower-case name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Dropout => "dropout",
            FaultKind::Retry => "retry",
            FaultKind::Straggler => "straggler",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn from_name(s: &str) -> Option<FaultKind> {
        match s {
            "dropout" => Some(FaultKind::Dropout),
            "retry" => Some(FaultKind::Retry),
            "straggler" => Some(FaultKind::Straggler),
            _ => None,
        }
    }
}

/// A monotone counter identity. Counters are incremented through
/// [`Recorder::add`] (atomics in the [`Collector`]) and never appear as
/// individual events — hot code tallies locally and flushes once per
/// batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Nearest-center queries answered by the bulk kernels.
    KernelQueries,
    /// Candidate centers considered across all kernel queries.
    CandidatesScanned,
    /// Candidates rejected by an O(1) bound or a partial-distance abort
    /// before paying for a full exact pass ([`CenterBlock`] scans).
    ///
    /// [`CenterBlock`]: https://docs.rs/dpc_metric
    CandidatesPruned,
    /// Stream engine: input blocks folded into level-0 summaries.
    BlocksSummarized,
    /// Stream engine: carry-merges performed in the binary-counter tree.
    SummariesMerged,
    /// Continuous mode: sync protocols executed.
    SyncsRun,
    /// Parameter sweeps: grid cells completed.
    SweepCellsDone,
    /// Kernel queries whose full candidate scan was skipped because
    /// maintained triangle-inequality bounds already proved the winner
    /// (the `BoundedAssigner` fast path — the query paid for one
    /// distance instead of `k`).
    BoundSkips,
    /// Exact candidate scores produced by the register-blocked tile
    /// (rows × centers pushed through the tiles).
    TileScores,
    /// Raw (pre-compression) payload bytes moved by protocols running a
    /// non-raw wire [`Encoding`](https://docs.rs/dpc_codec) — what the
    /// same run would have charged without the codec.
    BytesRaw,
    /// Compressed (on-wire) payload bytes moved by protocols running a
    /// non-raw wire encoding. Zero (with [`Counter::BytesRaw`]) on raw
    /// runs, which is what keeps their traces byte-identical to the
    /// pre-codec goldens.
    BytesCompressed,
    /// Mux transport: readiness-loop wakeups (`poll(2)` returns) across
    /// all event-loop shards. The value depends on kernel scheduling
    /// and socket-buffer timing, so it is the one *wall-clock* counter:
    /// never serialized into the deterministic JSONL schema
    /// ([`Counter::wall_clock_only`]), only surfaced by metrics
    /// digests.
    PollWakeups,
}

/// Number of distinct [`Counter`] identities.
pub const COUNTER_COUNT: usize = 12;

impl Counter {
    /// All counters, in index order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::KernelQueries,
        Counter::CandidatesScanned,
        Counter::CandidatesPruned,
        Counter::BlocksSummarized,
        Counter::SummariesMerged,
        Counter::SyncsRun,
        Counter::SweepCellsDone,
        Counter::BoundSkips,
        Counter::TileScores,
        Counter::BytesRaw,
        Counter::BytesCompressed,
        Counter::PollWakeups,
    ];

    /// Dense index of this counter (its slot in counter arrays).
    pub fn index(self) -> usize {
        match self {
            Counter::KernelQueries => 0,
            Counter::CandidatesScanned => 1,
            Counter::CandidatesPruned => 2,
            Counter::BlocksSummarized => 3,
            Counter::SummariesMerged => 4,
            Counter::SyncsRun => 5,
            Counter::SweepCellsDone => 6,
            Counter::BoundSkips => 7,
            Counter::TileScores => 8,
            Counter::BytesRaw => 9,
            Counter::BytesCompressed => 10,
            Counter::PollWakeups => 11,
        }
    }

    /// Stable snake-case name used in the JSONL schema and reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::KernelQueries => "kernel_queries",
            Counter::CandidatesScanned => "candidates_scanned",
            Counter::CandidatesPruned => "candidates_pruned",
            Counter::BlocksSummarized => "blocks_summarized",
            Counter::SummariesMerged => "summaries_merged",
            Counter::SyncsRun => "syncs_run",
            Counter::SweepCellsDone => "sweep_cells_done",
            Counter::BoundSkips => "bound_skips",
            Counter::TileScores => "tile_scores",
            Counter::BytesRaw => "bytes_raw",
            Counter::BytesCompressed => "bytes_compressed",
            Counter::PollWakeups => "poll_wakeups",
        }
    }

    /// Whether this counter postdates the `dpc.trace/v1` schema's
    /// introduction. Later additions read as zero when absent so older
    /// traces and summaries still parse; the original set stays
    /// required — a missing one is a malformed document, not a zero.
    pub fn optional_in_v1(self) -> bool {
        matches!(
            self,
            Counter::BoundSkips
                | Counter::TileScores
                | Counter::BytesRaw
                | Counter::BytesCompressed
                | Counter::PollWakeups
        )
    }

    /// Whether the JSONL counters line drops this counter when it is
    /// zero. Only counters added *after* a zero literal for them was
    /// already pinned into checked-in golden traces may set this —
    /// omitting them keeps pre-codec traces byte-identical, and
    /// [`Self::optional_in_v1`] makes the absence parse back as zero.
    pub fn omitted_when_zero(self) -> bool {
        matches!(
            self,
            Counter::BytesRaw | Counter::BytesCompressed | Counter::PollWakeups
        )
    }

    /// Whether this counter measures wall-clock scheduling rather than
    /// a deterministic quantity. Wall-clock counters are excluded from
    /// the JSONL counters line *unconditionally* (the same rule that
    /// drops `Event::Plan`), so traces of seeded runs stay
    /// byte-identical across transport backends; they reach reports
    /// through [`MetricsSummary`](crate::MetricsSummary), which already
    /// carries wall-clock fields. Parsing relies on
    /// [`Self::optional_in_v1`] to read the absence back as zero.
    pub fn wall_clock_only(self) -> bool {
        matches!(self, Counter::PollWakeups)
    }
}

/// One structured observation in the `run > round > phase > site` tree.
///
/// Fields split into two classes. *Deterministic* fields (byte counts,
/// indices, fault decisions, **simulated** time in exact integer
/// nanoseconds) are functions of `(seed, fault seed, job)` alone and are
/// what [`Trace::to_jsonl`] serializes. *Wall-clock* fields
/// (`wall_ns`, `compute_ns`) vary run to run; they feed the
/// [`MetricsReport`](crate::MetricsReport) and the Chrome export but are
/// excluded from the JSONL schema so traces stay byte-identical across
/// transports and runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A protocol run begins (emitted by the API layer with job
    /// metadata).
    RunStart {
        /// Job label (the job kind's name).
        label: String,
        /// Number of simulated sites.
        sites: usize,
        /// Partition/workload seed.
        seed: u64,
        /// Fault-schedule seed (0 when no faults are configured).
        fault_seed: u64,
    },
    /// A protocol round begins.
    RoundStart {
        /// Round index, starting at 0.
        round: usize,
    },
    /// The coordinator planned this round's messages (wall-clock only —
    /// not part of the JSONL schema).
    Plan {
        /// Round index.
        round: usize,
        /// Coordinator compute, wall-clock nanoseconds.
        wall_ns: u64,
    },
    /// One fault-schedule decision.
    Fault {
        /// Round index.
        round: usize,
        /// Site the decision applies to.
        site: usize,
        /// Delivery attempt index, starting at 0.
        attempt: usize,
        /// What happened.
        kind: FaultKind,
        /// Simulated wait charged by the decision, nanoseconds.
        wait_ns: u64,
    },
    /// Per-site accounting of one round.
    Site {
        /// Round index.
        round: usize,
        /// Site index.
        site: usize,
        /// Whether the site's reply arrived this round.
        delivered: bool,
        /// Coordinator → site payload bytes (0 when not delivered).
        down_bytes: u64,
        /// Site → coordinator payload bytes (0 when not delivered).
        up_bytes: u64,
        /// Site compute, wall-clock nanoseconds (not part of the JSONL
        /// schema).
        compute_ns: u64,
        /// Simulated fault wait charged to this site's slot, nanoseconds.
        wait_ns: u64,
    },
    /// A protocol round completed.
    RoundEnd {
        /// Round index.
        round: usize,
        /// Sites that missed the round entirely.
        dropouts: usize,
        /// Failed delivery attempts retried or abandoned.
        retries: usize,
        /// Whether the round ran over a strict subset of sites.
        degraded: bool,
        /// Simulated network time of the round, nanoseconds.
        network_ns: u64,
    },
    /// The protocol run finished.
    RunEnd {
        /// Rounds executed.
        rounds: usize,
    },
    /// A continuous-mode sync begins.
    SyncStart {
        /// Sync index, starting at 0.
        sync: usize,
        /// Fleet-wide ingested point count when the sync fired.
        at: u64,
    },
    /// A continuous-mode sync finished.
    SyncEnd {
        /// Sync index.
        sync: usize,
        /// Bytes the sync moved on the simulated wire.
        bytes: u64,
    },
    /// One sweep grid cell completed (emitted from worker threads, so
    /// arrival order is nondeterministic — excluded from the JSONL
    /// schema).
    CellDone {
        /// Cell index in row-major grid order.
        cell: usize,
        /// Total cells in the grid.
        total: usize,
    },
    /// One mux-transport event-loop shard finished its share of a round
    /// (wall-clock only — the wakeup count depends on kernel scheduling,
    /// so the event is excluded from the JSONL schema).
    ShardPoll {
        /// Round index.
        round: usize,
        /// Shard index within the event-loop pool.
        shard: usize,
        /// `poll(2)` wakeups the shard's readiness loop took to finish
        /// the round.
        wakeups: u64,
    },
}

/// A sink for structured events and counters.
///
/// Implementations must be thread-safe: the protocol driver records from
/// the coordinator thread while kernels flush counters from worker
/// threads. `enabled()` must be constant for the lifetime of the
/// recorder — [`RecorderHandle`] caches it once.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything at all. `false` lets
    /// instrumented code skip event construction entirely.
    fn enabled(&self) -> bool;

    /// Records one event.
    fn record(&self, event: Event);

    /// Adds `delta` to a monotone counter.
    fn add(&self, counter: Counter, delta: u64);
}

/// The default recorder: keeps nothing, reports `enabled() == false`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}

    fn add(&self, _counter: Counter, _delta: u64) {}
}

/// A cheap, clonable handle to a shared [`Recorder`].
///
/// The handle caches the recorder's `enabled()` answer at construction,
/// so the guard instrumented code runs on hot paths is one field read.
/// [`RecorderHandle::noop`] (also the `Default`) shares one static
/// no-op recorder — constructing it allocates nothing.
#[derive(Clone)]
pub struct RecorderHandle {
    inner: Arc<dyn Recorder>,
    on: bool,
}

impl RecorderHandle {
    /// Wraps a recorder, caching its `enabled()` answer.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        let on = recorder.enabled();
        Self {
            inner: recorder,
            on,
        }
    }

    /// The shared no-op handle (the disabled default).
    pub fn noop() -> Self {
        static NOOP: OnceLock<Arc<NoopRecorder>> = OnceLock::new();
        Self {
            inner: NOOP.get_or_init(|| Arc::new(NoopRecorder)).clone(),
            on: false,
        }
    }

    /// Whether recording is on. Instrumented code gates event
    /// construction and counter flushes on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Records one event (callers should gate on [`Self::enabled`]).
    #[inline]
    pub fn record(&self, event: Event) {
        self.inner.record(event);
    }

    /// Adds to a counter (callers should gate on [`Self::enabled`] and
    /// flush amortized tallies, not per-element deltas).
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.inner.add(counter, delta);
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        Self::noop()
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.on)
            .finish()
    }
}

/// The standard in-memory sink: events under a mutex, counters as
/// atomics. Snapshot with [`Collector::snapshot`] once the run is done.
#[derive(Debug, Default)]
pub struct Collector {
    events: Mutex<Vec<Event>>,
    counters: [AtomicU64; COUNTER_COUNT],
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle recording into this collector.
    pub fn handle(self: &Arc<Self>) -> RecorderHandle {
        RecorderHandle::new(self.clone() as Arc<dyn Recorder>)
    }

    /// Copies the collected state into an immutable [`Trace`].
    pub fn snapshot(&self) -> Trace {
        Trace {
            events: self.events.lock().expect("collector poisoned").clone(),
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
        }
    }
}

impl Recorder for Collector {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        self.events.lock().expect("collector poisoned").push(event);
    }

    fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_disabled_and_inert() {
        let h = RecorderHandle::noop();
        assert!(!h.enabled());
        h.record(Event::RoundStart { round: 0 });
        h.add(Counter::KernelQueries, 5);
        assert_eq!(format!("{h:?}"), "RecorderHandle { enabled: false }");
        assert!(!RecorderHandle::default().enabled());
    }

    #[test]
    fn collector_accumulates_events_and_counters() {
        let c = Arc::new(Collector::new());
        let h = c.handle();
        assert!(h.enabled());
        h.record(Event::RoundStart { round: 0 });
        h.add(Counter::CandidatesPruned, 3);
        h.add(Counter::CandidatesPruned, 4);
        let t = c.snapshot();
        assert_eq!(t.events, vec![Event::RoundStart { round: 0 }]);
        assert_eq!(t.counters[Counter::CandidatesPruned.index()], 7);
        assert_eq!(t.counters[Counter::KernelQueries.index()], 0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = Arc::new(Collector::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = c.handle();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.add(Counter::KernelQueries, 1);
                    }
                });
            }
        });
        let t = c.snapshot();
        assert_eq!(t.counters[Counter::KernelQueries.index()], 4000);
    }

    #[test]
    fn names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::ALL[c.index()], c);
        }
        for k in [FaultKind::Dropout, FaultKind::Retry, FaultKind::Straggler] {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_name("nope"), None);
    }
}
