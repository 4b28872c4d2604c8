//! Closed-loop benchmark of the `dpc` workspace.
//!
//! One client runs one job (or one stream) at a time against the public
//! library. Each workload is sized so that a different layer does most of
//! its work, so a gain in one layer shows on one workload and predicts no
//! change on the others:
//!
//! * `sites8-median` — few large shards: site-local bicriteria solves
//!   (`cluster`/`metric`) dominate;
//! * `sites4096-mux` — high fan-out on the mux backend: fleet spawn and
//!   teardown plus the coordinator's merged weighted solve dominate;
//! * `sites64-center` — the only k-center run (Gonzalez at the sites,
//!   Charikar at the coordinator) and the only dim 5..=8 kernel input;
//! * `continuous-f32` — the only streaming run, the only non-identity
//!   codec and the only weighted summary solves.
//!
//! A timed run ([`run`] with `trace = false`) reports the end-to-end
//! metrics with every recorder off, its times steal-adjusted
//! (`Stopwatch`) and scaled to nominal seconds by a host-speed probe
//! running beside them (`SpeedProbe`). A traced
//! run reports the per-layer ledger: spans kept in memory around the
//! calls this benchmark makes into each layer, the program's own
//! per-round accounting from a sequential replay, and an echo-site
//! transport probe.

mod batch;
mod continuous;
mod echo;
pub mod ledger;

use ledger::Span;
use std::time::Duration;

/// Kernel thread budget of every job, and the mux backend's event-loop
/// shard count.
pub const THREADS: usize = 2;

/// Set-ups per run, at least; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 25;

/// Seconds of set-up per run, at least: small inputs set up hundreds of
/// times, so their median holds still.
pub(crate) const SETUP_SECONDS: f64 = 1.0;

/// The benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Job::median(4, 16)`, 8 sites, n = 8000 at dim 16, channel.
    Sites8Median,
    /// `Job::means(2, 4)`, 4096 four-point shards at dim 16, mux.
    Sites4096Mux,
    /// `Job::center(8, 32)`, 64 sites, n = 131072 at dim 8, channel.
    Sites64Center,
    /// `ContinuousCluster`, 4 sites, k = 4, t = 8, dim 16, f32 codec.
    ContinuousF32,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Sites8Median,
        Workload::Sites4096Mux,
        Workload::Sites64Center,
        Workload::ContinuousF32,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sites8Median => "sites8-median",
            Workload::Sites4096Mux => "sites4096-mux",
            Workload::Sites64Center => "sites64-center",
            Workload::ContinuousF32 => "continuous-f32",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a small one for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is defined on.
    Full,
    /// Seconds-long inputs with the same shape, for tests.
    Smoke,
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit of [`Self::value`].
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The measured value.
    pub value: f64,
    /// Observations the value summarizes.
    pub samples: usize,
}

fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    value: f64,
    samples: usize,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        value,
        samples,
    }
}

/// Output checks: every job, sync and replay comparison is one attempt;
/// a panic or a failed check is one failure and never ends the run.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Operations that panicked or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one checked operation.
    pub(crate) fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.notes.push(format!("{what}: {e}"));
        }
    }
}

/// The end-to-end metrics of a timed run, times in steal-adjusted nominal
/// seconds. Every workload reports all of them; see the README
/// for what a "job" and a "sync" are on each.
#[derive(Clone, Debug, Default)]
pub(crate) struct EndToEnd {
    /// Median set-up time (input generation plus job validation), s.
    pub setup_s: f64,
    /// Median time of one job: a `Job::run`, or one whole stream.
    pub job_p50_s: f64,
    /// Input points per second of the median job.
    pub ingest_points_per_s: f64,
    /// Median time from a request to fresh centers, ms.
    pub sync_p50_ms: f64,
    /// 90th percentile of the same samples, ms (see [`tail_percentile`]).
    pub sync_p90_ms: f64,
    /// Payload bytes charged per job or stream (mean over the run's inputs).
    pub bytes: f64,
    /// Objective on the full input at the job's budget (mean over the
    /// run's inputs).
    pub cost: f64,
    /// Peak resident set size of the process, MB.
    pub peak_rss_mb: f64,
    /// Share of attempted jobs or syncs that passed every check.
    pub success_rate: f64,
    /// Samples behind `setup_s`.
    pub setups: usize,
    /// Samples behind `job_p50_s`.
    pub jobs: usize,
    /// Samples behind the `sync_*` percentiles.
    pub syncs: usize,
}

impl EndToEnd {
    fn metrics(&self) -> Vec<Metric> {
        use Better::{Higher, Lower};
        vec![
            metric("setup_s", "s", Lower, self.setup_s, self.setups),
            metric("job_p50_s", "s", Lower, self.job_p50_s, self.jobs),
            metric(
                "ingest_points_per_s",
                "1/s",
                Higher,
                self.ingest_points_per_s,
                self.jobs,
            ),
            metric("sync_p50_ms", "ms", Lower, self.sync_p50_ms, self.syncs),
            metric("sync_p90_ms", "ms", Lower, self.sync_p90_ms, self.syncs),
            metric("bytes", "B", Lower, self.bytes, self.jobs),
            metric("cost", "objective", Lower, self.cost, self.jobs),
            metric("peak_rss_mb", "MB", Lower, self.peak_rss_mb, 1),
            metric(
                "success_rate",
                "share",
                Higher,
                self.success_rate,
                self.jobs,
            ),
        ]
    }
}

/// The per-layer ledger of a traced run. A layer a workload does not
/// exercise reads zero (one-to-one compression reads one).
#[derive(Clone, Debug, Default)]
pub(crate) struct Layers {
    /// Site round-0 compute summed over sites, sequential replay, ms.
    pub site_round0_cpu_ms: f64,
    /// Slowest site in round 0 of the sequential replay, ms.
    pub site_round0_max_ms: f64,
    /// Site round-1 compute summed over sites, sequential replay, ms.
    pub site_round1_cpu_ms: f64,
    /// Coordinator compute (allocation plus merged solve), ms.
    pub coord_ms: f64,
    /// Echo fleet spawn and teardown with zero rounds, ms per protocol run.
    pub fleet_ms: f64,
    /// Echo exchange of the workload's payload sizes minus `fleet_ms`, ms.
    pub exchange_ms: f64,
    /// Mux readiness-loop wakeups per job.
    pub poll_wakeups: f64,
    /// `dpc::workloads::partition`, ms.
    pub partition_ms: f64,
    /// `dpc::core::evaluate_on_full_data_with`, ms.
    pub evaluate_ms: f64,
    /// Sequential `Job::run` minus its attributed children, ms.
    pub api_self_ms: f64,
    /// Sequential `Job::run` wall time, ms.
    pub api_replay_ms: f64,
    /// Stream ingest wall time excluding syncs, ms per stream.
    pub ingest_ms: f64,
    /// `Summary::from_block` replay, ms per stream.
    pub summarize_ms: f64,
    /// `Summary::merge` replay, ms per stream.
    pub merge_ms: f64,
    /// Blocks the stream engines summarized per stream.
    pub blocks_summarized: f64,
    /// Carry-merges the stream engines performed per stream.
    pub summaries_merged: f64,
    /// Site compute per sync, summed over sites and rounds, ms.
    pub sync_site_ms: f64,
    /// Coordinator compute per sync, ms.
    pub sync_coord_ms: f64,
    /// Live summary entries at the end of a stream.
    pub live_points: f64,
    /// f32 encode plus decode of one summary upload, µs.
    pub f32_roundtrip_us: f64,
    /// Raw payload bytes over charged bytes.
    pub compression_ratio: f64,
    /// Input generation, ms.
    pub generate_ms: f64,
    /// Traced over untraced job wall time, minus one.
    pub trace_overhead_share: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        use Better::{Higher, Lower};
        let l = |name, unit, value| metric(name, unit, Lower, value, 1);
        vec![
            l("core.site_round0_cpu_ms", "ms", self.site_round0_cpu_ms),
            l("core.site_round0_max_ms", "ms", self.site_round0_max_ms),
            l("core.site_round1_cpu_ms", "ms", self.site_round1_cpu_ms),
            l("core.coord_ms", "ms", self.coord_ms),
            l("core.evaluate_ms", "ms", self.evaluate_ms),
            l("coordinator.fleet_ms", "ms", self.fleet_ms),
            l("coordinator.exchange_ms", "ms", self.exchange_ms),
            l("coordinator.poll_wakeups", "count", self.poll_wakeups),
            l("workloads.partition_ms", "ms", self.partition_ms),
            l("workloads.generate_ms", "ms", self.generate_ms),
            l("api.self_ms", "ms", self.api_self_ms),
            l("api.replay_ms", "ms", self.api_replay_ms),
            l("stream.ingest_ms", "ms", self.ingest_ms),
            l("stream.summarize_ms", "ms", self.summarize_ms),
            l("stream.merge_ms", "ms", self.merge_ms),
            l("stream.blocks_summarized", "count", self.blocks_summarized),
            l("stream.summaries_merged", "count", self.summaries_merged),
            l("stream.sync_site_ms", "ms", self.sync_site_ms),
            l("stream.sync_coord_ms", "ms", self.sync_coord_ms),
            l("stream.live_points", "count", self.live_points),
            l("codec.f32_roundtrip_us", "us", self.f32_roundtrip_us),
            metric(
                "codec.compression_ratio",
                "ratio",
                Higher,
                self.compression_ratio,
                1,
            ),
            l(
                "obs.trace_overhead_share",
                "share",
                self.trace_overhead_share,
            ),
        ]
    }
}

/// Everything one run measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// The workload that ran.
    pub workload: Workload,
    /// Its input seed.
    pub seed: u64,
    /// Sites of one job or sync.
    pub sites: usize,
    /// Output-check accounting.
    pub checks: Checks,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Spans of a traced run, in opening order.
    pub spans: Vec<Span>,
    /// Context printed with the metadata, such as unadjusted wall time.
    pub extra: Vec<(&'static str, f64)>,
}

impl Report {
    /// True when something ran and every check passed.
    pub fn correct(&self) -> bool {
        self.checks.attempted > 0 && self.checks.failed == 0
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// The run metadata line printed before the result.
    pub fn meta_json(&self, seconds: f64, trace: bool) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"samples\": {}}}",
                    m.name,
                    m.unit,
                    m.better.name(),
                    m.samples
                )
            })
            .collect();
        let extra: String = self
            .extra
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {}", json_number(*v)))
            .collect();
        format!(
            "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"nproc\": {nproc}, \"threads\": {THREADS}, \"mux_shards\": {THREADS}, \
             \"sites\": {}, \"loop\": \"closed, one client\"{extra}, \"metrics\": {{{}}}}}}}",
            self.workload.name(),
            self.seed,
            json_number(seconds),
            trace,
            self.sites,
            metrics.join(", ")
        )
    }
}

/// Runs one workload for about `seconds` of measured work.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Report {
    match workload {
        Workload::ContinuousF32 => {
            continuous::run(continuous::StreamSpec::new(scale), seed, seconds, trace)
        }
        w => batch::run(w, batch::BatchSpec::of(w, scale), seed, seconds, trace),
    }
}

/// JSON has no NaN or infinity; a non-finite value is already a failed
/// check, so it prints as zero.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of `xs` (zero when empty).
pub(crate) fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Arithmetic mean of `xs` (zero when empty).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The 90th percentile when at least ten samples lie beyond it (100 or
/// more samples); otherwise the highest percentile that keeps ten beyond
/// it, and never less than the median. A run of fewer than 20 jobs has no
/// tail to report, so its "p90" is its median.
pub(crate) fn tail_percentile(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    percentile(xs, ((n - 10.0) / n).clamp(0.5, 0.9))
}

/// Nearest-rank percentile `q` in `(0, 1]` of `xs` (zero when empty).
pub(crate) fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Aggregate vCPU time from `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, Default)]
struct CpuTicks {
    /// Time the hypervisor ran something else while a vCPU had work.
    steal: u64,
    /// Time the vCPUs had work: user, nice, system, irq, softirq, steal.
    busy: u64,
}

impl CpuTicks {
    /// The counters now (zeros where `/proc/stat` is unavailable).
    fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let v: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        if v.len() < 8 {
            return CpuTicks::default();
        }
        CpuTicks {
            steal: v[7],
            busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7],
        }
    }

    /// Stolen and busy ticks since `self`.
    fn since(self) -> CpuTicks {
        let now = CpuTicks::now();
        CpuTicks {
            steal: now.steal.saturating_sub(self.steal),
            busy: now.busy.saturating_sub(self.busy),
        }
    }

    /// Share of these busy ticks that were not stolen: 1 on bare metal,
    /// below 1 on an oversubscribed virtual machine.
    fn unstolen(self) -> f64 {
        if self.busy == 0 {
            return 1.0;
        }
        1.0 - self.steal as f64 / self.busy as f64
    }
}

/// A wall clock that also reports steal-adjusted time.
///
/// On a shared virtual machine the hypervisor takes vCPUs away for
/// stretches that no program change can affect; unadjusted, they swing
/// a job's wall time by tens of percent between runs. The adjusted time
/// scales wall time by the share of busy vCPU time that was not stolen,
/// which removes the stolen stretches whether the job kept one vCPU or
/// both busy. It equals the wall time where nothing is stolen.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stopwatch {
    t0: std::time::Instant,
    ticks: CpuTicks,
}

/// One reading of a [`Stopwatch`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Timing {
    /// Wall time, s.
    pub wall: f64,
    /// Share of busy vCPU time that was not stolen.
    pub unstolen: f64,
}

impl Timing {
    /// Steal-adjusted wall time, s.
    pub(crate) fn adjusted(self) -> f64 {
        self.wall * self.unstolen
    }
}

impl Stopwatch {
    /// Starts the clock.
    pub(crate) fn start() -> Stopwatch {
        Stopwatch {
            ticks: CpuTicks::now(),
            t0: std::time::Instant::now(),
        }
    }

    /// Reads the clock.
    pub(crate) fn read(self) -> Timing {
        let wall = self.t0.elapsed().as_secs_f64();
        Timing {
            wall,
            unstolen: self.ticks.since().unstolen(),
        }
    }
}

/// Reference-kernel CPU time, s, that defines one nominal second: about
/// the kernel's time on a quiet 2-vCPU virtual machine.
const NOMINAL_REFERENCE_S: f64 = 0.0003;

/// Pause between two reference-kernel runs of a [`SpeedProbe`].
const PROBE_PERIOD: Duration = Duration::from_millis(50);

/// Host-speed probe: a thread that runs a fixed kernel beside the timed
/// work, about 0.3 ms every 50 ms, and records the CPU time of each run.
///
/// On a shared host the speed of a vCPU drifts with its neighbours' load,
/// by ±25% from one ten-second stretch to the next, with nothing stolen;
/// any compute kernel slows down with it in step. Kernel runs taken
/// between jobs miss the stretches the jobs ran in; the probe samples
/// those very stretches, and CPU time leaves out the waits for a vCPU the
/// work itself causes. The kernel is this benchmark's own code; a program
/// change moves it only through the caches and cores it shares with the
/// work, which is why the unscaled time is reported beside the scaled.
pub(crate) struct SpeedProbe {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl SpeedProbe {
    /// Starts the probe thread.
    pub(crate) fn start() -> SpeedProbe {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(PROBE_PERIOD);
                let c0 = thread_cpu_s();
                std::hint::black_box(reference_kernel());
                samples.push(thread_cpu_s() - c0);
            }
            samples
        });
        SpeedProbe { stop, thread }
    }

    /// Stops the probe; returns nominal seconds per second over its
    /// lifetime and the number of kernel runs behind it.
    pub(crate) fn finish(self) -> (f64, usize) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let samples = self.thread.join().expect("the probe thread does not panic");
        (NOMINAL_REFERENCE_S / mean(&samples), samples.len())
    }
}

/// CPU time of the calling thread, s.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// Linux `CLOCK_THREAD_CPUTIME_ID`.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Nearest-neighbour search among 64 fixed points in 16 dimensions
/// (8 KiB, cache-resident), repeated: the distance arithmetic the
/// clustering kernels spend their time in, with no allocation.
fn reference_kernel() -> f64 {
    const N: usize = 64;
    const D: usize = 16;
    const PASSES: usize = 8;
    let mut pts = [[0.0f64; D]; N];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for c in pts.iter_mut().flatten() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *c = (x >> 11) as f64 / (1u64 << 53) as f64;
    }
    let mut total = 0.0;
    for _ in 0..PASSES {
        let pts = std::hint::black_box(&pts);
        for (i, p) in pts.iter().enumerate() {
            let mut best = f64::INFINITY;
            for (j, q) in pts.iter().enumerate() {
                if i != j {
                    let d: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                    best = best.min(d);
                }
            }
            total += best;
        }
    }
    total
}

/// Runs `setup` back to back, at least [`SETUP_REPS`] times and for at
/// least [`SETUP_SECONDS`], and returns the time of each run, s.
pub(crate) fn repeat_setup(mut setup: impl FnMut(usize)) -> Vec<f64> {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t0 = std::time::Instant::now();
        setup(times.len());
        times.push(t0.elapsed().as_secs_f64());
    }
    times
}

/// The closed loop: runs `job` back to back, at least `min_jobs` times
/// (and at least once), and stops once `seconds` have passed or the next
/// job would, on the mean so far, end more than half a job past them.
pub(crate) fn closed_loop(seconds: f64, min_jobs: usize, mut job: impl FnMut()) {
    let start = std::time::Instant::now();
    let mut jobs = 0usize;
    loop {
        job();
        jobs += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if jobs >= min_jobs && elapsed + 0.5 * elapsed / jobs as f64 >= seconds {
            break;
        }
    }
}

/// Milliseconds in `d`.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`; zero where
/// `/proc` is unavailable).
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f`, turning a panic into an error message.
pub(crate) fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}
