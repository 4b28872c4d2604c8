//! The continuous workload: one whole stream per request, each ingest
//! firing a sync every `sync_every` points.

use crate::echo::{self, Payloads};
use crate::ledger::Ledger;
use crate::{catch, median, ms, peak_rss_mb, tail_percentile};
use crate::{
    closed_loop, repeat_setup, Checks, EndToEnd, Layers, Report, SpeedProbe, Stopwatch, Timing,
};
use crate::{Scale, Workload, THREADS};
use dpc::cluster::LocalSearchParams;
use dpc::codec::Encoding;
use dpc::coordinator::TransportKind;
use dpc::core::evaluate_on_full_data_with;
use dpc::metric::{Objective, PointSet, ThreadBudget};
use dpc::obs::{Collector, Counter};
use dpc::stream::{
    ContinuousCluster, ContinuousConfig, StreamConfig, Summary, SummaryMsg, SummaryParams,
    SyncRecord,
};
use dpc::workloads::{drifting_stream, DriftSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Encode-plus-decode pairs per timed batch of the codec probe.
const CODEC_BATCH: usize = 200;
/// Timed batches of the codec probe; the ledger keeps their median.
const CODEC_BATCHES: usize = 25;
/// Echo probes per traced run.
const ECHO_REPS: usize = 25;

/// Shape of the continuous workload.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// Centers requested.
    pub k: usize,
    /// Outlier budget.
    pub t: usize,
    /// Sites; points are dealt to them round-robin.
    pub sites: usize,
    /// Dimension.
    pub dim: usize,
    /// Stream-engine block size.
    pub block: usize,
    /// Fleet-wide points between syncs.
    pub sync_every: u64,
    /// Points in one stream.
    pub points: usize,
}

impl StreamSpec {
    /// The workload at `scale`.
    pub fn new(scale: Scale) -> StreamSpec {
        StreamSpec {
            k: 4,
            t: 8,
            sites: 4,
            dim: 16,
            block: 256,
            sync_every: 200,
            points: match scale {
                // 20 syncs per stream and over a dozen streams per 20 s
                // run: hundreds of syncs behind the p90, and enough
                // streams for a steady median stream time.
                Scale::Full => 4_000,
                Scale::Smoke => 2_000,
            },
        }
    }

    /// A drifting stream with `t - 1` isolated far outliers, so the
    /// final evaluation at budget `2t` excludes all of them.
    pub fn generate(&self, seed: u64) -> PointSet {
        drifting_stream(DriftSpec {
            clusters: self.k,
            points: self.points,
            dim: self.dim,
            sigma: 1.0,
            separation: 100.0,
            drift: 0.5,
            burst_len: 1,
            burst_every: self.points / self.t,
            seed,
        })
        .points
    }

    /// The fleet configuration `Job::continuous` builds for the same
    /// knobs: parallel sites on the channel backend, f32 frames.
    pub fn config(&self) -> ContinuousConfig {
        ContinuousConfig {
            stream: StreamConfig::new(self.k, self.t)
                .block(self.block)
                .threads(THREADS),
            parallel: true,
            ..ContinuousConfig::new(self.k, self.t)
        }
        .sync_every(self.sync_every)
        .transport(TransportKind::Channel)
        .encoding(Encoding::F32)
    }

    /// Exclusion budget of the final evaluation, `(1 + ε)t` at ε = 1.
    pub fn budget(&self) -> usize {
        2 * self.t
    }
}

/// One finished stream.
struct StreamRun {
    wall: Timing,
    ingest: Duration,
    syncs: Vec<Duration>,
    history: Vec<SyncRecord>,
    live_points: usize,
    bytes: usize,
    bytes_raw: usize,
    eval: Duration,
}

/// Streams `points` through a fresh fleet, timing every ingest call: a
/// call that fired a sync is a sync sample, the rest are ingest.
fn stream_once(
    spec: &StreamSpec,
    points: &PointSet,
    collector: Option<&Arc<Collector>>,
) -> (ContinuousCluster, Timing, Duration, Vec<Duration>) {
    let mut fleet = ContinuousCluster::new(spec.dim, spec.sites, spec.config());
    if let Some(c) = collector {
        fleet = fleet.with_recorder(c.handle());
    }
    let mut ingest = Duration::ZERO;
    let mut syncs = Vec::new();
    let clock = Stopwatch::start();
    for (i, p) in points.iter() {
        let c0 = Instant::now();
        let fired = fleet.ingest(i % spec.sites, p);
        match fired {
            Some(_) => syncs.push(c0.elapsed()),
            None => ingest += c0.elapsed(),
        }
    }
    let c0 = Instant::now();
    let before = fleet.history.len();
    fleet.sync_if_stale();
    if fleet.history.len() > before {
        syncs.push(c0.elapsed());
    }
    (fleet, clock.read(), ingest, syncs)
}

/// Runs and checks one stream: every sync returns `k` centers over two
/// rounds with fewer bytes than raw frames, and the stream's bytes and
/// final cost repeat those of the seed's first stream.
fn checked_stream(
    spec: &StreamSpec,
    points: &PointSet,
    collector: Option<&Arc<Collector>>,
    first: &mut Option<(usize, f64)>,
    checks: &mut Checks,
) -> Option<StreamRun> {
    let (fleet, wall, ingest, syncs) = match catch(|| stream_once(spec, points, collector)) {
        Ok(out) => out,
        Err(e) => {
            checks.record("stream", Err(e));
            return None;
        }
    };
    for rec in &fleet.history {
        let raw = rec.stats.raw_bytes();
        let bytes = rec.stats.total_bytes();
        checks.record(
            "sync",
            if rec.centers.len() != spec.k {
                Err(format!(
                    "{} centers, expected {}",
                    rec.centers.len(),
                    spec.k
                ))
            } else if rec.stats.num_rounds() != 2 {
                Err(format!("{} rounds, expected 2", rec.stats.num_rounds()))
            } else if bytes >= raw {
                Err(format!("{bytes} bytes, not below raw {raw}"))
            } else {
                Ok(())
            },
        );
    }
    let latest = fleet.latest()?;
    let e0 = Instant::now();
    let (cost, _) = evaluate_on_full_data_with(
        std::slice::from_ref(points),
        &latest.centers,
        spec.budget(),
        Objective::Median,
        ThreadBudget::new(THREADS),
    );
    let eval = e0.elapsed();
    let bytes = fleet.total_comm_bytes();
    let outcome = if !cost.is_finite() {
        Err(format!("cost {cost} is not finite"))
    } else {
        match *first {
            None => {
                *first = Some((bytes, cost));
                Ok(())
            }
            Some((b, c)) if b == bytes && c.to_bits() == cost.to_bits() => Ok(()),
            Some((b, c)) => Err(format!(
                "bytes/cost {bytes}/{cost} differ from the first stream's {b}/{c}"
            )),
        }
    };
    let passed = outcome.is_ok();
    checks.record("stream", outcome);
    passed.then(|| StreamRun {
        wall,
        ingest,
        syncs,
        live_points: fleet.live_points(),
        bytes,
        bytes_raw: fleet.history.iter().map(|r| r.stats.raw_bytes()).sum(),
        history: fleet.history,
        eval,
    })
}

/// Runs the continuous workload for `seconds` of streams.
pub fn run(spec: StreamSpec, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut ledger = Ledger::new();
    let mut checks = Checks::default();
    let run_clock = Stopwatch::start();
    let setup_probe = (!trace).then(SpeedProbe::start);
    let mut points = PointSet::new(spec.dim);
    let setups = repeat_setup(|_| {
        points = ledger
            .time("workloads.generate", None, 0, || spec.generate(seed))
            .0;
    });

    let setup_speed = setup_probe.map_or(1.0, |p| p.finish().0);
    let probe = (!trace).then(SpeedProbe::start);
    let mut first = None;
    let mut extra = Vec::new();
    let metrics = if !trace {
        let mut runs = Vec::new();
        closed_loop(seconds, 1, || {
            runs.extend(checked_stream(
                &spec,
                &points,
                None,
                &mut first,
                &mut checks,
            ));
        });
        let (speed, probes) = probe.expect("timed runs probe").finish();
        let walls: Vec<f64> = runs.iter().map(|r| r.wall.adjusted() * speed).collect();
        // A sync is too short to read steal from the tick counters; each
        // takes its stream's unstolen share.
        let syncs: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.syncs.iter().map(|&d| ms(d) * r.wall.unstolen * speed))
            .collect();
        let raw: Vec<f64> = runs.iter().map(|r| r.wall.wall).collect();
        let unstolen = run_clock.read().unstolen;
        extra.push(("raw_job_p50_s", median(&raw)));
        extra.push(("unstolen_share", unstolen));
        extra.push(("speed_factor", speed));
        extra.push(("probes", probes as f64));
        extra.push(("setup_speed_factor", setup_speed));
        let (bytes, cost) = first.unwrap_or_default();
        EndToEnd {
            setup_s: median(&setups) * unstolen * setup_speed,
            job_p50_s: median(&walls),
            ingest_points_per_s: spec.points as f64 / median(&walls),
            sync_p50_ms: median(&syncs),
            sync_p90_ms: tail_percentile(&syncs),
            bytes: bytes as f64,
            cost,
            peak_rss_mb: peak_rss_mb(),
            success_rate: (checks.attempted - checks.failed) as f64 / checks.attempted as f64,
            setups: setups.len(),
            jobs: runs.len(),
            syncs: syncs.len(),
        }
        .metrics()
    } else {
        traced(
            &spec,
            &points,
            &mut ledger,
            &mut checks,
            &mut first,
            seconds,
        )
        .metrics()
    };
    Report {
        workload: Workload::ContinuousF32,
        seed,
        sites: spec.sites,
        checks,
        metrics,
        spans: ledger.into_spans(),
        extra,
    }
}

/// The traced run: plain streams alternating with recorder-on streams,
/// then a replay of the stream engines' summarize/merge schedule, an f32
/// codec probe and echo probes of one sync's payload sizes.
fn traced(
    spec: &StreamSpec,
    points: &PointSet,
    ledger: &mut Ledger,
    checks: &mut Checks,
    first: &mut Option<(usize, f64)>,
    seconds: f64,
) -> Layers {
    let mut plain = Vec::new();
    let mut recorded = Vec::new();
    let mut last: Option<(StreamRun, [u64; 2])> = None;
    let mut job = 1u64;
    // Plain and recorder-on streams in ABBA order so neither side always
    // runs first. (No warm-up stream: a first-sync effect is one sample
    // of over a hundred.)
    closed_loop(seconds, 1, || {
        let order = if job % 4 == 1 {
            [false, true]
        } else {
            [true, false]
        };
        for recorder in order {
            let collector = recorder.then(|| Arc::new(Collector::new()));
            let name = if recorder {
                "stream.run_recorded"
            } else {
                "stream.run"
            };
            let (run, span) = ledger.time(name, None, job, || {
                checked_stream(spec, points, collector.as_ref(), first, checks)
            });
            let this = job;
            job += 1;
            let Some(run) = run else { continue };
            report_stream(ledger, span, this, &run);
            match collector {
                None => plain.push(run.wall.adjusted()),
                Some(c) => {
                    recorded.push(run.wall.adjusted());
                    let counters = c.snapshot().counters;
                    let counts = [
                        counters[Counter::BlocksSummarized.index()],
                        counters[Counter::SummariesMerged.index()],
                    ];
                    last = Some((run, counts));
                }
            }
        }
    });

    let mut layers = Layers {
        generate_ms: ledger.median_ms("workloads.generate"),
        trace_overhead_share: median(&recorded) / median(&plain) - 1.0,
        ..Layers::default()
    };
    let Some((run, [blocks, merges])) = last else {
        checks.record(
            "recorded stream",
            Err("no recorded stream passed".to_string()),
        );
        return layers;
    };
    let syncs = run.history.len().max(1) as f64;
    let round_sum = |r: usize| -> f64 {
        run.history
            .iter()
            .filter_map(|h| h.stats.rounds.get(r))
            .map(|x| ms(x.site_compute.iter().sum()))
            .sum()
    };
    layers.site_round0_cpu_ms = round_sum(0);
    layers.site_round1_cpu_ms = round_sum(1);
    layers.site_round0_max_ms = run
        .history
        .iter()
        .filter_map(|h| h.stats.rounds.first())
        .map(|x| ms(x.max_site_compute()))
        .sum();
    layers.coord_ms = run
        .history
        .iter()
        .map(|h| ms(h.stats.coordinator_compute()))
        .sum();
    layers.sync_site_ms = run
        .history
        .iter()
        .map(|h| ms(h.stats.total_site_compute()))
        .sum::<f64>()
        / syncs;
    layers.sync_coord_ms = layers.coord_ms / syncs;
    layers.ingest_ms = ms(run.ingest);
    layers.evaluate_ms = ms(run.eval);
    layers.live_points = run.live_points as f64;
    layers.blocks_summarized = blocks as f64;
    layers.summaries_merged = merges as f64;
    layers.compression_ratio = run.bytes_raw as f64 / run.bytes.max(1) as f64;

    let replay = ledger.open("stream.replay", None, job);
    let counts = replay_merge_reduce(spec, points, ledger, replay, job);
    ledger.close(replay);
    checks.record(
        "summarize/merge replay",
        if counts == (blocks, merges) {
            Ok(())
        } else {
            Err(format!(
                "replayed {counts:?}, engines counted {:?}",
                (blocks, merges)
            ))
        },
    );
    layers.summarize_ms = ledger.total_ms("stream.summarize");
    layers.merge_ms = ledger.total_ms("stream.merge");
    layers.f32_roundtrip_us = codec_probe(spec, points, ledger, job);

    let payloads = run
        .history
        .last()
        .map(|h| Payloads::of(&h.stats))
        .unwrap_or_default();
    let mut fleet = Vec::new();
    let mut exchange = Vec::new();
    for _ in 0..ECHO_REPS {
        let (f, span) = ledger.time("coordinator.fleet", None, job, || {
            echo::probe(&Payloads::default(), spec.sites, TransportKind::Channel)
        });
        checks.record("echo fleet", f.map(|_| fleet.push(ledger.ms(span))));
        let (e, span) = ledger.time("coordinator.echo", None, job, || {
            echo::probe(&payloads, spec.sites, TransportKind::Channel)
        });
        checks.record("echo exchange", e.map(|_| exchange.push(ledger.ms(span))));
    }
    layers.fleet_ms = median(&fleet);
    layers.exchange_ms = median(&exchange) - layers.fleet_ms;
    layers
}

/// Files a stream's ingest total and per-sync times under its span.
fn report_stream(ledger: &mut Ledger, span: usize, job: u64, run: &StreamRun) {
    ledger.report("stream.ingest", Some(span), job, run.ingest);
    for &s in &run.syncs {
        ledger.report("stream.sync", Some(span), job, s);
    }
}

/// Replays the stream engines' merge-and-reduce schedule — a block is
/// summarized when it fills or a sync flushes it, then carry-merged up
/// the binary-counter tree — timing each `Summary::from_block` and
/// `Summary::merge` call. Returns (blocks summarized, merges).
fn replay_merge_reduce(
    spec: &StreamSpec,
    points: &PointSet,
    ledger: &mut Ledger,
    parent: usize,
    job: u64,
) -> (u64, u64) {
    let cfg = spec.config().stream;
    let params = SummaryParams {
        k: cfg.k,
        t: cfg.t,
        objective: cfg.objective,
        lambda_iters: cfg.lambda_iters,
        ls: LocalSearchParams {
            threads: cfg.threads,
            ..cfg.ls
        },
    };
    let mut buffers = vec![PointSet::with_capacity(spec.dim, spec.block); spec.sites];
    let mut levels: Vec<Vec<Option<Summary>>> = vec![Vec::new(); spec.sites];
    let mut counts = (0u64, 0u64);
    let mut flush = |site: usize, buffers: &mut Vec<PointSet>, ledger: &mut Ledger| {
        if buffers[site].is_empty() {
            return;
        }
        let block = std::mem::replace(&mut buffers[site], PointSet::new(spec.dim));
        let (mut carry, _) = ledger.time("stream.summarize", Some(parent), job, || {
            Summary::from_block(&block, &params)
        });
        counts.0 += 1;
        let tree = &mut levels[site];
        let mut lvl = 0;
        loop {
            if lvl == tree.len() {
                tree.push(Some(carry));
                break;
            }
            match tree[lvl].take() {
                None => {
                    tree[lvl] = Some(carry);
                    break;
                }
                Some(existing) => {
                    carry = ledger
                        .time("stream.merge", Some(parent), job, || {
                            Summary::merge(&existing, &carry, &params)
                        })
                        .0;
                    counts.1 += 1;
                    lvl += 1;
                }
            }
        }
    };
    for (i, p) in points.iter() {
        let site = i % spec.sites;
        buffers[site].push(p);
        if buffers[site].len() >= spec.block {
            flush(site, &mut buffers, ledger);
        }
        if ((i + 1) as u64).is_multiple_of(spec.sync_every) {
            for s in 0..spec.sites {
                flush(s, &mut buffers, ledger);
            }
        }
    }
    // The closing sync flushes whatever a cadence sync did not.
    for s in 0..spec.sites {
        flush(s, &mut buffers, ledger);
    }
    counts
}

/// Times an f32 encode plus decode of one summary upload at the
/// workload's shape: `2k` weighted centers and `t` weighted outliers.
fn codec_probe(spec: &StreamSpec, points: &PointSet, ledger: &mut Ledger, job: u64) -> f64 {
    let ids: Vec<usize> = (0..2 * spec.k).collect();
    let out_ids: Vec<usize> = (2 * spec.k..2 * spec.k + spec.t).collect();
    let msg = SummaryMsg {
        centers: points.subset(&ids),
        weights: vec![1.0; ids.len()],
        outliers: points.subset(&out_ids),
        outlier_weights: vec![1.0; out_ids.len()],
        t_i: spec.t as u64,
    };
    let mut per_pair = Vec::with_capacity(CODEC_BATCHES);
    for _ in 0..CODEC_BATCHES {
        let (_, span) = ledger.time("codec.f32_roundtrip", None, job, || {
            for _ in 0..CODEC_BATCH {
                let frame = msg.encode_with(Encoding::F32, &[]);
                std::hint::black_box(SummaryMsg::decode_with(
                    Encoding::F32,
                    std::hint::black_box(frame),
                    &[],
                ));
            }
        });
        per_pair.push(ledger.ms(span) * 1e3 / CODEC_BATCH as f64);
    }
    median(&per_pair)
}
