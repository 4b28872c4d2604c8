//! The three batch workloads: one `Job::run` per request.

use crate::echo::{self, Payloads};
use crate::ledger::Ledger;
use crate::{catch, mean, median, ms, peak_rss_mb, tail_percentile};
use crate::{
    closed_loop, repeat_setup, Checks, EndToEnd, Layers, Report, SpeedProbe, Stopwatch, Timing,
};
use crate::{Scale, Workload, THREADS};
use dpc::api::{Artifact, Dataset, Job, JobBuilder, ValidJob};
use dpc::coordinator::{CommStats, RunOptions, TransportKind};
use dpc::core::{
    evaluate_on_full_data_with, run_distributed_center, run_distributed_median, CenterConfig,
    MedianConfig,
};
use dpc::metric::{Objective, PointSet, ThreadBudget};
use dpc::obs::Counter;
use dpc::workloads::{gaussian_blobs, partition, BlobsSpec, PartitionStrategy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outlier relaxation ε of the median-family jobs (the `Job` default).
const EPS: f64 = 1.0;
/// Grid/allocation ratio ρ (the `Job` default).
const RHO: f64 = 2.0;
/// Echo probes per traced run; the ledger keeps their median.
const ECHO_REPS: usize = 5;

/// Shape of one batch workload.
#[derive(Clone, Copy, Debug)]
pub struct BatchSpec {
    /// Objective of the job.
    pub objective: Objective,
    /// Centers requested.
    pub k: usize,
    /// Outlier budget.
    pub t: usize,
    /// Sites the input is dealt to.
    pub sites: usize,
    /// Input points, planted outliers included.
    pub n: usize,
    /// Dimension.
    pub dim: usize,
    /// Backend of the timed jobs.
    pub transport: TransportKind,
    /// How the job deals points to sites.
    pub strategy: PartitionStrategy,
}

impl BatchSpec {
    /// The shape of a batch workload at `scale`.
    ///
    /// # Panics
    /// Panics on the continuous workload.
    pub fn of(workload: Workload, scale: Scale) -> BatchSpec {
        let smoke = scale == Scale::Smoke;
        match workload {
            Workload::Sites8Median => BatchSpec {
                objective: Objective::Median,
                k: 4,
                t: 16,
                sites: 8,
                n: if smoke { 800 } else { 8000 },
                dim: 16,
                transport: TransportKind::Channel,
                strategy: PartitionStrategy::Random,
            },
            Workload::Sites4096Mux => BatchSpec {
                objective: Objective::Means,
                k: 2,
                t: 4,
                sites: if smoke { 64 } else { 4096 },
                n: if smoke { 256 } else { 16384 },
                dim: 16,
                transport: TransportKind::Mux,
                // Exactly n / sites points per shard.
                strategy: PartitionStrategy::RoundRobin,
            },
            Workload::Sites64Center => BatchSpec {
                objective: Objective::Center,
                k: 8,
                t: 32,
                sites: 64,
                n: if smoke { 8192 } else { 131072 },
                dim: 8,
                transport: TransportKind::Channel,
                strategy: PartitionStrategy::Random,
            },
            Workload::ContinuousF32 => panic!("continuous-f32 is not a batch workload"),
        }
    }

    /// One blob per center plus exactly `t` far outliers, so the optimum
    /// — and with it `cost` — barely moves from seed to seed.
    pub fn generate(&self, seed: u64) -> PointSet {
        gaussian_blobs(BlobsSpec {
            clusters: self.k,
            points: self.n - self.t,
            outliers: self.t,
            dim: self.dim,
            sigma: 1.0,
            separation: 100.0,
            imbalance: 0.0,
            seed,
        })
        .points
    }

    /// The job every request runs, before data is attached.
    pub fn builder(&self, seed: u64) -> JobBuilder {
        let job = match self.objective {
            Objective::Median => Job::median(self.k, self.t),
            Objective::Means => Job::means(self.k, self.t),
            Objective::Center => Job::center(self.k, self.t),
        };
        job.sites(self.sites)
            .seed(seed)
            .strategy(self.strategy)
            .transport(self.transport)
            .threads(THREADS)
            .eps(EPS)
            .rho(RHO)
    }

    /// Exclusion budget of the final evaluation.
    pub fn budget(&self) -> usize {
        match self.objective {
            Objective::Center => self.t,
            _ => ((1.0 + EPS) * self.t as f64).floor() as usize,
        }
    }
}

/// Checks one job's output; `first` pins the bytes and cost every later
/// job of the same seed must reproduce.
fn check(spec: &BatchSpec, a: &Artifact, first: &mut Option<(usize, f64)>) -> Result<(), String> {
    if a.centers.len() != spec.k {
        return Err(format!("{} centers, expected {}", a.centers.len(), spec.k));
    }
    if !a.cost.is_finite() {
        return Err(format!("cost {} is not finite", a.cost));
    }
    if a.rounds != 2 {
        return Err(format!("{} rounds, expected 2", a.rounds));
    }
    match *first {
        None => *first = Some((a.bytes, a.cost)),
        Some((bytes, cost)) if bytes != a.bytes || cost.to_bits() != a.cost.to_bits() => {
            return Err(format!(
                "bytes/cost {}/{} differ from the first job's {bytes}/{cost}",
                a.bytes, a.cost
            ));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Runs and checks one job; returns its timing and artifact when it
/// passed.
fn timed_job(
    spec: &BatchSpec,
    job: &ValidJob,
    first: &mut Option<(usize, f64)>,
    checks: &mut Checks,
) -> Option<(Timing, Artifact)> {
    let clock = Stopwatch::start();
    let out = catch(|| job.run());
    let wall = clock.read();
    let res = out.and_then(|a| check(spec, &a, first).map(|()| a));
    let passed = res.as_ref().ok().map(|a| (wall, a.clone()));
    checks.record("job", res.map(|_| ()));
    passed
}

/// Inputs of one run, each generated from its own seed derived from the
/// run's. Job time depends on the input (on sites4096-mux one seed's jobs
/// ran 14% longer than another's), so the timed jobs cycle over several
/// inputs and no single draw sets the run's figures.
const INPUTS: usize = 4;

/// Seed of input `i` of the run with seed `seed`.
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(INPUTS as u64).wrapping_add(i as u64)
}

/// Runs a batch workload for `seconds` of jobs.
pub fn run(workload: Workload, spec: BatchSpec, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut ledger = Ledger::new();
    let mut checks = Checks::default();
    let report = |checks, metrics, ledger: Ledger, extra| Report {
        workload,
        seed,
        sites: spec.sites,
        checks,
        metrics,
        spans: ledger.into_spans(),
        extra,
    };

    let run_clock = Stopwatch::start();
    let setup_probe = (!trace).then(SpeedProbe::start);
    // Set-up: generate an input and validate its job, many times, cycling
    // over the run's inputs.
    let mut prepared: Vec<Option<_>> = vec![None; INPUTS];
    let setups = repeat_setup(|rep| {
        let i = rep % INPUTS;
        let s = input_seed(seed, i);
        let (points, _) = ledger.time("workloads.generate", None, 0, || spec.generate(s));
        let data = Arc::new(Dataset::Points(points));
        let job = spec.builder(s).data_arc(Arc::clone(&data)).validate();
        prepared[i] = Some((data, job));
    });
    let setup_speed = setup_probe.map_or(1.0, |p| p.finish().0);
    let mut inputs = Vec::with_capacity(INPUTS);
    for p in prepared {
        let (data, job) = p.expect("SETUP_REPS >= INPUTS: every input was set up");
        match job {
            Ok(job) => inputs.push((data, job)),
            Err(e) => {
                checks.record("validate", Err(e.to_string()));
                return report(checks, Vec::new(), ledger, Vec::new());
            }
        }
    }

    // The first job warms the allocator and page tables (on mux it is the
    // first to map 4096 thread stacks): checked, not sampled, and counted
    // against the run's seconds. `firsts[i]` pins input i's bytes and cost.
    let mut firsts = [None; INPUTS];
    let probe = (!trace).then(SpeedProbe::start);
    let warm_up = Instant::now();
    timed_job(&spec, &inputs[0].1, &mut firsts[0], &mut checks);
    let seconds = seconds - warm_up.elapsed().as_secs_f64();
    let mut extra = Vec::new();
    let metrics = if !trace {
        let mut walls = Vec::new();
        let mut raw = Vec::new();
        let mut next = 0;
        // Every input runs at least once.
        closed_loop(seconds, INPUTS - 1, || {
            next = (next + 1) % INPUTS;
            if let Some((timing, _)) =
                timed_job(&spec, &inputs[next].1, &mut firsts[next], &mut checks)
            {
                walls.push(timing.adjusted());
                raw.push(timing.wall);
            }
        });
        let unstolen = run_clock.read().unstolen;
        let (speed, probes) = probe.expect("timed runs probe").finish();
        extra.push(("raw_job_p50_s", median(&raw)));
        extra.push(("unstolen_share", unstolen));
        extra.push(("speed_factor", speed));
        extra.push(("probes", probes as f64));
        extra.push(("setup_speed_factor", setup_speed));
        extra.push(("inputs", INPUTS as f64));
        let walls: Vec<f64> = walls.iter().map(|w| w * speed).collect();
        let pinned: Vec<(usize, f64)> = firsts.iter().flatten().copied().collect();
        let bytes: Vec<f64> = pinned.iter().map(|&(b, _)| b as f64).collect();
        let costs: Vec<f64> = pinned.iter().map(|&(_, c)| c).collect();
        EndToEnd {
            setup_s: median(&setups) * unstolen * setup_speed,
            job_p50_s: median(&walls),
            ingest_points_per_s: spec.n as f64 / median(&walls),
            // A batch job is one protocol run from request to centers:
            // its sync latency is the job's.
            sync_p50_ms: median(&walls) * 1e3,
            sync_p90_ms: tail_percentile(&walls) * 1e3,
            bytes: mean(&bytes),
            cost: mean(&costs),
            peak_rss_mb: peak_rss_mb(),
            success_rate: (checks.attempted - checks.failed) as f64 / checks.attempted as f64,
            setups: setups.len(),
            jobs: walls.len(),
            syncs: walls.len(),
        }
        .metrics()
    } else {
        // The traced run replays the first input only.
        let (data, job) = &inputs[0];
        traced(
            &spec,
            input_seed(seed, 0),
            job,
            data,
            &mut ledger,
            &mut checks,
            &mut firsts[0],
            seconds,
        )
        .metrics()
    };
    report(checks, metrics, ledger, extra)
}

/// The traced run: timed jobs alternating with recorder-on jobs, a
/// sequential `Job::run` replay, a layer-by-layer replay of the same job,
/// and echo probes of its payload sizes.
#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &BatchSpec,
    seed: u64,
    job: &ValidJob,
    data: &Arc<Dataset>,
    ledger: &mut Ledger,
    checks: &mut Checks,
    first: &mut Option<(usize, f64)>,
    seconds: f64,
) -> Layers {
    let metered = spec
        .builder(seed)
        .data_arc(Arc::clone(data))
        .metrics(true)
        .validate()
        .expect("the timed job validated");
    let mut plain = Vec::new();
    let mut recorded = Vec::new();
    let mut wakeups = Vec::new();
    let mut timed_artifact: Option<Artifact> = None;
    let mut id = 1u64;
    // Plain and recorder-on jobs in ABBA order so neither side always
    // runs first.
    closed_loop(seconds, 1, || {
        let order = if id % 4 == 1 {
            [false, true]
        } else {
            [true, false]
        };
        for recorder in order {
            let (name, which) = if recorder {
                ("api.job_recorded", &metered)
            } else {
                ("api.job", job)
            };
            let (out, _) = ledger.time(name, None, id, || timed_job(spec, which, first, checks));
            id += 1;
            let Some((timing, a)) = out else { continue };
            if recorder {
                recorded.push(timing.adjusted());
                let counters = a.metrics.as_ref().map(|m| m.counters).unwrap_or_default();
                wakeups.push(counters[Counter::PollWakeups.index()] as f64);
            } else {
                plain.push(timing.adjusted());
                timed_artifact.get_or_insert(a);
            }
        }
    });

    // Sequential replay through the front door, on the in-process backend
    // (bytes and centers are backend-independent; the check below holds
    // the replay to that).
    let replay_job = spec
        .builder(seed)
        .transport(TransportKind::Channel)
        .sequential()
        .metrics(true)
        .data_arc(Arc::clone(data))
        .validate()
        .expect("the timed job validated");
    let (replay, replay_span) = ledger.time("api.replay", None, id, || catch(|| replay_job.run()));
    let replay_job_id = id;
    id += 1;

    // The same job rebuilt from the layers' public calls, with a span
    // around each and the program's per-round accounting under the
    // protocol span.
    let Dataset::Points(points) = &**data else {
        unreachable!("batch inputs are points")
    };
    let root = ledger.open("core.replay", None, id);
    let (shards, part_span) = ledger.time("workloads.partition", Some(root), id, || {
        partition(points, spec.sites, spec.strategy, &[], seed)
    });
    let (proto, proto_span) = ledger.time("core.protocol", Some(root), id, || {
        catch(|| layered_protocol(spec, &shards))
    });
    let mut layers = Layers {
        generate_ms: ledger.median_ms("workloads.generate"),
        partition_ms: ledger.ms(part_span),
        poll_wakeups: median(&wakeups),
        trace_overhead_share: median(&recorded) / median(&plain) - 1.0,
        compression_ratio: 1.0,
        ..Layers::default()
    };
    match proto {
        Ok((centers, stats)) => {
            for (r, round) in stats.rounds.iter().enumerate() {
                for &c in &round.site_compute {
                    ledger.report(SITE_ROUND[r.min(1)], Some(proto_span), id, c);
                }
                ledger.report(
                    "core.coordinator",
                    Some(proto_span),
                    id,
                    round.coordinator_compute,
                );
            }
            let round_sum = |r: usize| {
                stats
                    .rounds
                    .get(r)
                    .map_or(0.0, |x| ms(x.site_compute.iter().sum()))
            };
            layers.site_round0_cpu_ms = round_sum(0);
            layers.site_round1_cpu_ms = round_sum(1);
            layers.site_round0_max_ms = stats
                .rounds
                .first()
                .map_or(0.0, |x| ms(x.max_site_compute()));
            layers.coord_ms = ms(stats.coordinator_compute());
            let ((cost, _), eval_span) = ledger.time("core.evaluate", Some(root), id, || {
                evaluate_on_full_data_with(
                    &shards,
                    &centers,
                    spec.budget(),
                    spec.objective,
                    ThreadBudget::new(THREADS),
                )
            });
            layers.evaluate_ms = ledger.ms(eval_span);
            let same = match &timed_artifact {
                Some(a) => same_output(a, &rows(&centers), stats.total_bytes()).and_then(|()| {
                    if cost.to_bits() == a.cost.to_bits() {
                        Ok(())
                    } else {
                        Err(format!("replay cost {cost}, timed job {}", a.cost))
                    }
                }),
                None => Err("no timed job passed".to_string()),
            };
            checks.record("layered replay", same);
            echo_probe(
                spec,
                &Payloads::of(&stats),
                ledger,
                checks,
                &mut layers,
                id + 1,
            );
        }
        Err(e) => checks.record("layered replay", Err(e)),
    }
    ledger.close(root);

    // The front-door replay's own accounting, plus the partition and
    // evaluation the layered replay timed on the same input.
    match (replay, &timed_artifact) {
        (Ok(a), Some(timed)) => {
            checks.record("sequential replay", same_output(timed, &a.centers, a.bytes));
            let m = a.metrics.clone().unwrap_or_default();
            let coord: f64 = a.round_stats.iter().map(|r| r.coordinator_ms).sum();
            let r = Some(replay_span);
            ledger.report(
                "core.site_compute",
                r,
                replay_job_id,
                Duration::from_nanos(m.site_compute_ns),
            );
            ledger.report(
                "core.coordinator",
                r,
                replay_job_id,
                Duration::from_secs_f64(coord / 1e3),
            );
            ledger.report(
                "workloads.partition",
                r,
                replay_job_id,
                Duration::from_secs_f64(layers.partition_ms / 1e3),
            );
            ledger.report(
                "core.evaluate",
                r,
                replay_job_id,
                Duration::from_secs_f64(layers.evaluate_ms / 1e3),
            );
            layers.api_replay_ms = ledger.ms(replay_span);
            layers.api_self_ms = ledger.self_ms(replay_span);
        }
        (Ok(_), None) => checks.record("sequential replay", Err("no timed job passed".to_string())),
        (Err(e), _) => checks.record("sequential replay", Err(e)),
    }
    layers
}

/// Span names of per-site compute by round (a job has exactly two rounds;
/// the output check fails any other count).
const SITE_ROUND: [&str; 2] = ["core.site_round0", "core.site_round1"];

/// The protocol half of `Job::run`, called at the `dpc::core` layer with
/// the job's configuration, sequentially on the in-process backend.
fn layered_protocol(spec: &BatchSpec, shards: &[PointSet]) -> (PointSet, CommStats) {
    let options = RunOptions::sequential();
    let out = match spec.objective {
        Objective::Center => {
            let mut cfg = CenterConfig::new(spec.k, spec.t);
            cfg.rho = RHO;
            cfg.threads = ThreadBudget::new(THREADS);
            run_distributed_center(shards, cfg, options)
        }
        objective => {
            let mut cfg = MedianConfig::new(spec.k, spec.t);
            cfg.eps = EPS;
            cfg.rho = RHO;
            cfg.threads = ThreadBudget::new(THREADS);
            if objective == Objective::Means {
                cfg = cfg.means();
            }
            run_distributed_median(shards, cfg, options)
        }
    };
    (out.output.centers, out.stats)
}

/// Times zero-round and full-payload echo fleets on the timed backend.
fn echo_probe(
    spec: &BatchSpec,
    payloads: &Payloads,
    ledger: &mut Ledger,
    checks: &mut Checks,
    layers: &mut Layers,
    job: u64,
) {
    let mut fleet = Vec::new();
    let mut exchange = Vec::new();
    for _ in 0..ECHO_REPS {
        let (f, span) = ledger.time("coordinator.fleet", None, job, || {
            echo::probe(&Payloads::default(), spec.sites, spec.transport)
        });
        checks.record("echo fleet", f.map(|_| fleet.push(ledger.ms(span))));
        let (e, span) = ledger.time("coordinator.echo", None, job, || {
            echo::probe(payloads, spec.sites, spec.transport)
        });
        checks.record("echo exchange", e.map(|_| exchange.push(ledger.ms(span))));
    }
    layers.fleet_ms = median(&fleet);
    layers.exchange_ms = median(&exchange) - layers.fleet_ms;
}

fn rows(centers: &PointSet) -> Vec<Vec<f64>> {
    centers.iter().map(|(_, p)| p.to_vec()).collect()
}

/// Bytes and centers of a replay must equal the timed backend's.
fn same_output(timed: &Artifact, centers: &[Vec<f64>], bytes: usize) -> Result<(), String> {
    if timed.bytes != bytes {
        return Err(format!(
            "replay moved {bytes} bytes, timed job {}",
            timed.bytes
        ));
    }
    if timed.centers != centers {
        return Err("replay chose different centers".to_string());
    }
    Ok(())
}
