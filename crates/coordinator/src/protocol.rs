//! The round-based protocol driver.
//!
//! Algorithms implement [`Site`] (per-site logic) and [`Coordinator`]
//! (central logic); [`run_protocol`] starts the shard pool of the
//! backend [`RunOptions`] selects, then alternates coordinator and sites
//! until the coordinator finishes, charging every payload byte, timing
//! every compute phase, and folding the [`LinkModel`] into simulated
//! network time. [`run_fleet`] builds a protocol's fleet, one site per
//! input, and runs it.

use crate::fault::{Attempt, FaultPlan};
use crate::mux;
use crate::pool::{Shard, ShardPool, SiteGroup};
use crate::stats::{CommStats, RoundStats};
use crate::transport::{LinkModel, TransportKind};
use bytes::Bytes;
use dpc_codec::Encoding;
use dpc_metric::ThreadBudget;
use dpc_obs::json::dur_to_ns;
use dpc_obs::{Counter, Event, FaultKind, RecorderHandle};
use std::time::{Duration, Instant};

/// Per-site protocol logic.
///
/// `Send` so sites can run on worker threads; each site owns its shard of
/// the input.
pub trait Site: Send {
    /// Handles the coordinator's message for `round` and produces the reply.
    ///
    /// Round numbering starts at 0. An empty message is a legal "kick".
    fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes;
}

/// What the coordinator wants to do next.
pub enum CoordinatorStep {
    /// Send the same message to every site.
    Broadcast(Bytes),
    /// Send an individual message to each site (length must equal the
    /// number of sites).
    Messages(Vec<Bytes>),
    /// Terminate the protocol.
    Finish,
}

/// Central protocol logic.
pub trait Coordinator {
    /// The protocol's result type.
    type Output;

    /// Consumes the site replies of the previous round (empty on the
    /// first call) and decides the next step. A `None` entry is a site
    /// the [`FaultPlan`] failed that round: fault-tolerant coordinators
    /// proceed over the responders, others should panic with a clear
    /// message rather than silently mis-merge.
    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep;

    /// Produces the final output after [`CoordinatorStep::Finish`].
    fn finish(self) -> Self::Output;
}

/// Runner knobs.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Safety cap on rounds (a protocol that exceeds it panics — all
    /// algorithms in this workspace finish in 1–2 rounds plus the kick).
    pub max_rounds: usize,
    /// Which backend carries the messages.
    pub transport: TransportKind,
    /// Simulated link folded into [`RoundStats::network`].
    pub link: LinkModel,
    /// Seed-deterministic fault schedule (dropout, crashes, stragglers,
    /// timeout/retry). [`FaultPlan::none`] by default.
    pub faults: FaultPlan,
    /// Structured-event sink the driver reports rounds, per-site
    /// accounting, and fault decisions to. The no-op default keeps the
    /// driver free of recording overhead (one cached-bool branch per
    /// round).
    pub recorder: RecorderHandle,
    /// Wire encoding the protocol's messages were framed with. The
    /// driver itself never encodes or decodes — algorithms frame their
    /// own payloads — but it needs the configured encoding to read raw
    /// payload sizes out of codec frame headers for the
    /// [`RoundStats::raw_bytes_down`]/[`RoundStats::raw_bytes_up`]
    /// accounting. [`Encoding::Raw`] (the default) charges raw ==
    /// compressed and skips the header peek entirely.
    pub encoding: Encoding,
    /// Shard budget of either backend: how many workers serve the
    /// sites, each running its round-robin group of sites one at a time
    /// (a mux shard adds a site loop behind its sockets). One shard runs
    /// every site on the caller's thread. `None` (the default) derives
    /// the pool size from [`std::thread::available_parallelism`];
    /// whatever the source, it is clamped to `1..=sites`
    /// ([`RunOptions::shard_count`]). Shard count never affects results —
    /// only thread count, which sites run at once, and wall clock.
    pub shards: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self::new()
    }
}

impl RunOptions {
    /// The default: in-process channel backend on a machine-sized shard
    /// pool, ideal link, 64-round cap.
    pub fn new() -> Self {
        Self {
            max_rounds: 64,
            transport: TransportKind::Channel,
            link: LinkModel::ideal(),
            faults: FaultPlan::none(),
            recorder: RecorderHandle::noop(),
            encoding: Encoding::Raw,
            shards: None,
        }
    }

    /// One shard: every site runs on the caller's thread, one at a time
    /// (deterministic timing; the test/debug mode).
    pub fn sequential() -> Self {
        Self::new().shards(1)
    }

    /// Switches the backend.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the simulated link model.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Sets the fault schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a structured-event recorder.
    pub fn recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// Declares the wire encoding the protocol frames its messages with.
    pub fn encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Sets the shard budget.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// The number of shards a run over `sites` sites uses:
    /// [`RunOptions::shards`], or the machine's available parallelism
    /// when unset, clamped to `1..=sites`.
    pub fn shard_count(&self, sites: usize) -> usize {
        self.shards
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .clamp(1, sites.max(1))
    }

    /// The kernel thread budget each of `sites` sites gets out of a job's
    /// `budget`: serial when the sites run at once, on more than one shard
    /// (their threads already share the machine), the whole budget when
    /// one shard runs them one at a time, on either backend. The
    /// coordinator always keeps the whole budget. [`run_fleet`] applies
    /// this rule to every protocol's sites.
    pub fn site_threads(&self, sites: usize, budget: ThreadBudget) -> ThreadBudget {
        if self.shard_count(sites) > 1 {
            ThreadBudget::serial()
        } else {
            budget
        }
    }
}

/// Result of a protocol execution.
pub struct ProtocolOutput<O> {
    /// The coordinator's answer.
    pub output: O,
    /// Full communication/compute accounting.
    pub stats: CommStats,
}

/// Runs the protocol to completion on the backend selected by `options`.
///
/// Round `r` consists of: the coordinator consumes round `r-1` replies
/// (none for `r = 0`) and emits round `r` messages — timed as round `r`
/// coordinator compute — the shard pool delivers them, sites handle them
/// (concurrently across shards, timed per site), and the replies feed
/// round `r+1`. The final `Finish` decision is timed into the last
/// executed round.
///
/// # Panics
/// Panics if the coordinator returns a `Messages` vector of the wrong
/// length, or exceeds `max_rounds`.
pub fn run_protocol<C: Coordinator>(
    sites: &mut [Box<dyn Site + '_>],
    coordinator: C,
    options: RunOptions,
) -> ProtocolOutput<C::Output> {
    let shards = options.shard_count(sites.len());
    std::thread::scope(|scope| match options.transport {
        TransportKind::Channel => {
            let sites = sites.iter_mut().map(|site| site.as_mut());
            let pool = ShardPool::start(scope, sites, shards, SiteGroup);
            drive(pool, coordinator, options)
        }
        TransportKind::Mux => drive(mux::start(scope, sites, shards), coordinator, options),
    })
}

/// Runs a protocol over a fleet of one site per input: site `i` is
/// `make_site(i, &inputs[i], threads)`, where `threads` is every site's
/// share of the job's kernel `budget` under `options`
/// ([`RunOptions::site_threads`]). The coordinator is built once the
/// fleet is known to be non-empty, and keeps the whole budget.
///
/// # Panics
/// Panics if `inputs` is empty, and wherever [`run_protocol`] does.
pub fn run_fleet<'a, T, S: Site + 'a, C: Coordinator>(
    inputs: &'a [T],
    budget: ThreadBudget,
    options: RunOptions,
    mut make_site: impl FnMut(usize, &'a T, ThreadBudget) -> S,
    coordinator: impl FnOnce() -> C,
) -> ProtocolOutput<C::Output> {
    assert!(!inputs.is_empty(), "need at least one site");
    let threads = options.site_threads(inputs.len(), budget);
    let mut sites: Vec<Box<dyn Site + 'a>> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| Box::new(make_site(i, input, threads)) as Box<dyn Site + 'a>)
        .collect();
    run_protocol(&mut sites, coordinator(), options)
}

/// The driver loop over a started shard pool.
///
/// Fault injection happens here, *before* each exchange: the
/// [`FaultPlan`] decides which sites participate as a pure function of
/// `(seed, site, round, attempt)`, so the responder set, byte charges,
/// and simulated time are identical on every backend. A site that
/// misses a round is failed for the rest of the execution (crash-stop):
/// every protocol in this workspace derives round-`r` state from round
/// `r-1` messages, so a late rejoin would answer from a stale round.
fn drive<S: Shard, C: Coordinator>(
    mut pool: ShardPool<S>,
    mut coordinator: C,
    options: RunOptions,
) -> ProtocolOutput<C::Output> {
    let s = pool.sites;
    let plan = &options.faults;
    let rec = &options.recorder;
    let on = rec.enabled();
    let mut stats = CommStats::default();
    let mut replies: Vec<Option<Bytes>> = Vec::new();
    let mut alive = vec![true; s];

    for round in 0..=options.max_rounds {
        let t0 = Instant::now();
        let step = coordinator.step(round, std::mem::take(&mut replies));
        let coord_time = t0.elapsed();

        let msgs: Vec<Bytes> = match step {
            CoordinatorStep::Broadcast(m) => vec![m; s],
            CoordinatorStep::Messages(ms) => {
                assert_eq!(ms.len(), s, "one message per site required");
                ms
            }
            CoordinatorStep::Finish => {
                // The finish decision consumed the last round's replies;
                // charge it there (a protocol that finishes on its first
                // step executed zero rounds and has nowhere to charge).
                if let Some(last) = stats.rounds.last_mut() {
                    last.coordinator_compute += coord_time;
                }
                return ProtocolOutput {
                    output: coordinator.finish(),
                    stats,
                };
            }
        };

        // The round is real (not a bare Finish): open its span. The plan
        // event carries the coordinator's wall-clock planning time — a
        // wall-only field the JSONL schema drops.
        if on {
            rec.record(Event::RoundStart { round });
            rec.record(Event::Plan {
                round,
                wall_ns: dur_to_ns(coord_time),
            });
        }

        // Simulate the delivery schedule. `waits[i]` accumulates the
        // simulated time site `i`'s slot spends on failed-attempt
        // timeouts and straggler delays; `delivery[i] = None` marks a
        // site that misses the round entirely.
        let mut delivery: Vec<Option<Bytes>> = Vec::with_capacity(s);
        let mut waits: Vec<Duration> = vec![Duration::ZERO; s];
        let mut retries = 0usize;
        let fault = |site: usize, attempt: u32, kind: FaultKind, wait: Duration| {
            if on {
                rec.record(Event::Fault {
                    round,
                    site,
                    attempt: attempt as usize,
                    kind,
                    wait_ns: dur_to_ns(wait),
                });
            }
        };
        if plan.is_none() {
            delivery.extend(msgs.iter().cloned().map(Some));
        } else {
            for (i, msg) in msgs.iter().enumerate() {
                if !alive[i] {
                    // Known-failed site: the coordinator skips it without
                    // paying another detection timeout.
                    delivery.push(None);
                    continue;
                }
                let mut delivered = None;
                for attempt in 0..=plan.retries {
                    match plan.sample_attempt(i, round, attempt) {
                        Attempt::Delivered { delay } => match plan.timeout_for(attempt) {
                            Some(timeout) if delay > timeout => {
                                // Straggled past the timeout: the reply is
                                // abandoned, the coordinator waited in vain.
                                waits[i] += timeout;
                                retries += 1;
                                fault(i, attempt, FaultKind::Straggler, timeout);
                            }
                            _ => {
                                delivered = Some(delay);
                                if delay > Duration::ZERO {
                                    // Accepted late: a straggler within the
                                    // timeout.
                                    fault(i, attempt, FaultKind::Straggler, delay);
                                }
                                break;
                            }
                        },
                        Attempt::Failed => {
                            // With no timeout configured, detection is free
                            // (a perfect failure detector).
                            let timeout = plan.timeout_for(attempt).unwrap_or_default();
                            waits[i] += timeout;
                            retries += 1;
                            fault(i, attempt, FaultKind::Retry, timeout);
                        }
                    }
                }
                match delivered {
                    Some(delay) => {
                        waits[i] += delay;
                        delivery.push(Some(msg.clone()));
                    }
                    None => {
                        // The site misses the round (crash-stop from here
                        // on); later rounds skip it silently.
                        alive[i] = false;
                        delivery.push(None);
                        fault(i, plan.retries, FaultKind::Dropout, Duration::ZERO);
                    }
                }
            }
        }

        let (site_replies, wakeups) = pool.run_round(round, &delivery);
        // Wall-clock side channel: a shard that polls (mux) reports its
        // loop's wakeups; an in-process shard reports none.
        if on {
            for (shard, wakeups) in wakeups.into_iter().enumerate() {
                if let Some(wakeups) = wakeups {
                    rec.record(Event::ShardPoll {
                        round,
                        shard,
                        wakeups,
                    });
                    rec.add(Counter::PollWakeups, wakeups);
                }
            }
        }

        // Byte accounting charges only what was actually delivered: a
        // dropped site moves zero bytes in both directions.
        let down: Vec<usize> = delivery
            .iter()
            .map(|m| m.as_ref().map_or(0, Bytes::len))
            .collect();
        let up: Vec<usize> = site_replies
            .iter()
            .map(|r| r.as_ref().map_or(0, |r| r.payload.len()))
            .collect();
        // Raw (pre-codec) payload sizes come from the codec frame
        // headers; under `Raw` no header exists and raw == compressed.
        let (raw_down, raw_up) = if options.encoding == Encoding::Raw {
            (down.iter().sum::<usize>(), up.iter().sum::<usize>())
        } else {
            let raw_down = delivery
                .iter()
                .flatten()
                .map(|m| dpc_codec::peek_raw_len(m))
                .sum::<usize>();
            let raw_up = site_replies
                .iter()
                .flatten()
                .map(|r| dpc_codec::peek_raw_len(&r.payload))
                .sum::<usize>();
            (raw_down, raw_up)
        };
        if on && options.encoding != Encoding::Raw {
            rec.add(Counter::BytesRaw, (raw_down + raw_up) as u64);
            rec.add(
                Counter::BytesCompressed,
                (down.iter().sum::<usize>() + up.iter().sum::<usize>()) as u64,
            );
        }
        let dropouts = delivery.iter().filter(|m| m.is_none()).count();
        // Per-site simulated time: fault waits plus, for responders, the
        // link's down-then-up exchange; the round costs the slowest slot
        // (all star links run in parallel). With no faults this reduces
        // to the plain `LinkModel::round_network_time`.
        let network = (0..s)
            .map(|i| {
                let link = if delivery[i].is_some() {
                    options.link.one_way(down[i]) + options.link.one_way(up[i])
                } else {
                    Duration::ZERO
                };
                waits[i] + link
            })
            .max()
            .unwrap_or_default();

        stats.rounds.push(RoundStats {
            coordinator_to_sites: down,
            sites_to_coordinator: up,
            site_compute: site_replies
                .iter()
                .map(|r| r.as_ref().map_or(Duration::ZERO, |r| r.compute))
                .collect(),
            // Planning this round's messages — including the round-0
            // kick, which the pre-runtime simulator silently dropped.
            coordinator_compute: coord_time,
            network,
            dropouts,
            retries,
            degraded: dropouts > 0,
            raw_bytes_down: raw_down,
            raw_bytes_up: raw_up,
        });
        if on {
            let last = stats.rounds.last().expect("round just recorded");
            for i in 0..s {
                rec.record(Event::Site {
                    round,
                    site: i,
                    delivered: delivery[i].is_some(),
                    down_bytes: last.coordinator_to_sites[i] as u64,
                    up_bytes: last.sites_to_coordinator[i] as u64,
                    compute_ns: dur_to_ns(last.site_compute[i]),
                    wait_ns: dur_to_ns(waits[i]),
                });
            }
            rec.record(Event::RoundEnd {
                round,
                dropouts: last.dropouts,
                retries: last.retries,
                degraded: last.degraded,
                network_ns: dur_to_ns(last.network),
            });
        }
        replies = site_replies
            .into_iter()
            .map(|r| r.map(|r| r.payload))
            .collect();
    }
    panic!("protocol exceeded max_rounds = {}", options.max_rounds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use std::time::Duration;

    /// Toy protocol: coordinator broadcasts a factor, each site replies with
    /// factor * its value, coordinator sums; second round echoes the sum
    /// back and sites ack with one byte.
    struct ToySite {
        value: u64,
    }

    impl Site for ToySite {
        fn handle(&mut self, round: usize, msg: &Bytes) -> Bytes {
            match round {
                0 => {
                    let factor = u64::from_le_bytes(msg[..8].try_into().unwrap());
                    let mut b = BytesMut::new();
                    b.put_u64_le(factor * self.value);
                    b.freeze()
                }
                _ => Bytes::from_static(b"k"),
            }
        }
    }

    struct ToyCoordinator {
        factor: u64,
        sum: u64,
    }

    impl Coordinator for ToyCoordinator {
        type Output = u64;

        fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
            match round {
                0 => {
                    let mut b = BytesMut::new();
                    b.put_u64_le(self.factor);
                    CoordinatorStep::Broadcast(b.freeze())
                }
                1 => {
                    self.sum = replies
                        .iter()
                        .map(|r| {
                            let r = r.as_ref().expect("no faults injected");
                            u64::from_le_bytes(r[..8].try_into().unwrap())
                        })
                        .sum();
                    CoordinatorStep::Broadcast(Bytes::new())
                }
                _ => CoordinatorStep::Finish,
            }
        }

        fn finish(self) -> u64 {
            self.sum
        }
    }

    fn run_with(options: RunOptions) -> ProtocolOutput<u64> {
        let mut sites: Vec<Box<dyn Site>> = (1..=4u64)
            .map(|v| Box::new(ToySite { value: v }) as Box<dyn Site>)
            .collect();
        run_protocol(&mut sites, ToyCoordinator { factor: 3, sum: 0 }, options)
    }

    fn run(options: RunOptions) -> ProtocolOutput<u64> {
        run_with(RunOptions {
            max_rounds: 8,
            ..options
        })
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let a = run(RunOptions::sequential());
        let b = run(RunOptions::new().shards(2));
        assert_eq!(a.output, 3 * (1 + 2 + 3 + 4));
        assert_eq!(a.output, b.output);
        assert_eq!(a.stats.num_rounds(), 2);
        assert_eq!(b.stats.num_rounds(), 2);
    }

    #[test]
    fn sites_get_the_kernel_budget_only_when_run_one_at_a_time() {
        let budget = ThreadBudget::new(4);
        let serial = ThreadBudget::serial();
        // (options, sites, run at once?)
        let table = [
            (RunOptions::new().shards(2), 8, true),
            (RunOptions::sequential(), 8, false),
            (RunOptions::new().shards(2), 1, false),
            (RunOptions::sequential(), 1, false),
            // One shard: every site takes its turn on the caller's thread.
            (RunOptions::new().shards(1), 8, false),
            (
                RunOptions::new().transport(TransportKind::Mux).shards(2),
                8,
                true,
            ),
            (
                RunOptions::sequential()
                    .transport(TransportKind::Mux)
                    .shards(2),
                8,
                true,
            ),
            (RunOptions::new().transport(TransportKind::Mux), 1, false),
            // One shard: every site takes its turn on one site loop.
            (
                RunOptions::new().transport(TransportKind::Mux).shards(1),
                8,
                false,
            ),
        ];
        for (options, sites, concurrent) in table {
            let case = format!(
                "{:?} shards={:?} sites={sites}",
                options.transport, options.shards
            );
            let want = if concurrent { serial } else { budget };
            assert_eq!(options.site_threads(sites, budget), want, "{case}");
        }
    }

    #[test]
    fn fleets_take_the_site_budget_and_keep_input_order() {
        let budget = ThreadBudget::new(4);
        for (options, want) in [
            (RunOptions::new().shards(2), ThreadBudget::serial()),
            (RunOptions::sequential(), budget),
            (
                RunOptions::new().transport(TransportKind::Mux).shards(2),
                ThreadBudget::serial(),
            ),
        ] {
            let mut given = Vec::new();
            let out = run_fleet(
                &[1u64, 2, 3, 4],
                budget,
                RunOptions {
                    max_rounds: 8,
                    ..options
                },
                |i, &value, threads| {
                    assert_eq!(value, i as u64 + 1, "site {i} got another input");
                    given.push(threads);
                    ToySite { value }
                },
                || ToyCoordinator { factor: 3, sum: 0 },
            );
            assert_eq!(out.output, 3 * (1 + 2 + 3 + 4));
            assert_eq!(given, vec![want; 4]);
        }
    }

    #[test]
    fn all_transports_agree_on_output_and_bytes() {
        let base = run(RunOptions::sequential());
        for options in [
            RunOptions::new().shards(2),
            RunOptions::new().transport(TransportKind::Mux),
            RunOptions::new().transport(TransportKind::Mux).shards(2),
        ] {
            let out = run_with(options);
            assert_eq!(out.output, base.output);
            assert_eq!(out.stats.num_rounds(), base.stats.num_rounds());
            for (a, b) in base.stats.rounds.iter().zip(&out.stats.rounds) {
                assert_eq!(a.coordinator_to_sites, b.coordinator_to_sites);
                assert_eq!(a.sites_to_coordinator, b.sites_to_coordinator);
            }
        }
    }

    #[test]
    fn byte_charges_match_messages() {
        let out = run(RunOptions::sequential());
        let r0 = &out.stats.rounds[0];
        // broadcast of 8 bytes to 4 sites; replies of 8 bytes each
        assert_eq!(r0.coordinator_to_sites, vec![8, 8, 8, 8]);
        assert_eq!(r0.sites_to_coordinator, vec![8, 8, 8, 8]);
        let r1 = &out.stats.rounds[1];
        assert_eq!(r1.coordinator_to_sites, vec![0, 0, 0, 0]);
        assert_eq!(r1.sites_to_coordinator, vec![1, 1, 1, 1]);
        assert_eq!(out.stats.total_bytes(), 4 * 8 * 2 + 4);
        assert_eq!(out.stats.upstream_bytes(), 36);
    }

    #[test]
    fn kick_round_coordinator_compute_is_charged() {
        // Regression: the pre-runtime simulator charged `step` time to the
        // *previous* round's stats, so the round-0 planning time hit
        // `rounds.last_mut() == None` and vanished.
        struct SlowKick;
        impl Coordinator for SlowKick {
            type Output = ();
            fn step(&mut self, round: usize, _replies: Vec<Option<Bytes>>) -> CoordinatorStep {
                if round == 0 {
                    std::thread::sleep(Duration::from_millis(25));
                    CoordinatorStep::Broadcast(Bytes::new())
                } else {
                    CoordinatorStep::Finish
                }
            }
            fn finish(self) {}
        }
        struct Ack;
        impl Site for Ack {
            fn handle(&mut self, _round: usize, _msg: &Bytes) -> Bytes {
                Bytes::new()
            }
        }
        let mut sites: Vec<Box<dyn Site>> = vec![Box::new(Ack)];
        let out = run_protocol(&mut sites, SlowKick, RunOptions::sequential());
        assert_eq!(out.stats.num_rounds(), 1);
        assert!(
            out.stats.rounds[0].coordinator_compute >= Duration::from_millis(25),
            "kick-round planning time dropped: {:?}",
            out.stats.rounds[0].coordinator_compute
        );
        assert_eq!(
            out.stats.coordinator_compute(),
            out.stats.rounds[0].coordinator_compute
        );
    }

    #[test]
    fn link_model_accumulates_network_time() {
        // 2 rounds, 1 ms one-way latency, 1000 B/s. Round 0 moves 8 B each
        // way per site; round 1 moves 0 down / 1 B up.
        let link = LinkModel::new(Duration::from_millis(1), 1000.0);
        let out = run_with(RunOptions::sequential().link(link));
        assert_eq!(out.stats.num_rounds(), 2);
        assert_eq!(
            out.stats.rounds[0].network,
            Duration::from_millis(2) + Duration::from_millis(16)
        );
        assert_eq!(
            out.stats.rounds[1].network,
            Duration::from_millis(2) + Duration::from_millis(1)
        );
        assert_eq!(out.stats.network_time(), Duration::from_millis(21));
        // The ideal link charges nothing.
        assert_eq!(
            run(RunOptions::sequential()).stats.network_time(),
            Duration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "max_rounds")]
    fn runaway_protocol_trips_guard() {
        struct Loopy;
        impl Coordinator for Loopy {
            type Output = ();
            fn step(&mut self, _round: usize, _replies: Vec<Option<Bytes>>) -> CoordinatorStep {
                CoordinatorStep::Broadcast(Bytes::new())
            }
            fn finish(self) {}
        }
        struct Echo;
        impl Site for Echo {
            fn handle(&mut self, _round: usize, _msg: &Bytes) -> Bytes {
                Bytes::new()
            }
        }
        let mut sites: Vec<Box<dyn Site>> = vec![Box::new(Echo)];
        let _ = run_protocol(
            &mut sites,
            Loopy,
            RunOptions {
                max_rounds: 3,
                ..RunOptions::sequential()
            },
        );
    }

    /// A fault-tolerant toy: sites reply with their value, the
    /// coordinator sums whatever arrives over two collection rounds.
    struct TolerantSum {
        sum: u64,
        responders: Vec<usize>,
    }

    impl Coordinator for TolerantSum {
        type Output = (u64, Vec<usize>);

        fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
            self.responders
                .push(replies.iter().filter(|r| r.is_some()).count());
            self.sum += replies
                .iter()
                .flatten()
                .map(|r| u64::from_le_bytes(r[..8].try_into().unwrap()))
                .sum::<u64>();
            if round < 2 {
                CoordinatorStep::Broadcast(Bytes::from_static(b"go"))
            } else {
                CoordinatorStep::Finish
            }
        }

        fn finish(self) -> (u64, Vec<usize>) {
            (self.sum, self.responders)
        }
    }

    struct ValueSite {
        value: u64,
    }

    impl Site for ValueSite {
        fn handle(&mut self, _round: usize, _msg: &Bytes) -> Bytes {
            let mut b = BytesMut::new();
            b.put_u64_le(self.value);
            b.freeze()
        }
    }

    fn run_tolerant(options: RunOptions) -> ProtocolOutput<(u64, Vec<usize>)> {
        let mut sites: Vec<Box<dyn Site>> = (0..4u64)
            .map(|v| Box::new(ValueSite { value: 1 << v }) as Box<dyn Site>)
            .collect();
        run_protocol(
            &mut sites,
            TolerantSum {
                sum: 0,
                responders: Vec::new(),
            },
            options,
        )
    }

    #[test]
    fn fault_schedule_is_identical_on_every_backend() {
        let plan = FaultPlan::with_dropout(0x5eed, 0.4);
        let base = run_tolerant(RunOptions::sequential().faults(plan.clone()));
        for options in [
            RunOptions::new().shards(2).faults(plan.clone()),
            RunOptions::new().transport(TransportKind::Mux).faults(plan),
        ] {
            let out = run_tolerant(options);
            assert_eq!(out.output, base.output);
            assert_eq!(out.stats.num_rounds(), base.stats.num_rounds());
            for (a, b) in base.stats.rounds.iter().zip(&out.stats.rounds) {
                assert_eq!(a.coordinator_to_sites, b.coordinator_to_sites);
                assert_eq!(a.sites_to_coordinator, b.sites_to_coordinator);
                assert_eq!(a.dropouts, b.dropouts);
                assert_eq!(a.retries, b.retries);
                assert_eq!(a.degraded, b.degraded);
            }
        }
    }

    #[test]
    fn crashed_site_moves_no_bytes_and_rounds_degrade() {
        let plan = FaultPlan::none().crash(2, 1);
        let out = run_tolerant(RunOptions::sequential().faults(plan));
        // Round 0: everyone answers. Round 1: site 2 is gone.
        assert_eq!(out.output.1, vec![0, 4, 3]);
        assert_eq!(out.output.0, (1 + 2 + 4 + 8) + (1 + 2 + 8));
        let r0 = &out.stats.rounds[0];
        assert!(!r0.degraded);
        assert_eq!(r0.dropouts, 0);
        for r in &out.stats.rounds[1..] {
            assert!(r.degraded);
            assert_eq!(r.dropouts, 1);
            assert_eq!(r.coordinator_to_sites[2], 0);
            assert_eq!(r.sites_to_coordinator[2], 0);
            assert_eq!(r.site_compute[2], Duration::ZERO);
        }
    }

    #[test]
    fn dropout_is_monotone_crash_stop() {
        // Once a site misses a round it must stay out, whatever the
        // later coin flips say.
        for seed in 0..16 {
            let plan = FaultPlan::with_dropout(seed, 0.5);
            let out = run_tolerant(RunOptions::sequential().faults(plan));
            let alive_per_round: Vec<Vec<bool>> = out
                .stats
                .rounds
                .iter()
                .map(|r| r.coordinator_to_sites.iter().map(|&b| b > 0).collect())
                .collect();
            for w in alive_per_round.windows(2) {
                for (prev, cur) in w[0].iter().zip(&w[1]) {
                    assert!(
                        *prev || !*cur,
                        "a failed site rejoined: {alive_per_round:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn retries_rescue_sites_the_first_attempt_dropped() {
        // With a generous retry budget a 50% dropout plan should still
        // deliver every round for at least one seed — and the retry
        // counter must record the failed first attempts. Cross-check
        // drive() against the plan's own pure sampling.
        let plan = FaultPlan::with_dropout(9, 0.5).with_timeout(Duration::from_millis(5), 8);
        let out = run_tolerant(RunOptions::sequential().faults(plan.clone()));
        let mut expected_retries = 0usize;
        let mut expected_drops = vec![0usize; out.stats.num_rounds()];
        let mut alive = [true; 4];
        for (round, drops) in expected_drops.iter_mut().enumerate() {
            for (site, alive) in alive.iter_mut().enumerate() {
                if !*alive {
                    *drops += 1;
                    continue;
                }
                let mut ok = false;
                for attempt in 0..=plan.retries {
                    match plan.sample_attempt(site, round, attempt) {
                        Attempt::Delivered { delay }
                            if delay <= plan.timeout_for(attempt).unwrap() =>
                        {
                            ok = true;
                            break;
                        }
                        _ => expected_retries += 1,
                    }
                }
                if !ok {
                    *alive = false;
                    *drops += 1;
                }
            }
        }
        assert_eq!(out.stats.total_retries(), expected_retries);
        assert!(expected_retries > 0, "0.5 dropout must fail some attempts");
        let drops: Vec<usize> = out.stats.rounds.iter().map(|r| r.dropouts).collect();
        assert_eq!(drops, expected_drops);
    }

    #[test]
    fn failed_attempts_charge_timeouts_to_simulated_time() {
        // Site 2 crashes before round 0; the coordinator pays one 10 ms
        // timeout plus one 20 ms backoff retry to learn that, exactly
        // once (known-dead sites are skipped in later rounds).
        let plan = FaultPlan::none()
            .crash(2, 0)
            .with_timeout(Duration::from_millis(10), 1)
            .with_backoff(2.0);
        let out = run_tolerant(RunOptions::sequential().faults(plan));
        assert_eq!(out.stats.rounds[0].network, Duration::from_millis(30));
        assert_eq!(out.stats.rounds[0].retries, 2);
        for r in &out.stats.rounds[1..] {
            assert_eq!(r.network, Duration::ZERO);
            assert_eq!(r.retries, 0);
        }
    }

    #[test]
    fn straggler_delay_flows_into_network_time() {
        let plan = FaultPlan::with_dropout(1, 0.0).stragglers(1.0, Duration::from_millis(40));
        let out = run_tolerant(RunOptions::sequential().faults(plan.clone()));
        for (round, r) in out.stats.rounds.iter().enumerate() {
            let expected = (0..4)
                .map(|site| match plan.sample_attempt(site, round, 0) {
                    Attempt::Delivered { delay } => delay,
                    Attempt::Failed => unreachable!("no dropout configured"),
                })
                .max()
                .unwrap();
            assert_eq!(r.network, expected);
            assert!(r.network > Duration::ZERO);
            assert!(!r.degraded, "stragglers without timeouts still answer");
        }
    }

    #[test]
    fn per_site_messages() {
        struct PickySite {
            expect: u8,
        }
        impl Site for PickySite {
            fn handle(&mut self, _round: usize, msg: &Bytes) -> Bytes {
                assert_eq!(msg[0], self.expect);
                Bytes::copy_from_slice(&[self.expect])
            }
        }
        struct PerSiteCoord;
        impl Coordinator for PerSiteCoord {
            type Output = ();
            fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
                match round {
                    0 => CoordinatorStep::Messages(vec![
                        Bytes::copy_from_slice(&[7]),
                        Bytes::copy_from_slice(&[9]),
                    ]),
                    _ => {
                        assert_eq!(replies[0].as_ref().unwrap()[0], 7);
                        assert_eq!(replies[1].as_ref().unwrap()[0], 9);
                        CoordinatorStep::Finish
                    }
                }
            }
            fn finish(self) {}
        }
        for transport in [TransportKind::Channel, TransportKind::Mux] {
            let mut sites: Vec<Box<dyn Site>> = vec![
                Box::new(PickySite { expect: 7 }),
                Box::new(PickySite { expect: 9 }),
            ];
            let out = run_protocol(
                &mut sites,
                PerSiteCoord,
                RunOptions::new().transport(transport),
            );
            assert_eq!(out.stats.num_rounds(), 1);
        }
    }
}
