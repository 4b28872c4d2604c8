//! Seed-deterministic fault injection for the protocol runtime.
//!
//! A [`FaultPlan`] extends the [`crate::LinkModel`]'s simulated-network
//! idea to *failures*: per-site, per-round dropout probability, hard
//! crash rounds, straggler delays, and the coordinator's timeout/retry
//! schedule for coping with all of the above. Every random decision is a
//! pure function of `(seed, site, round, attempt)` — no RNG state, no
//! wall clock — so a chaos run is reproducible bit for bit on every
//! transport backend: the set of responders, the bytes charged, and the
//! simulated network time are identical whether sites run inline, on
//! worker threads, or behind Unix-domain sockets.
//!
//! # Semantics
//!
//! The driver consults the plan *before* each exchange. For every site
//! it simulates up to `1 + retries` delivery attempts:
//!
//! * an attempt **fails** if the dropout coin (probability
//!   [`FaultPlan::dropout`]) comes up bad, if the site has crashed
//!   ([`FaultPlan::crashes`]), or if a sampled straggler delay exceeds
//!   the attempt's timeout;
//! * a failed attempt costs the coordinator the attempt's timeout in
//!   simulated time (with no timeout configured the coordinator detects
//!   failure for free — a perfect failure detector);
//! * the first successful attempt delivers the message: the site's
//!   handler runs exactly once and its reply is charged as usual, plus
//!   any sampled straggler delay on the simulated clock.
//!
//! A site whose attempts all fail misses the round: it receives
//! nothing, sends nothing, and is charged zero bytes in both
//! directions. Because every protocol in this workspace builds round-`r`
//! state from round-`r-1` messages, a site that misses a round is
//! considered failed for the remainder of the execution (monotone
//! aliveness — the crash-stop model). Recovery across *executions* (for
//! example between continuous-clustering syncs) is expressed by deriving
//! a fresh plan per execution via [`FaultPlan::derive`].

use std::time::Duration;

/// A deterministic per-execution fault schedule.
///
/// The default plan ([`FaultPlan::none`]) injects nothing and adds no
/// overhead to the driver's hot path.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed behind every sampled decision.
    pub seed: u64,
    /// Probability that one delivery attempt to a site fails, sampled
    /// independently per `(site, round, attempt)`. Must lie in `[0, 1)`.
    pub dropout: f64,
    /// Hard failures: site `i` fails every attempt from round `r` on.
    pub crashes: Vec<(usize, usize)>,
    /// Probability that a successful attempt is a straggler.
    pub straggler_prob: f64,
    /// Maximum straggler delay; actual delays are sampled uniformly in
    /// `(0, straggler_delay]`.
    pub straggler_delay: Duration,
    /// Extra delivery attempts after the first failed one.
    pub retries: u32,
    /// Per-attempt timeout. `None` means the coordinator waits forever
    /// for stragglers and detects dropouts/crashes instantly.
    pub timeout: Option<Duration>,
    /// Timeout growth factor per retry (attempt `a` waits
    /// `timeout * backoff^a`). `1.0` keeps the timeout constant.
    pub backoff: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The no-fault plan: every site answers every round, instantly.
    pub fn none() -> Self {
        Self {
            seed: 0,
            dropout: 0.0,
            crashes: Vec::new(),
            straggler_prob: 0.0,
            straggler_delay: Duration::ZERO,
            retries: 0,
            timeout: None,
            backoff: 1.0,
        }
    }

    /// A plan that drops each delivery attempt with probability `dropout`
    /// under `seed`.
    ///
    /// # Panics
    /// Panics unless `dropout` lies in `[0, 1)` (a probability of 1
    /// would deterministically kill every site in round 0).
    pub fn with_dropout(seed: u64, dropout: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&dropout),
            "dropout probability must lie in [0, 1), got {dropout}"
        );
        Self {
            seed,
            dropout,
            ..Self::none()
        }
    }

    /// Adds a hard crash: site `site` fails every attempt from `round` on.
    pub fn crash(mut self, site: usize, round: usize) -> Self {
        self.crashes.push((site, round));
        self
    }

    /// Sets the straggler distribution: with probability `prob` a
    /// successful attempt is delayed by a uniform sample from
    /// `(0, max_delay]`.
    pub fn stragglers(mut self, prob: f64, max_delay: Duration) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "straggler probability must lie in [0, 1], got {prob}"
        );
        self.straggler_prob = prob;
        self.straggler_delay = max_delay;
        self
    }

    /// Sets the per-attempt timeout and the retry budget.
    pub fn with_timeout(mut self, timeout: Duration, retries: u32) -> Self {
        self.timeout = Some(timeout);
        self.retries = retries;
        self
    }

    /// Sets the timeout growth factor per retry.
    pub fn with_backoff(mut self, backoff: f64) -> Self {
        assert!(
            backoff >= 1.0 && backoff.is_finite(),
            "backoff must be a finite factor >= 1, got {backoff}"
        );
        self.backoff = backoff;
        self
    }

    /// True when the plan can never perturb an execution — the driver's
    /// fast path.
    pub fn is_none(&self) -> bool {
        self.dropout == 0.0 && self.crashes.is_empty() && self.straggler_prob == 0.0
    }

    /// A plan identical to this one but with the seed mixed with
    /// `stream`: the tool for giving each execution in a sequence (e.g.
    /// each continuous-clustering sync) independent faults while keeping
    /// the whole sequence a pure function of one seed.
    pub fn derive(&self, stream: u64) -> Self {
        Self {
            seed: mix(self.seed ^ 0x9e3779b97f4a7c15, stream),
            ..self.clone()
        }
    }

    /// The timeout the coordinator waits on attempt `attempt` (0-based),
    /// or `None` for an unbounded wait.
    pub fn timeout_for(&self, attempt: u32) -> Option<Duration> {
        let base = self.timeout?;
        if self.backoff == 1.0 || attempt == 0 {
            return Some(base);
        }
        let scaled = base.as_secs_f64() * self.backoff.powi(attempt as i32);
        // Same ceiling the link model uses for pathological rates.
        Some(Duration::from_secs_f64(
            scaled.min(crate::LinkModel::MAX_TRANSFER_SECS),
        ))
    }

    /// True when `site` has hard-crashed at or before `round`.
    pub fn crashed(&self, site: usize, round: usize) -> bool {
        self.crashes.iter().any(|&(s, r)| s == site && round >= r)
    }

    /// Simulates one delivery attempt. Pure in
    /// `(seed, site, round, attempt)`.
    pub fn sample_attempt(&self, site: usize, round: usize, attempt: u32) -> Attempt {
        if self.crashed(site, round) {
            return Attempt::Failed;
        }
        let h = mix(
            self.seed,
            (site as u64) << 40 ^ (round as u64) << 8 ^ attempt as u64,
        );
        if self.dropout > 0.0 && unit(h) < self.dropout {
            return Attempt::Failed;
        }
        let delay = if self.straggler_prob > 0.0 && unit(mix(h, 1)) < self.straggler_prob {
            // Uniform in (0, straggler_delay]: 1 - unit ∈ (0, 1].
            self.straggler_delay.mul_f64(1.0 - unit(mix(h, 2)))
        } else {
            Duration::ZERO
        };
        Attempt::Delivered { delay }
    }
}

/// Outcome of one simulated delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// The attempt failed outright (dropout or crash).
    Failed,
    /// The attempt reaches the site after `delay` of straggling; the
    /// driver still fails it if `delay` exceeds the attempt's timeout.
    Delivered {
        /// Sampled straggler delay (zero for a prompt site).
        delay: Duration,
    },
}

/// SplitMix64-style finalizer over a seeded key: the stateless hash
/// behind every sampled decision.
fn mix(seed: u64, key: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(key)
        .wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform `f64` in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for site in 0..4 {
            for round in 0..4 {
                assert_eq!(
                    p.sample_attempt(site, round, 0),
                    Attempt::Delivered {
                        delay: Duration::ZERO
                    }
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::with_dropout(7, 0.5);
        let b = FaultPlan::with_dropout(7, 0.5);
        let c = FaultPlan::with_dropout(8, 0.5);
        let grid = |p: &FaultPlan| -> Vec<Attempt> {
            (0..6)
                .flat_map(|s| (0..6).map(move |r| (s, r)))
                .map(|(s, r)| p.sample_attempt(s, r, 0))
                .collect()
        };
        assert_eq!(grid(&a), grid(&b));
        assert_ne!(grid(&a), grid(&c), "different seeds should diverge");
    }

    #[test]
    fn dropout_rate_is_roughly_honored() {
        let p = FaultPlan::with_dropout(42, 0.3);
        let n = 10_000;
        let failed = (0..n)
            .filter(|&i| p.sample_attempt(i % 10, i / 10, 0) == Attempt::Failed)
            .count();
        let rate = failed as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed dropout rate {rate}");
    }

    #[test]
    fn crash_fails_every_attempt_from_its_round() {
        let p = FaultPlan::none().crash(1, 2);
        assert!(!p.is_none());
        assert_eq!(
            p.sample_attempt(1, 1, 0),
            Attempt::Delivered {
                delay: Duration::ZERO
            }
        );
        for attempt in 0..3 {
            assert_eq!(p.sample_attempt(1, 2, attempt), Attempt::Failed);
            assert_eq!(p.sample_attempt(1, 5, attempt), Attempt::Failed);
        }
        assert_eq!(
            p.sample_attempt(0, 5, 0),
            Attempt::Delivered {
                delay: Duration::ZERO
            }
        );
    }

    #[test]
    fn stragglers_delay_within_bound() {
        let p = FaultPlan::with_dropout(3, 0.0).stragglers(1.0, Duration::from_millis(50));
        let mut nonzero = 0;
        for s in 0..20 {
            if let Attempt::Delivered { delay } = p.sample_attempt(s, 0, 0) {
                assert!(delay <= Duration::from_millis(50));
                assert!(delay > Duration::ZERO, "prob-1 straggler must delay");
                nonzero += 1;
            } else {
                panic!("no dropout configured");
            }
        }
        assert_eq!(nonzero, 20);
    }

    #[test]
    fn backoff_scales_timeouts() {
        let p = FaultPlan::none()
            .with_timeout(Duration::from_millis(10), 2)
            .with_backoff(2.0);
        assert_eq!(p.timeout_for(0), Some(Duration::from_millis(10)));
        assert_eq!(p.timeout_for(1), Some(Duration::from_millis(20)));
        assert_eq!(p.timeout_for(2), Some(Duration::from_millis(40)));
        assert_eq!(FaultPlan::none().timeout_for(3), None);
    }

    #[test]
    fn derive_changes_samples_but_stays_deterministic() {
        let base = FaultPlan::with_dropout(11, 0.5);
        let d1 = base.derive(1);
        let d2 = base.derive(2);
        assert_eq!(d1, base.derive(1));
        assert_ne!(d1.seed, d2.seed);
        assert_ne!(d1.seed, base.seed);
        assert_eq!(d1.dropout, base.dropout);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_of_one_is_rejected() {
        let _ = FaultPlan::with_dropout(0, 1.0);
    }
}
