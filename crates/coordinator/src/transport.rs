//! The backend switch and the link model under the protocol driver.
//!
//! Byte accounting charges the *payload* length of every message, so
//! both backends produce identical [`crate::CommStats`] charges for the
//! same protocol: backend framing (socket length prefixes) is not
//! charged, because the paper's communication bounds are stated over
//! message contents. Both backends serve the sites from the shard pool
//! (see the crate docs); [`TransportKind`] picks the shard body.

use std::time::Duration;

/// Which backend [`crate::run_protocol`] executes sites on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In process: the shard pool's workers call their sites directly,
    /// each running its group one site at a time (with one shard, every
    /// site runs on the caller's thread).
    #[default]
    Channel,
    /// Each site behind a Unix-domain socket pair with length-prefixed
    /// frames, over a fixed pool of event-loop shards: each
    /// shard serves its sites from one site loop and drives their
    /// coordinator ends from one coordinator loop, both `poll(2)`
    /// readiness loops over non-blocking sockets, so threads scale with
    /// the shard budget, not the site count.
    Mux,
}

impl TransportKind {
    /// The CLI-facing name of the backend.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Mux => "mux",
        }
    }
}

/// A simulated star-network link: per-message one-way latency plus a
/// serialization rate.
///
/// The coordinator model's time bounds count rounds; a real deployment
/// also pays the network. [`crate::run_protocol`] folds this model into
/// [`crate::RoundStats::network`] so reports expose the
/// communication-vs-time trade-off without needing a congested lab
/// network: a round's simulated network time is
/// `max_i(latency + down_i/bandwidth + latency + up_i/bandwidth)` — all
/// site links operate in parallel, and each direction pays latency once
/// per message (even empty ones: a zero-byte kick is still a frame).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// One-way per-message latency.
    pub latency: Duration,
    /// Link bandwidth in bytes per second (`f64::INFINITY` disables the
    /// serialization term).
    pub bandwidth: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::ideal()
    }
}

impl LinkModel {
    /// The zero-cost link: no latency, infinite bandwidth.
    pub fn ideal() -> Self {
        Self {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
        }
    }

    /// A link with the given one-way latency and bandwidth (bytes/sec).
    ///
    /// # Panics
    /// Panics unless `bandwidth` is positive.
    pub fn new(latency: Duration, bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && !bandwidth.is_nan(),
            "bandwidth must be positive bytes/sec, got {bandwidth}"
        );
        Self { latency, bandwidth }
    }

    /// True when the link adds no simulated time.
    pub fn is_ideal(&self) -> bool {
        self.latency.is_zero() && self.bandwidth.is_infinite()
    }

    /// Ceiling on any single simulated transfer (~31 years). Pathological
    /// rates (e.g. `1e-300` bytes/sec) would otherwise overflow
    /// [`Duration`] and panic mid-protocol; the clamp keeps per-round
    /// values summable across a whole execution.
    pub const MAX_TRANSFER_SECS: f64 = 1e9;

    /// Serialization time for a payload of `bytes`, clamped to
    /// [`Self::MAX_TRANSFER_SECS`].
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bandwidth.is_infinite() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64((bytes as f64 / self.bandwidth).min(Self::MAX_TRANSFER_SECS))
        }
    }

    /// Simulated time for one message in one direction.
    pub fn one_way(&self, bytes: usize) -> Duration {
        self.latency + self.transfer_time(bytes)
    }

    /// Simulated network time of one round: every site's
    /// down-then-up exchange runs in parallel with the others', so the
    /// round costs the slowest site pair.
    pub fn round_network_time(&self, down: &[usize], up: &[usize]) -> Duration {
        down.iter()
            .zip(up)
            .map(|(&d, &u)| self.one_way(d) + self.one_way(u))
            .max()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_costs_nothing() {
        let link = LinkModel::ideal();
        assert!(link.is_ideal());
        assert_eq!(link.one_way(1 << 20), Duration::ZERO);
        assert_eq!(link.round_network_time(&[5, 9], &[100, 3]), Duration::ZERO);
    }

    #[test]
    fn link_math() {
        // 1 ms latency, 1000 bytes/sec.
        let link = LinkModel::new(Duration::from_millis(1), 1000.0);
        assert_eq!(link.transfer_time(500), Duration::from_millis(500));
        assert_eq!(link.one_way(0), Duration::from_millis(1));
        assert_eq!(link.one_way(500), Duration::from_millis(501));
        // Site 0: (1 + 100) + (1 + 200); site 1: (1 + 0) + (1 + 400).
        let t = link.round_network_time(&[100, 0], &[200, 400]);
        assert_eq!(t, Duration::from_millis(402));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkModel::new(Duration::ZERO, 0.0);
    }

    #[test]
    fn pathological_bandwidth_saturates_instead_of_panicking() {
        // 1e-300 B/s would put a 300-byte transfer at ~3e302 seconds,
        // beyond what Duration can represent.
        let link = LinkModel::new(Duration::ZERO, 1e-300);
        let t = link.transfer_time(300);
        assert_eq!(t, Duration::from_secs_f64(LinkModel::MAX_TRANSFER_SECS));
        // Sums over a max-length protocol stay representable.
        let total = link.round_network_time(&[300], &[300]);
        assert_eq!(total, t + t);
    }

    #[test]
    fn kind_names() {
        assert_eq!(TransportKind::Channel.name(), "channel");
        assert_eq!(TransportKind::Mux.name(), "mux");
        assert_eq!(TransportKind::default(), TransportKind::Channel);
    }
}
