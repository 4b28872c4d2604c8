//! In-process backend with persistent per-site workers.
//!
//! Each site gets one OS thread for the *whole* protocol execution and an
//! mpsc mailbox feeding it `(round, message)` envelopes; replies come
//! back on a per-site return channel so site order is preserved without
//! any sorting. Compared to the pre-runtime simulator — which re-spawned
//! `s` threads on every round — the hot path of an `r`-round protocol
//! performs `s` spawns instead of `r·s`.
//!
//! Workers borrow the caller's sites, so they live inside a
//! [`std::thread::scope`] owned by [`crate::run_protocol`]; dropping the
//! transport closes every mailbox, which is the workers' shutdown
//! signal.

use crate::protocol::Site;
use crate::transport::{SiteReply, Transport};
use bytes::Bytes;
use std::sync::mpsc;
use std::thread::Scope;
use std::time::Instant;

/// The persistent-worker backend. See the module docs.
pub struct ChannelTransport {
    /// Mailbox senders, one per site; dropping them stops the workers.
    mailboxes: Vec<mpsc::Sender<(usize, Bytes)>>,
    /// Per-site reply channels, indexed like `mailboxes`.
    replies: Vec<mpsc::Receiver<SiteReply>>,
}

impl ChannelTransport {
    /// Spawns one worker per site inside `scope`. The workers exit when
    /// the returned transport is dropped; `scope` then joins them.
    pub fn start<'scope, 'env, 'data: 'env>(
        scope: &'scope Scope<'scope, 'env>,
        sites: &'env mut [Box<dyn Site + 'data>],
    ) -> Self {
        let mut mailboxes = Vec::with_capacity(sites.len());
        let mut replies = Vec::with_capacity(sites.len());
        for site in sites.iter_mut() {
            let (msg_tx, msg_rx) = mpsc::channel::<(usize, Bytes)>();
            let (reply_tx, reply_rx) = mpsc::channel::<SiteReply>();
            scope.spawn(move || {
                while let Ok((round, msg)) = msg_rx.recv() {
                    let t0 = Instant::now();
                    let payload = site.handle(round, &msg);
                    let reply = SiteReply {
                        payload,
                        compute: t0.elapsed(),
                    };
                    if reply_tx.send(reply).is_err() {
                        break; // coordinator gone mid-round
                    }
                }
            });
            mailboxes.push(msg_tx);
            replies.push(reply_rx);
        }
        Self { mailboxes, replies }
    }
}

impl Transport for ChannelTransport {
    fn num_sites(&self) -> usize {
        self.mailboxes.len()
    }

    fn exchange(&mut self, round: usize, msgs: &[Option<Bytes>]) -> Vec<Option<SiteReply>> {
        assert_eq!(msgs.len(), self.mailboxes.len(), "one message per site");
        // Fan out first so every participating site computes
        // concurrently; a `None` site gets no envelope this round.
        for (tx, msg) in self.mailboxes.iter().zip(msgs) {
            if let Some(msg) = msg {
                tx.send((round, msg.clone()))
                    .expect("site worker exited before the protocol finished");
            }
        }
        // ...then gather in site order (recv blocks per site, but the
        // others keep computing meanwhile).
        self.replies
            .iter()
            .zip(msgs)
            .map(|(rx, msg)| {
                msg.as_ref()
                    .map(|_| rx.recv().expect("site worker exited before replying"))
            })
            .collect()
    }
}
