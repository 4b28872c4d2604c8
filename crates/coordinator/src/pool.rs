//! The shard pool both backends serve their sites from.
//!
//! A fleet of `s` sites runs on `shards` workers, however large `s` is.
//! Sites are dealt round-robin: shard `j` owns sites `j, j+stride, …`
//! (`stride` = the shard count) and serves them behind one work/done
//! mailbox pair. An exchange scatters the round's messages by stride,
//! serves shard 0 on the caller's thread while the persistent workers
//! serve the others, and gathers the replies back into site order. A
//! one-shard pool spawns nothing: every site takes its turn on the
//! caller's thread.
//!
//! What a shard does with its group is its [`Shard`] body. The
//! in-process backend ([`crate::TransportKind::Channel`]) runs the
//! group's sites in order ([`SiteGroup`]); the socket backend drives
//! their connections from a `poll(2)` loop (`mux`). The protocol driver
//! runs its rounds on the pool directly. Workers live in the run's
//! [`std::thread::scope`]; dropping the pool closes their mailboxes,
//! each worker drops its body on the way out, and the scope joins them.

use crate::protocol::Site;
use bytes::Bytes;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// One site's answer to a round: the reply payload plus the site-side
/// measured compute time (backend metadata, never charged as bytes).
#[derive(Clone, Debug)]
pub(crate) struct SiteReply {
    /// The reply message.
    pub(crate) payload: Bytes,
    /// Wall-clock time the site spent inside `Site::handle`.
    pub(crate) compute: Duration,
}

/// One round's work for a shard: the round and its group's messages.
type ShardWork = (usize, Vec<Option<Bytes>>);

/// One round's answer from a shard: the replies in the group's local
/// order, plus how many times the shard woke up waiting for its sites
/// (the mux poll loop's wakeups; `None` in process, where nothing
/// polls).
pub(crate) type ShardDone = (Vec<Option<SiteReply>>, Option<u64>);

/// What a shard does with its group of sites each round.
pub(crate) trait Shard: Send {
    /// Serves `round` to the group. `msgs` is in the group's local
    /// order; `None` marks a site the fault plan silenced, which gets
    /// no delivery and leaves a `None` reply.
    fn serve(&mut self, round: usize, msgs: Vec<Option<Bytes>>) -> ShardDone;
}

/// `shards` site groups, one served on the caller's thread and the rest
/// by persistent workers. See the module docs.
pub(crate) struct ShardPool<S> {
    /// Mailboxes of the workers serving shards `1..`, in shard order.
    /// Declared before `local` so a dropped pool releases the workers
    /// first, and their bodies tear down alongside shard 0's.
    workers: Vec<(Sender<ShardWork>, Receiver<ShardDone>)>,
    /// Shard 0, served on the caller's thread.
    local: S,
    /// Sites across all shards.
    pub(crate) sites: usize,
}

impl<S: Shard> ShardPool<S> {
    /// Deals one item per site to `shards` groups (group `j` holds the
    /// items of sites `j, j+shards, …`, in site order), makes each group
    /// a shard with `body`, and spawns a worker inside `scope` for every
    /// shard after the first.
    pub(crate) fn start<'scope, T>(
        scope: &'scope Scope<'scope, '_>,
        sites: impl ExactSizeIterator<Item = T>,
        shards: usize,
        body: impl FnMut(Vec<T>) -> S,
    ) -> Self
    where
        S: 'scope,
    {
        assert!(shards > 0, "a pool has at least one shard");
        let n = sites.len();
        let mut groups: Vec<Vec<T>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, site) in sites.enumerate() {
            groups[i % shards].push(site);
        }
        let mut bodies = groups.into_iter().map(body);
        let local = bodies.next().expect("one body per shard");
        let workers = bodies
            .map(|mut shard| {
                let (work_tx, work_rx) = channel::<ShardWork>();
                let (done_tx, done_rx) = channel::<ShardDone>();
                scope.spawn(move || {
                    while let Ok((round, msgs)) = work_rx.recv() {
                        if done_tx.send(shard.serve(round, msgs)).is_err() {
                            break; // coordinator went away mid-round
                        }
                    }
                });
                (work_tx, done_rx)
            })
            .collect();
        Self {
            workers,
            local,
            sites: n,
        }
    }

    /// Runs one round over every shard: `msgs[i]` goes to site `i`, and
    /// the replies come back in site order with each shard's wakeups in
    /// shard order.
    pub(crate) fn run_round(
        &mut self,
        round: usize,
        msgs: &[Option<Bytes>],
    ) -> (Vec<Option<SiteReply>>, Vec<Option<u64>>) {
        assert_eq!(msgs.len(), self.sites, "one message per site");
        let stride = self.workers.len() + 1;
        let group = |j: usize| msgs.iter().skip(j).step_by(stride).cloned().collect();
        // Scatter first, so every worker is busy while shard 0 runs here.
        for (j, (work, _)) in self.workers.iter().enumerate() {
            work.send((round, group(j + 1)))
                .expect("shard worker exited before the protocol finished");
        }
        let mut replies: Vec<Option<SiteReply>> = vec![None; self.sites];
        let mut wakeups = Vec::with_capacity(stride);
        let mut place = |j: usize, (local, woke): ShardDone| {
            for (l, reply) in local.into_iter().enumerate() {
                replies[j + l * stride] = reply;
            }
            wakeups.push(woke);
        };
        place(0, self.local.serve(round, group(0)));
        for (j, (_, done)) in self.workers.iter().enumerate() {
            place(
                j + 1,
                done.recv().expect("shard worker exited before replying"),
            );
        }
        (replies, wakeups)
    }
}

/// The in-process shard body: runs its sites one after another, timing
/// each `Site::handle`.
pub(crate) struct SiteGroup<'a, 'data>(pub(crate) Vec<&'a mut (dyn Site + 'data)>);

impl Shard for SiteGroup<'_, '_> {
    fn serve(&mut self, round: usize, msgs: Vec<Option<Bytes>>) -> ShardDone {
        let replies = self
            .0
            .iter_mut()
            .zip(msgs)
            .map(|(site, msg)| {
                msg.map(|msg| {
                    let t0 = Instant::now();
                    let payload = site.handle(round, &msg);
                    SiteReply {
                        payload,
                        compute: t0.elapsed(),
                    }
                })
            })
            .collect();
        (replies, None)
    }
}
