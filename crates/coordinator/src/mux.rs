//! Multiplexed event-loop backend: thousands of sites, O(shards)
//! threads.
//!
//! Every site sits behind a real loopback socket speaking the
//! length-prefixed frames documented in `sockets`, so every protocol
//! message round-trips a socket boundary. A thread per site on each side
//! of the socket would be fine at 16 sites and hopeless at the thousands
//! the coordinator model is designed for, so this backend serves both
//! halves from a small fixed pool of **event-loop shards**. Sites are
//! partitioned round-robin across the pool, and shard `j` runs two
//! threads for its sites `j, j+stride, …`:
//!
//! * a coordinator loop, owning the coordinator ends in non-blocking
//!   mode. One `poll(2)` readiness loop (via the vendored [`sys_poll`]
//!   wrapper, a thin FFI shim, since the workspace builds without
//!   registry access) drives a per-connection state machine
//!   `Write → Read → Done`. Requests leave as one vectored write
//!   (header and payload in a single syscall, short writes resumed where
//!   they stopped);
//! * a site loop, `sockets::serve_sites`, owning the site ends:
//!   read the request, run the site, write the reply, for every ready
//!   connection of one `poll(2)` wakeup.
//!
//! The fleet is built over one listener on the caller's thread, so a
//! run's thread count is `2·shards` however many sites there are, while
//! the per-round byte traffic is bit-identical to the in-process
//! backends at every shard count, one shard included.
//!
//! Fault injection needs no cooperation from this backend: the driver
//! decides every dropout/straggler/timeout *before* the exchange as a
//! pure function of the fault seed, and a failed site simply arrives
//! here as a `None` slot (no delivery, no reply). The readiness loop
//! therefore carries no real deadlines — simulated timeouts are charged
//! by [`crate::run_protocol`]'s accounting, which is exactly what keeps
//! fault transcripts and `dpc.trace/v1` traces bit-identical across
//! backends.
//!
//! Each exchange reports one [`Event::ShardPoll`] per shard and bumps
//! [`Counter::PollWakeups`] with the coordinator loops' wakeups; both
//! are wall-clock-scheduling artifacts and are excluded from the
//! deterministic JSONL trace schema.

use crate::protocol::Site;
use crate::sockets::{
    loopback_pairs, request_frame, serve_sites, site_reply, FrameReader, FrameWriter, SiteEnd,
    SHUTDOWN,
};
use crate::transport::{SiteReply, Transport};
use bytes::Bytes;
use dpc_obs::{Counter, Event, RecorderHandle};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Scope;
use std::time::Duration;
use sys_poll::{poll_fds, PollFd, POLLIN, POLLOUT};

/// Where a connection's state machine stands within one round.
enum Phase {
    /// No frame in flight: the round skipped this site, or its reply
    /// has been collected.
    Idle,
    /// Writing the request frame.
    Write(FrameWriter<8>),
    /// Reading the reply frame.
    Read(FrameReader<12>),
    /// Reply complete for this round.
    Done(SiteReply),
}

/// One coordinator-side connection owned by a shard: the non-blocking
/// socket plus the frame in flight.
struct Conn {
    stream: TcpStream,
    /// Global site index (diagnostics only).
    site: usize,
    phase: Phase,
}

impl Conn {
    /// The poll interest of the current phase (0 = nothing pending).
    fn interest(&self) -> i16 {
        match self.phase {
            Phase::Write(_) => POLLOUT,
            Phase::Read(_) => POLLIN,
            Phase::Idle | Phase::Done(_) => 0,
        }
    }

    /// Drives the state machine as far as the socket allows without
    /// blocking. Returns `true` once nothing is pending for the round
    /// (`Done` or `Idle`); `false` means the connection is parked until
    /// the next readiness notification.
    fn advance(&mut self) -> bool {
        loop {
            match &mut self.phase {
                Phase::Write(writer) => match writer.advance(&mut self.stream) {
                    // Request flushed. The site cannot have replied yet,
                    // so wait for readability rather than try a read.
                    Ok(true) => {
                        self.phase = Phase::Read(FrameReader::new());
                        return false;
                    }
                    Ok(false) => return false,
                    Err(e) => panic!("site {}: request write: {e}", self.site),
                },
                Phase::Read(reader) => match reader.advance(&mut self.stream) {
                    Ok(Some(frame)) => self.phase = Phase::Done(site_reply(frame)),
                    Ok(None) => return false,
                    Err(e) => panic!("site {}: reply: {e}", self.site),
                },
                Phase::Idle | Phase::Done(_) => return true,
            }
        }
    }

    /// Best-effort shutdown frame + socket teardown (the socket may be
    /// non-writable momentarily, so `WouldBlock` waits for writability,
    /// a second at a time).
    fn send_shutdown(&mut self) {
        let mut frame = request_frame(SHUTDOWN, Bytes::new());
        while let Ok(false) = frame.advance(&mut self.stream) {
            let mut fds = [PollFd::new(self.stream.as_raw_fd(), POLLOUT)];
            if poll_fds(&mut fds, Some(Duration::from_secs(1))).is_err() {
                break;
            }
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// One round's work for a shard: the round tag plus the payloads of the
/// shard's sites in local (round-robin) order; `None` marks a site the
/// fault plan silenced.
struct ShardWork {
    round: u32,
    msgs: Vec<Option<Bytes>>,
}

/// A shard's answer: replies in local order plus how many times its
/// coordinator loop woke up serving the round.
struct ShardDone {
    replies: Vec<Option<SiteReply>>,
    wakeups: u64,
}

/// The driver's handle to one shard's coordinator loop.
struct ShardHandle {
    work: Sender<ShardWork>,
    done: Receiver<ShardDone>,
}

/// One shard's coordinator loop: serve rounds until the work channel
/// closes, then shut the connections down.
fn run_shard(mut conns: Vec<Conn>, work: Receiver<ShardWork>, done: Sender<ShardDone>) {
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let mut fd_conn: Vec<usize> = Vec::with_capacity(conns.len());
    while let Ok(ShardWork { round, msgs }) = work.recv() {
        debug_assert_eq!(msgs.len(), conns.len());
        // Arm every participating connection and push each as far as the
        // socket buffers allow — with loopback sockets the whole request
        // usually leaves here, and the poll loop below only waits for
        // replies.
        let mut pending = 0usize;
        for (conn, msg) in conns.iter_mut().zip(msgs) {
            conn.phase = match msg {
                Some(payload) => Phase::Write(request_frame(round, payload)),
                None => Phase::Idle,
            };
            if !conn.advance() {
                pending += 1;
            }
        }
        let mut wakeups = 0u64;
        while pending > 0 {
            fds.clear();
            fd_conn.clear();
            for (ci, conn) in conns.iter().enumerate() {
                let interest = conn.interest();
                if interest != 0 {
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), interest));
                    fd_conn.push(ci);
                }
            }
            poll_fds(&mut fds, None).expect("poll over shard connections");
            wakeups += 1;
            for (fd, &ci) in fds.iter().zip(&fd_conn) {
                if fd.revents != 0 && conns[ci].advance() {
                    pending -= 1;
                }
            }
        }
        let replies = conns
            .iter_mut()
            .map(|c| match std::mem::replace(&mut c.phase, Phase::Idle) {
                Phase::Done(reply) => Some(reply),
                _ => None,
            })
            .collect();
        if done.send(ShardDone { replies, wakeups }).is_err() {
            break; // coordinator went away mid-round
        }
    }
    for conn in &mut conns {
        conn.send_shutdown();
    }
}

/// The multiplexed event-loop backend. See the module docs.
pub struct MuxTransport {
    shards: Vec<ShardHandle>,
    sites: usize,
    recorder: RecorderHandle,
}

impl MuxTransport {
    /// Connects one loopback socket pair per site and spawns `shards`
    /// event-loop shards inside `scope`, each a site loop plus a
    /// coordinator loop. `shards` is clamped to `1..=sites`, so a run
    /// holds exactly `2·min(shards.max(1), sites.max(1))` threads
    /// however many sites there are. Dropping the transport closes the
    /// work channels; coordinator loops send every site the shutdown
    /// frame on their way out, each site loop returns once all its
    /// connections have closed, and `scope` joins them all.
    pub fn start<'scope, 'env, 'data: 'env>(
        scope: &'scope Scope<'scope, 'env>,
        sites: &'env mut [Box<dyn Site + 'data>],
        shards: usize,
        recorder: RecorderHandle,
    ) -> Self {
        let n = sites.len();
        let shard_count = shards.clamp(1, n.max(1));
        let mut per_shard: Vec<Vec<Conn>> = (0..shard_count).map(|_| Vec::new()).collect();
        let mut site_ends: Vec<Vec<SiteEnd<'env>>> = (0..shard_count).map(|_| Vec::new()).collect();
        for (i, (site, (stream, site_stream))) in
            sites.iter_mut().zip(loopback_pairs(n)).enumerate()
        {
            stream
                .set_nonblocking(true)
                .expect("switch coordinator-side socket to non-blocking");
            per_shard[i % shard_count].push(Conn {
                stream,
                site: i,
                phase: Phase::Idle,
            });
            site_ends[i % shard_count].push(SiteEnd::new(site.as_mut(), site_stream));
        }
        for ends in site_ends {
            scope.spawn(move || serve_sites(ends));
        }
        let shards = per_shard
            .into_iter()
            .map(|conns| {
                let (work_tx, work_rx) = channel::<ShardWork>();
                let (done_tx, done_rx) = channel::<ShardDone>();
                scope.spawn(move || run_shard(conns, work_rx, done_tx));
                ShardHandle {
                    work: work_tx,
                    done: done_rx,
                }
            })
            .collect();
        Self {
            shards,
            sites: n,
            recorder,
        }
    }
}

impl Transport for MuxTransport {
    fn num_sites(&self) -> usize {
        self.sites
    }

    fn exchange(&mut self, round: usize, msgs: &[Option<Bytes>]) -> Vec<Option<SiteReply>> {
        assert_eq!(msgs.len(), self.sites, "one message per site");
        let round = u32::try_from(round).expect("round fits the frame header");
        assert_ne!(round, SHUTDOWN, "round collides with the shutdown frame");
        let stride = self.shards.len();
        // Scatter: shard `j` owns global sites `j, j+stride, ...` in
        // local order, so every shard starts writing before any reply
        // is awaited.
        for (j, shard) in self.shards.iter().enumerate() {
            let local: Vec<Option<Bytes>> = msgs.iter().skip(j).step_by(stride).cloned().collect();
            shard
                .work
                .send(ShardWork { round, msgs: local })
                .expect("shard thread alive");
        }
        // Gather, scattering local reply order back to site order.
        let mut replies: Vec<Option<SiteReply>> = (0..self.sites).map(|_| None).collect();
        let on = self.recorder.enabled();
        for (j, shard) in self.shards.iter().enumerate() {
            let finished = shard.done.recv().expect("shard completes the round");
            if on {
                self.recorder.record(Event::ShardPoll {
                    round: round as usize,
                    shard: j,
                    wakeups: finished.wakeups,
                });
                self.recorder.add(Counter::PollWakeups, finished.wakeups);
            }
            for (l, reply) in finished.replies.into_iter().enumerate() {
                replies[j + l * stride] = reply;
            }
        }
        replies
    }
}
