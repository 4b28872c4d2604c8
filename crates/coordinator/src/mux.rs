//! Multiplexed event-loop backend: thousands of sites, O(shards)
//! threads.
//!
//! Every site sits behind a real kernel socket (one end of a Unix-domain
//! socket pair) speaking the length-prefixed frames documented in
//! `sockets`, so every protocol message round-trips a socket boundary.
//! A thread per site on each side of the socket would be fine at 16
//! sites and hopeless at the thousands the coordinator model is designed
//! for, so this backend serves both halves from the crate's shard pool
//! (`pool`). Sites are dealt
//! round-robin across the pool, and shard `j` serves its sites
//! `j, j+stride, …` from two loops:
//!
//! * a coordinator loop, the shard's body, owning the coordinator ends
//!   in non-blocking mode. One `poll(2)` readiness loop (via the
//!   vendored [`sys_poll`] wrapper, a thin FFI shim, since the workspace
//!   builds without registry access) drives a per-connection state
//!   machine `Write → Read → Done`. Requests leave as one vectored write
//!   (header and payload in a single syscall, short writes resumed where
//!   they stopped);
//! * a site loop, `sockets::serve_sites`, on its own thread, owning the
//!   site ends: read the request, run the site, write the reply, for
//!   every ready connection of one `poll(2)` wakeup.
//!
//! The fleet's socket pairs are made on the caller's thread, and shard
//! 0's coordinator loop runs there too, so a run's thread count is
//! `2·shards − 1` however many sites there are, while the per-round byte
//! traffic is bit-identical to the in-process backend at every shard
//! count, one shard included.
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
//! Each shard reports its coordinator loop's wakeups per round, which
//! the driver records as one `Event::ShardPoll` per shard plus
//! `Counter::PollWakeups`; both are wall-clock-scheduling artifacts and
//! are excluded from the deterministic JSONL trace schema.

use crate::pool::{Shard, ShardDone, ShardPool, SiteReply};
use crate::protocol::Site;
use crate::sockets::{
    request_frame, serve_sites, site_reply, socket_pairs, FrameReader, FrameWriter, SiteEnd,
    SHUTDOWN,
};
use bytes::Bytes;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
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
    stream: UnixStream,
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

/// One shard's coordinator loop over the coordinator ends of its sites.
/// Dropping it sends every site the shutdown frame.
pub(crate) struct MuxShard(Vec<Conn>);

impl Shard for MuxShard {
    fn serve(&mut self, round: usize, msgs: Vec<Option<Bytes>>) -> ShardDone {
        let tag = u32::try_from(round).expect("round fits the frame header");
        assert_ne!(tag, SHUTDOWN, "round collides with the shutdown frame");
        let conns = &mut self.0;
        debug_assert_eq!(msgs.len(), conns.len());
        // Arm every participating connection and push each as far as the
        // socket buffers allow — a small request usually leaves here
        // whole, and the poll loop below only waits for replies.
        let mut pending = 0usize;
        for (conn, msg) in conns.iter_mut().zip(msgs) {
            conn.phase = match msg {
                Some(payload) => Phase::Write(request_frame(tag, payload)),
                None => Phase::Idle,
            };
            if !conn.advance() {
                pending += 1;
            }
        }
        let mut fds: Vec<PollFd> = Vec::with_capacity(pending);
        let mut fd_conn: Vec<usize> = Vec::with_capacity(pending);
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
        (replies, Some(wakeups))
    }
}

impl Drop for MuxShard {
    fn drop(&mut self) {
        for conn in &mut self.0 {
            conn.send_shutdown();
        }
    }
}

/// Connects one socket pair per site and serves the fleet from
/// `shards` event-loop shards inside `scope` (`shards` at least 1;
/// [`crate::run_protocol`] passes [`crate::RunOptions::shard_count`]).
/// Dropping the pool drops the coordinator loops, which send every site
/// the shutdown frame; each site loop returns once all its connections
/// have closed, and `scope` joins them all.
pub(crate) fn start<'scope, 'env, 'data: 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sites: &'env mut [Box<dyn Site + 'data>],
    shards: usize,
) -> ShardPool<MuxShard> {
    let n = sites.len();
    let ends = sites.iter_mut().zip(socket_pairs(n)).enumerate().map(
        |(i, (site, (stream, site_stream)))| {
            stream
                .set_nonblocking(true)
                .expect("switch coordinator-side socket to non-blocking");
            let conn = Conn {
                stream,
                site: i,
                phase: Phase::Idle,
            };
            (conn, SiteEnd::new(site.as_mut(), site_stream))
        },
    );
    ShardPool::start(scope, ends, shards, |group| {
        let (conns, ends): (Vec<Conn>, Vec<SiteEnd<'env>>) = group.into_iter().unzip();
        scope.spawn(move || serve_sites(ends));
        MuxShard(conns)
    })
}
