//! Socket plumbing of the mux backend:
//! the wire frames, the frame reader and writer, the fleet builder, and
//! the site event loop.
//!
//! The coordinator connects one Unix-domain socket pair per site, and
//! each pair speaks length-prefixed frames for the rest of the execution:
//!
//! ```text
//! coordinator -> site   [round: u32 LE][len: u32 LE][payload]
//! site -> coordinator   [compute_ns: u64 LE][len: u32 LE][payload]
//! ```
//!
//! A `round` of `u32::MAX` is the shutdown frame. The site measures its
//! own compute and ships it in the reply header — frame headers are
//! transport metadata and are *not* charged to [`crate::CommStats`], so
//! byte accounting is identical to the in-process backends (the
//! equivalence suite asserts this). What the socket buys is proof:
//! every protocol message round-trips a real socket boundary, byte for
//! byte, which no amount of in-process simulation establishes.
//!
//! Both frame headers end in the payload length as a `u32 LE`, so one
//! [`FrameReader`] and one [`FrameWriter`], generic over the header
//! size, serve both directions. They work on blocking and non-blocking
//! sockets alike: on a non-blocking one they stop at `WouldBlock` and
//! resume where they stopped. Every frame goes out as one vectored write
//! carrying the header and the payload together, so a small protocol
//! round costs one syscall in each direction instead of two.
//!
//! The site half of the backend is [`serve_sites`]: one thread serving
//! a group of sites over their non-blocking sockets from one `poll(2)`
//! loop, one loop per mux shard.

use crate::pool::SiteReply;
use crate::protocol::Site;
use bytes::Bytes;
use std::io::{self, IoSlice, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};
use sys_poll::{poll_fds, PollFd, POLLIN, POLLOUT};

/// Shutdown sentinel in the `round` header field.
pub(crate) const SHUTDOWN: u32 = u32::MAX;

/// The coordinator's request frame for `round` ([`SHUTDOWN`] with an
/// empty payload is the shutdown frame).
pub(crate) fn request_frame(round: u32, payload: Bytes) -> FrameWriter<8> {
    FrameWriter::new(&round.to_le_bytes(), payload)
}

/// A site's reply frame, as [`FrameReader`] hands it to the coordinator.
pub(crate) fn site_reply((header, payload): ([u8; 12], Vec<u8>)) -> SiteReply {
    let compute_ns = u64::from_le_bytes(header[..8].try_into().unwrap());
    SiteReply {
        payload: Bytes::from(payload),
        compute: Duration::from_nanos(compute_ns),
    }
}

/// An outgoing frame: an `H`-byte header and its payload, sent as one
/// vectored write (header and payload in a single syscall) and resumed
/// where a short or would-block write stopped.
pub(crate) struct FrameWriter<const H: usize> {
    header: [u8; H],
    body: Bytes,
    written: usize,
}

impl<const H: usize> FrameWriter<H> {
    /// A frame whose header is `tag` followed by the payload length
    /// (`tag` is the first `H - 4` header bytes).
    pub(crate) fn new(tag: &[u8], body: Bytes) -> Self {
        let len = u32::try_from(body.len()).expect("payload fits a u32 length prefix");
        let mut header = [0u8; H];
        header[..H - 4].copy_from_slice(tag);
        header[H - 4..].copy_from_slice(&len.to_le_bytes());
        Self {
            header,
            body,
            written: 0,
        }
    }

    /// Writes as much of the frame as `stream` accepts: `Ok(true)` once
    /// all of it is written, `Ok(false)` when a non-blocking socket
    /// would block.
    pub(crate) fn advance(&mut self, stream: &mut impl Write) -> io::Result<bool> {
        while self.written < H + self.body.len() {
            let res = if self.written < H {
                stream.write_vectored(&[
                    IoSlice::new(&self.header[self.written..]),
                    IoSlice::new(&self.body),
                ])
            } else {
                stream.write(&self.body[self.written - H..])
            };
            match res {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// How far past the bytes read so far a frame body is allocated, so a
/// length prefix alone never costs more than this much memory.
const BODY_STEP: usize = 64 << 10;

/// One incoming frame: an `H`-byte header whose last four bytes are the
/// payload length, then the payload, read into a vector of exactly that
/// length (handed over whole, never copied). The vector grows as the
/// payload arrives, at most [`BODY_STEP`] ahead of it. A reader reads one
/// frame; the next frame takes a new reader.
pub(crate) struct FrameReader<const H: usize> {
    header: [u8; H],
    header_read: usize,
    body: Vec<u8>,
    body_len: usize,
    body_read: usize,
}

impl<const H: usize> FrameReader<H> {
    pub(crate) fn new() -> Self {
        Self {
            header: [0; H],
            header_read: 0,
            body: Vec::new(),
            body_len: 0,
            body_read: 0,
        }
    }

    /// Reads as much of the frame as `stream` holds: `Ok(Some((header,
    /// payload)))` once it is complete, `Ok(None)` when a non-blocking
    /// socket would block. End of stream is an `UnexpectedEof` error.
    pub(crate) fn advance(
        &mut self,
        stream: &mut impl Read,
    ) -> io::Result<Option<([u8; H], Vec<u8>)>> {
        loop {
            let buf = if self.header_read < H {
                &mut self.header[self.header_read..]
            } else if self.body_read < self.body_len {
                if self.body_read == self.body.len() {
                    let grown = self.body_len.min(self.body_read + BODY_STEP);
                    // The first step is one zeroed allocation: allocating
                    // it unzeroed and filling it placed heap chunks
                    // differently and raised perfbench `sites4096-mux`
                    // peak RSS by ~2 MB in over half of its runs.
                    if self.body.is_empty() {
                        self.body = vec![0; grown];
                    } else {
                        self.body.reserve_exact(grown - self.body_read);
                        self.body.resize(grown, 0);
                    }
                }
                &mut self.body[self.body_read..]
            } else {
                return Ok(Some((self.header, std::mem::take(&mut self.body))));
            };
            match stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) if self.header_read < H => {
                    self.header_read += n;
                    if self.header_read == H {
                        let len = u32::from_le_bytes(self.header[H - 4..].try_into().unwrap());
                        self.body_len = len as usize;
                    }
                }
                Ok(n) => self.body_read += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Connects one Unix-domain socket pair per site: `(coordinator end,
/// site end)`, pair `i` for site `i`, with the site end non-blocking and
/// ready for [`serve_sites`]. AF_UNIX has no Nagle delay to switch off
/// and no `TIME_WAIT` to skip, so a closed pair frees its kernel state
/// at once.
pub(crate) fn socket_pairs(n: usize) -> Vec<(UnixStream, UnixStream)> {
    (0..n)
        .map(|_| {
            let (coordinator, site) = UnixStream::pair().expect("create a site socket pair");
            site.set_nonblocking(true)
                .expect("switch site-side socket to non-blocking");
            (coordinator, site)
        })
        .collect()
}

/// One site's end of its connection: the site, its non-blocking socket,
/// and the frame in flight. A site has at most one: the coordinator
/// reads every reply before it sends the next round.
pub(crate) struct SiteEnd<'a> {
    site: &'a mut dyn Site,
    stream: UnixStream,
    phase: SitePhase,
}

enum SitePhase {
    /// Awaiting (or part-way through) the next request.
    Read(FrameReader<8>),
    /// Sending the reply.
    Write(FrameWriter<12>),
}

impl<'a> SiteEnd<'a> {
    /// `site` served over `stream`, the site end of a [`socket_pairs`]
    /// pair.
    pub(crate) fn new(site: &'a mut dyn Site, stream: UnixStream) -> Self {
        Self {
            site,
            stream,
            phase: SitePhase::Read(FrameReader::new()),
        }
    }

    /// Drives the connection as far as its socket allows: read the
    /// request, run the site on it (timing exactly `Site::handle`), and
    /// write the reply. Returns the poll interest to wait on next, or
    /// `None` once the connection is finished: shutdown frame, hang-up
    /// or socket error (a coordinator that goes away mid-frame notices
    /// the missing reply itself).
    fn advance(&mut self) -> Option<i16> {
        loop {
            match &mut self.phase {
                SitePhase::Read(reader) => match reader.advance(&mut self.stream) {
                    Ok(Some((header, body))) => {
                        let round = u32::from_le_bytes(header[..4].try_into().unwrap());
                        if round == SHUTDOWN {
                            return None;
                        }
                        let msg = Bytes::from(body);
                        let t0 = Instant::now();
                        let reply = self.site.handle(round as usize, &msg);
                        let compute_ns = t0.elapsed().as_nanos() as u64;
                        self.phase =
                            SitePhase::Write(FrameWriter::new(&compute_ns.to_le_bytes(), reply));
                    }
                    Ok(None) => return Some(POLLIN),
                    Err(_) => return None,
                },
                SitePhase::Write(writer) => match writer.advance(&mut self.stream) {
                    // Reply sent. The next request cannot have left the
                    // coordinator yet, so wait for it rather than try a
                    // read.
                    Ok(true) => {
                        self.phase = SitePhase::Read(FrameReader::new());
                        return Some(POLLIN);
                    }
                    Ok(false) => return Some(POLLOUT),
                    Err(_) => return None,
                },
            }
        }
    }
}

/// The site event loop: serves every site in `ends` from the calling
/// thread until each connection has finished. One `poll(2)` call waits
/// on all of them; each ready connection runs its state machine
/// (request header, request body, `Site::handle`, reply) until its
/// socket would block. Sites in one loop run one at a time. A finished
/// connection's socket closes at once and leaves the poll set.
pub(crate) fn serve_sites(ends: Vec<SiteEnd<'_>>) {
    let mut fds: Vec<PollFd> = ends
        .iter()
        .map(|end| PollFd::new(end.stream.as_raw_fd(), POLLIN))
        .collect();
    let mut ends: Vec<Option<SiteEnd<'_>>> = ends.into_iter().map(Some).collect();
    let mut open = ends.len();
    while open > 0 {
        poll_fds(&mut fds, None).expect("poll over site connections");
        for (fd, slot) in fds.iter_mut().zip(&mut ends) {
            if fd.revents == 0 {
                continue;
            }
            let end = slot
                .as_mut()
                .expect("finished connections leave the poll set");
            match end.advance() {
                Some(interest) => fd.events = interest,
                None => {
                    *slot = None;
                    // A negative descriptor makes poll skip the entry.
                    fd.fd = -1;
                    open -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory wire that moves one byte per call and answers every
    /// other call with `WouldBlock`, so a frame stops at every offset.
    #[derive(Default)]
    struct Trickle {
        wire: Vec<u8>,
        pos: usize,
        blocked: bool,
    }

    impl Trickle {
        /// Flips between blocking and moving a byte; `true` = move.
        fn turn(&mut self) -> io::Result<()> {
            self.blocked = !self.blocked;
            if self.blocked {
                Err(io::ErrorKind::WouldBlock.into())
            } else {
                Ok(())
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.turn()?;
            self.wire.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.turn()?;
            let Some(&b) = self.wire.get(self.pos) else {
                return Ok(0);
            };
            buf[0] = b;
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frames_resume_after_would_block_at_every_byte() {
        let body: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let mut stream = Trickle::default();
        // A reply frame, then an empty request frame (the shutdown
        // frame's shape).
        let mut reply = FrameWriter::<12>::new(&42u64.to_le_bytes(), Bytes::from(body.clone()));
        let mut parked = 0;
        while !reply.advance(&mut stream).unwrap() {
            parked += 1;
        }
        assert_eq!(parked, 12 + body.len(), "one WouldBlock per byte");
        let mut empty = request_frame(SHUTDOWN, Bytes::new());
        while !empty.advance(&mut stream).unwrap() {}
        assert_eq!(stream.wire.len(), 12 + body.len() + 8);

        let mut reader = FrameReader::<12>::new();
        let (header, got) = loop {
            if let Some(frame) = reader.advance(&mut stream).unwrap() {
                break frame;
            }
        };
        assert_eq!(u64::from_le_bytes(header[..8].try_into().unwrap()), 42);
        assert_eq!(got, body);
        let mut reader = FrameReader::<8>::new();
        let (header, got) = loop {
            if let Some(frame) = reader.advance(&mut stream).unwrap() {
                break frame;
            }
        };
        assert_eq!(
            u32::from_le_bytes(header[..4].try_into().unwrap()),
            SHUTDOWN
        );
        assert!(got.is_empty());
        // The wire is drained: the next frame meets end of stream.
        let mut reader = FrameReader::<8>::new();
        let eof = loop {
            match reader.advance(&mut stream) {
                Ok(None) => {}
                other => break other,
            }
        };
        assert_eq!(eof.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn big_frames_stop_at_a_full_socket_and_complete_once_drained() {
        let (mut coordinator, mut site) = UnixStream::pair().unwrap();
        coordinator.set_nonblocking(true).unwrap();
        site.set_nonblocking(true).unwrap();
        let body: Vec<u8> = (0..256u32 << 10).map(|i| (i % 251) as u8).collect();
        let mut writer = request_frame(7, Bytes::from(body.clone()));
        // The peer reads nothing yet, and 256 KiB overflows the socket's
        // send buffer.
        assert!(!writer.advance(&mut coordinator).unwrap());
        let mut reader = FrameReader::<8>::new();
        let (header, got) = loop {
            writer.advance(&mut coordinator).unwrap();
            if let Some(frame) = reader.advance(&mut site).unwrap() {
                break frame;
            }
        };
        assert!(writer.advance(&mut coordinator).unwrap());
        assert_eq!(u32::from_le_bytes(header[..4].try_into().unwrap()), 7);
        assert_eq!(got, body);
    }

    #[test]
    fn a_length_prefix_alone_allocates_one_step() {
        let mut wire = 0u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::<8>::new();
        let err = reader.advance(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(reader.body.capacity() <= BODY_STEP);
    }
}
