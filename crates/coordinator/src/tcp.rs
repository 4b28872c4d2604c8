//! Loopback TCP backend: every site behind a real socket.
//!
//! The coordinator connects one loopback socket pair per site, and each
//! pair speaks length-prefixed frames for the rest of the execution:
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
//! equivalence suite asserts this). What this backend buys is proof:
//! every protocol message round-trips a real socket boundary, byte for
//! byte, which no amount of in-process simulation establishes.
//!
//! Each site runs the site event loop shared with the mux backend
//! (`sockets::serve_sites`) on a thread of its own; the
//! coordinator side is the caller's thread over blocking sockets.
//! `TCP_NODELAY` is set on both ends, and every frame goes out as one
//! vectored write carrying the header and the payload together, so a
//! small protocol round costs one syscall in each direction instead of
//! two.

use crate::protocol::Site;
use crate::sockets::{
    loopback_pairs, request_frame, serve_sites, site_reply, FrameReader, SiteEnd, SHUTDOWN,
};
use crate::transport::{SiteReply, Transport};
use bytes::Bytes;
use std::net::TcpStream;
use std::thread::Scope;

/// The loopback-socket backend. See the module docs.
pub struct TcpTransport {
    /// Coordinator-side connections, one per site, in site order.
    streams: Vec<TcpStream>,
}

impl TcpTransport {
    /// Connects one loopback socket pair per site and spawns each site's
    /// event loop inside `scope`. Dropping the transport sends every
    /// site the shutdown frame; `scope` then joins the loops.
    pub fn start<'scope, 'env, 'data: 'env>(
        scope: &'scope Scope<'scope, 'env>,
        sites: &'env mut [Box<dyn Site + 'data>],
    ) -> Self {
        let pairs = loopback_pairs(sites.len());
        let streams = sites
            .iter_mut()
            .zip(pairs)
            .map(|(site, (stream, site_stream))| {
                let end = SiteEnd::new(site.as_mut(), site_stream);
                scope.spawn(move || serve_sites(vec![end]));
                stream
            })
            .collect();
        Self { streams }
    }
}

impl Transport for TcpTransport {
    fn num_sites(&self) -> usize {
        self.streams.len()
    }

    fn exchange(&mut self, round: usize, msgs: &[Option<Bytes>]) -> Vec<Option<SiteReply>> {
        assert_eq!(msgs.len(), self.streams.len(), "one message per site");
        let round = u32::try_from(round).expect("round fits the frame header");
        assert_ne!(round, SHUTDOWN, "round collides with the shutdown frame");
        // Fan out: write every request before reading any reply. Site
        // loops read their request eagerly, so these writes cannot
        // deadlock against the unread replies. Frames carry the round
        // number, so a skipped (`None`) site simply never sees a frame
        // for this round — no wire-protocol change is needed.
        for (stream, msg) in self.streams.iter_mut().zip(msgs) {
            let Some(msg) = msg else { continue };
            request_frame(round, msg.clone())
                .advance(stream)
                .expect("write request frame to site");
        }
        // Gather in site order.
        self.streams
            .iter_mut()
            .zip(msgs)
            .enumerate()
            .map(|(i, (stream, msg))| {
                msg.as_ref()?;
                // A blocking socket never reports `WouldBlock`, so the
                // reader returns a whole frame or an error.
                let frame = FrameReader::new()
                    .advance(stream)
                    .unwrap_or_else(|e| panic!("site {i}: reply: {e}"))
                    .expect("a blocking read completes the frame");
                Some(site_reply(frame))
            })
            .collect()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Best-effort graceful shutdown; site loops also exit on EOF.
        for stream in &mut self.streams {
            let _ = request_frame(SHUTDOWN, Bytes::new()).advance(stream);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}
