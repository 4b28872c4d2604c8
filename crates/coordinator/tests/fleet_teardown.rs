//! A torn-down mux fleet leaves no descriptor behind: after a 1024-site
//! run on two shards the process holds exactly the descriptors it held
//! before. This file holds one test, so no other test of the harness
//! opens or closes descriptors while it counts them.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use dpc_coordinator::{
    run_protocol, Coordinator, CoordinatorStep, RunOptions, Site, TransportKind,
};

const SITES: usize = 1024;

/// Open descriptors of this process (the directory handle that lists
/// them counts once on every call).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Site that echoes its request.
struct Echo;

impl Site for Echo {
    fn handle(&mut self, _round: usize, msg: &Bytes) -> Bytes {
        msg.clone()
    }
}

/// One broadcast round, then finish; counts the replies it got.
struct OneRound {
    replies: usize,
}

impl Coordinator for OneRound {
    type Output = usize;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        self.replies += replies.iter().flatten().count();
        if round == 0 {
            CoordinatorStep::Broadcast(Bytes::from_static(b"ping"))
        } else {
            CoordinatorStep::Finish
        }
    }

    fn finish(self) -> usize {
        self.replies
    }
}

#[test]
fn mux_fleet_teardown_closes_every_descriptor() {
    let before = open_fds();
    let mut sites: Vec<Box<dyn Site>> = (0..SITES).map(|_| Box::new(Echo) as _).collect();
    let out = run_protocol(
        &mut sites,
        OneRound { replies: 0 },
        RunOptions::new().transport(TransportKind::Mux).shards(2),
    );
    assert_eq!(out.output, SITES, "every site answered the broadcast");
    assert_eq!(open_fds(), before, "the fleet left descriptors open");
}
