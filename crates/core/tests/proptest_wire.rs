//! Property tests of the wire formats: `encode → decode` is the identity,
//! encoded sizes match the analytic byte model (`B = 8·dim` per point,
//! LEB128 varints for counts), and the byte counts the coordinator
//! simulator records in [`dpc_coordinator::CommStats`] equal the actual
//! encoded message lengths.

use bytes::Bytes;
use dpc_coordinator::{run_protocol, Coordinator, CoordinatorStep, RunOptions, Site};
use dpc_core::wire::{PreclusterMsg, ThresholdMsg};
use dpc_metric::encode::{point_bytes, varint_bytes};
use dpc_metric::{PointSet, WireReader, WireWriter};
use proptest::prelude::*;

fn point_set(dim: usize, rows: &[Vec<f64>]) -> PointSet {
    let mut ps = PointSet::new(dim);
    for r in rows {
        ps.push(&r[..dim]);
    }
    ps
}

/// Random `PreclusterMsg` with consistent dimensions and weight count.
/// Rows are generated at the maximum dimension and truncated to `dim`.
fn arb_precluster() -> impl Strategy<Value = PreclusterMsg> {
    (
        1usize..5,
        proptest::collection::vec(proptest::collection::vec(-1e6f64..1e6, 4..=4), 0..10),
        proptest::collection::vec(0.0f64..1e4, 10..=10),
        proptest::collection::vec(proptest::collection::vec(-1e6f64..1e6, 4..=4), 0..7),
        0u64..100_000,
    )
        .prop_map(|(dim, crows, weights, orows, t_i)| PreclusterMsg {
            centers: point_set(dim, &crows),
            weights: weights[..crows.len()].to_vec(),
            outliers: point_set(dim, &orows),
            t_i,
        })
}

fn arb_threshold() -> impl Strategy<Value = ThresholdMsg> {
    (0.0f64..1e12, 0u64..64, 0u64..100_000, 0usize..2).prop_map(
        |(threshold, i0, q0, exceptional)| ThresholdMsg {
            threshold,
            i0,
            q0,
            exceptional: exceptional == 1,
        },
    )
}

/// Analytic size of a `PreclusterMsg` under the paper's byte model.
fn precluster_bytes(m: &PreclusterMsg) -> usize {
    let dim = m.centers.dim();
    varint_bytes(dim as u64)
        + varint_bytes(m.centers.len() as u64)
        + m.centers.len() * (point_bytes(dim) + 8)
        + varint_bytes(m.outliers.len() as u64)
        + m.outliers.len() * point_bytes(dim)
        + varint_bytes(m.t_i)
}

fn threshold_bytes(m: &ThresholdMsg) -> usize {
    8 + varint_bytes(m.i0) + varint_bytes(m.q0) + 1
}

/// Site that replies with a fixed pre-encoded message.
struct FixedReplySite {
    reply: Bytes,
}

impl Site for FixedReplySite {
    fn handle(&mut self, _round: usize, _msg: &Bytes) -> Bytes {
        self.reply.clone()
    }
}

/// Coordinator that sends one fixed downlink per site, collects the
/// replies, and finishes.
struct OneExchange {
    downlinks: Vec<Bytes>,
    replies: Vec<Bytes>,
}

impl Coordinator for OneExchange {
    type Output = Vec<Bytes>;

    fn step(&mut self, round: usize, replies: Vec<Option<Bytes>>) -> CoordinatorStep {
        if round == 0 {
            CoordinatorStep::Messages(self.downlinks.clone())
        } else {
            self.replies = replies
                .into_iter()
                .map(|r| r.expect("no faults injected"))
                .collect();
            CoordinatorStep::Finish
        }
    }

    fn finish(self) -> Vec<Bytes> {
        self.replies
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn precluster_roundtrip_identity_and_size(msg in arb_precluster()) {
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), precluster_bytes(&msg), "analytic size mismatch");
        let back = PreclusterMsg::decode(encoded);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn threshold_roundtrip_identity_and_size(msg in arb_threshold()) {
        let encoded = msg.encode();
        prop_assert_eq!(encoded.len(), threshold_bytes(&msg), "analytic size mismatch");
        let back = ThresholdMsg::decode(encoded);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn f64_slice_roundtrip_and_size(vs in proptest::collection::vec(-1e9f64..1e9, 0..20)) {
        let mut w = WireWriter::new();
        w.put_f64_slice(&vs);
        prop_assert_eq!(w.len(), varint_bytes(vs.len() as u64) + 8 * vs.len());
        let mut r = WireReader::new(w.finish());
        prop_assert_eq!(r.get_f64_slice(), vs);
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn coordinator_stats_charge_exact_message_lengths(
        uplinks in proptest::collection::vec(arb_precluster(), 1..5),
        downlink in arb_threshold(),
    ) {
        // Push real messages through the simulator: the per-round byte
        // vectors in CommStats must equal the encoded lengths exactly, and
        // the messages must survive the wire bit-for-bit.
        let s = uplinks.len();
        let down_bytes = downlink.encode();
        let mut sites: Vec<Box<dyn Site + '_>> = uplinks
            .iter()
            .map(|m| Box::new(FixedReplySite { reply: m.encode() }) as Box<dyn Site>)
            .collect();
        let coordinator = OneExchange {
            downlinks: vec![down_bytes.clone(); s],
            replies: Vec::new(),
        };
        let out = run_protocol(
            &mut sites,
            coordinator,
            RunOptions { max_rounds: 4, ..RunOptions::sequential() },
        );

        prop_assert_eq!(out.stats.num_rounds(), 1);
        let round = &out.stats.rounds[0];
        for (i, uplink) in uplinks.iter().enumerate() {
            prop_assert_eq!(round.coordinator_to_sites[i], threshold_bytes(&downlink));
            prop_assert_eq!(round.sites_to_coordinator[i], precluster_bytes(uplink));
        }
        let expected_total = s * threshold_bytes(&downlink)
            + uplinks.iter().map(precluster_bytes).sum::<usize>();
        prop_assert_eq!(out.stats.total_bytes(), expected_total);

        // Identity through the simulated wire.
        for (reply, original) in out.output.into_iter().zip(&uplinks) {
            prop_assert_eq!(&PreclusterMsg::decode(reply), original);
        }
    }
}
