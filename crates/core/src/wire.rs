//! Message formats shared by the distributed protocols, and the common
//! output type.
//!
//! Every message actually crosses the simulated wire as bytes; these
//! helpers define the framing. Per the paper's accounting, a point costs
//! `B = 8·dim` bytes and counts cost `O(log n)` bits (varints).

use bytes::Bytes;
use dpc_codec::Encoding;
use dpc_metric::{PointSet, WeightedSet, WireReader, WireWriter};

/// A preclustering summary sent from a site to the coordinator in the final
/// round: weighted centers plus (optionally) the locally ignored points.
#[derive(Clone, Debug, PartialEq)]
pub struct PreclusterMsg {
    /// Centers as raw coordinates.
    pub centers: PointSet,
    /// Weight (attached point count) per center.
    pub weights: Vec<f64>,
    /// Locally ignored points, sent verbatim (empty in the counts-only
    /// δ-variant of Theorem 3.8).
    pub outliers: PointSet,
    /// Number of locally ignored points `t_i` (redundant with
    /// `outliers.len()` except in the counts-only variant).
    pub t_i: u64,
}

impl PreclusterMsg {
    /// The summary of a site with no points: nothing to ship, `t_i = 0`.
    pub fn empty(dim: usize) -> Self {
        Self {
            centers: PointSet::new(dim),
            weights: Vec::new(),
            outliers: PointSet::new(dim),
            t_i: 0,
        }
    }

    fn write(&self) -> WireWriter {
        let mut w = WireWriter::new();
        w.put_varint(self.centers.dim() as u64);
        w.put_varint(self.centers.len() as u64);
        for (i, p) in self.centers.iter() {
            w.put_point(p);
            w.put_f64(self.weights[i]);
        }
        w.put_varint(self.outliers.len() as u64);
        for (_, p) in self.outliers.iter() {
            w.put_point(p);
        }
        w.put_varint(self.t_i);
        w
    }

    /// Serializes the summary uncompressed.
    pub fn encode(&self) -> Bytes {
        self.write().finish()
    }

    /// Serializes the summary inside a codec frame. `Encoding::Raw`
    /// produces the same bytes as [`Self::encode`] (no frame header).
    /// Center and outlier coordinates are subject to the codec's
    /// (possibly lossy) coordinate transform; weights and counts are
    /// always exact.
    pub fn encode_with(&self, encoding: Encoding) -> Bytes {
        dpc_codec::frame(encoding, self.write(), &[])
    }

    /// Deserializes a summary produced by [`Self::encode_with`] with the
    /// same encoding.
    pub fn decode_with(encoding: Encoding, buf: Bytes) -> Self {
        Self::decode(dpc_codec::unframe(encoding, buf, &[]))
    }

    /// Deserializes a summary produced by [`Self::encode`].
    pub fn decode(buf: Bytes) -> Self {
        let mut r = WireReader::new(buf);
        let dim = r.get_varint() as usize;
        let nc = r.get_varint() as usize;
        let mut centers = PointSet::with_capacity(dim, nc);
        let mut weights = Vec::with_capacity(nc);
        let mut p = Vec::with_capacity(dim);
        for _ in 0..nc {
            r.read_point_into(dim, &mut p);
            centers.push(&p);
            weights.push(r.get_f64());
        }
        let no = r.get_varint() as usize;
        let mut outliers = PointSet::with_capacity(dim, no);
        for _ in 0..no {
            r.read_point_into(dim, &mut p);
            outliers.push(&p);
        }
        let t_i = r.get_varint();
        PreclusterMsg {
            centers,
            weights,
            outliers,
            t_i,
        }
    }
}

/// Decodes the preclustering summaries that arrived and merges them into
/// one weighted instance over `R^dim`: every center at its weight, every
/// shipped outlier at weight 1. Also returns `Σ t_i` over the summaries.
/// A site that dropped out (a `None` reply) contributes nothing.
pub fn merge_summaries(
    replies: Vec<Option<Bytes>>,
    encoding: Encoding,
    dim: usize,
) -> (PointSet, WeightedSet, u64) {
    let mut pts = PointSet::new(dim);
    let mut weighted = WeightedSet::new();
    let mut shipped = 0;
    for b in replies.into_iter().flatten() {
        let m = PreclusterMsg::decode_with(encoding, b);
        shipped += m.t_i;
        let off = pts.extend_from(&m.centers);
        for (j, &w) in m.weights.iter().enumerate() {
            weighted.push(off + j, w);
        }
        let off = pts.extend_from(&m.outliers);
        for j in 0..m.outliers.len() {
            weighted.push(off + j, 1.0);
        }
    }
    (pts, weighted, shipped)
}

/// The threshold message the coordinator sends each site after the
/// allocation step (`ℓ(i₀,q₀)`, `i₀`, `q₀`, plus "you are the exceptional
/// site" flag).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThresholdMsg {
    /// The rank-`ρt` marginal.
    pub threshold: f64,
    /// Exceptional site id.
    pub i0: u64,
    /// Exceptional rank position.
    pub q0: u64,
    /// Whether the receiving site is `i₀`.
    pub exceptional: bool,
}

impl ThresholdMsg {
    fn write(&self) -> WireWriter {
        let mut w = WireWriter::new();
        w.put_f64(self.threshold);
        w.put_varint(self.i0);
        w.put_varint(self.q0);
        w.put_varint(u64::from(self.exceptional));
        w
    }

    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        self.write().finish()
    }

    /// Serializes the message inside a codec frame. The payload carries
    /// no coordinate spans, so every encoding keeps it bit-exact.
    pub fn encode_with(&self, encoding: Encoding) -> Bytes {
        dpc_codec::frame(encoding, self.write(), &[])
    }

    /// Deserializes a message produced by [`Self::encode_with`] with the
    /// same encoding.
    pub fn decode_with(encoding: Encoding, buf: Bytes) -> Self {
        Self::decode(dpc_codec::unframe(encoding, buf, &[]))
    }

    /// Deserializes the message.
    pub fn decode(buf: Bytes) -> Self {
        let mut r = WireReader::new(buf);
        ThresholdMsg {
            threshold: r.get_f64(),
            i0: r.get_varint(),
            q0: r.get_varint(),
            exceptional: r.get_varint() != 0,
        }
    }
}

/// Output of a distributed clustering protocol.
#[derive(Clone, Debug)]
pub struct DistributedSolution {
    /// Global centers chosen by the coordinator (coordinates).
    pub centers: PointSet,
    /// Objective value of the coordinator's weighted instance (an upper
    /// bound proxy; re-evaluate against the original data with
    /// [`crate::evaluate::evaluate_on_full_data`] for ground truth).
    pub coordinator_cost: f64,
    /// Outlier weight the coordinator excluded.
    pub excluded_weight: f64,
    /// Total outliers shipped by sites (`Σ t_i`).
    pub shipped_outliers: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precluster_roundtrip() {
        let centers = PointSet::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let outliers = PointSet::from_rows(&[vec![9.0, 9.0]]);
        let msg = PreclusterMsg {
            centers,
            weights: vec![5.0, 7.0],
            outliers,
            t_i: 1,
        };
        let bytes = msg.encode();
        let back = PreclusterMsg::decode(bytes);
        assert_eq!(msg, back);
    }

    #[test]
    fn precluster_size_scales_with_points() {
        // B = 8 * dim per point + varint/weight overheads: the wire size
        // must grow linearly in centers + outliers, not in n_i.
        let dim = 4;
        fn mk_points(n: usize, dim: usize) -> PointSet {
            let mut ps = PointSet::new(dim);
            for i in 0..n {
                ps.push(&vec![i as f64; dim]);
            }
            ps
        }
        let mk = |nc: usize, no: usize| {
            PreclusterMsg {
                weights: vec![1.0; nc],
                centers: mk_points(nc, dim),
                outliers: mk_points(no, dim),
                t_i: no as u64,
            }
            .encode()
            .len()
        };
        let small = mk(2, 0);
        let big = mk(20, 10);
        // 18 extra centers at (8*4 + 8) bytes, 10 outliers at 8*4.
        assert!(big >= small + 18 * (8 * dim + 8) + 10 * 8 * dim);
    }

    #[test]
    fn threshold_roundtrip() {
        let m = ThresholdMsg {
            threshold: 2.5,
            i0: 3,
            q0: 17,
            exceptional: true,
        };
        assert_eq!(ThresholdMsg::decode(m.encode()), m);
        let m2 = ThresholdMsg {
            threshold: f64::INFINITY,
            i0: 0,
            q0: 0,
            exceptional: false,
        };
        assert_eq!(ThresholdMsg::decode(m2.encode()), m2);
    }

    #[test]
    fn empty_precluster() {
        let back = PreclusterMsg::decode(PreclusterMsg::empty(3).encode());
        assert_eq!(back.centers.len(), 0);
        assert_eq!(back.outliers.len(), 0);
    }
}
