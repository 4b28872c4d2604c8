//! Wire format for the continuous sync protocol.
//!
//! The sync rounds reuse `dpc_core`'s hull and threshold framing; the
//! final round needs one new message: a [`PreclusterMsg`]-shaped summary
//! whose outlier entries carry *weights* (summary points aggregate many
//! raw points, so excluded entries are weighted, unlike the unit-weight
//! outliers of the one-shot protocols). Every point still costs
//! `B = 8·dim` bytes plus 8 per weight, so [`dpc_coordinator::CommStats`]
//! charges syncs on the same scale as the batch protocols.
//!
//! [`PreclusterMsg`]: dpc_core::wire::PreclusterMsg

use bytes::Bytes;
use dpc_cluster::Solution;
use dpc_codec::Encoding;
use dpc_metric::{PointSet, WeightedSet, WireReader, WireWriter};

/// A site's weighted summary, shipped in the final sync round.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryMsg {
    /// Centers as raw coordinates.
    pub centers: PointSet,
    /// Retained weight per center.
    pub weights: Vec<f64>,
    /// Outlier entries as raw coordinates.
    pub outliers: PointSet,
    /// Excluded weight per outlier entry.
    pub outlier_weights: Vec<f64>,
    /// The site's outlier budget `t_i` for this sync.
    pub t_i: u64,
}

impl SummaryMsg {
    /// An empty summary for a site with no live weight.
    pub fn empty(dim: usize) -> Self {
        Self {
            centers: PointSet::new(dim),
            weights: Vec::new(),
            outliers: PointSet::new(dim),
            outlier_weights: Vec::new(),
            t_i: 0,
        }
    }

    /// Builds the message from a weighted [`Solution`] over `(pts, w)`.
    pub fn from_solution(pts: &PointSet, w: &WeightedSet, sol: &Solution, t_i: u64) -> Self {
        let mut excluded = vec![0.0f64; w.len()];
        for &(pos, xw) in &sol.outliers {
            excluded[pos] += xw;
        }
        let mut weights = vec![0.0f64; sol.centers.len()];
        let mut outliers = PointSet::new(pts.dim());
        let mut outlier_weights = Vec::new();
        for (pos, (id, weight)) in w.iter().enumerate() {
            let retained = weight - excluded[pos];
            if retained > 0.0 {
                weights[sol.assignment[pos]] += retained;
            }
            if excluded[pos] > 0.0 {
                outliers.push(pts.point(id));
                outlier_weights.push(excluded[pos]);
            }
        }
        Self {
            centers: pts.subset(&sol.centers),
            weights,
            outliers,
            outlier_weights,
            t_i,
        }
    }

    /// Appends the message's entries to a weighted instance.
    pub fn append_to(&self, pts: &mut PointSet, w: &mut WeightedSet) {
        crate::summary::append_weighted(
            pts,
            w,
            &self.centers,
            &self.weights,
            &self.outliers,
            &self.outlier_weights,
        );
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
        for (i, p) in self.outliers.iter() {
            w.put_point(p);
            w.put_f64(self.outlier_weights[i]);
        }
        w.put_varint(self.t_i);
        w
    }

    /// Serializes the summary uncompressed.
    pub fn encode(&self) -> Bytes {
        self.write().finish()
    }

    /// Serializes the summary inside a codec frame, reference-coded
    /// against `dict`: the site's *previous* sync upload at the same
    /// stage, as [`Self::encode_and_next_dict`] returned it.
    /// Consecutive summaries of a slowly drifting stream share most of
    /// their bytes, which is exactly what reference coding exploits.
    /// [`Encoding::Rlz`] always codes against `dict`, [`Encoding::F32`]
    /// codes its quantized body against a non-empty one, and
    /// [`Encoding::Raw`] ignores it and produces [`Self::encode`]'s
    /// bytes unchanged.
    pub fn encode_with(&self, encoding: Encoding, dict: &[u8]) -> Bytes {
        dpc_codec::frame(encoding, self.write(), dict)
    }

    /// [`Self::encode_with`], also returning the dictionary the site's
    /// next upload is coded against (see
    /// [`dpc_codec::frame_and_next_dict`]).
    pub fn encode_and_next_dict(&self, encoding: Encoding, dict: &[u8]) -> (Bytes, Bytes) {
        dpc_codec::frame_and_next_dict(encoding, self.write(), dict)
    }

    /// Deserializes a summary produced by [`Self::encode_with`] with the
    /// same encoding and dictionary. A reference-coded frame whose
    /// dictionary does not match panics rather than silently corrupting
    /// coordinates.
    pub fn decode_with(encoding: Encoding, buf: Bytes, dict: &[u8]) -> Self {
        Self::decode(dpc_codec::unframe(encoding, buf, dict))
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
        let mut outlier_weights = Vec::with_capacity(no);
        for _ in 0..no {
            r.read_point_into(dim, &mut p);
            outliers.push(&p);
            outlier_weights.push(r.get_f64());
        }
        let t_i = r.get_varint();
        SummaryMsg {
            centers,
            weights,
            outliers,
            outlier_weights,
            t_i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let msg = SummaryMsg {
            centers: PointSet::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
            weights: vec![5.5, 7.0],
            outliers: PointSet::from_rows(&[vec![9.0, 9.0]]),
            outlier_weights: vec![2.25],
            t_i: 3,
        };
        assert_eq!(SummaryMsg::decode(msg.encode()), msg);
    }

    #[test]
    fn empty_roundtrip() {
        let msg = SummaryMsg::empty(4);
        let back = SummaryMsg::decode(msg.encode());
        assert_eq!(back.centers.len(), 0);
        assert_eq!(back.outliers.len(), 0);
        assert_eq!(back.t_i, 0);
    }

    #[test]
    fn from_solution_conserves_weight() {
        let pts = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![50.0]]);
        let w = WeightedSet::from_parts(vec![0, 1, 2], vec![3.0, 2.0, 1.5]);
        let m = dpc_metric::EuclideanMetric::new(&pts);
        let sol = Solution::evaluate(&m, &w, vec![0], 1.5, dpc_metric::Objective::Median);
        let msg = SummaryMsg::from_solution(&pts, &w, &sol, 2);
        let total: f64 = msg.weights.iter().sum::<f64>() + msg.outlier_weights.iter().sum::<f64>();
        assert!((total - 6.5).abs() < 1e-12);
        assert!(msg.outlier_weights.iter().sum::<f64>() <= 1.5 + 1e-12);
    }
}
