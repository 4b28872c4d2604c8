//! Compact wire encoding for coordinator-model messages.
//!
//! The paper counts communication in bits, with `B` the encoding of a point
//! and `I` the encoding of an uncertain node. To make the reproduced
//! communication numbers *real*, every message in this workspace is actually
//! serialized through this module and charged its byte length:
//!
//! * `f64` coordinates: 8 bytes each, so `B = 8·dim + O(1)`;
//! * counts / ids: LEB128 varints (small counts are cheap, matching the
//!   `O(log n)` bit intuition);
//! * an uncertain node: its support ids, probabilities and cached values,
//!   so `I = O(support · (B + 8))`.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A run of coordinate doubles inside an encoded message: `rows`
/// consecutive points of `dim` doubles each, starting at byte offset
/// `start`. [`WireWriter`] records one span per [`WireWriter::put_point`]
/// / [`WireWriter::put_f64_slice`] call (merging adjacent calls of the
/// same width), so a codec layered above the wire format can transform
/// coordinate payloads without knowing any message's structure. Scalars
/// written through [`WireWriter::put_f64`] (weights, costs, thresholds)
/// are deliberately *not* spans and stay exact under every codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoordSpan {
    /// Byte offset of the first double.
    pub start: usize,
    /// Number of points (rows) in the run.
    pub rows: usize,
    /// Doubles per point.
    pub dim: usize,
}

impl CoordSpan {
    /// Total doubles covered by the span.
    pub fn values(&self) -> usize {
        self.rows * self.dim
    }

    /// Byte length of the span (`values() * 8`).
    pub fn byte_len(&self) -> usize {
        self.values() * 8
    }
}

/// Serializer with byte accounting.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
    spans: Vec<CoordSpan>,
}

impl WireWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self {
            buf: BytesMut::new(),
            spans: Vec::new(),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes and returns the encoded message.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Finishes and returns the encoded message together with the
    /// coordinate spans recorded while writing it (the codec entry
    /// point; plain [`WireWriter::finish`] drops the spans).
    pub fn finish_with_spans(self) -> (Bytes, Vec<CoordSpan>) {
        (self.buf.freeze(), self.spans)
    }

    /// Writes an IEEE-754 double (8 bytes, little endian).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Records `dim` doubles about to be written at the current offset
    /// as coordinate data, merging with the previous span when the two
    /// are contiguous and the widths match.
    fn note_span(&mut self, dim: usize) {
        if dim == 0 {
            return;
        }
        let start = self.buf.len();
        if let Some(last) = self.spans.last_mut() {
            if last.dim == dim && last.start + last.byte_len() == start {
                last.rows += 1;
                return;
            }
        }
        self.spans.push(CoordSpan {
            start,
            rows: 1,
            dim,
        });
    }

    /// Writes an unsigned integer as a LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Writes a point as `dim` doubles (the caller fixes `dim` contextually,
    /// so it is not re-encoded per point).
    pub fn put_point(&mut self, coords: &[f64]) {
        self.note_span(coords.len());
        for &c in coords {
            self.put_f64(c);
        }
    }

    /// Writes a length-prefixed list of doubles.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_varint(vs.len() as u64);
        self.note_span(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }
}

/// Deserializer matching [`WireWriter`].
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wraps an encoded message.
    pub fn new(buf: Bytes) -> Self {
        Self { buf }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Reads an `f64`.
    ///
    /// # Panics
    /// Panics on underflow (messages in this workspace are framed by
    /// construction; a short read is a protocol bug).
    pub fn get_f64(&mut self) -> f64 {
        self.buf.get_f64_le()
    }

    /// Reads a LEB128 varint.
    ///
    /// # Panics
    /// Panics on underflow or a varint longer than 10 bytes.
    pub fn get_varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.buf.get_u8();
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return v;
            }
            shift += 7;
            assert!(shift < 64, "varint too long");
        }
    }

    /// Reads a `dim`-dimensional point.
    pub fn get_point(&mut self, dim: usize) -> Vec<f64> {
        (0..dim).map(|_| self.get_f64()).collect()
    }

    /// Reads a `dim`-dimensional point into `out`, reusing its
    /// allocation. Decode loops that read many points per message (hull
    /// and summary payloads) call this with one scratch buffer instead of
    /// allocating a fresh `Vec<f64>` per point.
    pub fn read_point_into(&mut self, dim: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(dim);
        for _ in 0..dim {
            out.push(self.get_f64());
        }
    }

    /// Reads a length-prefixed list of doubles.
    ///
    /// # Panics
    /// Panics on underflow, like [`WireReader::get_f64`]. The up-front
    /// allocation is capped at the doubles the message still holds, so a
    /// corrupt count panics on the short read instead of aborting the
    /// process in the allocator.
    pub fn get_f64_slice(&mut self) -> Vec<f64> {
        let n = self.get_varint() as usize;
        let mut out = Vec::with_capacity(n.min(self.remaining() / 8));
        for _ in 0..n {
            out.push(self.get_f64());
        }
        out
    }
}

/// Bytes needed for one point of the given dimension (`B` in the paper).
pub fn point_bytes(dim: usize) -> usize {
    8 * dim
}

/// Bytes of the varint encoding of `v` (for analytic cross-checks in tests).
pub fn varint_bytes(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let mut w = WireWriter::new();
        w.put_f64(3.5);
        w.put_f64(-0.0);
        w.put_f64(f64::MAX);
        assert_eq!(w.len(), 24);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_f64(), 3.5);
        assert_eq!(r.get_f64(), -0.0);
        assert_eq!(r.get_f64(), f64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        let vals = [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut w = WireWriter::new();
        for &v in &vals {
            w.put_varint(v);
        }
        let mut r = WireReader::new(w.finish());
        for &v in &vals {
            assert_eq!(r.get_varint(), v);
        }
    }

    #[test]
    fn varint_size_accounting() {
        for &(v, sz) in &[(0u64, 1usize), (127, 1), (128, 2), (16383, 2), (16384, 3)] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            assert_eq!(w.len(), sz, "value {v}");
            assert_eq!(varint_bytes(v), sz, "analytic size for {v}");
        }
    }

    #[test]
    fn point_roundtrip_and_b() {
        let p = vec![1.0, 2.0, 3.0];
        let mut w = WireWriter::new();
        w.put_point(&p);
        assert_eq!(w.len(), point_bytes(3));
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_point(3), p);
    }

    #[test]
    fn slice_roundtrip() {
        let mut w = WireWriter::new();
        w.put_f64_slice(&[1.0, 2.0]);
        w.put_f64_slice(&[]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_f64_slice(), vec![1.0, 2.0]);
        assert_eq!(r.get_f64_slice(), Vec::<f64>::new());
    }

    #[test]
    fn a_huge_slice_count_panics_on_the_short_read() {
        // A count of 2⁴⁰ doubles over 16 bytes of payload: sized from the
        // count, the vector would abort the process in the allocator.
        let mut w = WireWriter::new();
        w.put_varint(1 << 40);
        w.put_f64(1.0);
        w.put_f64(2.0);
        let buf = w.finish();
        let got = std::panic::catch_unwind(move || WireReader::new(buf).get_f64_slice());
        assert!(got.is_err(), "a short slice must panic");
    }

    #[test]
    fn into_variants_reuse_one_buffer() {
        let points = [vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let mut w = WireWriter::new();
        for p in &points {
            w.put_point(p);
        }
        let mut r = WireReader::new(w.finish());
        let mut buf = Vec::new();
        for p in &points {
            r.read_point_into(3, &mut buf);
            assert_eq!(&buf, p);
        }
        assert_eq!(r.remaining(), 0);
    }
}
