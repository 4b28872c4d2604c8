//! Lossy coordinate narrowing: `F32` (binary32, 4 bytes/coordinate).
//!
//! Each coordinate is cast directly to `f32` — there is deliberately no
//! shared scale factor. A per-span or per-frame scale would make the
//! error *absolute* in the span's range, so one far outlier (exactly
//! what partial clustering workloads contain) would destroy the
//! precision of every clustered coordinate. A direct cast keeps the
//! error *relative* to each coordinate's own magnitude, which is what
//! the declared envelope promises.
//!
//! A span whose values exceed `f32`'s finite range falls back to
//! verbatim `f64` storage (one flag byte per span), so the envelope
//! holds for every payload, not just well-scaled ones. NaN and ±∞
//! survive as themselves.
//!
//! The body is a skeleton — the payload's non-coordinate bytes verbatim
//! plus the span table — followed by each span's flag and values, so
//! decoding needs no knowledge of any message's layout.

use crate::{push_varint, read_varint, CoordSpan};

/// Declared per-coordinate error envelope of [`Encoding::F32`]:
/// `|x|·2⁻²³ + 2⁻¹⁴⁰`.
///
/// A binary32 round-to-nearest carries relative error at most `2⁻²⁴`;
/// the declared bound doubles it for slack and adds a tiny absolute
/// floor covering subnormal underflow (values below the binary32
/// subnormal range round to zero with absolute error < `2⁻¹⁴⁹`).
///
/// [`Encoding::F32`]: crate::Encoding::F32
pub fn f32_declared_eps(x: f64) -> f64 {
    x.abs() * (2.0f64).powi(-23) + (2.0f64).powi(-140)
}

/// Largest finite `f32`, widened.
const F32_MAX: f64 = f32::MAX as f64;

/// Span flag: values stored as `f32`.
const NARROW: u8 = 1;
/// Span flag: values stored verbatim as `f64` (out-of-range fallback).
const VERBATIM: u8 = 0;

/// Transforms a raw payload into an `F32` frame body.
pub(crate) fn encode(payload: &[u8], spans: &[CoordSpan]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() / 2 + 16);
    write_skeleton(&mut out, payload, spans);
    for span in spans {
        let bytes = &payload[span.start..span.start + span.byte_len()];
        let values: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        // NaN and ±∞ map to themselves and never block narrowing.
        if values.iter().all(|v| !v.is_finite() || v.abs() <= F32_MAX) {
            out.push(NARROW);
            for v in values {
                out.extend_from_slice(&(v as f32).to_le_bytes());
            }
        } else {
            out.push(VERBATIM);
            out.extend_from_slice(bytes);
        }
    }
    out
}

/// Inverts [`encode`], reconstructing exactly `raw_len` payload bytes.
///
/// # Panics
/// Panics on a malformed body.
pub(crate) fn decode(body: &[u8], raw_len: usize) -> Vec<u8> {
    let mut pos = 0usize;
    let (mut payload, spans) = read_skeleton(body, &mut pos);
    for span in &spans {
        let flag = body[pos];
        pos += 1;
        let region = &mut payload[span.start..span.start + span.byte_len()];
        match flag {
            NARROW => {
                let narrow = &body[pos..pos + span.values() * 4];
                for (out, b) in region.chunks_exact_mut(8).zip(narrow.chunks_exact(4)) {
                    let v = f64::from(f32::from_le_bytes(b.try_into().expect("4-byte chunk")));
                    out.copy_from_slice(&v.to_le_bytes());
                }
                pos += narrow.len();
            }
            VERBATIM => {
                region.copy_from_slice(&body[pos..pos + region.len()]);
                pos += region.len();
            }
            other => panic!("lossy codec: bad span flag {other}"),
        }
    }
    assert_eq!(pos, body.len(), "lossy codec: trailing bytes in body");
    assert_eq!(payload.len(), raw_len, "lossy codec: length mismatch");
    payload
}

/// Writes the gap/tail bytes and the span table.
fn write_skeleton(out: &mut Vec<u8>, payload: &[u8], spans: &[CoordSpan]) {
    push_varint(out, spans.len() as u64);
    let mut cursor = 0usize;
    for s in spans {
        push_varint(out, (s.start - cursor) as u64);
        out.extend_from_slice(&payload[cursor..s.start]);
        push_varint(out, s.rows as u64);
        push_varint(out, s.dim as u64);
        cursor = s.start + s.byte_len();
    }
    push_varint(out, (payload.len() - cursor) as u64);
    out.extend_from_slice(&payload[cursor..]);
}

/// Reads the skeleton back: returns the reconstructed payload with span
/// regions zero-filled (for the span values to overwrite) and the span
/// table, advancing `pos` past the skeleton.
fn read_skeleton(body: &[u8], pos: &mut usize) -> (Vec<u8>, Vec<CoordSpan>) {
    let n_spans = read_varint(body, pos) as usize;
    let mut payload = Vec::new();
    let mut spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        let gap = read_varint(body, pos) as usize;
        payload.extend_from_slice(&body[*pos..*pos + gap]);
        *pos += gap;
        let rows = read_varint(body, pos) as usize;
        let dim = read_varint(body, pos) as usize;
        let span = CoordSpan {
            start: payload.len(),
            rows,
            dim,
        };
        payload.resize(payload.len() + span.byte_len(), 0);
        spans.push(span);
    }
    let tail = read_varint(body, pos) as usize;
    payload.extend_from_slice(&body[*pos..*pos + tail]);
    *pos += tail;
    (payload, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[f64]) -> Vec<f64> {
        let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let spans = [CoordSpan {
            start: 0,
            rows: 1,
            dim: values.len(),
        }];
        let back = decode(&encode(&payload, &spans), payload.len());
        back.chunks(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn f32_error_within_declared_envelope() {
        let values = [0.0, 1.0, -1.0, std::f64::consts::PI, 1e-40, 1e39, -400.125];
        // 1e39 exceeds f32::MAX: whole span falls back to verbatim.
        let back = roundtrip(&values);
        assert_eq!(back, values, "out-of-range span must be verbatim");
        let small = [0.0, 1.0000001, -123.456, 1e-30, 9.9e4];
        for (x, y) in small.iter().zip(roundtrip(&small)) {
            assert!((x - y).abs() <= f32_declared_eps(*x), "{x} -> {y}");
        }
    }

    #[test]
    fn specials_survive() {
        let values = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0];
        let back = roundtrip(&values);
        assert_eq!(back[0], f64::INFINITY);
        assert_eq!(back[1], f64::NEG_INFINITY);
        assert!(back[2].is_nan());
        assert_eq!(back[3].to_bits(), 0.0f64.to_bits());
        assert_eq!(back[4].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn narrow_spans_shrink_bytes() {
        let values: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let spans = [CoordSpan {
            start: 0,
            rows: 16,
            dim: 4,
        }];
        let body = encode(&payload, &spans);
        assert!(body.len() < payload.len() * 3 / 5, "{}", body.len());
    }
}
