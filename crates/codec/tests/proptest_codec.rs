//! Properties of the wire codec subsystem, over arbitrary messages
//! built from the same ops real protocol messages use:
//!
//! * lossless modes (`raw`, `rlz`) round-trip **bit-identically**;
//! * the lossy mode (`f32`) keeps every coordinate within its
//!   declared error envelope and leave every non-coordinate byte —
//!   varints, weights, costs — bit-exact;
//! * `rlz` decoded against the wrong reference dictionary fails loudly
//!   instead of silently corrupting the payload;
//! * `peek_raw_len` reads the true pre-compression length off every
//!   non-raw frame without decoding it;
//! * `f32`'s reference stage is lossless over the quantized body: with
//!   any dictionary it decodes to exactly the dictionary-free `f32`
//!   bytes, and against the wrong dictionary it fails loudly.

use dpc_codec::rlz::fnv1a;
use dpc_codec::{frame, frame_and_next_dict, peek_raw_len, unframe, Encoding};
use dpc_metric::encode::{varint_bytes, WireWriter};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One serialization op — the alphabet protocol messages are composed
/// from. `Scalar` is a non-coordinate double (a weight or a cost) that
/// must survive bit-exactly under *every* mode; `Point` and `Slice`
/// emit coordinate spans the codecs are allowed to transform.
#[derive(Clone, Debug)]
enum Op {
    Varint(u64),
    Scalar(f64),
    Point(Vec<f64>),
    Slice(Vec<f64>),
}

/// Coordinate values: clustered magnitudes, unit-scale values, signed
/// zeros, subnormal-adjacent values, and values beyond the f32
/// finite range (which must trigger the verbatim span fallback).
fn coord() -> impl Strategy<Value = f64> {
    (0u64..12, -1.0f64..1.0).prop_map(|(sel, u)| match sel {
        0..=4 => u * 1e6,
        5..=7 => u,
        8 => 0.0,
        9 => -0.0,
        10 => u * 1e-30,
        _ => u * 1e40,
    })
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u64..4,
        any::<u64>(),
        coord(),
        prop::collection::vec(coord(), 1..6),
        prop::collection::vec(coord(), 0..12),
    )
        .prop_map(|(kind, v, scalar, point, slice)| match kind {
            0 => Op::Varint(v),
            1 => Op::Scalar(scalar),
            2 => Op::Point(point),
            _ => Op::Slice(slice),
        })
}

fn message() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op(), 0..24)
}

/// Replays the ops into a fresh writer, also returning the byte offset
/// and value of every coordinate double and the offset of every exact
/// (non-coordinate) double.
fn build(ops: &[Op]) -> (WireWriter, Vec<(usize, f64)>, Vec<usize>) {
    let mut w = WireWriter::new();
    let mut coords = Vec::new();
    let mut exact = Vec::new();
    for op in ops {
        match op {
            Op::Varint(v) => w.put_varint(*v),
            Op::Scalar(v) => {
                exact.push(w.len());
                w.put_f64(*v);
            }
            Op::Point(p) => {
                for (i, &c) in p.iter().enumerate() {
                    coords.push((w.len() + i * 8, c));
                }
                w.put_point(p);
            }
            Op::Slice(vs) => {
                let base = w.len() + varint_bytes(vs.len() as u64);
                for (i, &c) in vs.iter().enumerate() {
                    coords.push((base + i * 8, c));
                }
                w.put_f64_slice(vs);
            }
        }
    }
    (w, coords, exact)
}

fn read_f64(buf: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// A reference dictionary for an `f32` frame of `ops`: none, unrelated
/// bytes, or the message's own quantized body with a few bytes flipped
/// (the drifted previous sync).
fn f32_dict(ops: &[Op], kind: u8, noise: &[u8], flips: &[(usize, u8)]) -> Vec<u8> {
    match kind {
        0 => Vec::new(),
        1 => noise.to_vec(),
        _ => {
            let mut body = frame_and_next_dict(Encoding::F32, build(ops).0, &[])
                .1
                .to_vec();
            for &(at, flip) in flips {
                if !body.is_empty() {
                    let at = at % body.len();
                    body[at] ^= flip;
                }
            }
            body
        }
    }
}

proptest! {
    /// Lossless modes reconstruct the exact raw bytes, and the frame
    /// header reports the exact raw length without decoding.
    #[test]
    fn lossless_modes_round_trip_bit_identically(
        ops in message(),
        dict in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let raw = build(&ops).0.finish();
        for enc in Encoding::ALL.into_iter().filter(|e| e.is_lossless()) {
            let framed = frame(enc, build(&ops).0, &dict);
            if enc != Encoding::Raw {
                prop_assert_eq!(peek_raw_len(&framed), raw.len(), "{}", enc);
            }
            let back = unframe(enc, framed, &dict);
            prop_assert_eq!(&back, &raw, "{}", enc);
        }
    }

    /// Lossy modes keep every coordinate within the declared envelope
    /// and every non-coordinate byte bit-exact.
    #[test]
    fn lossy_modes_respect_the_declared_envelope(ops in message()) {
        let (w, coords, exact) = build(&ops);
        let raw = w.finish();
        for enc in Encoding::ALL.into_iter().filter(|e| !e.is_lossless()) {
            let back = unframe(enc, frame(enc, build(&ops).0, &[]), &[]);
            prop_assert_eq!(back.len(), raw.len(), "{}", enc);
            // Every coordinate honors the per-value error bound.
            for &(at, x) in &coords {
                let got = read_f64(&back, at);
                let eps = enc.declared_eps(x).expect("lossy mode declares eps");
                prop_assert!(
                    (got - x).abs() <= eps,
                    "{}: coordinate {} decoded to {} (eps {})", enc, x, got, eps
                );
            }
            // Exact doubles survive bit-for-bit.
            for &at in &exact {
                prop_assert_eq!(
                    read_f64(&back, at).to_bits(),
                    read_f64(&raw, at).to_bits(),
                    "{}: non-coordinate double must be exact", enc
                );
            }
            // And so does everything outside the coordinate spans:
            // blank the coordinate windows on both sides and compare.
            let mut raw_rest = raw.to_vec();
            let mut back_rest = back.to_vec();
            for &(at, _) in &coords {
                raw_rest[at..at + 8].fill(0);
                back_rest[at..at + 8].fill(0);
            }
            prop_assert_eq!(raw_rest, back_rest, "{}", enc);
        }
    }

    /// RLZ against a perturbed dictionary panics instead of decoding;
    /// the matching dictionary still round-trips the same frame.
    #[test]
    fn rlz_wrong_reference_fails_loudly(
        ops in message(),
        dict in prop::collection::vec(0u8..=255, 1..256),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let framed = frame(Encoding::Rlz, build(&ops).0, &dict);
        let mut wrong = dict.clone();
        wrong[at % dict.len()] ^= flip;
        // The checksum is what detects the desync; skip the (never yet
        // observed) case of an FNV collision between the two references.
        if fnv1a(&wrong) != fnv1a(&dict) {
            let framed2 = framed.clone();
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                unframe(Encoding::Rlz, framed2, &wrong)
            }));
            prop_assert!(outcome.is_err(), "wrong reference must not decode");
        }
        let raw = build(&ops).0.finish();
        prop_assert_eq!(unframe(Encoding::Rlz, framed, &dict), raw);
    }

    /// `f32` with a dictionary decodes bit for bit to what `f32` without
    /// one decodes to, reports the raw length, keeps the quantized body
    /// as the next dictionary, and refuses the wrong dictionary.
    #[test]
    fn f32_reference_stage_is_lossless_over_the_quantized_body(
        ops in message(),
        kind in 0u8..3,
        noise in prop::collection::vec(0u8..=255, 1..256),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let dict = f32_dict(&ops, kind, &noise, &flips);
        let raw_len = build(&ops).0.finish().len();
        let (plain, body) = frame_and_next_dict(Encoding::F32, build(&ops).0, &[]);
        let (framed, next) = frame_and_next_dict(Encoding::F32, build(&ops).0, &dict);
        prop_assert_eq!(&next, &body, "the next dictionary is the quantized body");
        if dict.is_empty() {
            prop_assert_eq!(&framed, &plain, "no dictionary, no stage");
        }
        prop_assert_eq!(peek_raw_len(&framed), raw_len);
        let want = unframe(Encoding::F32, plain, &[]);
        prop_assert_eq!(&unframe(Encoding::F32, framed.clone(), &dict), &want);
        if !dict.is_empty() {
            let mut wrong = dict.clone();
            wrong[at % dict.len()] ^= flip;
            if fnv1a(&wrong) != fnv1a(&dict) {
                let outcome = catch_unwind(AssertUnwindSafe(move || {
                    unframe(Encoding::F32, framed, &wrong)
                }));
                let err = outcome.expect_err("wrong reference must not decode");
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| err.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                prop_assert!(msg.contains("RLZ reference mismatch"), "panicked with {:?}", msg);
            }
        }
    }
}
