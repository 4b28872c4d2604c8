//! Wire codecs for protocol payloads — the bicriteria compression layer
//! between messages and the transport.
//!
//! The source paper's entire objective is communication cost, and every
//! message in this workspace is charged its real serialized length. This
//! crate adds the other half of the trade: *shrink* those bytes, either
//! losslessly or against a declared per-coordinate error envelope, and
//! let experiments sweep the resulting bytes ⇄ quality frontier
//! (Farruggia et al., *Bicriteria data compression*; Gagie,
//! *RLZ-to-LZ77*, for the reference stage).
//!
//! ## The three modes
//!
//! | [`Encoding`] | kind     | guarantee |
//! |--------------|----------|-----------|
//! | `Raw`        | identity | bit-identical bytes — no frame header at all |
//! | `F32`        | lossy    | per coordinate `x`: error ≤ [`f32_declared_eps`]`(x)` |
//! | `Rlz`        | lossless | bit-identical round trip; decoding against the wrong reference fails loudly |
//!
//! Reference coding is a *stage*, not only a mode. Continuous syncs
//! carry a previous upload to copy from, so from the second sync on a
//! site's summary is RLZ-coded against its previous one: the raw
//! payload under `Rlz`, the quantized body under `F32` — so the
//! quantization and reference gains compose. `F32` is on the recorded
//! bytes ⇄ quality frontier (`BENCH_codec.json`) for both batch jobs and
//! continuous syncs; `Rlz` is the lossless rate on continuous syncs.
//!
//! ## How it plugs in
//!
//! Messages serialize through `dpc_metric`'s [`WireWriter`], which
//! records a [`CoordSpan`] for every run of point coordinates it writes.
//! [`frame`] consumes the writer: under `Raw` it returns the exact bytes
//! `finish()` would have (keeping pinned goldens byte-identical), under
//! any other mode it emits a self-describing frame
//!
//! ```text
//! varint version (= 1) · varint tag · varint raw_len · body
//! ```
//!
//! | tag | body |
//! |-----|------|
//! | 1   | `F32` quantized body |
//! | 4   | `Rlz`: RLZ phrases of the raw payload against the dictionary |
//! | 5   | `F32` with the reference stage: `varint quantized_len` · RLZ phrases of the quantized body against the dictionary |
//!
//! The `F32` body transforms only the recorded coordinate spans —
//! varints, weights, costs and every other scalar survive bit-exactly
//! under *every* mode. [`unframe`] inverts it; [`peek_raw_len`] lets the
//! protocol driver charge both compressed (wire) and raw byte totals
//! without decoding.
//!
//! The reference stage encodes its input as copy/literal phrases
//! against a caller-supplied dictionary: the previous frame's stage
//! input, which [`frame_and_next_dict`] returns (for the continuous
//! protocol: the same site's previous sync upload). `F32` runs the stage
//! only when the dictionary is non-empty, and tags the frame so; `Rlz`
//! always runs it. The RLZ phrases lead with a checksum of the
//! reference, so a decoder holding a different dictionary panics instead
//! of silently corrupting coordinates.

pub mod lossy;
pub mod rlz;

use bytes::Bytes;
pub use dpc_metric::encode::CoordSpan;
use dpc_metric::encode::WireWriter;
pub use lossy::f32_declared_eps;

/// Frame format version emitted by [`frame`].
pub const FRAME_VERSION: u64 = 1;

/// The wire encoding of protocol payloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Today's bytes, untouched: no frame header, bit-identical to the
    /// pre-codec wire format.
    #[default]
    Raw,
    /// Coordinates narrowed to IEEE-754 binary32 (4 bytes each), lossy
    /// within [`f32_declared_eps`] per coordinate.
    F32,
    /// Lossless reference coding: the payload becomes copy/literal
    /// phrases against a dictionary (e.g. the previous sync's summary).
    Rlz,
}

impl Encoding {
    /// All encodings, `Raw` first.
    pub const ALL: [Encoding; 3] = [Encoding::Raw, Encoding::F32, Encoding::Rlz];

    /// Stable lower-case name used by the CLI, artifacts and sweep
    /// tables.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Raw => "raw",
            Encoding::F32 => "f32",
            Encoding::Rlz => "rlz",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn parse(s: &str) -> Option<Encoding> {
        Encoding::ALL.into_iter().find(|e| e.name() == s)
    }

    /// Frame tag of this encoding (`Raw` has none: it is never framed).
    /// Tags 2 and 3 belonged to retired modes and stay unassigned; tag 5
    /// is `F32` with the reference stage.
    fn tag(self) -> u64 {
        match self {
            Encoding::Raw => 0,
            Encoding::F32 => 1,
            Encoding::Rlz => 4,
        }
    }

    fn from_tag(tag: u64) -> Option<Encoding> {
        Encoding::ALL.into_iter().find(|e| e.tag() == tag)
    }

    /// Whether decoded payloads are bit-identical to the originals.
    pub fn is_lossless(self) -> bool {
        self != Encoding::F32
    }

    /// The declared per-coordinate error envelope for value `x`:
    /// `None` for lossless modes, otherwise the bound the decoded
    /// coordinate is guaranteed to satisfy.
    pub fn declared_eps(self, x: f64) -> Option<f64> {
        (self == Encoding::F32).then(|| f32_declared_eps(x))
    }
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Frame tag of an `F32` frame whose quantized body then went through
/// the reference stage. The frame records the stage itself; a decoder
/// never infers it from whether it holds a dictionary. Not an
/// [`Encoding`] of its own: such frames decode under `F32`.
const TAG_F32_REFERENCED: u64 = 5;

/// Finishes a [`WireWriter`] under the given encoding.
///
/// `Raw` returns exactly the bytes [`WireWriter::finish`] would — no
/// header, bit-identical to the pre-codec wire format. Every other mode
/// returns a self-describing frame. `dict` is the reference dictionary
/// (pass `&[]` when there is none): `Rlz` always codes against it, and
/// `F32` codes its quantized body against a non-empty one. See
/// [`frame_and_next_dict`] for the dictionary a caller should keep.
///
/// Encoding is a pure function of `(encoding, payload, dict)`, which is
/// what keeps byte accounting deterministic across transports.
pub fn frame(encoding: Encoding, writer: WireWriter, dict: &[u8]) -> Bytes {
    frame_and_next_dict(encoding, writer, dict).0
}

/// [`frame`], also returning the reference stage's input: the
/// dictionary the next frame of the same stream should be coded
/// against. That is the quantized body under `F32` and the raw payload
/// otherwise, so a decoder that saw this frame holds it too.
pub fn frame_and_next_dict(encoding: Encoding, writer: WireWriter, dict: &[u8]) -> (Bytes, Bytes) {
    let (raw_len, stage_input) = match encoding {
        Encoding::Raw => {
            let payload = writer.finish();
            return (payload.clone(), payload);
        }
        Encoding::F32 => {
            let (payload, spans) = writer.finish_with_spans();
            (payload.len(), Bytes::from(lossy::encode(&payload, &spans)))
        }
        Encoding::Rlz => {
            let payload = writer.finish();
            (payload.len(), payload)
        }
    };
    let referenced = encoding == Encoding::Rlz || !dict.is_empty();
    let staged_f32 = encoding == Encoding::F32 && referenced;
    let tag = if staged_f32 {
        TAG_F32_REFERENCED
    } else {
        encoding.tag()
    };
    let mut out = Vec::with_capacity(stage_input.len() + 16);
    push_varint(&mut out, FRAME_VERSION);
    push_varint(&mut out, tag);
    push_varint(&mut out, raw_len as u64);
    if staged_f32 {
        push_varint(&mut out, stage_input.len() as u64);
    }
    if referenced {
        rlz::encode_into(&mut out, &stage_input, dict);
    } else {
        out.extend_from_slice(&stage_input);
    }
    (Bytes::from(out), stage_input)
}

/// Inverts [`frame`], returning the raw payload bytes.
///
/// # Panics
/// Panics when the frame's version or encoding tag disagrees with
/// `encoding` (the caller's configuration is authoritative — a mismatch
/// is a protocol bug, not a recoverable condition), on a malformed
/// body, and on a reference mismatch.
pub fn unframe(encoding: Encoding, buf: Bytes, dict: &[u8]) -> Bytes {
    if encoding == Encoding::Raw {
        return buf;
    }
    let mut pos = 0usize;
    let (found, staged_f32, raw_len) = read_header(&buf, &mut pos);
    assert_eq!(
        found, encoding,
        "codec frame encodes {found} but the protocol is configured for {encoding}"
    );
    let body = &buf[pos..];
    let raw = match encoding {
        Encoding::Raw => unreachable!("raw payloads are never framed"),
        Encoding::F32 if staged_f32 => {
            let mut at = 0usize;
            let quantized_len = read_varint(body, &mut at) as usize;
            let quantized = rlz::decode(&body[at..], quantized_len, dict);
            lossy::decode(&quantized, raw_len)
        }
        Encoding::F32 => lossy::decode(body, raw_len),
        Encoding::Rlz => rlz::decode(body, raw_len, dict),
    };
    debug_assert_eq!(raw.len(), raw_len);
    Bytes::from(raw)
}

/// Reads the raw (pre-compression) payload length from a frame header
/// without decoding the body — how the protocol driver charges both
/// byte totals per round.
///
/// # Panics
/// Panics when `buf` does not start with a valid frame header.
pub fn peek_raw_len(buf: &[u8]) -> usize {
    read_header(buf, &mut 0).2
}

/// Reads a frame header at `*pos`: the encoding, whether it is an `F32`
/// frame whose body went through the reference stage, and the raw
/// payload length.
fn read_header(buf: &[u8], pos: &mut usize) -> (Encoding, bool, usize) {
    let version = read_varint(buf, pos);
    assert_eq!(
        version, FRAME_VERSION,
        "not a codec frame of version {FRAME_VERSION} (is the protocol running Raw?)"
    );
    let tag = read_varint(buf, pos);
    let staged_f32 = tag == TAG_F32_REFERENCED;
    let encoding = if staged_f32 {
        Encoding::F32
    } else {
        Encoding::from_tag(tag).expect("unknown codec frame tag")
    };
    (encoding, staged_f32, read_varint(buf, pos) as usize)
}

/// Appends a LEB128 varint (the same format `WireWriter::put_varint`
/// emits).
pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it.
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
        assert!(shift < 64, "varint too long");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_writer() -> WireWriter {
        let mut w = WireWriter::new();
        w.put_varint(3);
        w.put_point(&[1.5, -2.25]);
        w.put_f64(0.125); // weight: must stay exact under every mode
        w.put_point(&[3.0, 4.0]);
        w.put_point(&[5.0, 6.0]);
        w.put_varint(999);
        w
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The sample with one coordinate drifted (4.0 -> 4.5): the previous
    /// message of the same stream, so a body coded against it mixes
    /// copies and a literal.
    fn drifted_writer() -> WireWriter {
        let mut w = WireWriter::new();
        w.put_varint(3);
        w.put_point(&[1.5, -2.25]);
        w.put_f64(0.125);
        w.put_point(&[3.0, 4.5]);
        w.put_point(&[5.0, 6.0]);
        w.put_varint(999);
        w
    }

    /// The exact framed bytes of the sample under every framed mode: the
    /// wire format itself, not just its round trip, is the contract.
    #[test]
    fn frame_bytes_are_pinned() {
        let dict = drifted_writer().finish();
        assert_eq!(
            hex(&frame(Encoding::F32, sample_writer(), &[])),
            "01013b020103010208000000000000c03f020202e707\
             010000c03f000010c00100004040000080400000a0400000c040"
        );
        assert_eq!(
            hex(&frame(Encoding::Rlz, sample_writer(), &[])),
            "01043b25232284e49cf2cb7603000000000000f83f00000000000002c0\
             000000000000c03f000000000000084000000000000010400000000000\
             0014400000000000001840e707"
        );
        assert_eq!(
            hex(&frame(Encoding::Rlz, sample_writer(), &dict)),
            "01043bc007f5410053d8504f0002102728"
        );
        // F32 with a dictionary: the reference stage codes the quantized
        // body against the drifted sample's quantized body (tag 5).
        let (_, f32_dict) = frame_and_next_dict(Encoding::F32, drifted_writer(), &[]);
        assert_eq!(
            hex(&frame(Encoding::F32, sample_writer(), &f32_dict)),
            "01053b2de01dba3bbf9b1a98470002801324"
        );
    }

    #[test]
    fn raw_frame_is_the_identity() {
        let plain = sample_writer().finish();
        let framed = frame(Encoding::Raw, sample_writer(), &[]);
        assert_eq!(plain, framed);
        assert_eq!(unframe(Encoding::Raw, framed.clone(), &[]), plain);
    }

    #[test]
    fn every_mode_round_trips_the_sample() {
        let plain = sample_writer().finish();
        for enc in Encoding::ALL {
            let framed = frame(enc, sample_writer(), &[]);
            let back = unframe(enc, framed.clone(), &[]);
            assert_eq!(back.len(), plain.len(), "{enc}");
            if enc.is_lossless() {
                assert_eq!(back, plain, "{enc}");
            }
            if enc != Encoding::Raw {
                assert_eq!(peek_raw_len(&framed), plain.len(), "{enc}");
            }
        }
    }

    #[test]
    fn lossy_modes_respect_declared_eps_on_the_sample() {
        let plain = sample_writer().finish();
        for enc in Encoding::ALL.into_iter().filter(|e| !e.is_lossless()) {
            let back = unframe(enc, frame(enc, sample_writer(), &[]), &[]);
            assert_eq!(back.len(), plain.len(), "{enc}");
            // Coordinates: positions after the 1-byte varint.
            let coords = [1.5, -2.25, 3.0, 4.0, 5.0, 6.0];
            let mut at = 1;
            for (idx, &x) in coords.iter().enumerate() {
                if idx == 2 {
                    at += 8; // skip the exact weight
                }
                let got = f64::from_le_bytes(back[at..at + 8].try_into().unwrap());
                assert!(
                    (got - x).abs() <= enc.declared_eps(x).unwrap(),
                    "{enc}: {x} -> {got}"
                );
                at += 8;
            }
            // The weight survives bit-exactly.
            let w = f64::from_le_bytes(back[17..25].try_into().unwrap());
            assert_eq!(w, 0.125, "{enc}");
        }
    }

    #[test]
    fn names_parse_back() {
        for enc in Encoding::ALL {
            assert_eq!(Encoding::parse(enc.name()), Some(enc));
            assert_eq!(Encoding::from_tag(enc.tag()), Some(enc));
        }
        assert_eq!(Encoding::parse("zstd"), None);
    }

    #[test]
    #[should_panic(expected = "configured for")]
    fn unframe_rejects_mode_mismatch() {
        let framed = frame(Encoding::Rlz, sample_writer(), &[]);
        unframe(Encoding::F32, framed, &[]);
    }

    #[test]
    fn empty_payload_frames_and_unframes() {
        for enc in Encoding::ALL {
            let framed = frame(enc, WireWriter::new(), &[]);
            let back = unframe(enc, framed, &[]);
            assert!(back.is_empty(), "{enc}");
        }
    }
}
