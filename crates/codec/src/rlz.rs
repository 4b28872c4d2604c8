//! Reference-based (RLZ-style) lossless coding.
//!
//! The input is parsed greedily into copy/literal phrases against a
//! reference dictionary the caller supplies — in the continuous
//! protocol, the same site's previous sync upload at the same stage
//! (its raw summary under `Rlz`, its quantized body under `F32`), so
//! round `r+1`'s summary ships as a handful of copies plus the
//! coordinates that actually drifted. With an empty dictionary it
//! degrades to one literal phrase (a few bytes of overhead).
//!
//! The body leads with an FNV-1a checksum of the dictionary. A decoder
//! holding any other reference — the classic desync failure of
//! reference coding — panics immediately instead of silently
//! reconstructing corrupt coordinates.

use crate::{push_varint, read_varint};

/// Minimum copy length: shorter matches cost more to describe than to
/// ship literally (also the anchor width).
const MIN_MATCH: usize = 8;

/// Cap on copy candidates tried per anchor — keeps pathological
/// dictionaries (one repeated byte) from going quadratic.
const MAX_CHAIN: usize = 8;

/// 64-bit FNV-1a over the dictionary bytes.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn anchor(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + MIN_MATCH].try_into().unwrap())
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Phrase tokens: `varint head` where the low bit selects the kind and
/// the rest is the length. Copy: `head = len << 1 | 1`, then
/// `varint offset` into the dictionary. Literal: `head = len << 1`,
/// then `len` raw bytes.
fn push_literal(out: &mut Vec<u8>, lit: &[u8]) {
    if lit.is_empty() {
        return;
    }
    push_varint(out, (lit.len() as u64) << 1);
    out.extend_from_slice(lit);
}

/// End-of-chain marker of [`AnchorIndex`].
const NIL: usize = usize::MAX;

/// The dictionary's anchors as flat hash chains: `head` holds each
/// bucket's lowest position and `next` links every position to the next
/// higher one in its bucket. Building it allocates twice, whatever the
/// number of distinct anchors.
struct AnchorIndex<'a> {
    dict: &'a [u8],
    shift: u32,
    head: Vec<usize>,
    next: Vec<usize>,
}

impl<'a> AnchorIndex<'a> {
    fn new(dict: &'a [u8]) -> Self {
        let starts = (dict.len() + 1).saturating_sub(MIN_MATCH);
        // At least twice as many buckets as anchors keeps chains short.
        let buckets = (2 * starts).max(2).next_power_of_two();
        let mut index = Self {
            dict,
            shift: 64 - buckets.trailing_zeros(),
            head: vec![NIL; buckets],
            next: vec![NIL; starts],
        };
        // Inserting from the back leaves every chain in ascending order.
        for at in (0..starts).rev() {
            let b = index.bucket(anchor(dict, at));
            index.next[at] = index.head[b];
            index.head[b] = at;
        }
        index
    }

    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The copy candidates for `key`: the [`MAX_CHAIN`] lowest dictionary
    /// positions holding exactly that anchor, lowest first.
    fn candidates(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.head[self.bucket(key)];
        std::iter::from_fn(move || {
            while at != NIL {
                let here = at;
                at = self.next[here];
                if anchor(self.dict, here) == key {
                    return Some(here);
                }
            }
            None
        })
        .take(MAX_CHAIN)
    }
}

/// Appends the `Rlz` coding of `payload` to `out`: the dictionary's
/// checksum, then copy/literal phrases against `dict`.
pub(crate) fn encode_into(out: &mut Vec<u8>, payload: &[u8], dict: &[u8]) {
    out.reserve(payload.len() / 4 + 16);
    out.extend_from_slice(&fnv1a(dict).to_le_bytes());
    let index = AnchorIndex::new(dict);
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= payload.len() {
        let best = index
            .candidates(anchor(payload, i))
            .map(|at| (common_prefix(&payload[i..], &dict[at..]), at))
            .max();
        match best {
            Some((len, at)) if len >= MIN_MATCH => {
                push_literal(out, &payload[lit_start..i]);
                push_varint(out, ((len as u64) << 1) | 1);
                push_varint(out, at as u64);
                i += len;
                lit_start = i;
            }
            _ => i += 1,
        }
    }
    push_literal(out, &payload[lit_start..]);
}

/// Inverts [`encode_into`], reconstructing exactly `raw_len` payload bytes.
///
/// # Panics
/// Panics on a malformed body, or on a dictionary that does not match
/// the one the body was encoded against — loud failure, never silent
/// corruption.
pub(crate) fn decode(body: &[u8], raw_len: usize, dict: &[u8]) -> Vec<u8> {
    assert!(body.len() >= 8, "rlz codec: truncated body");
    let want = u64::from_le_bytes(body[..8].try_into().expect("8-byte checksum"));
    assert_eq!(
        want,
        fnv1a(dict),
        "RLZ reference mismatch: this frame was encoded against a \
         different dictionary (checksum {want:#018x}); refusing to \
         decode rather than silently corrupt the payload"
    );
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 8usize;
    while pos < body.len() {
        let head = read_varint(body, &mut pos);
        let len = (head >> 1) as usize;
        if head & 1 == 1 {
            let at = read_varint(body, &mut pos) as usize;
            let end = at.checked_add(len).expect("rlz codec: copy overflow");
            assert!(
                end <= dict.len(),
                "rlz codec: copy [{at}, {end}) exceeds the {}-byte dictionary",
                dict.len()
            );
            out.extend_from_slice(&dict[at..end]);
        } else {
            out.extend_from_slice(&body[pos..pos + len]);
            pos += len;
        }
    }
    assert_eq!(out.len(), raw_len, "rlz codec: length mismatch");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(payload: &[u8], dict: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        encode_into(&mut body, payload, dict);
        body
    }

    fn roundtrip(payload: &[u8], dict: &[u8]) -> usize {
        let body = encode(payload, dict);
        assert_eq!(decode(&body, payload.len(), dict), payload);
        body.len()
    }

    #[test]
    fn empty_dictionary_degrades_to_literals() {
        let payload: Vec<u8> = (0u8..=200).collect();
        let n = roundtrip(&payload, &[]);
        assert!(n <= payload.len() + 12, "{n}");
        roundtrip(&[], &[]);
    }

    #[test]
    fn identical_payload_collapses_to_one_copy() {
        let dict: Vec<u8> = (0..400).map(|i| (i * 7 % 251) as u8).collect();
        let n = roundtrip(&dict, &dict);
        assert!(n <= 8 + 6, "identical payload should be one copy: {n}");
    }

    #[test]
    fn drifted_payload_mixes_copies_and_literals() {
        let dict: Vec<u8> = (0..512).map(|i| (i * 13 % 241) as u8).collect();
        let mut payload = dict.clone();
        // Perturb a few scattered bytes — the drifted-summary shape.
        for &at in &[40usize, 200, 333] {
            payload[at] ^= 0xff;
        }
        let n = roundtrip(&payload, &dict);
        assert!(n < payload.len() / 4, "drifted payload barely changed: {n}");
    }

    #[test]
    #[should_panic(expected = "RLZ reference mismatch")]
    fn wrong_reference_fails_loudly() {
        let dict: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let body = encode(&dict, &dict);
        let mut wrong = dict.clone();
        wrong[10] = 99;
        decode(&body, dict.len(), &wrong);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_copy_is_rejected() {
        let dict = [1u8, 2, 3];
        let mut body = fnv1a(&dict).to_le_bytes().to_vec();
        push_varint(&mut body, (100u64 << 1) | 1); // copy of len 100
        push_varint(&mut body, 0);
        decode(&body, 100, &dict);
    }
}
