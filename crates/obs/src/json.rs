//! The workspace's hand-rolled JSON layer: a minimal parser plus the
//! shared writer helpers used by the artifact schema and the trace
//! schema.
//!
//! The workspace has no serialization dependency, so every JSON document
//! in it is written and read by hand. The reading half is a small
//! recursive-descent parser covering exactly the JSON this workspace
//! emits — objects, arrays, strings (with `\uXXXX` escapes), finite
//! numbers, booleans and `null`. The writing half is a handful of
//! formatting helpers ([`escape`], [`json_f64`], [`usize_array`],
//! [`dur_to_ns`]/[`ns_to_dur`], [`dur_to_ms`]) shared by
//! `dpc_api::Artifact` and [`crate::Trace`] so Duration and byte-vector
//! serialization is defined in exactly one place.

use std::collections::BTreeMap;
use std::time::Duration;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with a sign, fraction or exponent (parsed as `f64`).
    Num(f64),
    /// A plain unsigned-integer literal, kept exact — `f64` would
    /// silently round values above 2⁵³ (seeds, ids).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (artifact readers look
    /// fields up by name).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::UInt(v) if *v <= usize::MAX as u64 => Some(*v as usize),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= usize::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is one (integer literals keep
    /// full precision; float-shaped integers are accepted below 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing non-whitespace is an error).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u{hex} escape"))?,
                            );
                        }
                        other => return Err(format!("invalid escape '\\{}'", char::from(other))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through untouched).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        // Plain digit runs stay exact (u64); anything signed, fractional
        // or exponential goes through f64.
        if s.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = s.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        let v: f64 = s
            .parse()
            .map_err(|_| format!("invalid number '{s}' at byte {start}"))?;
        Ok(Json::Num(v))
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` for a JSON document: shortest round-trip repr, with
/// non-finite values as `null` (JSON has no inf/NaN literals).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats a `usize` vector as a compact JSON array (`[1,2,3]`).
pub fn usize_array(vs: &[usize]) -> String {
    let parts: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// Reads a `usize` vector back from a JSON array field.
pub fn usize_vec(v: Option<&Json>) -> Result<Vec<usize>, String> {
    v.and_then(Json::as_arr)
        .ok_or("missing integer array")?
        .iter()
        .map(|x| x.as_usize().ok_or_else(|| "bad integer entry".to_string()))
        .collect()
}

/// A `Duration` as exact integer nanoseconds, saturating at `u64::MAX`
/// (≈584 years — nothing this workspace simulates gets close).
pub fn dur_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Inverse of [`dur_to_ns`].
pub fn ns_to_dur(ns: u64) -> Duration {
    Duration::from_nanos(ns)
}

/// A `Duration` as fractional milliseconds — the unit the artifact
/// schema reports times in.
pub fn dur_to_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y", "d": null}, "e": true}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let s = "quote\" slash\\ newline\n tab\t";
        let doc = format!("{{\"k\":\"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn usize_extraction() {
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
    }

    #[test]
    fn integer_literals_stay_exact_beyond_f64() {
        // 2^53 + 1 is not representable in f64; the u64 path keeps it.
        let v = parse("9007199254740993").unwrap();
        assert_eq!(v, Json::UInt(9007199254740993));
        assert_eq!(v.as_u64(), Some(9007199254740993));
        // Float-shaped integers still read as u64 (below 2^53).
        assert_eq!(parse("4.0").unwrap().as_u64(), Some(4));
        assert_eq!(parse("-4").unwrap().as_u64(), None);
    }

    #[test]
    fn writer_helpers_round_trip() {
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(usize_array(&[1, 2, 3]), "[1,2,3]");
        assert_eq!(usize_array(&[]), "[]");
        let parsed = parse("[4,5]").unwrap();
        assert_eq!(usize_vec(Some(&parsed)).unwrap(), vec![4, 5]);
        assert!(usize_vec(None).is_err());
        let d = Duration::new(3, 500_000_000);
        assert_eq!(dur_to_ns(d), 3_500_000_000);
        assert_eq!(ns_to_dur(dur_to_ns(d)), d);
        assert_eq!(dur_to_ms(d), 3500.0);
    }
}
