//! JSON for the hand-rendered exports: one number formatter, one string
//! escaper and a minimal reader.
//!
//! SARIF logs, the telemetry JSONL, Chrome traces, registry JSONL and
//! campaign cost ledgers are rendered by hand (there is no serde in the
//! workspace) through [`num`] and [`escape`], so a value renders the same
//! way in each. The recursive-descent reader ([`parse_json`]) lets the
//! self-checks validate emitted files without external tooling. It
//! rejects a raw control character inside a string (RFC 8259 §7), so a
//! label written unescaped fails the check that reads it back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Formats an `f64` as a JSON number (`null` for non-finite values,
/// which JSON cannot represent).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal (RFC 8259:
/// quote, backslash and control characters; everything else passes
/// through as UTF-8).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`] so re-serialisation and comparison are
/// order-independent; key order is not semantically meaningful in any
/// document this workspace reads.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; the exports hold none we would
    /// truncate).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Index into an array, `None` otherwise.
    pub fn idx(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(v) => v.get(i),
            _ => None,
        }
    }

    /// The string payload, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric payload, `None` for non-numbers.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its byte
/// offset.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected end or byte at {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not emitted by this crate;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!(
                    "raw control character {c:#04x} in string at byte {}",
                    *pos
                ));
            }
            Some(_) => {
                // Copy the whole run up to the next quote, backslash or
                // control character. All three are ASCII, so the run of a
                // `&str`'s bytes ends on a character boundary, and
                // validating it costs only its own length.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                    .map_or(b.len(), |k| *pos + k);
                let run = std::str::from_utf8(&b[*pos..end])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        // RFC 8259 §7: control characters must be escaped inside a
        // string; a writer that forgets fails here, not downstream.
        assert!(parse_json("\"a\tb\"").is_err());
        assert!(parse_json("{\"k\": \"line\nbreak\"}").is_err());
        assert!(parse_json("[\"\u{1}\"]").is_err());
        // The same characters escaped, and as whitespace between tokens,
        // are fine.
        assert_eq!(
            parse_json("[\n\t\"a\\tb\"\r\n]")
                .unwrap()
                .idx(0)
                .and_then(JsonValue::as_str),
            Some("a\tb")
        );
    }

    #[test]
    fn numbers_render_in_shortest_round_trip_form() {
        assert_eq!(num(2.0), "2e0");
        assert_eq!(num(0.25), "2.5e-1");
        assert_eq!(num(-1e-12), "-1e-12");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        for v in [0.1, 1.0 / 3.0, 6.02214076e23] {
            assert_eq!(parse_json(&num(v)).unwrap(), JsonValue::Num(v));
        }
    }
}
