//! A minimal JSON reader/writer for the serve protocol.
//!
//! The workspace builds fully offline with no external crates, so the
//! newline-delimited JSON protocol is parsed by hand. The subset is
//! exactly what the protocol needs: objects, arrays, strings (with the
//! standard escapes including `\uXXXX`), booleans, null and numbers.
//! Integers up to `u64::MAX` round-trip exactly — they are kept in a
//! dedicated variant rather than forced through `f64`, because report
//! fields are picosecond counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits `u64` (the protocol's counters and tick values).
    UInt(u64),
    /// Any other number (negative or fractional).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps encoding deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if present and non-null.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => match m.get(key) {
                Some(Json::Null) | None => None,
                Some(v) => Some(v),
            },
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned integer content, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// Boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Parse one JSON document from `src` (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser { src, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
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
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at offset {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one piece. Both
            // stops are ASCII, so they never fall inside a multi-byte
            // character and every run is a checked `&str` slice.
            let start = self.pos;
            let run = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            self.pos += run;
            out.push_str(&self.src[start..self.pos]);
            let stop = self.bytes()[self.pos];
            self.pos += 1;
            if stop == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let cp = self.hex4()?;
                    // Surrogate pairs for astral-plane characters.
                    let c = if (0xD800..0xDC00).contains(&cp) {
                        self.expect(b'\\')?;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("invalid low surrogate".into());
                        }
                        let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(combined).ok_or("invalid surrogate pair")?
                    } else {
                        char::from_u32(cp).ok_or("invalid \\u escape")?
                    };
                    out.push(c);
                }
                _ => return Err(format!("bad escape at offset {}", self.pos)),
            }
        }
    }

    /// Four hex digits (cursor just past the `u`); advances past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.src.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = self.src.get(self.pos..end).ok_or("bad \\u escape")?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }
}

/// Append `s` to `out` as a JSON string literal.
///
/// Every character that needs an escape is ASCII, so the text between
/// two of them is copied as one run; `next_escape` finds the end of
/// each run eight bytes at a time.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(i) = next_escape(bytes, start) {
        out.push_str(&s[start..i]);
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// The index of the first byte at or after `from` that a JSON string
/// must escape: a control byte (`< 0x20`), `"` or `\`.
///
/// Scans a word of eight bytes at a time. Per byte lane, `x − 0x20`
/// borrows into the high bit only when `x < 0x20`, and `!x` keeps it
/// only when `x < 0x80`; `"` and `\` are found as zero lanes of `x`
/// xor a splat of that byte, with the same test against 1. A borrow
/// carries only into higher lanes, so the lowest flagged lane is
/// exact, and it is the one taken. Multi-byte UTF-8 bytes are all
/// `≥ 0x80` and are never flagged.
fn next_escape(bytes: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let mut i = from;
    while let Some(word) = bytes[i..].first_chunk::<8>() {
        let x = u64::from_le_bytes(*word);
        let quote = x ^ (ONES * u64::from(b'"'));
        let backslash = x ^ (ONES * u64::from(b'\\'));
        let flagged = (x.wrapping_sub(ONES * 0x20) & !x
            | quote.wrapping_sub(ONES) & !quote
            | backslash.wrapping_sub(ONES) & !backslash)
            & HIGH;
        if flagged != 0 {
            return Some(i + flagged.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    bytes[i..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .map(|k| i + k)
}

/// An incremental JSON-object writer (field order = call order).
pub struct ObjWriter {
    out: String,
    first: bool,
}

impl ObjWriter {
    /// Start a new `{`.
    pub fn new() -> ObjWriter {
        ObjWriter {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(&mut self.out, key);
        self.out.push(':');
    }

    /// Add an unsigned-integer field.
    pub fn uint(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        write_str(&mut self.out, v);
        self
    }

    /// Add a float field (for derived figures like microseconds).
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    /// Add an array of unsigned integers (per-shard counter vectors).
    pub fn uints(&mut self, key: &str, vs: &[u64]) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{v}");
        }
        self.out.push(']');
        self
    }

    /// Close the object and return the text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"id": 7, "cmd": "emulate", "frames": 2, "trace": false}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("emulate"));
        assert_eq!(v.get("trace").and_then(Json::as_bool), Some(false));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn u64_round_trips_exactly() {
        let big = u64::MAX - 1;
        let v = parse(&format!(r#"{{"x": {big}}}"#)).unwrap();
        assert_eq!(v.get("x").and_then(Json::as_u64), Some(big));
    }

    #[test]
    fn string_escapes_round_trip() {
        let src = "line1\nline2\t\"quoted\" \\slash ünïcode \u{1F600}";
        let mut enc = String::new();
        write_str(&mut enc, src);
        let v = parse(&enc).unwrap();
        assert_eq!(v.as_str(), Some(src));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse(r#""Aé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé\u{1F600}"));
        // \u escapes, including a surrogate pair.
        let v = parse("\"\\u0041\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé \u{1F600}"));
        assert!(parse(r#""\ud83d alone""#).is_err(), "lone high surrogate");
    }

    /// The per-character encoder `write_str` replaced: the oracle for its
    /// output bytes.
    fn write_str_per_char(out: &mut String, s: &str) {
        out.push('"');
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
        out.push('"');
    }

    /// `s` as a JSON literal in which every character is written either
    /// raw (control characters included, which the parser accepts) or as
    /// a `\uXXXX` escape — a surrogate pair above the BMP.
    fn literal_with_u_escapes(s: &str, rng: &mut u64) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            if next(rng) % 2 == 0 && c != '"' && c != '\\' {
                out.push(c);
                continue;
            }
            let mut units = [0u16; 2];
            for u in c.encode_utf16(&mut units) {
                let _ = write!(out, "\\u{:04X}", u);
            }
        }
        out.push('"');
        out
    }

    fn next(state: &mut u64) -> u64 {
        // xorshift64*: a fixed seed gives the same strings on every run.
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A string mixing `"`, `\`, control bytes and 1- to 4-byte UTF-8.
    fn random_string(rng: &mut u64) -> String {
        let pool: Vec<char> = "\"\\/\0\u{1}\u{8}\t\n\u{b}\u{c}\r\u{1f} aZ~\u{7f}éß\u{80}\u{7ff}€\u{800}\u{fffd}\u{ffff}😀\u{10000}\u{10ffff}"
            .chars()
            .collect();
        let len = next(rng) % 40;
        (0..len)
            .map(|_| pool[(next(rng) % pool.len() as u64) as usize])
            .collect()
    }

    #[test]
    fn seeded_strings_round_trip_and_match_the_per_char_encoder() {
        let mut rng = 0x5EED_0123_4567_89AB_u64;
        for _ in 0..4000 {
            let s = random_string(&mut rng);
            let (mut runs, mut per_char) = (String::new(), String::new());
            write_str(&mut runs, &s);
            write_str_per_char(&mut per_char, &s);
            assert_eq!(runs, per_char, "{s:?}");
            assert_eq!(parse(&runs).unwrap().as_str(), Some(s.as_str()));
            let escaped = literal_with_u_escapes(&s, &mut rng);
            assert_eq!(parse(&escaped).unwrap().as_str(), Some(s.as_str()));
        }
    }

    /// The word scan against the per-character encoder: every byte that
    /// needs an escape, and every 2- to 4-byte UTF-8 character, at every
    /// offset mod 8, in the word part and in the byte tail.
    #[test]
    fn every_escape_at_every_offset_matches_the_per_char_encoder() {
        let specials = (0u8..0x20).map(char::from).chain(['"', '\\']);
        for special in specials {
            for wide in ["", "é", "€", "😀", "\u{7f}"] {
                for lead in 0..17 {
                    for tail in [0, 1, 7, 8, 9, 16] {
                        let s = format!(
                            "{}{wide}{special}{}{special}{wide}",
                            "x".repeat(lead),
                            "y".repeat(tail)
                        );
                        let (mut words, mut per_char) = (String::new(), String::new());
                        write_str(&mut words, &s);
                        write_str_per_char(&mut per_char, &s);
                        assert_eq!(words, per_char, "{s:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            r#"{"a": }"#,
            "tru",
            r#""unterminated"#,
            "{} extra",
            r#""\q""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn obj_writer_emits_valid_json() {
        let mut w = ObjWriter::new();
        w.uint("id", 3)
            .bool("ok", true)
            .str("text", "a\nb")
            .float("us", 1.5)
            .uints("per_shard", &[4, 0, 9])
            .uints("empty", &[]);
        let line = w.finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("text").and_then(Json::as_str), Some("a\nb"));
        assert_eq!(
            v.get("per_shard"),
            Some(&Json::Arr(vec![
                Json::UInt(4),
                Json::UInt(0),
                Json::UInt(9)
            ]))
        );
        assert_eq!(v.get("empty"), Some(&Json::Arr(vec![])));
    }
}
