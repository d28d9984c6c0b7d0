//! A minimal JSON value type, parser, and writer.
//!
//! The repository policy is no external dependencies (serde is not
//! available offline), and the wire protocol needs only a small JSON
//! subset: objects, arrays, strings, numbers, booleans and null. This
//! module implements exactly that, plus a [`Json::Raw`] escape hatch for
//! splicing pre-rendered JSON (the witness/refutation artifacts of
//! `samm_core::explain` and the hand-rolled `to_json` outputs of the
//! stats types) into a tree without re-parsing them.
//!
//! Numbers are kept as `f64` on parse — wire payloads carry counts and
//! small ids, all well inside the 2^53 exact-integer range — and
//! rendered without a trailing `.0` when integral. Strings are escaped
//! by [`samm_core::telemetry::write_escaped`], the same escaper the
//! span JSONL lines use.

use std::collections::BTreeMap;
use std::fmt;

use samm_core::telemetry::write_escaped;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see the module docs on integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are ordered for deterministic rendering.
    Obj(BTreeMap<String, Json>),
    /// Pre-rendered JSON spliced verbatim on write. Never produced by
    /// the parser.
    Raw(String),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Field lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64`, when integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(|n| {
            (n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n)).then_some(n as u64)
        })
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl Json {
    /// Renders this value into `out`: the one JSON renderer, behind both
    /// [`fmt::Display`] and [`Json::write_bytes`]. Fails only when `out`
    /// does.
    fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 9e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_str(",")?;
                    }
                    item.write_to(out)?;
                }
                out.write_str("]")
            }
            Json::Obj(map) => {
                out.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.write_str(",")?;
                    }
                    write_escaped(out, k)?;
                    out.write_str(":")?;
                    v.write_to(out)?;
                }
                out.write_str("}")
            }
            Json::Raw(s) => out.write_str(s),
        }
    }

    /// Appends this value's rendering to a byte buffer.
    pub(crate) fn write_bytes(&self, out: &mut Vec<u8>) {
        // Appending to a Vec never fails.
        let _ = self.write_to(&mut ByteSink(out));
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// A byte buffer seen as a [`fmt::Write`] target, so the escaper and
/// the renderer append to a response buffer without an intermediate
/// `String`.
pub(crate) struct ByteSink<'a>(pub(crate) &'a mut Vec<u8>);

impl fmt::Write for ByteSink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// A JSON parse failure: a message plus the byte offset it was noticed
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    parse_bytes(input.as_bytes())
}

/// As [`parse`], over raw bytes: every string is checked as it is read,
/// so input that is not UTF-8 is an `invalid UTF-8` error, never a
/// silently replaced character.
pub fn parse_bytes(input: &[u8]) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input,
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Nesting depth bound: malformed deeply-nested input must not blow the
/// stack of a service worker.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Consume the maximal run free of delimiters and escapes as
            // one slice. The run can only end at an ASCII byte (`"`,
            // `\`, or a control byte), which never occurs inside a
            // multi-byte UTF-8 sequence, so the run is a complete,
            // checkable chunk — validating per run instead of per
            // character keeps parsing linear in the input size.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?;
                out.push_str(run);
            }
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .bytes
                                .get(start..start + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // protocol; reject rather than mis-decode.
                            let c =
                                char::from_u32(hex).ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                // The run above stops only at `"`, `\`, or a control
                // byte, so anything else here is a control character.
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string(), text, "round trip of {text}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = parse(r#""line\nquote\"tab\tslash\\""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "line\nquote\"tab\tslash\\");
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        let u = parse(r#""éA""#).unwrap();
        assert_eq!(u.as_str().unwrap(), "éA");
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "[1] trailing",
            "{'single':1}",
            "nan",
        ] {
            assert!(parse(text).is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = format!("{}1{}", "[".repeat(500), "]".repeat(500));
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"kind":"enumerate","n":3,"flag":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("enumerate"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = Json::obj([("stats", Json::Raw("{\"explored\":4}".into()))]);
        assert_eq!(v.to_string(), "{\"stats\":{\"explored\":4}}");
    }

    #[test]
    fn builders() {
        let v = Json::obj([
            ("name", Json::str("SB")),
            ("count", Json::num(4u32)),
            ("none", Json::Null),
        ]);
        assert_eq!(v.to_string(), "{\"count\":4,\"name\":\"SB\",\"none\":null}");
    }
}
