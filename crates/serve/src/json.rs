//! A minimal JSON value type, one lexer with two builders, and a writer.
//!
//! The repository policy is no external dependencies (serde is not
//! available offline), and the wire protocol needs only a small JSON
//! subset: objects, arrays, strings, numbers, booleans and null. This
//! module implements exactly that, plus a [`Json::Raw`] escape hatch for
//! splicing pre-rendered JSON (the witness/refutation artifacts of
//! `samm_core::explain` and the hand-rolled `to_json` outputs of the
//! stats types) into a tree without re-parsing them.
//!
//! One lexer reads JSON three ways. [`parse_bytes`] (and [`parse`])
//! builds a [`Json`] tree; `protocol::parse_envelope_bytes` reads a
//! request line straight into an `Envelope`; `cluster::relay` checks a
//! peer's `enumerate` answer and notes byte offsets in it. All walk
//! arrays and objects through the same lexer calls, so a syntax error
//! carries the same message at the same byte offset whichever reader
//! meets it. The tree is left for `client::Client::read_response`
//! (`samm-top`, `samm-load`, the `samm-benchmark` harness), the
//! `metrics_cluster` fan-out, which merges its peers' histograms,
//! `handler::handle_envelope` and tests.
//!
//! Numbers are kept as `f64` on parse — wire payloads carry counts and
//! small ids, all well inside the 2^53 exact-integer range — and
//! rendered without a trailing `.0` when integral. Strings are escaped
//! by [`samm_core::telemetry::write_escaped`], the same escaper the
//! span JSONL lines use.

use std::borrow::Cow;
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
        self.as_f64().and_then(f64_as_u64)
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
    let mut lex = Lexer::new(input);
    let value = tree(&mut lex, 0)?;
    lex.finish()?;
    Ok(value)
}

/// The tree builder: reads the value at the lexer's position into a
/// [`Json`].
fn tree(lex: &mut Lexer<'_>, depth: usize) -> Result<Json, ParseError> {
    Ok(match lex.token(depth)? {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Num(n) => Json::Num(n),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::Arr => {
            let mut items = Vec::new();
            lex.array(depth, |lex, depth| {
                items.push(tree(lex, depth)?);
                Ok(())
            })?;
            Json::Arr(items)
        }
        Token::Obj => {
            let mut map = BTreeMap::new();
            lex.object(depth, |lex, key, depth| {
                let value = tree(lex, depth)?;
                map.insert(key.into_owned(), value);
                Ok(())
            })?;
            Json::Obj(map)
        }
    })
}

/// A number's payload as a `u64`, when integral and in range: the one
/// reading of every count and index a request carries.
pub(crate) fn f64_as_u64(n: f64) -> Option<u64> {
    (n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n)).then_some(n as u64)
}

/// Whether `b` ends a string run: the closing `"`, an escape's `\`, or
/// a control byte, which a string may not hold.
fn ends_run(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Nesting depth bound: malformed deeply-nested input must not blow the
/// stack of a service worker.
const MAX_DEPTH: usize = 64;

/// The first token of a JSON value, as [`Lexer::token`] reads it: a
/// scalar whole, a container only by its opening bracket.
#[derive(Default, PartialEq)]
pub(crate) enum Token<'a> {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    /// An array's `[`, not yet consumed.
    Arr,
    /// An object's `{`, not yet consumed.
    Obj,
}

/// The one JSON lexer, under [`tree`] (the [`Json`] values of
/// [`parse_bytes`]), `protocol`'s request builder, which reads a request
/// line straight into an `Envelope`, and `cluster::relay`. All walk
/// containers with [`Lexer::array`] and [`Lexer::object`], so a syntax
/// error is reported with the same message at the same byte offset
/// whichever reads the input, and nesting is bounded by [`MAX_DEPTH`].
pub(crate) struct Lexer<'a> {
    bytes: &'a [u8],
    /// `bytes` as text when all of it is UTF-8, as it is unless the
    /// input is broken: a string is then sliced out of it, not checked
    /// again run by run.
    text: Option<&'a str>,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the first value of `bytes`, past leading whitespace.
    #[inline]
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        let mut lex = Lexer {
            bytes,
            text: std::str::from_utf8(bytes).ok(),
            pos: 0,
        };
        lex.skip_ws();
        lex
    }

    /// Checks that only whitespace follows the value just read.
    #[inline]
    pub(crate) fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// The offset of the next byte to read.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    #[inline]
    fn literal(&mut self, literal: &str, token: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(token)
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    /// Reads the first token of the value at `depth` (0 for the whole
    /// input): a scalar is consumed, a container's bracket is not — walk
    /// it with [`Lexer::array`] or [`Lexer::object`], or skip it with
    /// [`Lexer::skip_container`].
    #[inline]
    pub(crate) fn token(&mut self, depth: usize) -> Result<Token<'a>, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'"') => self.string().map(Token::Str),
            Some(b'[') => Ok(Token::Arr),
            Some(b'{') => Ok(Token::Obj),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Token::Num),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Reads the value at `depth` whole and returns its first token: a
    /// container is walked and checked, not built.
    #[inline]
    pub(crate) fn value(&mut self, depth: usize) -> Result<Token<'a>, ParseError> {
        let token = self.token(depth)?;
        self.skip_container(&token, depth)?;
        Ok(token)
    }

    /// Walks and checks the container whose opening `token` was just
    /// read at `depth`, building nothing; a no-op after a scalar.
    #[inline]
    pub(crate) fn skip_container(
        &mut self,
        token: &Token<'a>,
        depth: usize,
    ) -> Result<(), ParseError> {
        match token {
            Token::Arr => self.array(depth, |lex, depth| lex.value(depth).map(drop)),
            Token::Obj => self.object(depth, |lex, _, depth| lex.value(depth).map(drop)),
            _ => Ok(()),
        }
    }

    /// Walks the array at `depth` whose `[` is next: `element` reads
    /// each element, at `depth + 1`, from its first byte.
    pub(crate) fn array(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    /// Walks the object at `depth` whose `{` is next: `member` reads
    /// each member's value, at `depth + 1`, given its decoded key.
    /// Members come in input order, duplicates included.
    pub(crate) fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Cow<'a, str>, usize) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            member(self, key, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    /// Reads a string, borrowing it from the input when it holds no
    /// escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
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
            let rest = &self.bytes[start..];
            self.pos += rest.iter().position(|&b| ends_run(b)).unwrap_or(rest.len());
            let bytes: &'a [u8] = self.bytes;
            // A run starts after an ASCII byte and ends at one or at the
            // end of the input, so it is a char-boundary slice of `text`.
            let run = self
                .text
                .and_then(|text| text.get(start..self.pos))
                .map_or_else(|| std::str::from_utf8(&bytes[start..self.pos]), Ok)
                .map_err(|_| self.error("invalid UTF-8"))?;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // Every escape pushes a character, so an empty
                    // `out` means the string is this one run.
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(run);
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

    fn number(&mut self) -> Result<f64, ParseError> {
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
