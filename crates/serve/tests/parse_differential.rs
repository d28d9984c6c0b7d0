//! Differential test of the request parser: `protocol`'s one-pass
//! builder, which reads a line straight into an `Envelope`, against the
//! tree-based converter it replaced (`oracle`, kept verbatim over
//! `json::parse_bytes`). On every input the two must give an equal
//! `Envelope` or an equal `ServiceError`: the same kind and message,
//! byte offsets of syntax errors included. Both sides read through the
//! one `json` lexer, so this pins the request builder; the lexer's own
//! messages and offsets are pinned by `protocol`'s unit tests and the
//! answer transcript's malformed lines.
//!
//! The inputs are the answer transcript's request lines, every line
//! shape the `samm-benchmark` workloads send, and mutations of both:
//! byte flips, truncation, inserted non-UTF-8 bytes, duplicated,
//! reordered, removed and escaped keys, escaped values, `\u` escapes,
//! other number spellings, unknown keys with nested values, nested
//! batches, batches of 0, 256 and 257 slots, and nesting at the depth
//! bound and one past it.

mod requests;

use std::sync::OnceLock;

use proptest::prelude::*;
use samm_core::telemetry::trace::TraceContext;
use samm_litmus::catalog::{self, ModelSel};
use samm_serve::json::{self, Json};
use samm_serve::protocol::{parse_envelope_bytes, Request, MAX_BATCH};

/// The request parser before it read lines in one pass: a `Json` tree
/// per line, then a conversion of the tree. Kept verbatim as the
/// reference the one-pass parser must agree with.
mod oracle {
    use std::collections::BTreeMap;

    use samm_core::telemetry::trace::TraceContext;
    use samm_serve::json::{self, Json};
    use samm_serve::protocol::{
        Envelope, ErrorKind, Request, ServiceError, LEGACY_ENGINES, MAX_BATCH,
    };

    /// A request object's fields, consumed as the request is parsed.
    type Fields = BTreeMap<String, Json>;

    /// Moves the string field `key` out of the request object.
    fn required_str(obj: &mut Fields, key: &str) -> Result<String, ServiceError> {
        match obj.remove(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(ServiceError::new(
                ErrorKind::Malformed,
                format!("missing or non-string field '{key}'"),
            )),
        }
    }

    fn optional_u64(obj: &Fields, key: &str) -> Result<Option<u64>, ServiceError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                ServiceError::new(
                    ErrorKind::Malformed,
                    format!("field '{key}' must be a non-negative integer"),
                )
            }),
        }
    }

    fn optional_bool(obj: &Fields, key: &str) -> Result<bool, ServiceError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(false),
            Some(Json::Bool(b)) => Ok(*b),
            Some(_) => Err(ServiceError::new(
                ErrorKind::Malformed,
                format!("field '{key}' must be a boolean"),
            )),
        }
    }

    /// Moves the optional string `id` out of the request object.
    fn optional_id(obj: &mut Fields) -> Result<Option<String>, ServiceError> {
        match obj.remove("id") {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Str(id)) => Ok(Some(id)),
            Some(_) => Err(ServiceError::new(
                ErrorKind::Malformed,
                "field 'id' must be a string",
            )),
        }
    }

    /// Validates the optional legacy `engine` field: one of
    /// [`LEGACY_ENGINES`] is accepted and ignored, anything else is
    /// malformed.
    fn check_engine(obj: &Fields) -> Result<(), ServiceError> {
        match obj.get("engine") {
            None | Some(Json::Null) => Ok(()),
            Some(v) if v.as_str().is_some_and(|e| LEGACY_ENGINES.contains(&e)) => Ok(()),
            Some(_) => Err(ServiceError::new(
                ErrorKind::Malformed,
                "field 'engine' must be \"serial\", \"parallel\" or \"pruned\" (all run the pruned engine)",
            )),
        }
    }

    /// As [`parse_envelope`], over one raw line as read from a socket: a
    /// line that is not UTF-8 is [`ErrorKind::Malformed`].
    ///
    /// # Errors
    ///
    /// As for [`parse_envelope`].
    pub fn parse_envelope_bytes(line: &[u8]) -> Result<Envelope, ServiceError> {
        let value = json::parse_bytes(line)
            .map_err(|e| ServiceError::new(ErrorKind::Malformed, format!("invalid JSON: {e}")))?;
        let Json::Obj(mut obj) = value else {
            return Err(ServiceError::new(
                ErrorKind::Malformed,
                "request must be a JSON object",
            ));
        };
        let id = optional_id(&mut obj)?;
        let fwd = optional_bool(&obj, "fwd")?;
        let trace = lenient_trace(&obj);
        let request = parse_request_obj(obj)?;
        Ok(Envelope {
            id,
            request,
            fwd,
            trace,
        })
    }

    /// Decodes the optional `trace` field. Deliberately infallible: any
    /// malformation (wrong type, bad hex, wrong shape) degrades to `None`
    /// so the request proceeds under a fresh root span.
    fn lenient_trace(obj: &Fields) -> Option<TraceContext> {
        obj.get("trace")
            .and_then(Json::as_str)
            .and_then(TraceContext::parse)
    }

    fn parse_sub_envelope(value: Json) -> Result<Envelope, ServiceError> {
        let Json::Obj(mut obj) = value else {
            return Err(ServiceError::new(
                ErrorKind::Malformed,
                "batch sub-request must be a JSON object",
            ));
        };
        let id = optional_id(&mut obj)?;
        let trace = lenient_trace(&obj);
        match parse_request_obj(obj)? {
            Request::Batch(_) => Err(ServiceError::new(
                ErrorKind::Malformed,
                "batches do not nest",
            )),
            Request::Shutdown => Err(ServiceError::new(
                ErrorKind::Malformed,
                "'shutdown' is not allowed inside a batch",
            )),
            request => Ok(Envelope {
                id,
                request,
                fwd: false,
                trace,
            }),
        }
    }

    /// Parses a request object, moving its strings into the [`Request`].
    fn parse_request_obj(mut obj: Fields) -> Result<Request, ServiceError> {
        let kind = required_str(&mut obj, "kind")?;
        match kind.as_str() {
            "batch" => {
                let Some(Json::Arr(subs)) = obj.remove("requests") else {
                    return Err(ServiceError::new(
                        ErrorKind::Malformed,
                        "batch requires a 'requests' array",
                    ));
                };
                if subs.is_empty() {
                    return Err(ServiceError::new(
                        ErrorKind::Malformed,
                        "batch 'requests' must not be empty",
                    ));
                }
                if subs.len() > MAX_BATCH {
                    return Err(ServiceError::new(
                        ErrorKind::Malformed,
                        format!(
                            "batch carries {} sub-requests; the limit is {MAX_BATCH}",
                            subs.len()
                        ),
                    ));
                }
                Ok(Request::Batch(
                    subs.into_iter().map(parse_sub_envelope).collect(),
                ))
            }
            "enumerate" => {
                check_engine(&obj)?;
                Ok(Request::Enumerate {
                    test: required_str(&mut obj, "test")?,
                    model: required_str(&mut obj, "model")?,
                    budget: optional_u64(&obj, "budget")?,
                })
            }
            "verdict" => {
                check_engine(&obj)?;
                Ok(Request::Verdict {
                    test: required_str(&mut obj, "test")?,
                    budget: optional_u64(&obj, "budget")?,
                })
            }
            "witness" | "refutation" => {
                let test = required_str(&mut obj, "test")?;
                let model = required_str(&mut obj, "model")?;
                let condition = optional_u64(&obj, "condition")?.unwrap_or(0) as usize;
                let budget = optional_u64(&obj, "budget")?;
                Ok(if kind == "witness" {
                    Request::Witness {
                        test,
                        model,
                        condition,
                        budget,
                    }
                } else {
                    Request::Refutation {
                        test,
                        model,
                        condition,
                        budget,
                    }
                })
            }
            "certify" => Ok(Request::Certify {
                test: required_str(&mut obj, "test")?,
                model: required_str(&mut obj, "model")?,
                robust: optional_bool(&obj, "robust")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "metrics_cluster" => Ok(Request::MetricsCluster),
            "metrics_prom" => Ok(Request::MetricsProm),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServiceError::new(
                ErrorKind::UnknownKind,
                format!("unknown request kind '{other}'"),
            )),
        }
    }
}

/// Asserts that both parsers read `line` alike.
fn agree(line: &[u8]) {
    let new = parse_envelope_bytes(line);
    let old = oracle::parse_envelope_bytes(line);
    assert!(
        new == old,
        "the parsers disagree on {}\n  one pass: {new:?}\n  tree:     {old:?}",
        line.escape_ascii()
    );
}

/// A SplitMix64 stream: the mutation choices of one case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Every line shape the `samm-benchmark` workloads send, over every
/// catalog key: single lines of each kind, and `warm-batch32`'s batch
/// lines of 32 `enumerate` slots.
fn benchmark_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let mut enumerates = Vec::new();
    for entry in catalog::all() {
        let test = &entry.test.name;
        lines.push(format!(r#"{{"kind":"verdict","test":"{test}"}}"#));
        for sel in ModelSel::ALL {
            let m = sel.name();
            enumerates.push(format!(
                r#"{{"kind":"enumerate","test":"{test}","model":"{m}"}}"#
            ));
            lines.extend([
                format!(r#"{{"kind":"witness","test":"{test}","model":"{m}","condition":0}}"#),
                format!(r#"{{"kind":"refutation","test":"{test}","model":"{m}","condition":0}}"#),
                format!(r#"{{"kind":"certify","test":"{test}","model":"{m}","robust":true}}"#),
            ]);
        }
    }
    for chunk in enumerates.chunks(32) {
        lines.push(format!(
            r#"{{"kind":"batch","requests":[{}]}}"#,
            chunk.join(",")
        ));
    }
    lines.extend(enumerates);
    lines
}

/// The seed lines: the transcript's requests, then the benchmark's.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut lines = requests::large_cache_lines();
        lines.extend(requests::one_entry_cache_lines());
        lines.extend(benchmark_lines());
        lines
    })
}

/// A JSON value with its object members in order, duplicates allowed,
/// and its keys and scalars as raw text, so a mutation can write any
/// spelling.
#[derive(Clone)]
enum Node {
    Obj(Vec<(String, Node)>),
    Arr(Vec<Node>),
    Lit(String),
}

impl Node {
    fn from_json(value: &Json) -> Node {
        match value {
            Json::Obj(map) => Node::Obj(
                map.iter()
                    .map(|(k, v)| (Json::str(k.clone()).to_string(), Node::from_json(v)))
                    .collect(),
            ),
            Json::Arr(items) => Node::Arr(items.iter().map(Node::from_json).collect()),
            other => Node::Lit(other.to_string()),
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            Node::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(key);
                    out.push(':');
                    value.render(out);
                }
                out.push('}');
            }
            Node::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Node::Lit(text) => out.push_str(text),
        }
    }
}

const KNOWN_KEYS: [&str; 11] = [
    "kind",
    "test",
    "model",
    "id",
    "budget",
    "condition",
    "robust",
    "engine",
    "fwd",
    "trace",
    "requests",
];

const UNKNOWN_KEYS: [&str; 7] = ["x", "Kind", "kind ", "", "\u{e9}", "requests_", "ids"];

/// Values a mutation may give a key, as raw JSON text.
fn value_pool() -> Vec<String> {
    let trace = TraceContext {
        trace: 0xabcd_ef01_2345_6789,
        span: 0x1111_2222_3333_4444,
    };
    let mut pool: Vec<String> = [
        "1e2",
        "1.0",
        "01",
        "-0",
        "0",
        "-1",
        "1.5",
        "2",
        "7",
        "100",
        "1E+1",
        "0.0e0",
        "-1e-3",
        "9007199254740992",
        "9007199254740993",
        "1e300",
        "null",
        "true",
        "false",
        "\"\"",
        "\"x\"",
        "[]",
        "{}",
        "[1,[2]]",
        "{\"a\":{}}",
        "\"serial\"",
        "\"parallel\"",
        "\"pruned\"",
        "\"gpu\"",
        "\"enumerate\"",
        "\"verdict\"",
        "\"witness\"",
        "\"refutation\"",
        "\"certify\"",
        "\"metrics\"",
        "\"metrics_cluster\"",
        "\"metrics_prom\"",
        "\"shutdown\"",
        "\"batch\"",
        "\"frob\"",
        "\"SB\"",
        "\"IRIW\"",
        "\"TSO\"",
        "\"Weak\"",
        "\"garbage\"",
        "\"\\u00e9\"",
        "\"\\ud800\"",
        "\"\\u0000\"",
        r#"[{"kind":"metrics"}]"#,
        r#"[{"kind":"enumerate","test":"SB","model":"TSO"},7,{"kind":"shutdown"}]"#,
    ]
    .map(str::to_owned)
    .to_vec();
    pool.push(Json::str(trace.encode()).to_string());
    pool
}

/// A value nested `levels` deep in arrays and objects.
fn nested(rng: &mut Rng, levels: usize) -> String {
    let mut open = String::new();
    let mut close = String::new();
    for _ in 0..levels {
        if rng.below(2) == 0 {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str(r#"{"a":"#);
            close.insert(0, '}');
        }
    }
    format!("{open}1{close}")
}

/// `text` with some of its characters written as escapes.
fn escape_some(rng: &mut Rng, text: &str) -> String {
    let inner = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(text);
    let mut out = String::from("\"");
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            // Keep an escape the text already holds whole.
            out.push(c);
            out.extend(chars.next());
        } else if rng.below(3) == 0 && (c as u32) < 0x10000 {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else if c == '/' && rng.below(2) == 0 {
            out.push_str("\\/");
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// `count` copies of one slot, as a `requests` array.
fn slots(rng: &mut Rng, count: usize) -> Node {
    let slot = rng
        .pick(&[
            r#"{"kind":"metrics"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"TSO","id":"s"}"#,
            "7",
        ])
        .to_string();
    Node::Arr(vec![Node::Lit(slot); count])
}

/// Applies one structural mutation somewhere in `node`.
fn mutate(rng: &mut Rng, node: &mut Node, pool: &[String]) {
    match node {
        Node::Obj(members) if !members.is_empty() && rng.below(2) == 0 => {
            let i = rng.below(members.len());
            return mutate(rng, &mut members[i].1, pool);
        }
        Node::Arr(items) if !items.is_empty() && rng.below(2) == 0 => {
            let i = rng.below(items.len());
            return mutate(rng, &mut items[i], pool);
        }
        _ => {}
    }
    match node {
        Node::Obj(members) => match rng.below(9) {
            0 if !members.is_empty() => {
                // A repeated key, with the same or another value,
                // before or after the first.
                let i = rng.below(members.len());
                let mut copy = members[i].clone();
                if rng.below(2) == 0 {
                    copy.1 = Node::Lit(rng.pick(pool).clone());
                }
                let at = rng.below(members.len() + 1);
                members.insert(at, copy);
            }
            1 => {
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.below(i + 1));
                }
            }
            2 if !members.is_empty() => {
                let i = rng.below(members.len());
                members[i].0 = escape_some(rng, &members[i].0.clone());
            }
            3 if !members.is_empty() => {
                members.remove(rng.below(members.len()));
            }
            4 => {
                let key = Json::str(*rng.pick(&UNKNOWN_KEYS)).to_string();
                let value = match rng.below(3) {
                    0 => rng.pick(pool).clone(),
                    1 => {
                        let levels = 1 + rng.below(4);
                        nested(rng, levels)
                    }
                    _ => {
                        let levels = 58 + rng.below(10);
                        nested(rng, levels)
                    }
                };
                let at = rng.below(members.len() + 1);
                members.insert(at, (key, Node::Lit(value)));
            }
            5 => {
                let key = Json::str(*rng.pick(&KNOWN_KEYS)).to_string();
                let at = rng.below(members.len() + 1);
                members.insert(at, (key, Node::Lit(rng.pick(pool).clone())));
            }
            6 => {
                // This object as a slot of a batch.
                let slot = std::mem::replace(node, Node::Lit(String::new()));
                let mut items = vec![slot];
                if rng.below(2) == 0 {
                    items.push(Node::Lit(r#"{"kind":"metrics"}"#.to_owned()));
                }
                *node = Node::Obj(vec![
                    (r#""kind""#.to_owned(), Node::Lit(r#""batch""#.to_owned())),
                    (r#""requests""#.to_owned(), Node::Arr(items)),
                ]);
            }
            7 => {
                let count = *rng.pick(&[0, 1, 2, MAX_BATCH - 1, MAX_BATCH, MAX_BATCH + 1]);
                members.push((r#""requests""#.to_owned(), slots(rng, count)));
            }
            _ => {
                // Make this object the outermost of a batch line.
                members.retain(|(k, _)| k != r#""kind""#);
                members.push((r#""kind""#.to_owned(), Node::Lit(r#""batch""#.to_owned())));
            }
        },
        Node::Arr(items) => match rng.below(4) {
            0 if !items.is_empty() => {
                let i = rng.below(items.len());
                let copy = items[i].clone();
                items.insert(rng.below(items.len() + 1), copy);
            }
            1 if !items.is_empty() => {
                items.remove(rng.below(items.len()));
            }
            2 => {
                let levels = 55 + rng.below(12);
                items.push(Node::Lit(nested(rng, levels)));
            }
            _ => items.push(Node::Lit(rng.pick(pool).clone())),
        },
        Node::Lit(text) => {
            *text = if text.starts_with('"') && rng.below(2) == 0 {
                escape_some(rng, text)
            } else {
                rng.pick(pool).clone()
            };
        }
    }
}

/// Applies one byte-level mutation to `line`.
fn mutate_bytes(rng: &mut Rng, line: &mut Vec<u8>) {
    const BYTES: &[u8] = b"{}[]\":, \\0-e.nux\x01\x7f\xff\xc3\x80";
    const SNIPPETS: [&[u8]; 12] = [
        b"\xff",
        b"\xc3\xa9",
        b"\xe2\x82",
        b"\xc3",
        b" ",
        b"\n\t",
        b",",
        b"\\u0041",
        b"\\",
        b"\"",
        b"{}",
        b"[]",
    ];
    let at = rng.below(line.len() + 1);
    match rng.below(4) {
        0 if at < line.len() => line[at] = *rng.pick(BYTES),
        1 => line.truncate(at),
        2 => {
            let snippet = rng.pick(&SNIPPETS);
            line.splice(at..at, snippet.iter().copied());
        }
        _ if at < line.len() => {
            line.remove(at);
        }
        _ => line.push(*rng.pick(BYTES)),
    }
}

/// One mutated line from corpus line `pick`, driven by `seed`.
fn mutated(pick: u64, seed: u64) -> Vec<u8> {
    let corpus = corpus();
    let line = &corpus[(pick % corpus.len() as u64) as usize];
    let mut rng = Rng(seed);
    let pool = value_pool();
    let mut text = line.clone();
    if let Ok(value) = json::parse(line) {
        let mut node = Node::from_json(&value);
        for _ in 0..rng.below(4) {
            mutate(&mut rng, &mut node, &pool);
        }
        text.clear();
        node.render(&mut text);
    }
    let mut bytes = text.into_bytes();
    for _ in 0..rng.below(3) {
        mutate_bytes(&mut rng, &mut bytes);
    }
    bytes
}

#[test]
fn every_seed_line_parses_alike() {
    for line in corpus() {
        agree(line.as_bytes());
    }
}

/// Every prefix of one line of each shape: truncation anywhere, in a
/// key, a string, a number, a literal or between slots.
#[test]
fn every_truncation_parses_alike() {
    let corpus = corpus();
    let shapes = [
        |l: &&String| l.contains(r#""kind":"enumerate""#) && l.contains(r#""id":"k"#),
        |l: &&String| l.starts_with(r#"{"budget""#),
        |l: &&String| l.contains(r#""condition":1"#),
        |l: &&String| l.contains(r#""robust":true"#),
        |l: &&String| l.contains(r#""kind":"batch""#) && l.contains(r#""id":"k"#),
        |l: &&String| l.contains(r#""requests":[{"kind":"enumerate""#),
    ];
    for shape in shapes {
        let line = corpus.iter().find(shape).expect("a line of each shape");
        for end in 0..=line.len() {
            agree(&line.as_bytes()[..end]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Mutated seed lines parse alike.
    #[test]
    fn mutated_lines_parse_alike(pick in any::<u64>(), seed in any::<u64>()) {
        agree(&mutated(pick, seed));
    }
}

/// The boundaries the mutations aim at, each checked once by name.
#[test]
fn depth_and_batch_size_bounds_parse_alike() {
    let metrics = r#"{"kind":"metrics"}"#;
    for levels in [62, 63, 64, 65, 66] {
        let arrays = format!("{}1{}", "[".repeat(levels), "]".repeat(levels));
        agree(format!(r#"{{"kind":"metrics","x":{arrays}}}"#).as_bytes());
        agree(
            format!(r#"{{"kind":"batch","requests":[{{"kind":"metrics","x":{arrays}}}]}}"#)
                .as_bytes(),
        );
        agree(arrays.as_bytes());
    }
    for count in [0, 1, MAX_BATCH, MAX_BATCH + 1, 2 * MAX_BATCH] {
        let line = format!(
            r#"{{"kind":"batch","requests":[{}]}}"#,
            vec![metrics; count].join(",")
        );
        agree(line.as_bytes());
        let nested = format!(r#"{{"kind":"batch","requests":[{line}]}}"#);
        agree(nested.as_bytes());
    }
}

/// An oversized batch is refused by its count, named in full, whatever
/// its slots hold; a syntax error past the limit still fails the line.
#[test]
fn oversized_batches_are_refused_by_count() {
    let slot = r#"{"kind":"enumerate"}"#;
    let line = format!(
        r#"{{"kind":"batch","requests":[{}]}}"#,
        vec![slot; 3 * MAX_BATCH].join(",")
    );
    let err = parse_envelope_bytes(line.as_bytes()).unwrap_err();
    assert_eq!(
        err.message,
        format!(
            "batch carries {} sub-requests; the limit is {MAX_BATCH}",
            3 * MAX_BATCH
        )
    );
    let broken = line.replacen(slot, r#"{"kind":"enumerate",}"#, MAX_BATCH + 2);
    let err = parse_envelope_bytes(broken.as_bytes()).unwrap_err();
    assert!(err.message.starts_with("invalid JSON: "), "{err}");
    let Request::Batch(slots) = parse_envelope_bytes(
        format!(
            r#"{{"kind":"batch","requests":[{}]}}"#,
            vec![slot; MAX_BATCH].join(",")
        )
        .as_bytes(),
    )
    .unwrap()
    .request
    else {
        panic!("a full batch is a batch");
    };
    assert_eq!(slots.len(), MAX_BATCH);
}
