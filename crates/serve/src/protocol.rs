//! Wire protocol of the litmus-query service.
//!
//! The transport is newline-delimited JSON over TCP: each request is one
//! JSON object on one line, and each response is one JSON object on one
//! line. `docs/SERVICE.md` documents the schemas; this module holds the
//! typed [`Request`] parsed from a line and the [`ServiceError`] shape
//! every failure is reported in.
//!
//! [`parse_envelope_bytes`] is the second builder on `json`'s one lexer
//! (the first builds [`Json`] trees): it reads a line straight into an
//! [`Envelope`]. It matches the known keys as it meets them, walks a
//! batch's `requests` array in place, and allocates only the strings
//! the envelope keeps. The whole line is read before any field is
//! judged, so a syntax error anywhere makes the line malformed. Unknown
//! keys are ignored but must hold valid JSON, and the last of repeated
//! keys wins.

use std::fmt;
use std::mem::take;

use samm_core::telemetry::trace::TraceContext;

use crate::json::{self, Json, Lexer, ParseError, Token};

/// The engine every enumeration runs on (`samm_core::pruned`), as
/// echoed in enumerate responses.
pub const ENGINE: &str = "pruned";

/// Engine names older clients may still send in the `engine` field.
/// They are accepted and ignored: every request runs on [`ENGINE`].
pub const LEGACY_ENGINES: [&str; 3] = ["serial", "parallel", "pruned"];

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enumerate one catalog test under one model; answered from the
    /// content-addressed cache when possible.
    Enumerate {
        /// Catalog test name (case-insensitive).
        test: String,
        /// Model name (case-insensitive), e.g. `TSO`.
        model: String,
        /// Per-request fork budget override.
        budget: Option<u64>,
    },
    /// Run the conformance harness on one catalog entry: every verdict
    /// row under every model the entry mentions.
    Verdict {
        /// Catalog test name.
        test: String,
        /// Per-request fork budget override.
        budget: Option<u64>,
    },
    /// Find a replayable witness for one condition of a catalog test.
    Witness {
        /// Catalog test name.
        test: String,
        /// Model name.
        model: String,
        /// Index into the test's conditions (default 0).
        condition: usize,
        /// Per-request fork budget override.
        budget: Option<u64>,
    },
    /// Prove one condition unobservable (or produce its witness).
    Refutation {
        /// Catalog test name.
        test: String,
        /// Model name.
        model: String,
        /// Index into the test's conditions (default 0).
        condition: usize,
        /// Per-request fork budget override.
        budget: Option<u64>,
    },
    /// Run the static DRF/total-order certifier on a test/model pair,
    /// optionally followed by the delay-set robustness analysis.
    Certify {
        /// Catalog test name.
        test: String,
        /// Model name.
        model: String,
        /// Also run the delay-set robustness analysis and report its
        /// verdict (`robust`/`cycle`/`unknown`) in the response.
        robust: bool,
    },
    /// Execute up to [`MAX_BATCH`] sub-requests in one round trip,
    /// answering with a `responses` array in sub-request order. Each
    /// slot is parsed independently: a malformed sub-request becomes a
    /// structured error *in its slot* without failing its neighbours.
    /// Nested `batch` and `shutdown` sub-requests are rejected per-slot.
    Batch(Vec<Result<Envelope, ServiceError>>),
    /// Report server counters and cache statistics.
    Metrics,
    /// Report the fleet view: this node's per-kind latency histogram
    /// snapshots plus — unless the request arrived with `fwd` set —
    /// the same snapshots fanned out from every ring peer, merged into
    /// one `fleet` section (histogram merge is exact and commutative,
    /// so the fleet histogram equals the sum of per-node snapshots).
    MetricsCluster,
    /// Report the Prometheus text-format exposition (as the `text`
    /// field of the response). The same payload is served over plain
    /// HTTP when the server was started with `--prom-addr`.
    MetricsProm,
    /// Ask the server to stop accepting connections, drain in-flight
    /// work, and exit.
    Shutdown,
}

/// A request line as parsed off the wire: the typed [`Request`] plus
/// the optional client-chosen `id` echoed back in the response (and
/// recorded on the request's span in the trace log). Requests without
/// an `id` get a server-assigned one.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id, if the line carried one.
    pub id: Option<String>,
    /// The request itself.
    pub request: Request,
    /// Set on requests a cluster peer forwarded here: the receiving
    /// node answers locally and never forwards again, so routing
    /// disagreements (e.g. mid-drain ring views) cannot loop.
    pub fwd: bool,
    /// Propagated trace context from the wire `trace` field. Parsing
    /// is lenient: a missing, non-string, or malformed value is `None`
    /// (the server starts a fresh root span) — tracing never turns a
    /// valid request into an error.
    pub trace: Option<TraceContext>,
}

/// Ceiling on sub-requests per `batch` envelope; larger batches are
/// rejected whole with a `malformed` error naming the limit.
pub const MAX_BATCH: usize = 256;

/// Machine-readable failure classes; the wire `error.kind` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON, or lacked required fields.
    Malformed,
    /// The `test` names no catalog entry.
    UnknownTest,
    /// The `model` names no policy.
    UnknownModel,
    /// The `kind` names no request type.
    UnknownKind,
    /// Enumeration exceeded the effective fork budget.
    Overbudget,
    /// The connection queue was full; retry after the hinted delay.
    Overloaded,
    /// Enumeration failed for a reason other than budget exhaustion.
    EnumFailed,
    /// An unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::UnknownTest => "unknown-test",
            ErrorKind::UnknownModel => "unknown-model",
            ErrorKind::UnknownKind => "unknown-kind",
            ErrorKind::Overbudget => "overbudget",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::EnumFailed => "enum-error",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A structured service failure, rendered as
/// `{"ok":false,"error":{"kind":...,"message":...}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    /// Failure class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Backpressure hint: how long the client should wait before
    /// retrying. Only set with [`ErrorKind::Overloaded`].
    pub retry_after_ms: Option<u64>,
}

impl ServiceError {
    /// Builds an error with no retry hint.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ServiceError {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Renders the full error response object.
    pub fn to_response(&self) -> Json {
        let mut error = vec![
            ("kind", Json::str(self.kind.as_str())),
            ("message", Json::str(self.message.clone())),
        ];
        if let Some(ms) = self.retry_after_ms {
            error.push(("retry_after_ms", Json::num(ms as f64)));
        }
        Json::obj([("ok", Json::Bool(false)), ("error", Json::obj(error))])
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ServiceError {}

/// Parses one request line, discarding any `id` field — see
/// [`parse_envelope`] for the id-aware entry point the server uses.
///
/// # Errors
///
/// [`ErrorKind::Malformed`] for syntax or schema problems,
/// [`ErrorKind::UnknownKind`] for an unrecognised `kind`.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    parse_envelope(line).map(|e| e.request)
}

/// Parses one request line into an [`Envelope`]: the typed request plus
/// the optional `id` field (any kind may carry one).
///
/// # Errors
///
/// As for [`parse_request`]; a non-string `id` is
/// [`ErrorKind::Malformed`].
pub fn parse_envelope(line: &str) -> Result<Envelope, ServiceError> {
    parse_envelope_bytes(line.as_bytes())
}

/// As [`parse_envelope`], over one raw line as read from a socket: a
/// line that is not UTF-8 is [`ErrorKind::Malformed`].
///
/// # Errors
///
/// As for [`parse_envelope`].
pub fn parse_envelope_bytes(line: &[u8]) -> Result<Envelope, ServiceError> {
    read_line(line)
        .map_err(|e| ServiceError::new(ErrorKind::Malformed, format!("invalid JSON: {e}")))?
}

/// Reads the whole line, then judges its fields: a syntax error
/// anywhere in the line outranks every schema error.
fn read_line(line: &[u8]) -> Result<Result<Envelope, ServiceError>, ParseError> {
    let mut lex = Lexer::new(line);
    let token = lex.token(0)?;
    let mut fields = Fields::default();
    if token == Token::Obj {
        fields.read(&mut lex, 0)?;
    } else {
        lex.skip_container(&token, 0)?;
    }
    lex.finish()?;
    Ok(if token == Token::Obj {
        fields.envelope()
    } else {
        Err(ServiceError::new(
            ErrorKind::Malformed,
            "request must be a JSON object",
        ))
    })
}

/// A request object's known fields, each the last value its key had
/// (a missing key reads as `null`). A container value is kept only as
/// its opening token; `requests` is kept as its slots.
#[derive(Default)]
struct Fields<'a> {
    kind: Token<'a>,
    test: Token<'a>,
    model: Token<'a>,
    id: Token<'a>,
    budget: Token<'a>,
    condition: Token<'a>,
    robust: Token<'a>,
    engine: Token<'a>,
    fwd: Token<'a>,
    trace: Token<'a>,
    /// The last `requests` value, if it was an array.
    requests: Option<Slots>,
}

/// A batch's `requests` array: its length and, for a batch of at most
/// [`MAX_BATCH`] slots, every slot read.
struct Slots {
    count: usize,
    read: Vec<Result<Envelope, ServiceError>>,
}

impl<'a> Fields<'a> {
    /// Reads the object at `depth` whose `{` is next. Unknown keys are
    /// checked as JSON and skipped.
    fn read(&mut self, lex: &mut Lexer<'a>, depth: usize) -> Result<(), ParseError> {
        let fields = self;
        lex.object(depth, |lex, key, depth| {
            let field = match &*key {
                "kind" => &mut fields.kind,
                "test" => &mut fields.test,
                "model" => &mut fields.model,
                "id" => &mut fields.id,
                "budget" => &mut fields.budget,
                "condition" => &mut fields.condition,
                "robust" => &mut fields.robust,
                "engine" => &mut fields.engine,
                "fwd" => &mut fields.fwd,
                "trace" => &mut fields.trace,
                "requests" => {
                    fields.requests = Slots::read(lex, depth)?;
                    return Ok(());
                }
                _ => {
                    lex.value(depth)?;
                    return Ok(());
                }
            };
            *field = lex.value(depth)?;
            Ok(())
        })
    }

    /// Judges a line's fields: `id`, then `fwd`, then `trace`, then the
    /// request.
    fn envelope(&mut self) -> Result<Envelope, ServiceError> {
        let id = optional_id(take(&mut self.id))?;
        let fwd = optional_bool(&self.fwd, "fwd")?;
        let trace = lenient_trace(&self.trace);
        let request = self.request()?;
        Ok(Envelope {
            id,
            request,
            fwd,
            trace,
        })
    }

    /// Judges a batch slot's fields: `id`, then `trace`, then the
    /// request, which may be neither a batch nor a shutdown. A slot's
    /// `fwd` is ignored.
    fn slot(&mut self) -> Result<Envelope, ServiceError> {
        let id = optional_id(take(&mut self.id))?;
        let trace = lenient_trace(&self.trace);
        match self.request()? {
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

    /// Judges the request itself, moving its strings into the
    /// [`Request`].
    fn request(&mut self) -> Result<Request, ServiceError> {
        let Token::Str(kind) = &self.kind else {
            return Err(missing_str("kind"));
        };
        let kind: &str = kind;
        match kind {
            "batch" => {
                let Some(slots) = self.requests.take() else {
                    return Err(ServiceError::new(
                        ErrorKind::Malformed,
                        "batch requires a 'requests' array",
                    ));
                };
                if slots.count == 0 {
                    return Err(ServiceError::new(
                        ErrorKind::Malformed,
                        "batch 'requests' must not be empty",
                    ));
                }
                if slots.count > MAX_BATCH {
                    return Err(ServiceError::new(
                        ErrorKind::Malformed,
                        format!(
                            "batch carries {} sub-requests; the limit is {MAX_BATCH}",
                            slots.count
                        ),
                    ));
                }
                Ok(Request::Batch(slots.read))
            }
            "enumerate" => {
                check_engine(&self.engine)?;
                Ok(Request::Enumerate {
                    test: required_str(take(&mut self.test), "test")?,
                    model: required_str(take(&mut self.model), "model")?,
                    budget: optional_u64(&self.budget, "budget")?,
                })
            }
            "verdict" => {
                check_engine(&self.engine)?;
                Ok(Request::Verdict {
                    test: required_str(take(&mut self.test), "test")?,
                    budget: optional_u64(&self.budget, "budget")?,
                })
            }
            "witness" | "refutation" => {
                let test = required_str(take(&mut self.test), "test")?;
                let model = required_str(take(&mut self.model), "model")?;
                let condition = optional_u64(&self.condition, "condition")?.unwrap_or(0) as usize;
                let budget = optional_u64(&self.budget, "budget")?;
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
                test: required_str(take(&mut self.test), "test")?,
                model: required_str(take(&mut self.model), "model")?,
                robust: optional_bool(&self.robust, "robust")?,
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

impl Slots {
    /// Reads the `requests` value at `depth`: `None` unless it is an
    /// array. Past [`MAX_BATCH`] slots, slots are only counted and
    /// checked as JSON: an oversized batch is refused by its count.
    fn read(lex: &mut Lexer<'_>, depth: usize) -> Result<Option<Slots>, ParseError> {
        let token = lex.token(depth)?;
        if token != Token::Arr {
            lex.skip_container(&token, depth)?;
            return Ok(None);
        }
        let mut slots = Slots {
            count: 0,
            read: Vec::new(),
        };
        lex.array(depth, |lex, depth| {
            slots.count += 1;
            if slots.count <= MAX_BATCH {
                slots.read.push(read_slot(lex, depth)?);
            } else {
                if slots.count == MAX_BATCH + 1 {
                    slots.read = Vec::new();
                }
                lex.value(depth)?;
            }
            Ok(())
        })?;
        Ok(Some(slots))
    }
}

/// Reads and judges one batch slot at `depth`.
fn read_slot(
    lex: &mut Lexer<'_>,
    depth: usize,
) -> Result<Result<Envelope, ServiceError>, ParseError> {
    let token = lex.token(depth)?;
    if token != Token::Obj {
        lex.skip_container(&token, depth)?;
        return Ok(Err(ServiceError::new(
            ErrorKind::Malformed,
            "batch sub-request must be a JSON object",
        )));
    }
    let mut fields = Fields::default();
    fields.read(lex, depth)?;
    Ok(fields.slot())
}

/// A required string field, moved out of its token.
fn required_str(value: Token<'_>, key: &str) -> Result<String, ServiceError> {
    match value {
        Token::Str(s) => Ok(s.into_owned()),
        _ => Err(missing_str(key)),
    }
}

fn missing_str(key: &str) -> ServiceError {
    ServiceError::new(
        ErrorKind::Malformed,
        format!("missing or non-string field '{key}'"),
    )
}

/// An optional count: read as `f64`, then accepted when integral and
/// in range, so `1e2`, `1.0`, `01` and `-0` are counts too.
fn optional_u64(value: &Token<'_>, key: &str) -> Result<Option<u64>, ServiceError> {
    let count = match value {
        Token::Null => return Ok(None),
        Token::Num(n) => json::f64_as_u64(*n),
        _ => None,
    };
    count.map(Some).ok_or_else(|| {
        ServiceError::new(
            ErrorKind::Malformed,
            format!("field '{key}' must be a non-negative integer"),
        )
    })
}

fn optional_bool(value: &Token<'_>, key: &str) -> Result<bool, ServiceError> {
    match value {
        Token::Null => Ok(false),
        Token::Bool(b) => Ok(*b),
        _ => Err(ServiceError::new(
            ErrorKind::Malformed,
            format!("field '{key}' must be a boolean"),
        )),
    }
}

fn optional_id(value: Token<'_>) -> Result<Option<String>, ServiceError> {
    match value {
        Token::Null => Ok(None),
        Token::Str(id) => Ok(Some(id.into_owned())),
        _ => Err(ServiceError::new(
            ErrorKind::Malformed,
            "field 'id' must be a string",
        )),
    }
}

/// Validates the optional legacy `engine` field: one of
/// [`LEGACY_ENGINES`] is accepted and ignored, anything else is
/// malformed.
fn check_engine(value: &Token<'_>) -> Result<(), ServiceError> {
    match value {
        Token::Null => Ok(()),
        Token::Str(e) if LEGACY_ENGINES.contains(&&**e) => Ok(()),
        _ => Err(ServiceError::new(
            ErrorKind::Malformed,
            "field 'engine' must be \"serial\", \"parallel\" or \"pruned\" (all run the pruned engine)",
        )),
    }
}

/// Decodes the optional `trace` field. Deliberately infallible: any
/// malformation (wrong type, bad hex, wrong shape) degrades to `None`
/// so the request proceeds under a fresh root span.
fn lenient_trace(value: &Token<'_>) -> Option<TraceContext> {
    match value {
        Token::Str(s) => TraceContext::parse(s),
        _ => None,
    }
}

/// Renders a request back to its wire object — the inverse of the
/// parser, used by the cluster layer to forward envelopes to the
/// owning peer. Malformed batch slots (which are never forwarded)
/// render as an object the receiving parser rejects per-slot, keeping
/// slot counts aligned.
pub fn render_request(request: &Request) -> Json {
    let mut fields: Vec<(&'static str, Json)> = Vec::new();
    match request {
        Request::Enumerate {
            test,
            model,
            budget,
        } => {
            fields.push(("kind", Json::str("enumerate")));
            fields.push(("test", Json::str(test.clone())));
            fields.push(("model", Json::str(model.clone())));
            if let Some(b) = budget {
                fields.push(("budget", Json::num(*b as f64)));
            }
        }
        Request::Verdict { test, budget } => {
            fields.push(("kind", Json::str("verdict")));
            fields.push(("test", Json::str(test.clone())));
            if let Some(b) = budget {
                fields.push(("budget", Json::num(*b as f64)));
            }
        }
        Request::Witness {
            test,
            model,
            condition,
            budget,
        }
        | Request::Refutation {
            test,
            model,
            condition,
            budget,
        } => {
            let kind = if matches!(request, Request::Witness { .. }) {
                "witness"
            } else {
                "refutation"
            };
            fields.push(("kind", Json::str(kind)));
            fields.push(("test", Json::str(test.clone())));
            fields.push(("model", Json::str(model.clone())));
            fields.push(("condition", Json::num(*condition as f64)));
            if let Some(b) = budget {
                fields.push(("budget", Json::num(*b as f64)));
            }
        }
        Request::Certify {
            test,
            model,
            robust,
        } => {
            fields.push(("kind", Json::str("certify")));
            fields.push(("test", Json::str(test.clone())));
            fields.push(("model", Json::str(model.clone())));
            if *robust {
                fields.push(("robust", Json::Bool(true)));
            }
        }
        Request::Batch(subs) => {
            fields.push(("kind", Json::str("batch")));
            let rendered = subs
                .iter()
                .map(|slot| match slot {
                    Ok(env) => render_envelope(env),
                    Err(_) => Json::obj([("kind", Json::str("_invalid"))]),
                })
                .collect();
            fields.push(("requests", Json::Arr(rendered)));
        }
        Request::Metrics => fields.push(("kind", Json::str("metrics"))),
        Request::MetricsCluster => fields.push(("kind", Json::str("metrics_cluster"))),
        Request::MetricsProm => fields.push(("kind", Json::str("metrics_prom"))),
        Request::Shutdown => fields.push(("kind", Json::str("shutdown"))),
    }
    Json::obj(fields)
}

/// Renders a full envelope (request plus `id` and `fwd` marker) as one
/// wire object.
pub fn render_envelope(env: &Envelope) -> Json {
    let mut rendered = render_request(&env.request);
    if let Json::Obj(map) = &mut rendered {
        if let Some(id) = &env.id {
            map.insert("id".to_owned(), Json::str(id.clone()));
        }
        if env.fwd {
            map.insert("fwd".to_owned(), Json::Bool(true));
        }
        if let Some(ctx) = &env.trace {
            map.insert("trace".to_owned(), Json::str(ctx.encode()));
        }
    }
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        assert_eq!(
            parse_request(r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#).unwrap(),
            Request::Enumerate {
                test: "SB".into(),
                model: "TSO".into(),
                budget: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"verdict","test":"IRIW","budget":5000,"engine":"parallel"}"#)
                .unwrap(),
            Request::Verdict {
                test: "IRIW".into(),
                budget: Some(5000),
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"witness","test":"SB","model":"TSO","condition":1}"#).unwrap(),
            Request::Witness {
                test: "SB".into(),
                model: "TSO".into(),
                condition: 1,
                budget: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"refutation","test":"SB","model":"SC"}"#).unwrap(),
            Request::Refutation {
                test: "SB".into(),
                model: "SC".into(),
                condition: 0,
                budget: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"certify","test":"MP+fences","model":"Weak"}"#).unwrap(),
            Request::Certify {
                test: "MP+fences".into(),
                model: "Weak".into(),
                robust: false,
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"certify","test":"SB","model":"TSO","robust":true}"#).unwrap(),
            Request::Certify {
                test: "SB".into(),
                model: "TSO".into(),
                robust: true,
            }
        );
        assert_eq!(
            parse_request(r#"{"kind":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"kind":"metrics_cluster"}"#).unwrap(),
            Request::MetricsCluster
        );
        assert_eq!(
            parse_request(r#"{"kind":"metrics_prom"}"#).unwrap(),
            Request::MetricsProm
        );
        assert_eq!(
            parse_request(r#"{"kind":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn legacy_engine_names_are_accepted_and_ignored() {
        let plain = parse_request(r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#).unwrap();
        for engine in LEGACY_ENGINES {
            let line =
                format!(r#"{{"kind":"enumerate","test":"SB","model":"TSO","engine":"{engine}"}}"#);
            assert_eq!(parse_request(&line).unwrap(), plain, "{engine}");
            let line = format!(r#"{{"kind":"verdict","test":"SB","engine":"{engine}"}}"#);
            assert!(parse_request(&line).is_ok(), "{engine}");
        }
        let err = parse_request(r#"{"kind":"verdict","test":"SB","engine":7}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
    }

    #[test]
    fn envelope_carries_the_request_id() {
        let env = parse_envelope(r#"{"kind":"metrics","id":"trace-7"}"#).unwrap();
        assert_eq!(env.id.as_deref(), Some("trace-7"));
        assert_eq!(env.request, Request::Metrics);
        let env = parse_envelope(r#"{"kind":"metrics"}"#).unwrap();
        assert_eq!(env.id, None);
        let err = parse_envelope(r#"{"kind":"metrics","id":7}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
    }

    /// A byte line that is not UTF-8 is malformed, never parsed with a
    /// replacement character standing in for the bad byte.
    #[test]
    fn invalid_utf8_lines_are_malformed() {
        let env = parse_envelope_bytes(br#"{"kind":"metrics","id":"a"}"#).unwrap();
        assert_eq!(env.id.as_deref(), Some("a"));
        for line in [
            &b"{\"kind\":\"metrics\",\"id\":\"a\xffb\"}"[..],
            b"{\"kind\":\"metrics\",\"id\":\"\xe2\"}",
            b"{\"kind\":\"metrics\",\"id\":\"a\"}\xff",
        ] {
            let err = parse_envelope_bytes(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{line:?}");
        }
        let err = parse_envelope_bytes(b"{\"kind\":\"metrics\",\"id\":\"a\xffb\"}").unwrap_err();
        assert!(err.message.contains("invalid UTF-8"), "{err}");
    }

    #[test]
    fn malformed_requests_are_classified() {
        for (line, kind) in [
            ("not json", ErrorKind::Malformed),
            ("[1,2]", ErrorKind::Malformed),
            ("{}", ErrorKind::Malformed),
            (r#"{"kind":"enumerate"}"#, ErrorKind::Malformed),
            (
                r#"{"kind":"enumerate","test":"SB","model":"TSO","budget":-1}"#,
                ErrorKind::Malformed,
            ),
            (
                r#"{"kind":"enumerate","test":"SB","model":"TSO","engine":"gpu"}"#,
                ErrorKind::Malformed,
            ),
            (
                r#"{"kind":"certify","test":"SB","model":"TSO","robust":"yes"}"#,
                ErrorKind::Malformed,
            ),
            (r#"{"kind":"frobnicate"}"#, ErrorKind::UnknownKind),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, kind, "{line}");
        }
    }

    #[test]
    fn batch_parses_with_per_slot_isolation() {
        let line = r#"{"kind":"batch","requests":[
            {"kind":"enumerate","test":"SB","model":"TSO","id":"a"},
            {"kind":"enumerate"},
            {"kind":"shutdown"},
            {"kind":"batch","requests":[{"kind":"metrics"}]},
            {"kind":"metrics"}]}"#
            .replace('\n', "");
        let Request::Batch(subs) = parse_request(&line).unwrap() else {
            panic!("expected a batch");
        };
        assert_eq!(subs.len(), 5);
        assert_eq!(subs[0].as_ref().unwrap().id.as_deref(), Some("a"));
        assert!(matches!(
            subs[0].as_ref().unwrap().request,
            Request::Enumerate { .. }
        ));
        assert_eq!(subs[1].as_ref().unwrap_err().kind, ErrorKind::Malformed);
        assert_eq!(subs[2].as_ref().unwrap_err().kind, ErrorKind::Malformed);
        assert_eq!(subs[3].as_ref().unwrap_err().kind, ErrorKind::Malformed);
        assert_eq!(subs[4].as_ref().unwrap().request, Request::Metrics);
    }

    #[test]
    fn batch_envelope_level_failures() {
        for line in [
            r#"{"kind":"batch"}"#,
            r#"{"kind":"batch","requests":[]}"#,
            r#"{"kind":"batch","requests":7}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().kind,
                ErrorKind::Malformed,
                "{line}"
            );
        }
        let too_many: Vec<String> = (0..=MAX_BATCH)
            .map(|_| r#"{"kind":"metrics"}"#.to_owned())
            .collect();
        let line = format!(r#"{{"kind":"batch","requests":[{}]}}"#, too_many.join(","));
        assert_eq!(parse_request(&line).unwrap_err().kind, ErrorKind::Malformed);
    }

    #[test]
    fn rendered_requests_reparse_identically() {
        for line in [
            r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"TSO","budget":100}"#,
            r#"{"kind":"verdict","test":"IRIW"}"#,
            r#"{"kind":"witness","test":"SB","model":"TSO","condition":1}"#,
            r#"{"kind":"refutation","test":"SB","model":"SC","budget":9}"#,
            r#"{"kind":"certify","test":"SB","model":"TSO","robust":true}"#,
            r#"{"kind":"metrics"}"#,
            r#"{"kind":"metrics_cluster"}"#,
            r#"{"kind":"batch","requests":[{"kind":"metrics","id":"x"}]}"#,
        ] {
            let env = parse_envelope(line).unwrap();
            let rendered = render_envelope(&env).to_string();
            assert_eq!(parse_envelope(&rendered).unwrap(), env, "{line}");
        }
    }

    #[test]
    fn forwarded_envelopes_round_trip_the_fwd_marker() {
        let env = parse_envelope(r#"{"kind":"metrics","fwd":true,"id":"f1"}"#).unwrap();
        assert!(env.fwd);
        let rendered = render_envelope(&env).to_string();
        assert!(rendered.contains("\"fwd\":true"));
        assert_eq!(parse_envelope(&rendered).unwrap(), env);
        // Absent or false markers stay off the wire.
        let plain = parse_envelope(r#"{"kind":"metrics"}"#).unwrap();
        assert!(!plain.fwd);
        assert!(!render_envelope(&plain).to_string().contains("fwd"));
    }

    #[test]
    fn trace_context_round_trips_on_envelopes_and_subs() {
        let ctx = TraceContext {
            trace: 0xabcd_ef01_2345_6789,
            span: 0x1111_2222_3333_4444,
        };
        let line = format!(r#"{{"kind":"metrics","trace":"{}"}}"#, ctx.encode());
        let env = parse_envelope(&line).unwrap();
        assert_eq!(env.trace, Some(ctx));
        let rendered = render_envelope(&env).to_string();
        assert_eq!(parse_envelope(&rendered).unwrap(), env);

        // Sub-envelopes carry their own trace field too.
        let line = format!(
            r#"{{"kind":"batch","requests":[{{"kind":"metrics","trace":"{}"}}]}}"#,
            ctx.encode()
        );
        let Request::Batch(subs) = parse_request(&line).unwrap() else {
            panic!("expected a batch");
        };
        assert_eq!(subs[0].as_ref().unwrap().trace, Some(ctx));
    }

    #[test]
    fn malformed_trace_fields_degrade_to_none() {
        for line in [
            r#"{"kind":"metrics","trace":"garbage"}"#,
            r#"{"kind":"metrics","trace":"1234-5678"}"#,
            r#"{"kind":"metrics","trace":12345}"#,
            r#"{"kind":"metrics","trace":true}"#,
            r#"{"kind":"metrics","trace":null}"#,
            r#"{"kind":"metrics","trace":{"trace":1}}"#,
        ] {
            let env = parse_envelope(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(env.trace, None, "{line}");
            assert_eq!(env.request, Request::Metrics, "{line}");
        }
    }

    /// The request grammar `docs/SERVICE.md` states, case by case.
    #[test]
    fn repeated_keys_take_the_last_value() {
        assert_eq!(
            parse_request(r#"{"kind":"verdict","test":"SB","kind":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        let env = parse_envelope(r#"{"id":7,"kind":"metrics","id":"b"}"#).unwrap();
        assert_eq!(env.id.as_deref(), Some("b"));
        let err = parse_envelope(r#"{"id":"a","kind":"metrics","id":7}"#).unwrap_err();
        assert_eq!(err.message, "field 'id' must be a string");
        let line = r#"{"kind":"batch","requests":[{"kind":"metrics"}],"requests":7}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err.message, "batch requires a 'requests' array");
    }

    #[test]
    fn counts_are_numbers_read_as_f64() {
        for (spelling, count) in [("1e2", 100), ("1.0", 1), ("01", 1), ("-0", 0), ("1E+1", 10)] {
            let line = format!(r#"{{"kind":"verdict","test":"SB","budget":{spelling}}}"#);
            assert_eq!(
                parse_request(&line).unwrap(),
                Request::Verdict {
                    test: "SB".into(),
                    budget: Some(count),
                },
                "{spelling}"
            );
        }
        for spelling in ["1.5", "-1", "\"1\"", "true", "[]", "9007199254740994"] {
            let line =
                format!(r#"{{"kind":"witness","test":"SB","model":"TSO","condition":{spelling}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert_eq!(
                err.message, "field 'condition' must be a non-negative integer",
                "{spelling}"
            );
        }
    }

    #[test]
    fn unknown_keys_are_ignored_but_must_be_json() {
        let plain = parse_envelope(r#"{"kind":"metrics"}"#).unwrap();
        let line = r#"{"x":{"a":[1,{"b":null}]},"kind":"metrics","\u00e9":"\n"}"#;
        assert_eq!(parse_envelope(line).unwrap(), plain);
        let err = parse_envelope(r#"{"x":[1,],"kind":"metrics"}"#).unwrap_err();
        assert_eq!(err.message, "invalid JSON: unexpected character at byte 8");
        let deep = format!(
            r#"{{"kind":"metrics","x":{}1{}}}"#,
            "[".repeat(64),
            "]".repeat(64)
        );
        let err = parse_envelope(&deep).unwrap_err();
        assert_eq!(err.message, "invalid JSON: nesting too deep at byte 86");
    }

    #[test]
    fn escaped_names_and_ids_are_decoded() {
        let env = parse_envelope(
            r#"{"\u006bind":"enum\u0065rate","test":"S\u0042","mod\u0065l":"TSO","id":"a\"\\\/\n\u00e9"}"#,
        )
        .unwrap();
        assert_eq!(env.id.as_deref(), Some("a\"\\/\n\u{e9}"));
        assert_eq!(
            env.request,
            Request::Enumerate {
                test: "SB".into(),
                model: "TSO".into(),
                budget: None,
            }
        );
    }

    /// A syntax error anywhere outranks every schema error before it.
    #[test]
    fn the_whole_line_is_read_before_any_field_is_judged() {
        let err = parse_envelope(r#"{"id":7,"kind":"metrics",}"#).unwrap_err();
        assert_eq!(err.message, "invalid JSON: expected '\"' at byte 25");
        let err = parse_envelope(r#"{"kind":"frob"} x"#).unwrap_err();
        assert_eq!(
            err.message,
            "invalid JSON: trailing characters after JSON value at byte 16"
        );
        let line = r#"{"kind":"batch","requests":[{"kind":"metrics"},{"kind":"metrics"]}"#;
        let err = parse_envelope(line).unwrap_err();
        assert_eq!(err.message, "invalid JSON: expected ',' or '}' at byte 64");
        let err = parse_envelope("[1,2] ").unwrap_err();
        assert_eq!(err.message, "request must be a JSON object");
    }

    #[test]
    fn error_response_shape() {
        let mut err = ServiceError::new(ErrorKind::Overloaded, "queue full");
        err.retry_after_ms = Some(50);
        let rendered = err.to_response().to_string();
        assert_eq!(
            rendered,
            "{\"error\":{\"kind\":\"overloaded\",\"message\":\"queue full\",\
             \"retry_after_ms\":50},\"ok\":false}"
        );
    }
}
