//! Wire protocol of the litmus-query service.
//!
//! The transport is newline-delimited JSON over TCP: each request is one
//! JSON object on one line, and each response is one JSON object on one
//! line. `docs/SERVICE.md` documents the schemas; this module holds the
//! typed [`Request`] parsed from a line and the [`ServiceError`] shape
//! every failure is reported in.

use std::collections::BTreeMap;
use std::fmt;

use samm_core::telemetry::trace::TraceContext;

use crate::json::{self, Json};

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
