//! End-to-end telemetry tests over real sockets: a client-sent request
//! id must round-trip into the response, the span log, and the
//! Prometheus exposition — and the `--prom-addr` plain-HTTP listener
//! must serve a checker-clean exposition.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use samm_core::telemetry::prom;
use samm_core::telemetry::trace::{ActiveSpan, SpanKind};
use samm_serve::client::Client;
use samm_serve::json::{self, Json};
use samm_serve::{start, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn scrape(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream
        .write_all(format!("GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("http header/body");
    (head.to_owned(), body.to_owned())
}

#[test]
fn request_ids_round_trip_into_response_span_log_and_exposition() {
    let dir = std::env::temp_dir().join(format!("samm-telemetry-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("trace.jsonl");
    let _ = std::fs::remove_file(&log_path);

    let handle = start(ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(5),
        prom_addr: Some("127.0.0.1:0".to_owned()),
        trace_log: Some(log_path.clone()),
        // Zero threshold: every span is written and every request is
        // "slow", so the test is deterministic.
        slow_threshold: Duration::ZERO,
        ..ServerConfig::default()
    })
    .unwrap();
    let prom_addr = handle.prom_addr().expect("prom listener bound");
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();

    // A server-assigned id first: the "r<N>" scheme.
    let anonymous = client
        .request_raw(r#"{"kind":"enumerate","test":"MP","model":"SC"}"#)
        .unwrap();
    assert!(ok(&anonymous), "{anonymous}");
    let assigned = anonymous.get("id").and_then(Json::as_str).unwrap();
    assert!(assigned.starts_with('r'), "server id: {assigned}");

    // Then a client-chosen id, echoed verbatim.
    let tagged = client
        .request_raw(r#"{"kind":"enumerate","test":"SB","model":"TSO","id":"client-77"}"#)
        .unwrap();
    assert!(ok(&tagged), "{tagged}");
    assert_eq!(tagged.get("id").and_then(Json::as_str), Some("client-77"));

    // The span log (threshold zero) carries both requests' server
    // spans, ids intact.
    let log = std::fs::read_to_string(&log_path).unwrap();
    assert!(
        log.lines()
            .any(|l| l.contains(&format!("\"id\":\"{assigned}\""))),
        "span log must carry the server-assigned id:\n{log}"
    );
    let tagged_line = log
        .lines()
        .find(|l| l.contains("\"id\":\"client-77\""))
        .unwrap_or_else(|| panic!("span log must carry the client id:\n{log}"));
    assert!(tagged_line.contains("\"kind\":\"server\""));
    assert!(tagged_line.contains("\"req\":\"enumerate\""));
    assert!(tagged_line.contains("\"outcome\":\"miss\""));

    // The HTTP exposition is checker-clean and names the last slow
    // request — the client-chosen id.
    let (head, body) = scrape(prom_addr, "/metrics");
    assert!(head.contains(" 200 "), "{head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    let summary = prom::check(&body).expect("valid exposition");
    assert!(summary.has_family("samm_request_latency_seconds"));
    assert!(summary.has_family("samm_slow_queries_total"));
    assert!(
        body.contains("samm_slow_last_request_info{id=\"client-77\"} 1"),
        "exposition must name the last slow request:\n{body}"
    );
    // Both enumerations ran fresh: the miss histogram counted them.
    assert!(
        body.contains("samm_request_latency_seconds_count{kind=\"enumerate\",outcome=\"miss\"} 2")
    );

    // The wire-level metrics_prom answer carries the same exposition
    // (modulo counters that moved), also checker-clean.
    let wire = client.request_raw(r#"{"kind":"metrics_prom"}"#).unwrap();
    assert!(ok(&wire), "{wire}");
    let text = wire.get("text").and_then(Json::as_str).unwrap();
    let summary = prom::check(text).expect("valid wire exposition");
    assert!(summary.has_family("samm_requests_total"));

    // Unknown paths 404 without killing the listener.
    let (head, _) = scrape(prom_addr, "/nope");
    assert!(head.contains(" 404 "), "{head}");
    let (head, _) = scrape(prom_addr, "/metrics");
    assert!(head.contains(" 200 "), "{head}");

    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strings that exercise every escaping rule: quote, backslash, the
/// three short control escapes, the `\u00xx` range at both ends, and
/// non-ASCII text that must pass through untouched.
const AWKWARD: [&str; 11] = [
    "",
    "plain",
    "quote\"inside",
    "back\\slash",
    "line\nfeed",
    "carriage\rreturn",
    "tab\there",
    "\u{1}",
    "\u{1f}",
    "héllo → ✓ 🦀",
    "all \"\\\n\r\t\u{1}\u{1f} é",
];

/// The wire encoder (`Json`) and the span JSONL lines share one
/// escaper: both forms are byte-identical and parse back to the
/// original string.
#[test]
fn wire_and_jsonl_strings_share_one_escaper() {
    for s in AWKWARD {
        let wire = Json::str(s).to_string();
        let mut span = ActiveSpan::root("server", SpanKind::Server);
        span.attr("k", s.to_owned());
        let line = span.into_record().to_jsonl();
        let field = line
            .split_once(",\"k\":")
            .and_then(|(_, rest)| rest.strip_suffix('}'))
            .unwrap_or_else(|| panic!("unexpected JSONL shape: {line}"));
        assert_eq!(wire, field, "escaped forms differ for {s:?}");
        assert_eq!(json::parse(&wire).unwrap().as_str(), Some(s), "{wire}");
        assert_eq!(
            json::parse(&line).unwrap().get("k").and_then(Json::as_str),
            Some(s),
            "{line}"
        );
    }
}

#[test]
fn awkward_client_ids_survive_the_response_and_the_span_log() {
    let dir = std::env::temp_dir().join(format!("samm-escape-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("trace.jsonl");
    let _ = std::fs::remove_file(&log_path);

    let handle = start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        trace_log: Some(log_path.clone()),
        slow_threshold: Duration::ZERO,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let id = "a\"b\u{1}";
    let response = client
        .request_raw(r#"{"kind":"enumerate","test":"SB","model":"SC","id":"a\"b\u0001"}"#)
        .unwrap();
    assert!(ok(&response), "{response}");
    assert_eq!(response.get("id").and_then(Json::as_str), Some(id));
    handle.shutdown().unwrap();

    let log = std::fs::read_to_string(&log_path).unwrap();
    let entries: Vec<Json> = log
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("unparseable span line {l}: {e}")))
        .collect();
    let entry = entries
        .iter()
        .find(|e| e.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("span log must carry the id intact:\n{log}"));
    assert_eq!(entry.get("req").and_then(Json::as_str), Some("enumerate"));
    assert!(log.contains("\"req\":\"enumerate\""), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn monitoring_traffic_never_reaches_the_request_histograms() {
    let handle = start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    for _ in 0..5 {
        let metrics = client.request_raw(r#"{"kind":"metrics"}"#).unwrap();
        assert!(ok(&metrics), "{metrics}");
    }
    let metrics = client.request_raw(r#"{"kind":"metrics"}"#).unwrap();
    assert_eq!(metrics.get("requests").and_then(Json::as_u64), Some(0));
    assert_eq!(metrics.get("monitoring").and_then(Json::as_u64), Some(6));
    // The top-level count and the telemetry section read one counter.
    assert_eq!(
        metrics
            .get("telemetry")
            .and_then(|t| t.get("monitoring"))
            .and_then(Json::as_u64),
        Some(6)
    );
    // No latency-tracked kind saw any traffic.
    let kinds = metrics
        .get("telemetry")
        .and_then(|t| t.get("kinds"))
        .unwrap();
    if let Json::Obj(map) = kinds {
        for (name, k) in map {
            for field in ["hit", "miss", "overbudget", "errors"] {
                assert_eq!(
                    k.get(field).and_then(Json::as_u64),
                    Some(0),
                    "{name}.{field}"
                );
            }
        }
    } else {
        panic!("kinds must be an object");
    }
    handle.shutdown().unwrap();
}

/// Sums every series of the exposition's `samm_requests_total` family.
fn requests_total(text: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with("samm_requests_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

#[test]
fn malformed_lines_are_counted_in_the_request_family() {
    let handle = start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let malformed = [
        "not json",
        "{}",
        r#"{"kind":"nope"}"#,
        r#"{"kind":"enumerate","id":7}"#,
        "[1,2",
    ];
    let valid = [
        r#"{"kind":"enumerate","test":"SB","model":"SC"}"#,
        r#"{"kind":"enumerate","test":"SB","model":"SC"}"#,
        r#"{"kind":"enumerate","test":"NOPE","model":"SC"}"#,
        r#"{"kind":"verdict","test":"MP"}"#,
    ];
    for line in malformed {
        let answer = client.request_raw(line).unwrap();
        assert!(!ok(&answer), "{line} must fail: {answer}");
    }
    for line in valid {
        client.request_raw(line).unwrap();
    }
    let wire = client.request_raw(r#"{"kind":"metrics_prom"}"#).unwrap();
    let text = wire.get("text").and_then(Json::as_str).unwrap();
    prom::check(text).expect("valid exposition");
    assert!(
        text.contains(&format!(
            "samm_requests_total{{kind=\"malformed\",outcome=\"error\"}} {}",
            malformed.len()
        )),
        "{text}"
    );
    let metrics = client.request_raw(r#"{"kind":"metrics"}"#).unwrap();
    let requests = metrics.get("requests").and_then(Json::as_u64).unwrap();
    assert_eq!(requests as usize, malformed.len() + valid.len());
    // With no batch line (whose slots count in their own kinds too) and
    // no shutdown line, the family and `requests` count the same lines.
    assert_eq!(requests_total(text), requests as f64, "{text}");
    handle.shutdown().unwrap();
}

/// The family counts each batch line and each of its slots, a slot that
/// does not parse as `malformed`: beside `requests`, which counts the
/// batch line once, it reads one more per slot.
#[test]
fn batch_lines_and_their_slots_are_counted_in_the_request_family() {
    let handle = start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    for line in [
        r#"{"kind":"enumerate","test":"SB","model":"SC"}"#,
        r#"{"kind":"verdict","test":"MP"}"#,
    ] {
        assert!(ok(&client.request_raw(line).unwrap()), "{line}");
    }
    let batch = client
        .request_raw(
            r#"{"kind":"batch","requests":[{"kind":"enumerate","test":"SB","model":"TSO"},"x"]}"#,
        )
        .unwrap();
    assert_eq!(batch.get("failed").and_then(Json::as_u64), Some(1));
    let wire = client.request_raw(r#"{"kind":"metrics_prom"}"#).unwrap();
    let text = wire.get("text").and_then(Json::as_str).unwrap();
    prom::check(text).expect("valid exposition");
    assert!(
        text.contains("samm_requests_total{kind=\"malformed\",outcome=\"error\"} 1"),
        "{text}"
    );
    let metrics = client.request_raw(r#"{"kind":"metrics"}"#).unwrap();
    let requests = metrics.get("requests").and_then(Json::as_u64).unwrap();
    assert_eq!(requests, 3);
    assert_eq!(requests_total(text), (requests + 2) as f64, "{text}");
    handle.shutdown().unwrap();
}
