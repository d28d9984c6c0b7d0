//! Distributed-tracing end-to-end: a forwarded cluster request yields
//! ONE trace whose client/server/forward/engine-phase spans link up
//! across node trace logs, malformed `trace` fields degrade to fresh
//! root spans instead of errors, and `metrics_cluster` merges per-node
//! histogram snapshots exactly.

#![cfg(unix)]

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::Duration;

use samm_core::telemetry::trace::TraceContext;
use samm_serve::client::Client;
use samm_serve::cluster::ClusterConfig;
use samm_serve::json::Json;
use samm_serve::{start, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(20);

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// Starts a 3-node cluster with one trace log per node under `dir`;
/// returns the handles and the trace-log paths.
fn start_traced_cluster(dir: &std::path::Path) -> (Vec<ServerHandle>, Vec<PathBuf>) {
    std::fs::create_dir_all(dir).unwrap();
    let addrs = free_addrs(3);
    let topology = format!(
        "node-a {}\nnode-b {}\nnode-c {}\n",
        addrs[0], addrs[1], addrs[2]
    );
    let mut handles = Vec::new();
    let mut logs = Vec::new();
    for (id, addr) in ["node-a", "node-b", "node-c"].iter().zip(&addrs) {
        let log = dir.join(format!("{id}.trace.jsonl"));
        let _ = std::fs::remove_file(&log);
        handles.push(
            start(ServerConfig {
                addr: addr.to_string(),
                workers: 2,
                read_timeout: Duration::from_secs(5),
                trace_log: Some(log.clone()),
                cluster: Some(ClusterConfig::parse(&topology, id).unwrap()),
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        logs.push(log);
    }
    (handles, logs)
}

/// One span row parsed back out of a node's trace log.
#[derive(Debug, Clone)]
struct Row {
    span: String,
    parent: String,
    name: String,
    dur_ns: u64,
    node: Option<String>,
    fwd: bool,
}

/// All spans of `trace_hex` across the given logs, keyed by span id.
fn spans_of_trace(logs: &[PathBuf], trace_hex: &str) -> BTreeMap<String, Row> {
    let mut rows = BTreeMap::new();
    for log in logs {
        let body = std::fs::read_to_string(log).unwrap_or_default();
        for line in body.lines() {
            let value = samm_serve::json::parse(line).unwrap();
            if value.get("trace").and_then(Json::as_str) != Some(trace_hex) {
                continue;
            }
            let field = |k: &str| value.get(k).and_then(Json::as_str).map(str::to_owned);
            let row = Row {
                span: field("span").unwrap(),
                parent: field("parent").unwrap(),
                name: field("name").unwrap(),
                dur_ns: value.get("dur_ns").and_then(Json::as_u64).unwrap(),
                node: field("node"),
                fwd: value.get("fwd").and_then(Json::as_bool) == Some(true),
            };
            rows.insert(row.span.clone(), row);
        }
    }
    rows
}

#[test]
fn forwarded_request_yields_one_linked_trace() {
    let dir = std::env::temp_dir().join(format!("samm-trace-e2e-{}", std::process::id()));
    let (handles, logs) = start_traced_cluster(&dir);
    let mut client = Client::connect(handles[0].addr(), TIMEOUT).unwrap();

    // Client-originated trace context: pretend span 0xc11e... is an
    // in-flight client span; the server must parent under it.
    let ctx = TraceContext {
        trace: 0x00c0_ffee_0000_0001,
        span: 0xc11e_0000_0000_0001,
    };

    // Walk distinct keys until one forwards; a 3-node ring owning all
    // 12 locally is (1/3)^12 ≈ impossible.
    let keys = [
        ("SB", "SC"),
        ("SB", "TSO"),
        ("SB", "Weak"),
        ("MP", "SC"),
        ("MP", "TSO"),
        ("MP", "Weak"),
        ("IRIW", "SC"),
        ("IRIW", "TSO"),
        ("IRIW", "Weak"),
        ("MP+fences", "SC"),
        ("MP+fences", "TSO"),
        ("MP+fences", "Weak"),
    ];
    let mut forwarded_key = None;
    for (test, model) in keys {
        let line = format!(
            r#"{{"kind":"enumerate","test":"{test}","model":"{model}","trace":"{}"}}"#,
            ctx.encode()
        );
        let response = client.request_raw(&line).unwrap();
        assert!(ok(&response), "{test}/{model}: {response}");
        if response.get("forwarded").and_then(Json::as_bool) == Some(true) {
            forwarded_key = Some((test, model));
            break;
        }
    }
    let forwarded_key = forwarded_key.expect("some key must be peer-owned");

    drop(client);
    for handle in handles {
        handle.shutdown().unwrap();
    }

    let trace_hex = format!("{:016x}", ctx.trace);
    let rows = spans_of_trace(&logs, &trace_hex);
    assert!(!rows.is_empty(), "trace logs must carry the trace");

    // The entry span: node-a's server span, parented directly under
    // the client's span id. Every request of the key walk parents
    // there (the test reuses one client context), so pick the entry
    // that proxied — the one with a forward child.
    let client_span_hex = format!("{:016x}", ctx.span);
    let entry = rows
        .values()
        .find(|r| {
            r.name == "server"
                && r.parent == client_span_hex
                && rows
                    .values()
                    .any(|f| f.name == "forward" && f.parent == r.span)
        })
        .unwrap_or_else(|| {
            panic!("no proxying server span under the client span ({forwarded_key:?}): {rows:?}")
        });
    assert_eq!(entry.node.as_deref(), Some("node-a"));
    assert!(!entry.fwd, "the entry span is not a forwarded handler");

    // Its forward child (the proxy hop for the peer-owned key), and
    // under that the owner's server span, marked fwd and on a peer.
    let forward = rows
        .values()
        .find(|r| r.name == "forward" && r.parent == entry.span)
        .unwrap_or_else(|| panic!("no forward span under the entry ({forwarded_key:?}): {rows:?}"));
    let owner = rows
        .values()
        .find(|r| r.name == "server" && r.parent == forward.span)
        .unwrap_or_else(|| panic!("no owner server span under the forward: {rows:?}"));
    assert!(owner.fwd, "the owner handles a fwd envelope");
    assert_ne!(owner.node.as_deref(), Some("node-a"));

    // The owner did the work: an enumerate span, and under it the
    // engine phase spans of the cache miss.
    let work = rows
        .values()
        .find(|r| r.name == "enumerate" && r.parent == owner.span)
        .unwrap_or_else(|| panic!("no enumerate span under the owner: {rows:?}"));
    let phases: Vec<&Row> = rows
        .values()
        .filter(|r| r.name.starts_with("phase:") && r.parent == work.span)
        .collect();
    assert!(
        !phases.is_empty(),
        "a cache miss must attribute engine phases: {rows:?}"
    );

    // Durations nest consistently: each hop encloses the next, and the
    // phases sum to no more than the enumerate span.
    assert!(entry.dur_ns >= forward.dur_ns, "{entry:?} vs {forward:?}");
    assert!(forward.dur_ns >= owner.dur_ns, "{forward:?} vs {owner:?}");
    assert!(owner.dur_ns >= work.dur_ns, "{owner:?} vs {work:?}");
    // The phases carry the run's own timers, not the cache's zeroed
    // copy.
    let phase_sum: u64 = phases.iter().map(|p| p.dur_ns).sum();
    assert!(phase_sum > 0, "phase spans must be timed: {phases:?}");
    assert!(
        phase_sum <= work.dur_ns,
        "phases ({phase_sum}) exceed the enumerate span ({})",
        work.dur_ns
    );
}

#[test]
fn malformed_trace_fields_degrade_to_fresh_roots() {
    let dir = std::env::temp_dir().join(format!("samm-trace-tamper-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("tamper.trace.jsonl");
    let _ = std::fs::remove_file(&log);
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        read_timeout: Duration::from_secs(5),
        trace_log: Some(log.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();

    // Every malformed shape a confused (or hostile) client could send:
    // the request must succeed, tracing must fall back to a fresh root.
    for (i, tamper) in [
        r#""garbage""#,
        "12345",
        "true",
        r#""0000000000000000-0000000000000000""#,
        r#""deadbeef""#,
        r#"{"trace":"nested"}"#,
    ]
    .iter()
    .enumerate()
    {
        let line = format!(
            r#"{{"kind":"enumerate","test":"SB","model":"SC","id":"t{i}","trace":{tamper}}}"#
        );
        let response = client.request_raw(&line).unwrap();
        assert!(ok(&response), "tampered trace must not fail: {response}");
        assert_eq!(
            response.get("id").and_then(Json::as_str),
            Some(format!("t{i}").as_str())
        );
    }

    drop(client);
    handle.shutdown().unwrap();

    // Each tampered request produced a root server span (parent zero)
    // with a fresh nonzero trace id.
    let body = std::fs::read_to_string(&log).unwrap();
    let mut roots = 0usize;
    for line in body.lines() {
        let value = samm_serve::json::parse(line).unwrap();
        if value.get("name").and_then(Json::as_str) != Some("server") {
            continue;
        }
        assert_eq!(
            value.get("parent").and_then(Json::as_str),
            Some("0000000000000000"),
            "tampered traces must root, not adopt garbage parents: {line}"
        );
        assert_ne!(
            value.get("trace").and_then(Json::as_str),
            Some("0000000000000000"),
            "fresh root traces are nonzero: {line}"
        );
        roots += 1;
    }
    assert_eq!(
        roots, 6,
        "one root server span per tampered request:\n{body}"
    );
}

#[test]
fn metrics_cluster_merges_per_node_snapshots_exactly() {
    let dir = std::env::temp_dir().join(format!("samm-trace-fleet-{}", std::process::id()));
    let (handles, _logs) = start_traced_cluster(&dir);

    // Drive work through every node so all three carry latency
    // histograms of their own.
    for handle in &handles {
        let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
        for (test, model) in [("SB", "SC"), ("MP", "TSO"), ("IRIW", "Weak")] {
            let line = format!(r#"{{"kind":"enumerate","test":"{test}","model":"{model}"}}"#);
            let response = client.request_raw(&line).unwrap();
            assert!(ok(&response), "{response}");
        }
    }

    let mut client = Client::connect(handles[0].addr(), TIMEOUT).unwrap();
    let fleet = client.request_raw(r#"{"kind":"metrics_cluster"}"#).unwrap();
    assert!(ok(&fleet), "{fleet}");
    assert_eq!(
        fleet.get("kind").and_then(Json::as_str),
        Some("metrics_cluster")
    );
    assert_eq!(fleet.get("node").and_then(Json::as_str), Some("node-a"));

    let nodes = fleet.get("nodes").and_then(Json::as_arr).unwrap();
    assert_eq!(nodes.len(), 3, "{fleet}");
    let mut node_requests = 0u64;
    let mut node_enum_counts = 0u64;
    for node in nodes {
        assert_eq!(node.get("up").and_then(Json::as_bool), Some(true), "{node}");
        node_requests += node.get("requests").and_then(Json::as_u64).unwrap();
        if let Some(count) = node
            .get("kinds")
            .and_then(|k| k.get("enumerate"))
            .and_then(|e| e.get("count"))
            .and_then(Json::as_u64)
        {
            node_enum_counts += count;
        }
    }
    assert!(node_requests >= 9, "every node served work: {fleet}");

    // The acceptance criterion: the fleet view IS the sum of the
    // per-node snapshots — requests and histogram counts both.
    let fleet_obj = fleet.get("fleet").unwrap();
    assert_eq!(
        fleet_obj.get("requests").and_then(Json::as_u64),
        Some(node_requests),
        "{fleet}"
    );
    let fleet_enum = fleet_obj
        .get("kinds")
        .and_then(|k| k.get("enumerate"))
        .unwrap();
    assert_eq!(
        fleet_enum.get("count").and_then(Json::as_u64),
        Some(node_enum_counts),
        "{fleet}"
    );
    assert!(
        fleet_enum
            .get("p99_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "merged quantiles are computable: {fleet}"
    );

    drop(client);
    for handle in handles {
        handle.shutdown().unwrap();
    }
}
