//! Three-node loopback cluster: consistent-hash routing, peer
//! forwarding with the `fwd` loop guard, cross-node cache hits, batch
//! regrouping, and graceful degradation when a member drains.

#![cfg(unix)]

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use samm_serve::client::Client;
use samm_serve::cluster::ClusterConfig;
use samm_serve::json::Json;
use samm_serve::{start, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(20);

/// Workload spread across enough distinct fingerprints that a 3-node
/// ring owning none of them remotely is (1/3)^12 ≈ impossible.
const KEYS: [(&str, &str); 12] = [
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

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn enumerate_line(test: &str, model: &str) -> String {
    format!(r#"{{"kind":"enumerate","test":"{test}","model":"{model}"}}"#)
}

/// Reserves `n` distinct loopback ports by binding and releasing them.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners.iter().map(|l| l.local_addr().unwrap()).collect()
}

const NODES: [&str; 3] = ["node-a", "node-b", "node-c"];

/// Counts a single-line answer as an inline hit of the node that
/// answered it, when it was a cache hit there: a cluster member's loop
/// answers resident hits only, and never a forward.
fn note_hit(inline_hits: &mut [u64; 3], response: &Json) {
    if response.get("cache_hit").and_then(Json::as_bool) == Some(true) {
        let node = response.get("node").and_then(Json::as_str).unwrap();
        inline_hits[NODES.iter().position(|n| *n == node).unwrap()] += 1;
    }
}

/// The requests the event loop of the server at `addr` answered itself,
/// read over a connection of its own.
fn loop_answered(addr: SocketAddr) -> u64 {
    let metrics = Client::connect(addr, TIMEOUT)
        .unwrap()
        .request_raw(r#"{"kind":"metrics"}"#)
        .unwrap();
    let answered = metrics
        .get("telemetry")
        .and_then(|t| t.get("loop_answered"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(answered.len(), 1);
    answered[0].as_u64().unwrap()
}

fn start_cluster() -> (Vec<ServerHandle>, String) {
    let addrs = free_addrs(3);
    let topology = format!(
        "node-a {}\nnode-b {}\nnode-c {}\n",
        addrs[0], addrs[1], addrs[2]
    );
    let handles = NODES
        .iter()
        .zip(&addrs)
        .map(|(id, addr)| {
            start(ServerConfig {
                addr: addr.to_string(),
                workers: 2,
                read_timeout: Duration::from_secs(5),
                cluster: Some(ClusterConfig::parse(&topology, id).unwrap()),
                ..ServerConfig::default()
            })
            .unwrap()
        })
        .collect();
    (handles, topology)
}

#[test]
fn cluster_forwards_to_owners_and_hits_their_caches() {
    let (mut handles, _topology) = start_cluster();
    let mut client = Client::connect(handles[0].addr(), TIMEOUT).unwrap();

    // Pass 1 through node-a: remote-owned keys come back annotated with
    // the owner's node id and the forwarded marker.
    let mut inline_hits = [0u64; 3];
    let mut forwarded = 0usize;
    for (test, model) in KEYS {
        let response = client.request_raw(&enumerate_line(test, model)).unwrap();
        assert!(ok(&response), "{test}/{model}: {response}");
        note_hit(&mut inline_hits, &response);
        let node = response.get("node").and_then(Json::as_str).unwrap();
        if response.get("forwarded").and_then(Json::as_bool) == Some(true) {
            assert_ne!(node, "node-a", "forwarded answers carry the owner id");
            forwarded += 1;
        } else {
            assert_eq!(node, "node-a");
        }
    }
    assert!(forwarded > 0, "some keys must be owned by peers");

    // Pass 2: the owners cached pass 1, so every forwarded answer is
    // now a cross-node cache hit.
    let mut forwarded_hits = 0usize;
    for (test, model) in KEYS {
        let response = client.request_raw(&enumerate_line(test, model)).unwrap();
        assert!(ok(&response), "{test}/{model}: {response}");
        note_hit(&mut inline_hits, &response);
        if response.get("forwarded").and_then(Json::as_bool) == Some(true) {
            assert_eq!(
                response.get("cache_hit").and_then(Json::as_bool),
                Some(true),
                "replay must hit the owner's cache: {response}"
            );
            forwarded_hits += 1;
        }
    }
    assert!(forwarded_hits > 0, "peer-forward hit rate must be > 0");

    // A batch through node-a regroups peer-owned slots into forwarded
    // sub-batches and relays the answers back in slot order.
    let subs: Vec<String> = KEYS
        .iter()
        .enumerate()
        .map(|(i, (test, model))| {
            format!(r#"{{"kind":"enumerate","test":"{test}","model":"{model}","id":"k{i}"}}"#)
        })
        .collect();
    let line = format!(r#"{{"kind":"batch","requests":[{}]}}"#, subs.join(","));
    let response = client.request_raw(&line).unwrap();
    assert!(ok(&response), "{response}");
    assert_eq!(
        response.get("count").and_then(Json::as_u64),
        Some(KEYS.len() as u64)
    );
    assert_eq!(response.get("failed").and_then(Json::as_u64), Some(0));
    let responses = response.get("responses").and_then(Json::as_arr).unwrap();
    let mut batch_forwarded = 0usize;
    for (i, slot) in responses.iter().enumerate() {
        assert_eq!(
            slot.get("id").and_then(Json::as_str),
            Some(format!("k{i}").as_str()),
            "slot order preserved"
        );
        assert!(ok(slot), "slot {i}: {slot}");
        if slot.get("forwarded").and_then(Json::as_bool) == Some(true) {
            batch_forwarded += 1;
        }
    }
    assert!(batch_forwarded > 0, "batch must forward peer-owned slots");

    // Each member's loop answered exactly the resident single-line hits
    // it served; batches, misses and forwards all ran on workers.
    let answered: Vec<u64> = handles.iter().map(|h| loop_answered(h.addr())).collect();
    assert_eq!(answered, inline_hits);
    assert!(inline_hits[0] > 0 && inline_hits[1..].iter().any(|&n| n > 0));

    // Drain node-c; keys it owned degrade to fallback (local compute or
    // the ring successor) — never to errors.
    handles.remove(2).shutdown().unwrap();
    for (test, model) in KEYS {
        let response = client.request_raw(&enumerate_line(test, model)).unwrap();
        assert!(
            ok(&response),
            "{test}/{model} must survive a drained member: {response}"
        );
        note_hit(&mut inline_hits, &response);
    }
    let answered: Vec<u64> = handles.iter().map(|h| loop_answered(h.addr())).collect();
    assert_eq!(answered, inline_hits[..2]);

    drop(client);
    for handle in handles {
        handle.shutdown().unwrap();
    }
}
