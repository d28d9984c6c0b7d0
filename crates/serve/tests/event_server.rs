//! End-to-end tests of the readiness-driven event core over real
//! loopback sockets: pipelining with out-of-order responses matched by
//! id, the `batch` request kind over the wire, graceful drain, cache
//! persistence, the connection limit, and both poller backends.

#![cfg(unix)]

use std::collections::HashMap;
use std::time::Duration;

use samm_serve::client::Client;
use samm_serve::json::Json;
use samm_serve::sys::PollerKind;
use samm_serve::{start, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn pipelined_requests_are_answered_out_of_order_by_id() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();

    // Fire the whole pipeline before reading anything: a heavy cold
    // enumeration first, cheap requests behind it. With two workers the
    // cheap answers may overtake the heavy one — the protocol contract
    // is that responses are matched by id, not by order.
    let requests: Vec<(String, String)> = vec![
        (
            "slow".to_owned(),
            r#"{"kind":"enumerate","test":"IRIW","model":"Weak","id":"slow"}"#.to_owned(),
        ),
        (
            "m1".to_owned(),
            r#"{"kind":"metrics","id":"m1"}"#.to_owned(),
        ),
        (
            "c1".to_owned(),
            r#"{"kind":"certify","test":"SB","model":"TSO","id":"c1"}"#.to_owned(),
        ),
        (
            "m2".to_owned(),
            r#"{"kind":"metrics","id":"m2"}"#.to_owned(),
        ),
    ];
    for (_, line) in &requests {
        client.send_raw(line).unwrap();
    }
    let mut by_id: HashMap<String, Json> = HashMap::new();
    for _ in &requests {
        let response = client.read_response().unwrap();
        let id = response
            .get("id")
            .and_then(Json::as_str)
            .expect("every response carries its id")
            .to_owned();
        by_id.insert(id, response);
    }
    // Every pipelined request was answered exactly once, correctly.
    for (id, _) in &requests {
        let response = by_id.get(id).unwrap_or_else(|| panic!("no response {id}"));
        assert!(ok(response), "{id} -> {response}");
    }
    assert_eq!(
        by_id["slow"].get("kind").and_then(Json::as_str),
        Some("enumerate")
    );
    assert_eq!(
        by_id["c1"].get("kind").and_then(Json::as_str),
        Some("certify")
    );
    handle.shutdown().unwrap();
}

#[test]
fn batch_round_trips_over_the_wire() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let response = client
        .request_raw(
            r#"{"kind":"batch","requests":[
                {"kind":"enumerate","test":"SB","model":"TSO","id":"b0"},
                {"kind":"enumerate","test":"SB"},
                {"kind":"enumerate","test":"SB","model":"TSO","id":"b2"}
            ]}"#
            .replace('\n', " ")
            .as_str(),
        )
        .unwrap();
    assert!(ok(&response), "{response}");
    assert_eq!(response.get("count").and_then(Json::as_u64), Some(3));
    assert_eq!(response.get("failed").and_then(Json::as_u64), Some(1));
    let responses = response.get("responses").and_then(Json::as_arr).unwrap();
    assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("b0"));
    assert!(ok(&responses[0]));
    assert!(!ok(&responses[1]), "malformed slot fails alone");
    // The duplicate is answered from the cache warmed by slot 0.
    assert_eq!(
        responses[2].get("cache_hit").and_then(Json::as_bool),
        Some(true)
    );
    handle.shutdown().unwrap();
}

#[test]
fn wire_shutdown_drains_and_persists_the_cache() {
    let dir = std::env::temp_dir().join(format!("samm-event-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.samm");

    let handle = start(ServerConfig {
        persist_path: Some(path.clone()),
        ..test_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let cold = client
        .request_raw(r#"{"kind":"enumerate","test":"MP","model":"TSO"}"#)
        .unwrap();
    assert!(ok(&cold), "{cold}");
    let bye = client.request_raw(r#"{"kind":"shutdown"}"#).unwrap();
    assert!(ok(&bye), "{bye}");
    handle.join().unwrap();
    assert!(path.exists(), "drain must persist the cache");

    // A restarted event server answers from the persisted cache.
    let handle = start(ServerConfig {
        persist_path: Some(path.clone()),
        ..test_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let warm = client
        .request_raw(r#"{"kind":"enumerate","test":"MP","model":"TSO"}"#)
        .unwrap();
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(cold.get("outcomes"), warm.get("outcomes"));
    drop(client);
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poll_backend_and_multiple_loops_serve_correctly() {
    let handle = start(ServerConfig {
        event_loops: 2,
        poller: PollerKind::Poll,
        ..test_config()
    })
    .unwrap();
    // Several connections so both loops own some.
    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(handle.addr(), TIMEOUT).unwrap())
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let response = client
            .request_raw(r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#)
            .unwrap();
        assert!(ok(&response), "client {i}: {response}");
    }
    // The first answer warmed the shared cache for everyone.
    let warm = clients[3]
        .request_raw(r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#)
        .unwrap();
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    drop(clients);
    handle.shutdown().unwrap();
}

#[test]
fn max_connections_rejects_with_the_overloaded_error() {
    let handle = start(ServerConfig {
        max_connections: 2,
        ..test_config()
    })
    .unwrap();
    let mut a = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let mut b = Client::connect(handle.addr(), TIMEOUT).unwrap();
    assert!(ok(&a.request_raw(r#"{"kind":"metrics"}"#).unwrap()));
    assert!(ok(&b.request_raw(r#"{"kind":"metrics"}"#).unwrap()));
    // The third connection is rejected with the structured error.
    let mut rejected = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let overloaded = rejected.read_response().unwrap();
    assert_eq!(
        overloaded
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("overloaded"),
        "{overloaded}"
    );
    let retry = overloaded
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_u64);
    assert!(retry.is_some(), "{overloaded}");
    // Freeing a slot lets new connections in again.
    drop(a);
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let metrics = c.request_raw(r#"{"kind":"metrics"}"#).unwrap();
    assert!(ok(&metrics), "{metrics}");
    assert_eq!(metrics.get("overloaded").and_then(Json::as_u64), Some(1));
    drop(b);
    drop(c);
    handle.shutdown().unwrap();
}
