//! End-to-end tests of the litmus-query service over real loopback
//! sockets: every request kind, legacy `engine` names, structured
//! errors for malformed and over-budget requests, and graceful drain.

#![cfg(unix)]

use std::time::Duration;

use samm_serve::client::{Client, ClientError};
use samm_serve::json::Json;
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

fn error_kind(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
}

#[test]
fn every_request_kind_round_trips() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();

    let enumerate = client
        .request_raw(r#"{"kind":"enumerate","test":"SB","model":"TSO"}"#)
        .unwrap();
    assert!(ok(&enumerate), "{enumerate}");
    assert_eq!(
        enumerate.get("cache_hit").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(
        enumerate.get("engine").and_then(Json::as_str),
        Some(samm_serve::ENGINE)
    );
    assert!(
        enumerate
            .get("outcome_count")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );

    // A legacy engine name is accepted and ignored.
    let verdict = client
        .request_raw(r#"{"kind":"verdict","test":"SB","engine":"parallel"}"#)
        .unwrap();
    assert!(ok(&verdict), "{verdict}");
    let report = verdict.get("report").unwrap();
    assert_eq!(report.get("all_pass").and_then(Json::as_bool), Some(true));
    // The SB/TSO enumeration of the first request answers one of the
    // verdict rows from the cache.
    let rows = report.get("rows").and_then(Json::as_arr).unwrap();
    assert!(rows
        .iter()
        .any(|r| r.get("cache_hit").and_then(Json::as_bool) == Some(true)));

    let witness = client
        .request_raw(r#"{"kind":"witness","test":"SB","model":"TSO","condition":0}"#)
        .unwrap();
    assert!(ok(&witness), "{witness}");
    assert_eq!(witness.get("found").and_then(Json::as_bool), Some(true));

    let refutation = client
        .request_raw(r#"{"kind":"refutation","test":"SB","model":"SC","condition":0}"#)
        .unwrap();
    assert!(ok(&refutation), "{refutation}");
    assert_eq!(
        refutation.get("refuted").and_then(Json::as_bool),
        Some(true)
    );

    let certify = client
        .request_raw(r#"{"kind":"certify","test":"MP+fences","model":"TSO"}"#)
        .unwrap();
    assert!(ok(&certify), "{certify}");

    let prom = client.request_raw(r#"{"kind":"metrics_prom"}"#).unwrap();
    assert!(ok(&prom), "{prom}");
    let metrics = client.request_raw(r#"{"kind":"metrics"}"#).unwrap();
    assert!(ok(&metrics), "{metrics}");
    // The five service requests above — the metrics requests are
    // monitoring traffic and must not inflate `requests`.
    assert_eq!(metrics.get("requests").and_then(Json::as_u64), Some(5));
    assert_eq!(metrics.get("monitoring").and_then(Json::as_u64), Some(2));
    assert!(metrics.get("cache").is_some());
    assert!(metrics.get("telemetry").is_some());

    handle.shutdown().unwrap();
}

#[test]
fn enumeration_cache_is_shared_across_connections() {
    let handle = start(test_config()).unwrap();
    let mut first = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let cold = first
        .request_raw(r#"{"kind":"enumerate","test":"IRIW","model":"Weak"}"#)
        .unwrap();
    assert!(ok(&cold), "{cold}");
    assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));
    drop(first);

    let mut second = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let warm = second
        .request_raw(r#"{"kind":"enumerate","test":"IRIW","model":"Weak","engine":"parallel"}"#)
        .unwrap();
    assert!(ok(&warm), "{warm}");
    assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(cold.get("outcomes"), warm.get("outcomes"));
    handle.shutdown().unwrap();
}

#[test]
fn malformed_and_unknown_requests_return_structured_errors() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    for (line, kind) in [
        ("this is not json", "malformed"),
        ("[1,2,3]", "malformed"),
        (r#"{"kind":"enumerate","test":"SB"}"#, "malformed"),
        (r#"{"kind":"frobnicate"}"#, "unknown-kind"),
        (
            r#"{"kind":"enumerate","test":"NoSuchTest","model":"TSO"}"#,
            "unknown-test",
        ),
        (
            r#"{"kind":"enumerate","test":"SB","model":"NoSuchModel"}"#,
            "unknown-model",
        ),
        (
            r#"{"kind":"witness","test":"SB","model":"TSO","condition":99}"#,
            "malformed",
        ),
    ] {
        let response = client.request_raw(line).unwrap();
        assert!(!ok(&response), "{line} must fail");
        assert_eq!(error_kind(&response), Some(kind), "{line}");
    }
    // The connection survives every error, and the server still
    // answers well-formed requests on it.
    let response = client
        .request_raw(r#"{"kind":"enumerate","test":"SB","model":"SC"}"#)
        .unwrap();
    assert!(ok(&response), "{response}");
    handle.shutdown().unwrap();
}

#[test]
fn overbudget_requests_fail_structurally_and_do_not_poison_the_cache() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let broke = client
        .request_raw(r#"{"kind":"enumerate","test":"IRIW","model":"Weak","budget":2}"#)
        .unwrap();
    assert!(!ok(&broke), "{broke}");
    assert_eq!(error_kind(&broke), Some("overbudget"));
    // The failed attempt must not have cached anything: the retry with
    // headroom runs fresh and succeeds.
    let retry = client
        .request_raw(r#"{"kind":"enumerate","test":"IRIW","model":"Weak"}"#)
        .unwrap();
    assert!(ok(&retry), "{retry}");
    assert_eq!(retry.get("cache_hit").and_then(Json::as_bool), Some(false));
    handle.shutdown().unwrap();
}

#[test]
fn shutdown_request_drains_gracefully() {
    let handle = start(test_config()).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr, TIMEOUT).unwrap();
    let response = client
        .request_raw(r#"{"kind":"enumerate","test":"SB","model":"SC"}"#)
        .unwrap();
    assert!(ok(&response));
    let bye = client.request_raw(r#"{"kind":"shutdown"}"#).unwrap();
    assert!(ok(&bye), "{bye}");
    // join (not shutdown): the drain was initiated by the wire request.
    handle.join().unwrap();
    // The listener is gone: new connections fail or are dropped
    // unanswered.
    match Client::connect(addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut late) => {
            assert!(matches!(
                late.request_raw(r#"{"kind":"metrics"}"#),
                Err(ClientError::Closed) | Err(ClientError::Io(_))
            ));
        }
    }
}

/// The docs-freshness check: the metric-family table in
/// `docs/SERVICE.md` (one family per row) must list exactly the
/// families a fully-populated exposition emits — no documented ghost
/// families, no undocumented metrics.
#[test]
fn docs_metric_table_matches_the_prom_exposition() {
    use std::collections::BTreeSet;
    use std::sync::atomic::Ordering;

    use samm_core::cache::{CacheStats, ShardStats};
    use samm_core::telemetry::prom;
    use samm_serve::cluster::ClusterSnapshot;
    use samm_serve::telemetry::{ReqOutcome, Telemetry};

    // Populate every conditionally-emitted series: latency samples,
    // batch/forward histograms, a peer forward, an event-loop gauge,
    // shard stats, and a cluster snapshot.
    let telemetry = Telemetry::default();
    telemetry.record(0, ReqOutcome::Miss, Duration::from_millis(3));
    telemetry.batch_sizes.record(4);
    telemetry.forward_hops.record(1);
    telemetry.forwards_ok.fetch_add(1, Ordering::Relaxed);
    telemetry.forward_fallbacks.fetch_add(1, Ordering::Relaxed);
    telemetry.singleflight_waits.fetch_add(1, Ordering::Relaxed);
    telemetry.note_forward("node-b");
    telemetry.update_fleet([(
        "node-b".to_owned(),
        samm_serve::telemetry::FleetSample {
            up: true,
            requests: 7,
        },
    )]);
    let _gauges = telemetry.register_loop();
    let shards = vec![ShardStats {
        entries: 1,
        hits: 2,
        misses: 3,
    }];
    let cluster = ClusterSnapshot {
        self_id: "node-a".to_owned(),
        nodes: vec![("node-a".to_owned(), true), ("node-b".to_owned(), false)],
    };
    telemetry.overloaded.fetch_add(1, Ordering::Relaxed);
    let text = telemetry.render_prom(&CacheStats::default(), &shards, Some(&cluster));
    let summary = prom::check(&text).expect("exposition must validate");
    let exposed: BTreeSet<String> = summary.families.iter().cloned().collect();

    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/SERVICE.md"
    ))
    .expect("docs/SERVICE.md is readable");
    let documented: BTreeSet<String> = doc
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("| `samm_")?;
            Some(format!("samm_{}", rest.split('`').next().unwrap()))
        })
        .collect();
    assert!(
        documented.len() >= 30,
        "the SERVICE.md table should list every family, found {}",
        documented.len()
    );

    let ghosts: Vec<&String> = documented.difference(&exposed).collect();
    assert!(
        ghosts.is_empty(),
        "documented in SERVICE.md but absent from the exposition: {ghosts:?}"
    );
    let undocumented: Vec<&String> = exposed.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "emitted by render_prom but missing from the SERVICE.md table: {undocumented:?}"
    );
}
