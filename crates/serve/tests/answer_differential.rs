//! Differential test of the served answer path. A live server writes
//! every answer straight into its connection buffer, on its event loop
//! or on a worker; a twin in-process [`ServerState`] fed the same lines
//! answers each through `serve_envelope`. Every line must be byte for
//! byte the same — top-level misses and hits, inline loop hits,
//! every catalog verdict (cold, warm, budgeted and overbudget, on a
//! one-entry cache too), batch slots and error slots, escaped and
//! server-assigned ids, a cluster member's `node` field and a peer's
//! spliced answers — and the
//! two sides must count the same requests, errors, per-kind outcomes,
//! cache lookups and batch sizes.

#![cfg(unix)]

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use samm_core::cache::EnumCache;
use samm_core::static_order::TableView;
use samm_litmus::catalog::{self, ModelSel};
use samm_serve::cluster::{Cluster, ClusterConfig};
use samm_serve::handler::{error_response, handle_envelope, serve_envelope, ServerState};
use samm_serve::json::{self, Json};
use samm_serve::{parse_envelope, start, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(20);

/// A server and its in-process reference, fed the same lines.
struct Twin {
    server: ServerHandle,
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    reference: ServerState,
    /// Single-line answers that were local cache hits.
    inline_hits: u64,
    /// Lines sent to the server.
    lines: u64,
}

impl Twin {
    /// Starts a server with `config` and a reference state with the
    /// server's cache geometry and `cluster`.
    fn start(config: ServerConfig, cluster: Option<ClusterConfig>) -> Twin {
        let cache = EnumCache::with_shards(config.cache_shards, config.cache_capacity);
        let mut reference = ServerState::new(cache, None);
        if let Some(cluster) = cluster {
            reference.set_cluster(Arc::new(Cluster::new(cluster)));
        }
        let server = start(config).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        Twin {
            server,
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
            reference,
            inline_hits: 0,
            lines: 0,
        }
    }

    /// Sends one line to both sides and asserts the answers match.
    fn send(&mut self, line: &str) -> Json {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut served = String::new();
        assert!(self.reader.read_line(&mut served).unwrap() > 0, "closed");
        let mut reference = Vec::new();
        match parse_envelope(line) {
            Ok(envelope) => serve_envelope(&self.reference, &envelope, &mut reference),
            // The worker's error path for a line that does not parse.
            Err(err) => {
                self.reference
                    .telemetry
                    .requests
                    .fetch_add(1, Ordering::Relaxed);
                let error = error_response(&self.reference, &err);
                reference.extend_from_slice(format!("{error}\n").as_bytes());
            }
        }
        assert_eq!(served, String::from_utf8(reference).unwrap(), "{line}");
        let answer = json::parse(&served).unwrap();
        self.lines += 1;
        let single = !line.contains("\"batch\"");
        if single
            && answer.get("cache_hit") == Some(&Json::Bool(true))
            && answer.get("forwarded").is_none()
        {
            self.inline_hits += 1;
        }
        answer
    }

    /// Asserts both sides counted the same, and that the event loop
    /// answered exactly what it may answer itself: every line of its one
    /// connection, or in a cluster only the local single-line hits; then
    /// shuts down.
    fn finish(mut self) {
        let loop_answers = if self.reference.cluster.is_some() {
            self.inline_hits
        } else {
            self.lines
        };
        let metrics = r#"{"kind":"metrics","id":"m"}"#;
        let served = self.monitor(metrics);
        let reference = handle_envelope(&self.reference, &parse_envelope(metrics).unwrap());
        let counters = |m: &Json| {
            let mut all = Vec::new();
            for key in ["requests", "errors", "monitoring"] {
                all.push(m.get(key).cloned());
            }
            for key in ["hits", "misses", "insertions", "evictions"] {
                all.push(m.get("cache").and_then(|c| c.get(key)).cloned());
            }
            let kinds = m.get("telemetry").and_then(|t| t.get("kinds")).unwrap();
            for kind in ["enumerate", "verdict", "batch", "certify"] {
                for outcome in ["hit", "miss", "overbudget", "errors"] {
                    all.push(kinds.get(kind).and_then(|k| k.get(outcome)).cloned());
                }
            }
            all
        };
        assert_eq!(counters(&served), counters(&reference));
        let loop_answered = served
            .get("telemetry")
            .and_then(|t| t.get("loop_answered"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(loop_answered, [Json::num(loop_answers as f64)]);

        let prom = r#"{"kind":"metrics_prom","id":"p"}"#;
        let batch_lines = |answer: &Json| -> Vec<String> {
            answer
                .get("text")
                .and_then(Json::as_str)
                .unwrap()
                .lines()
                .filter(|l| l.starts_with("samm_batch_size") || l.starts_with("samm_forward"))
                .map(str::to_owned)
                .collect()
        };
        let served = self.monitor(prom);
        let reference = handle_envelope(&self.reference, &parse_envelope(prom).unwrap());
        assert!(!batch_lines(&served).is_empty());
        assert_eq!(batch_lines(&served), batch_lines(&reference));
        self.server.shutdown().unwrap();
    }

    /// Sends a monitoring line to the server only; its answer carries
    /// timings, so it is not compared.
    fn monitor(&mut self, line: &str) -> Json {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut served = String::new();
        self.reader.read_line(&mut served).unwrap();
        json::parse(&served).unwrap()
    }
}

/// Every catalog key as `(test, model)`.
fn catalog_keys() -> Vec<(String, &'static str)> {
    let mut keys = Vec::new();
    for entry in catalog::all() {
        for sel in ModelSel::ALL {
            keys.push((entry.test.name.clone(), sel.name()));
        }
    }
    keys
}

/// A client id that needs every kind of escaping.
fn escaped_id(i: usize) -> String {
    format!("k{i} \"q\" \\ \n\t\u{1}")
}

/// An enumerate request object, with `id` when given.
fn enumerate(test: &str, model: &str, id: Option<&str>) -> String {
    let mut fields = vec![
        ("kind", Json::str("enumerate")),
        ("test", Json::str(test)),
        ("model", Json::str(model)),
    ];
    if let Some(id) = id {
        fields.push(("id", Json::str(id)));
    }
    Json::obj(fields).to_string()
}

/// Single lines over every key, each sent twice, with client and server
/// ids alternating; case-folded names; and every kind of failure. The
/// second send is a hit. So is the first when the cache is `warm`, or
/// when an earlier model of the same entry has the same table view: the
/// cache key is (program, view, config).
fn singles(twin: &mut Twin, warm: bool) {
    let entries = catalog::all();
    let mut views = HashSet::new();
    for (i, (test, model)) in catalog_keys().iter().enumerate() {
        let id = escaped_id(i);
        let (first_id, hit_id) = if i % 2 == 0 {
            (Some(id.as_str()), None)
        } else {
            (None, Some(id.as_str()))
        };
        let entry = entries.iter().find(|e| &e.test.name == test).unwrap();
        let sel = ModelSel::ALL
            .into_iter()
            .find(|m| m.name() == *model)
            .unwrap();
        let shared = !views.insert((
            test.clone(),
            TableView::of(&entry.test.program, &sel.policy()),
        ));
        for (id, hit) in [(first_id, warm || shared), (hit_id, true)] {
            let answer = twin.send(&enumerate(test, model, id));
            if answer.get("ok") == Some(&Json::Bool(true)) {
                assert_eq!(
                    answer.get("cache_hit"),
                    Some(&Json::Bool(hit)),
                    "{test}/{model}"
                );
            }
        }
        if i % 7 == 0 {
            twin.send(&enumerate(
                &test.to_lowercase(),
                &model.to_uppercase(),
                None,
            ));
        }
    }
    for line in [
        enumerate("NoSuchTest", "TSO", Some("e1")),
        enumerate("SB", "NoSuchModel", None),
        r#"{"kind":"enumerate","test":"IRIW","model":"Weak","budget":3}"#.to_owned(),
        r#"{"kind":"enumerate","test":"SB"}"#.to_owned(),
        "not json".to_owned(),
        r#"{"kind":"certify","test":"SB","model":"TSO","id":"c"}"#.to_owned(),
    ] {
        twin.send(&line);
    }
}

/// Every key in batches of 32, twice (misses, then hits), with error
/// and certify slots mixed in and client, child and escaped ids.
fn batches(twin: &mut Twin) {
    let keys = catalog_keys();
    for round in 0..2 {
        for (b, chunk) in keys.chunks(32).enumerate() {
            let mut slots: Vec<String> = chunk
                .iter()
                .enumerate()
                .map(|(i, (test, model))| {
                    let id = (i % 3 == round).then(|| escaped_id(i));
                    enumerate(test, model, id.as_deref())
                })
                .collect();
            slots.push(enumerate("NoSuchTest", "TSO", None));
            slots.push(r#"{"kind":"enumerate","model":"TSO","id":"bad"}"#.to_owned());
            slots.push(r#"{"kind":"certify","test":"MP","model":"Weak"}"#.to_owned());
            slots.push("7".to_owned());
            let id = if b % 2 == 0 {
                format!(r#","id":{}"#, Json::str(escaped_id(b)))
            } else {
                String::new()
            };
            let answer = twin.send(&format!(
                r#"{{"kind":"batch","requests":[{}]{id}}}"#,
                slots.join(",")
            ));
            assert_eq!(answer.get("failed").and_then(Json::as_u64), Some(3));
        }
    }
}

/// A verdict request object, with `budget` and `id` when given.
fn verdict(test: &str, budget: Option<u64>, id: Option<&str>) -> String {
    let mut fields = vec![("kind", Json::str("verdict")), ("test", Json::str(test))];
    if let Some(budget) = budget {
        fields.push(("budget", Json::num(budget as f64)));
    }
    if let Some(id) = id {
        fields.push(("id", Json::str(id)));
    }
    Json::obj(fields).to_string()
}

/// Every catalog verdict as single lines and as batch slots: with a
/// budget no run fits in (overbudget when the entry is `cold`), with no
/// budget (then warm), with a budget every run fits in, and under an
/// unknown test name.
fn verdicts(twin: &mut Twin, cold: bool) {
    let entries = catalog::all();
    for (i, entry) in entries.iter().enumerate() {
        let test = &entry.test.name;
        let id = escaped_id(i);
        let overbudget = twin.send(&verdict(test, Some(1), None));
        if cold {
            assert_eq!(
                overbudget.get("error").and_then(|e| e.get("kind")),
                Some(&Json::str("overbudget")),
                "{test}"
            );
        }
        for line in [
            verdict(test, None, Some(&id)),
            verdict(test, None, None),
            verdict(test, Some(1_000_000), None),
            verdict(&test.to_lowercase(), Some(1), Some(&id)),
        ] {
            twin.send(&line);
        }
    }
    twin.send(&verdict("NoSuchTest", None, Some("v")));
    for (b, chunk) in entries.chunks(4).enumerate() {
        let mut slots = Vec::new();
        for (i, entry) in chunk.iter().enumerate() {
            let test = &entry.test.name;
            let id = (i % 2 == b % 2).then(|| escaped_id(i));
            slots.push(verdict(test, None, id.as_deref()));
            slots.push(verdict(test, Some(1_000_000), None));
            slots.push(verdict(test, Some(2), id.as_deref()));
        }
        slots.push(verdict("NoSuchTest", Some(5), None));
        let answer = twin.send(&format!(
            r#"{{"kind":"batch","requests":[{}]}}"#,
            slots.join(",")
        ));
        // The unknown test fails; budgeted slots fail only on a miss.
        let failed = answer.get("failed").and_then(Json::as_u64).unwrap();
        assert!((1..=chunk.len() as u64 + 1).contains(&failed), "{failed}");
    }
}

#[test]
fn verdicts_match_the_in_process_answers() {
    let mut twin = Twin::start(ServerConfig::default(), None);
    verdicts(&mut twin, true);
    verdicts(&mut twin, false);
    twin.finish();
}

/// On a one-entry cache, as the `fresh-mix` workload runs, every verdict
/// classifies its dominated views afresh.
#[test]
fn verdicts_on_a_one_entry_cache_match_the_in_process_answers() {
    let config = ServerConfig {
        cache_capacity: 1,
        cache_shards: 1,
        ..ServerConfig::default()
    };
    let mut twin = Twin::start(config, None);
    verdicts(&mut twin, true);
    twin.finish();
}

#[test]
fn single_lines_match_the_in_process_answers() {
    let mut twin = Twin::start(ServerConfig::default(), None);
    singles(&mut twin, false);
    assert!(twin.inline_hits > 100, "{} inline hits", twin.inline_hits);
    twin.finish();
}

#[test]
fn batch_slots_match_the_in_process_answers() {
    let mut twin = Twin::start(ServerConfig::default(), None);
    batches(&mut twin);
    // The keys are warm now: single lines are loop hits.
    singles(&mut twin, true);
    twin.finish();
}

/// Reserves `n` distinct loopback ports by binding and releasing them.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// A two-node cluster on each side: the served `node-a` and the
/// in-process `node-a` each forward to a `node-b` of their own, so every
/// answer carries a `node` field or comes back spliced from the peer.
#[test]
fn cluster_answers_match_the_in_process_answers() {
    let [served_a, served_b, reference_a, reference_b] = free_addrs(4)[..] else {
        unreachable!()
    };
    let topology = |a: SocketAddr, b: SocketAddr| format!("node-a {a}\nnode-b {b}\n");
    let config = |addr: SocketAddr, topology: &str, node: &str| ServerConfig {
        addr: addr.to_string(),
        cluster: Some(ClusterConfig::parse(topology, node).unwrap()),
        ..ServerConfig::default()
    };
    let served_topology = topology(served_a, served_b);
    let reference_topology = topology(reference_a, reference_b);
    let peers = [
        start(config(served_b, &served_topology, "node-b")).unwrap(),
        start(config(reference_b, &reference_topology, "node-b")).unwrap(),
    ];
    let mut twin = Twin::start(
        config(served_a, &served_topology, "node-a"),
        Some(ClusterConfig::parse(&reference_topology, "node-a").unwrap()),
    );
    let mut forwarded = 0;
    let mut local = 0;
    for (test, model) in catalog_keys().iter().take(48) {
        let answer = twin.send(&enumerate(test, model, None));
        if answer.get("forwarded").is_some() {
            forwarded += 1;
        } else if answer.get("node").and_then(Json::as_str) == Some("node-a") {
            local += 1;
        }
    }
    assert!(
        forwarded > 0 && local > 0,
        "{forwarded} forwarded, {local} local"
    );
    batches(&mut twin);
    singles(&mut twin, true);
    twin.finish();
    for peer in peers {
        peer.shutdown().unwrap();
    }
}
