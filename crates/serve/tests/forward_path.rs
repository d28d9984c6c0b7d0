//! The cluster's one forward path, end to end: a forwarded `enumerate`
//! answer is the owner's answer byte for byte plus `"forwarded":true`,
//! single or batched; a peer reply that fails the forwarding node's
//! check is answered locally and counted as a fallback once per slot;
//! forwarded singles count as hits, misses and overbudgets on the
//! forwarding node; and every answered `enumerate`, batch slots
//! included, counts its hops.

#![cfg(unix)]

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use samm_core::cache::EnumCache;
use samm_litmus::catalog::{self, ModelSel};
use samm_serve::answer::EnumQuery;
use samm_serve::client::Client;
use samm_serve::cluster::{Cluster, ClusterConfig};
use samm_serve::handler::{handle_envelope, ServerState};
use samm_serve::json::{self, Json};
use samm_serve::{parse_envelope, start, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(20);

/// Reserves `n` distinct loopback ports by binding and releasing them.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// Starts cluster member `node` of `topology` at `addr`.
fn start_node(addr: SocketAddr, topology: &str, node: &str) -> ServerHandle {
    start(ServerConfig {
        addr: addr.to_string(),
        workers: 2,
        cluster: Some(ClusterConfig::parse(topology, node).unwrap()),
        ..ServerConfig::default()
    })
    .unwrap()
}

/// Every catalog key, entry-major.
fn catalog_keys() -> Vec<(String, &'static str)> {
    let mut keys = Vec::new();
    for entry in catalog::all() {
        for sel in ModelSel::ALL {
            keys.push((entry.test.name.clone(), sel.name()));
        }
    }
    keys
}

/// The catalog keys that `node-b` of `topology` owns, as `node-a` sees
/// the ring with both members alive, one per fingerprint: keys whose
/// table views agree share a cache entry.
fn keys_owned_by_b(topology: &str) -> Vec<(String, &'static str)> {
    let state = ServerState::new(EnumCache::new(16), None);
    let cluster = Cluster::new(ClusterConfig::parse(topology, "node-a").unwrap());
    let mut seen = HashSet::new();
    catalog_keys()
        .into_iter()
        .filter(|(test, model)| {
            let fp = EnumQuery::resolve(&state, test, model, None)
                .unwrap()
                .fingerprint();
            !cluster.owns(fp) && seen.insert(fp)
        })
        .collect()
}

/// An enumerate request object with `id`, and `budget` when given.
fn enumerate(test: &str, model: &str, id: &str, budget: Option<u64>) -> String {
    let mut request = Json::obj([
        ("kind", Json::str("enumerate")),
        ("test", Json::str(test)),
        ("model", Json::str(model)),
        ("id", Json::str(id)),
    ]);
    if let (Json::Obj(map), Some(budget)) = (&mut request, budget) {
        map.insert("budget".to_owned(), Json::num(budget as f64));
    }
    request.to_string()
}

fn batch(subs: &[String]) -> String {
    format!(r#"{{"kind":"batch","requests":[{}]}}"#, subs.join(","))
}

/// `answer` as a forwarding node relays it: `"forwarded":true` in sorted
/// key order, which for every answer is just before `id`.
fn with_forwarded(answer: &str) -> String {
    assert!(answer.contains(",\"id\":"), "{answer}");
    answer.replacen(",\"id\":", ",\"forwarded\":true,\"id\":", 1)
}

/// A field of an answer line.
fn field(line: &str, key: &str) -> Option<Json> {
    json::parse(line).unwrap().get(key).cloned()
}

fn forwarded(line: &str) -> bool {
    field(line, "forwarded") == Some(Json::Bool(true))
}

/// The `metrics` answer of the server at `addr`, over its own connection.
fn metrics(addr: SocketAddr) -> Json {
    Client::connect(addr, TIMEOUT)
        .unwrap()
        .request_raw(r#"{"kind":"metrics"}"#)
        .unwrap()
}

fn fallbacks(addr: SocketAddr) -> u64 {
    let metrics = metrics(addr);
    let cluster = metrics.get("cluster").unwrap();
    cluster.get("fallbacks").and_then(Json::as_u64).unwrap()
}

/// The forwarded answer equals, byte for byte, the owner's own answer to
/// the same request and id with `"forwarded":true` inserted: for every
/// catalog key as a single line, cold (usually a miss on the owner,
/// beside the owner's later hit with `cache_hit` flipped) and warm, and
/// in batches.
#[test]
fn forwarded_answers_are_the_owners_bytes() {
    let addrs = free_addrs(2);
    let topology = format!("node-a {}\nnode-b {}\n", addrs[0], addrs[1]);
    let a = start_node(addrs[0], &topology, "node-a");
    let b = start_node(addrs[1], &topology, "node-b");
    let mut via_a = Client::connect(a.addr(), TIMEOUT).unwrap();
    let mut owner = Client::connect(b.addr(), TIMEOUT).unwrap();
    let keys = catalog_keys();

    let mut relayed = 0;
    for (i, (test, model)) in keys.iter().enumerate() {
        // Every third id needs escaping; the owner must echo it intact.
        let id = if i % 3 == 0 {
            format!("k{i} \"q\" \\ \t")
        } else {
            format!("k{i}")
        };
        let line = enumerate(test, model, &id, None);
        let cold = via_a.request_line(&line).unwrap();
        let warm = via_a.request_line(&line).unwrap();
        assert_eq!(forwarded(&cold), forwarded(&warm), "{line}");
        if forwarded(&warm) {
            let own = owner.request_line(&line).unwrap();
            assert_eq!(field(&own, "cache_hit"), Some(Json::Bool(true)), "{own}");
            assert_eq!(warm, with_forwarded(&own), "{line}");
            // A key whose fingerprint an earlier key filled is a hit
            // even cold; a miss differs from the owner's hit only there.
            let own_cold = if field(&cold, "cache_hit") == Some(Json::Bool(false)) {
                own.replacen("\"cache_hit\":true", "\"cache_hit\":false", 1)
            } else {
                own.clone()
            };
            assert_eq!(cold, with_forwarded(&own_cold), "{line}");
            relayed += 1;
        } else {
            assert_eq!(
                field(&warm, "node").and_then(|n| n.as_str().map(str::to_owned)),
                Some("node-a".to_owned())
            );
        }
    }
    assert!(
        relayed > 0 && relayed < keys.len(),
        "{relayed} of {} forwarded",
        keys.len()
    );

    // The same requests in batches of 16, under fresh ids: every slot
    // the owner answered is its single answer to the same id.
    let mut batched = 0;
    for (chunk_index, chunk) in keys.chunks(16).enumerate() {
        let subs: Vec<String> = chunk
            .iter()
            .enumerate()
            .map(|(i, (test, model))| enumerate(test, model, &format!("b{chunk_index}.{i}"), None))
            .collect();
        let answer = via_a.request_line(&batch(&subs)).unwrap();
        let tree = json::parse(&answer).unwrap();
        assert_eq!(
            tree.get("failed").and_then(Json::as_u64),
            Some(0),
            "{answer}"
        );
        let slots = tree.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(slots.len(), chunk.len());
        for (slot, sub) in slots.iter().zip(&subs) {
            if slot.get("forwarded") == Some(&Json::Bool(true)) {
                let own = owner.request_line(sub).unwrap();
                assert!(answer.contains(&with_forwarded(&own)), "{sub} in {answer}");
                batched += 1;
            }
        }
    }
    assert_eq!(batched, relayed, "the same keys forward in batches");

    drop((via_a, owner));
    a.shutdown().unwrap();
    b.shutdown().unwrap();
}

/// What the fake peer answers: a well-formed reply, or one way of
/// failing the forwarding node's check.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reply {
    Good,
    NotJson,
    Truncated,
    EmptyArray,
    NoOk,
    WrongId,
    Trailing,
    WrongSlotCount,
    BatchNotOk,
}

/// An answer object echoing `id`, as an owner would write it, or
/// without its `ok` member.
fn fake_answer(id: &Json, ok: bool) -> String {
    let ok = if ok { r#","ok":true"# } else { "" };
    format!(r#"{{"cache_hit":true,"id":{id},"kind":"enumerate","node":"node-b"{ok}}}"#)
}

/// The fake peer's reply line to `request` in mode `reply`.
fn fake_reply(request: &Json, reply: Reply) -> String {
    let subs = request.get("requests").and_then(Json::as_arr);
    let ids: Vec<&Json> = match subs {
        Some(subs) => subs.iter().map(|sub| sub.get("id").unwrap()).collect(),
        None => vec![request.get("id").unwrap()],
    };
    let wrong = Json::str("not-the-id");
    let answers: Vec<String> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| match (reply, i) {
            (Reply::WrongId, 0) => fake_answer(&wrong, true),
            (Reply::NoOk, 0) => fake_answer(id, false),
            _ => fake_answer(id, true),
        })
        .collect();
    let well_formed = match subs {
        Some(_) => {
            let count = match reply {
                Reply::WrongSlotCount => answers.len() - 1,
                _ => answers.len(),
            };
            let ok = reply != Reply::BatchNotOk;
            format!(
                r#"{{"count":{count},"failed":0,"id":"r1","kind":"batch","ok":{ok},"responses":[{}]}}"#,
                answers[..count].join(",")
            )
        }
        None => answers[0].clone(),
    };
    match reply {
        Reply::NotJson => "this is not json".to_owned(),
        Reply::Truncated => well_formed[..well_formed.len() / 2].to_owned(),
        Reply::EmptyArray => "[]".to_owned(),
        Reply::Trailing => format!("{well_formed} x"),
        _ => well_formed,
    }
}

/// A peer that answers every request line with `fake_reply` in the mode
/// `reply` holds when the line arrives, one scoped thread per
/// connection. It stops accepting at the first connection made after
/// `reply` is set to `None`, and returns once every connection closed.
fn fake_peer(listener: &TcpListener, reply: &Mutex<Option<Reply>>) {
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            let stream = stream.unwrap();
            if reply.lock().unwrap().is_none() {
                return;
            }
            scope.spawn(move || {
                let mut writer = stream.try_clone().unwrap();
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { return };
                    let request = json::parse(&line).unwrap();
                    let mode = reply.lock().unwrap().expect("a reply mode while serving");
                    if writeln!(writer, "{}", fake_reply(&request, mode)).is_err() {
                        return;
                    }
                }
            });
        }
    });
}

/// Every reply that fails the check — not JSON, truncated, not an
/// object, no boolean `ok`, a wrong echoed id, trailing bytes, a wrong
/// slot count, a batch that is not `ok` — is answered locally and
/// counted in `forward_fallbacks` once per slot, and the client's line
/// parses. A well-formed reply from the same fake is relayed, so the
/// fallbacks come from the check alone.
#[test]
fn replies_that_fail_the_check_fall_back_to_local_answers() {
    let fake = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = free_addrs(1)[0];
    let fake_addr = fake.local_addr().unwrap();
    let topology = format!("node-a {addr}\nnode-b {fake_addr}\n");
    let reply = Arc::new(Mutex::new(Some(Reply::Good)));
    let peer = {
        let reply = Arc::clone(&reply);
        std::thread::spawn(move || fake_peer(&fake, &reply))
    };
    let a = start_node(addr, &topology, "node-a");
    let mut client = Client::connect(a.addr(), TIMEOUT).unwrap();
    // Each key is used once: a fallback caches it on node-a, which then
    // answers it without forwarding.
    let mut keys = keys_owned_by_b(&topology).into_iter();
    let mut next = |id: &str| {
        let (test, model) = keys.next().expect("enough keys owned by node-b");
        enumerate(&test, model, id, None)
    };

    for mode in [
        Reply::Good,
        Reply::NotJson,
        Reply::Truncated,
        Reply::EmptyArray,
        Reply::NoOk,
        Reply::WrongId,
        Reply::Trailing,
        Reply::WrongSlotCount,
        Reply::BatchNotOk,
    ] {
        *reply.lock().unwrap() = Some(mode);
        let refused = mode != Reply::Good;
        let mut lines = Vec::new();
        // The last two ways of failing belong to batches alone.
        if !matches!(mode, Reply::WrongSlotCount | Reply::BatchNotOk) {
            lines.push((next("s"), 1));
        }
        lines.push((batch(&[next("b0"), next("b1")]), 2));
        for (line, slots) in lines {
            let before = fallbacks(a.addr());
            let answer = client.request_line(&line).unwrap();
            let tree = json::parse(&answer).unwrap_or_else(|e| panic!("{mode:?}: {e}: {answer}"));
            let answers = match tree.get("responses").and_then(Json::as_arr) {
                Some(slots) => slots.to_vec(),
                None => vec![tree.clone()],
            };
            assert_eq!(answers.len(), slots, "{mode:?}: {answer}");
            for slot in &answers {
                assert_eq!(
                    slot.get("ok"),
                    Some(&Json::Bool(true)),
                    "{mode:?}: {answer}"
                );
                let relayed = slot.get("forwarded") == Some(&Json::Bool(true));
                assert_eq!(relayed, !refused, "{mode:?}: {answer}");
                if refused {
                    let node = slot.get("node").and_then(Json::as_str);
                    assert_eq!(node, Some("node-a"), "{mode:?}: {answer}");
                }
            }
            let counted = if refused { slots as u64 } else { 0 };
            assert_eq!(fallbacks(a.addr()) - before, counted, "{mode:?}: {line}");
        }
    }
    drop(client);
    a.shutdown().unwrap();
    // Node-a has closed its connections; wake the accept loop so the
    // fake peer returns.
    *reply.lock().unwrap() = None;
    TcpStream::connect(fake_addr).unwrap();
    peer.join().expect("the fake peer does not panic");
}

/// Forwarded singles count on the forwarding node as they always have:
/// a cold key is a miss, the same key again a hit, and a cold key over
/// a budget of one fork an overbudget.
#[test]
fn forwarded_singles_count_as_hit_miss_and_overbudget() {
    let addrs = free_addrs(2);
    let topology = format!("node-a {}\nnode-b {}\n", addrs[0], addrs[1]);
    let a = start_node(addrs[0], &topology, "node-a");
    let b = start_node(addrs[1], &topology, "node-b");
    let owned = keys_owned_by_b(&topology);
    // A key over a one-fork budget, checked on a state of its own.
    let local = ServerState::new(EnumCache::new(16), None);
    let over = owned
        .iter()
        .skip(1)
        .find(|(test, model)| {
            let line = enumerate(test, model, "x", Some(1));
            let answer = handle_envelope(&local, &parse_envelope(&line).unwrap());
            let error = answer.get("error").and_then(|e| e.get("kind"));
            error.and_then(Json::as_str) == Some("overbudget")
        })
        .expect("a key owned by node-b that needs more than one fork");
    let (test, model) = &owned[0];
    let counts = || {
        let metrics = metrics(a.addr());
        let kinds = metrics.get("telemetry").and_then(|t| t.get("kinds"));
        let enumerate = kinds.and_then(|k| k.get("enumerate")).unwrap();
        ["hit", "miss", "overbudget"].map(|o| enumerate.get(o).and_then(Json::as_u64).unwrap())
    };
    let mut client = Client::connect(a.addr(), TIMEOUT).unwrap();
    let mut send = |line: String| {
        let answer = client.request_line(&line).unwrap();
        assert!(forwarded(&answer), "{answer}");
        answer
    };
    send(enumerate(test, model, "cold", None));
    assert_eq!(counts(), [0, 1, 0]);
    send(enumerate(test, model, "warm", None));
    assert_eq!(counts(), [1, 1, 0]);
    let answer = send(enumerate(&over.0, over.1, "over", Some(1)));
    assert_eq!(field(&answer, "ok"), Some(Json::Bool(false)), "{answer}");
    assert_eq!(counts(), [1, 1, 1]);
    drop(client);
    a.shutdown().unwrap();
    b.shutdown().unwrap();
}

/// `samm_forward_hops` of the server at `addr`: (answers with zero hops,
/// all answers).
fn hops(addr: SocketAddr) -> (u64, u64) {
    let text = Client::connect(addr, TIMEOUT)
        .unwrap()
        .request_raw(r#"{"kind":"metrics_prom"}"#)
        .unwrap();
    let text = text.get("text").and_then(Json::as_str).unwrap().to_owned();
    let value = |family: &str| {
        let line = text.lines().find(|l| l.starts_with(family)).unwrap();
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    (
        value("samm_forward_hops_bucket{le=\"0\"}"),
        value("samm_forward_hops_count"),
    )
}

/// Every `enumerate` a member answers for a client counts once in
/// `samm_forward_hops`: one hop when the owner answered it, zero when
/// this member did, batch slots and inline hits included.
#[test]
fn every_enumerate_counts_its_hops() {
    let addrs = free_addrs(2);
    let topology = format!("node-a {}\nnode-b {}\n", addrs[0], addrs[1]);
    let a = start_node(addrs[0], &topology, "node-a");
    let b = start_node(addrs[1], &topology, "node-b");
    let subs: Vec<String> = catalog_keys()
        .iter()
        .take(24)
        .enumerate()
        .map(|(i, (test, model))| enumerate(test, model, &format!("k{i}"), None))
        .collect();
    let mut client = Client::connect(a.addr(), TIMEOUT).unwrap();
    let answer = client.request_line(&batch(&subs)).unwrap();
    let forwarded = answer.matches("\"forwarded\":true").count() as u64;
    assert!(forwarded > 0 && forwarded < 24, "{answer}");
    assert_eq!(hops(a.addr()), (24 - forwarded, 24));
    // The same keys as singles: node-a's own keys are now resident and
    // answered on its loop; the rest are forwarded again.
    for sub in &subs {
        client.request_line(sub).unwrap();
    }
    assert_eq!(hops(a.addr()), (2 * (24 - forwarded), 48));
    drop(client);
    a.shutdown().unwrap();
    b.shutdown().unwrap();
}
