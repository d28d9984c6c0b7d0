//! The answer transcript: a fixed list of request lines, sent in order
//! through `handler::serve_envelope` to fresh in-process servers, whose
//! response lines must equal `golden/answers.jsonl` byte for byte.
//!
//! The list covers every kind of answer a client can read: `enumerate`
//! of every catalog key, sent twice; every `verdict`, with and without a
//! budget, on the default cache geometry and again on a one-shard,
//! one-entry cache, so that which runs hit the cache is pinned too;
//! `witness` and `refutation` for every condition under every model;
//! `certify` with and without `robust`; batches with error slots and
//! escaped ids; server-assigned ids; and malformed, overbudget,
//! unknown-test and unknown-model lines. A line that does not parse is
//! answered as a worker answers it: the structured error, counted.
//!
//! After a change that is meant to change answers, regenerate the file
//! and review its diff:
//!
//! ```text
//! cargo test --release -p samm-serve --test transcript -- --ignored
//! ```

use std::sync::atomic::Ordering;

use samm_core::cache::EnumCache;
use samm_litmus::catalog::{self, ModelSel};
use samm_serve::handler::{error_response, serve_envelope, ServerState};
use samm_serve::json::Json;
use samm_serve::{parse_envelope, ServerConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/answers.jsonl");

/// A request object with `fields` and, when given, `id`.
fn request(mut fields: Vec<(&'static str, Json)>, id: Option<&str>) -> String {
    if let Some(id) = id {
        fields.push(("id", Json::str(id)));
    }
    Json::obj(fields).to_string()
}

fn enumerate(test: &str, model: &str, budget: Option<u64>, id: Option<&str>) -> String {
    let mut fields = vec![
        ("kind", Json::str("enumerate")),
        ("test", Json::str(test)),
        ("model", Json::str(model)),
    ];
    if let Some(budget) = budget {
        fields.push(("budget", Json::num(budget as f64)));
    }
    request(fields, id)
}

fn verdict(test: &str, budget: Option<u64>, id: Option<&str>) -> String {
    let mut fields = vec![("kind", Json::str("verdict")), ("test", Json::str(test))];
    if let Some(budget) = budget {
        fields.push(("budget", Json::num(budget as f64)));
    }
    request(fields, id)
}

fn explain(kind: &str, test: &str, model: &str, condition: usize) -> String {
    request(
        vec![
            ("kind", Json::str(kind)),
            ("test", Json::str(test)),
            ("model", Json::str(model)),
            ("condition", Json::num(condition as f64)),
        ],
        None,
    )
}

fn certify(test: &str, model: &str, robust: bool) -> String {
    request(
        vec![
            ("kind", Json::str("certify")),
            ("test", Json::str(test)),
            ("model", Json::str(model)),
            ("robust", Json::Bool(robust)),
        ],
        None,
    )
}

fn batch(slots: &[String], id: Option<&str>) -> String {
    let id = id.map_or(String::new(), |id| format!(r#","id":{}"#, Json::str(id)));
    format!(r#"{{"kind":"batch","requests":[{}]{id}}}"#, slots.join(","))
}

/// A client id that needs every kind of escaping.
fn escaped_id(i: usize) -> String {
    format!("k{i} \"q\" \\ \n\t\u{1}")
}

/// Every catalog key as `(test, model)`.
fn keys() -> Vec<(String, &'static str)> {
    let mut keys = Vec::new();
    for entry in catalog::all() {
        for sel in ModelSel::ALL {
            keys.push((entry.test.name.clone(), sel.name()));
        }
    }
    keys
}

/// Every catalog verdict: with a budget no run fits in (overbudget on a
/// miss), with no budget under a client id and under a server id, with
/// a budget every run fits in, and with the small budget again
/// (answered from the cache where its runs are resident).
fn verdicts(lines: &mut Vec<String>) {
    for (i, entry) in catalog::all().iter().enumerate() {
        let test = &entry.test.name;
        let id = escaped_id(i);
        lines.extend([
            verdict(test, Some(1), None),
            verdict(test, None, Some(&id)),
            verdict(&test.to_lowercase(), None, None),
            verdict(test, Some(1_000_000), None),
            verdict(test, Some(1), Some(&id)),
        ]);
    }
    lines.push(verdict("NoSuchTest", None, Some("v")));
}

/// Every key sent twice, the first under a client id on even keys and
/// the second under one on odd keys, the rest under server ids; every
/// seventh key once more with its names case-folded.
fn enumerates(lines: &mut Vec<String>) {
    for (i, (test, model)) in keys().iter().enumerate() {
        let id = escaped_id(i);
        let (first, second) = if i % 2 == 0 {
            (Some(id.as_str()), None)
        } else {
            (None, Some(id.as_str()))
        };
        lines.push(enumerate(test, model, None, first));
        lines.push(enumerate(test, model, None, second));
        if i % 7 == 0 {
            lines.push(enumerate(
                &test.to_lowercase(),
                &model.to_uppercase(),
                None,
                None,
            ));
        }
    }
}

/// The lines sent to a server with the default cache geometry.
fn large_cache_lines() -> Vec<String> {
    let mut lines = Vec::new();
    verdicts(&mut lines);
    enumerates(&mut lines);
    for entry in catalog::all() {
        let test = &entry.test.name;
        for sel in ModelSel::ALL {
            for condition in 0..entry.test.conditions.len() {
                lines.push(explain("witness", test, sel.name(), condition));
                lines.push(explain("refutation", test, sel.name(), condition));
            }
            lines.push(certify(test, sel.name(), false));
            lines.push(certify(test, sel.name(), true));
        }
    }
    // Batches of 32 keys with error, certify, verdict and witness slots
    // mixed in, under client, escaped, child and server ids.
    for (b, chunk) in keys().chunks(32).enumerate() {
        let mut slots: Vec<String> = chunk
            .iter()
            .enumerate()
            .map(|(i, (test, model))| {
                let id = (i % 3 == b % 3).then(|| escaped_id(i));
                enumerate(test, model, None, id.as_deref())
            })
            .collect();
        let (test, model) = &chunk[0];
        slots.extend([
            enumerate("NoSuchTest", "TSO", None, None),
            r#"{"kind":"enumerate","model":"TSO","id":"bad"}"#.to_owned(),
            certify(test, model, b % 2 == 0),
            verdict(test, None, None),
            explain("witness", test, model, 0),
            r#"{"kind":"shutdown"}"#.to_owned(),
            "7".to_owned(),
        ]);
        let id = (b % 2 == 0).then(|| escaped_id(b));
        lines.push(batch(&slots, id.as_deref()));
    }
    lines.extend(
        [
            r#"{"kind":"enumerate","test":"IRIW","model":"Weak","budget":3}"#,
            r#"{"kind":"enumerate","test":"IRIW","model":"Weak","budget":3,"id":"over"}"#,
            r#"{"kind":"enumerate","test":"NoSuchTest","model":"TSO","id":"e1"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"NoSuchModel"}"#,
            r#"{"kind":"witness","test":"SB","model":"NoSuchModel","condition":0}"#,
            r#"{"kind":"refutation","test":"NoSuchTest","model":"SC","condition":0}"#,
            r#"{"kind":"certify","test":"SB","model":"NoSuchModel","robust":true}"#,
            r#"{"kind":"witness","test":"SB","model":"TSO","condition":99}"#,
            r#"{"kind":"witness","test":"IRIW","model":"Weak","condition":0,"budget":3}"#,
            r#"{"kind":"refutation","test":"IRIW","model":"Weak","condition":0,"budget":3}"#,
            r#"{"kind":"enumerate","test":"SB"}"#,
            r#"{"kind":"enumerate","test":"SB","model":"TSO","budget":-1}"#,
            r#"{"kind":"enumerate","test":"SB","model":"TSO","id":7}"#,
            r#"{"kind":"no-such-kind"}"#,
            r#"{"kind":"batch","requests":[]}"#,
            r#"{"kind":"batch","requests":[{"kind":"batch","requests":[]}]}"#,
            r#"{"kind":"enumerate","test":"SB","model":"TSO""#,
            r#"{"kind":"enumerate","test":"SB","model":"TSO"} trailing"#,
            "[]",
            "not json",
            r#"{"kind":"shutdown","id":"bye"}"#,
        ]
        .map(str::to_owned),
    );
    lines
}

/// The lines sent to a server whose cache holds one entry in one shard,
/// as on the `fresh-mix` workload: every verdict classifies its
/// dominated views afresh, and each key evicts the one before it.
fn one_entry_cache_lines() -> Vec<String> {
    let mut lines = Vec::new();
    verdicts(&mut lines);
    // A cold key under a budget it does not fit in; on the default
    // cache above, the same line is a hit.
    lines.push(enumerate("IRIW", "Weak", Some(3), Some("over")));
    let keys = keys();
    for (test, model) in keys.iter().take(12) {
        lines.push(enumerate(test, model, None, None));
        lines.push(enumerate(test, model, None, None));
    }
    lines.push(enumerate(&keys[0].0, keys[0].1, None, None));
    lines
}

/// Answers `line` as a server worker does, appending the response line.
fn serve(state: &ServerState, line: &str, out: &mut Vec<u8>) {
    match parse_envelope(line) {
        Ok(envelope) => serve_envelope(state, &envelope, out),
        Err(err) => {
            state.telemetry.requests.fetch_add(1, Ordering::Relaxed);
            out.extend_from_slice(format!("{}\n", error_response(state, &err)).as_bytes());
        }
    }
}

/// Every request line, each paired with its response line (newline
/// included), over a fresh default-geometry server and then a fresh
/// one-entry server.
fn transcript() -> Vec<(String, String)> {
    let config = ServerConfig::default();
    let sessions = [
        (
            EnumCache::with_shards(config.cache_shards, config.cache_capacity),
            large_cache_lines(),
        ),
        (EnumCache::with_shards(1, 1), one_entry_cache_lines()),
    ];
    let mut answered = Vec::new();
    for (cache, lines) in sessions {
        let state = ServerState::new(cache, None);
        for line in lines {
            let mut out = Vec::new();
            serve(&state, &line, &mut out);
            let response = String::from_utf8(out).expect("answers are UTF-8");
            assert!(
                response.ends_with('\n') && response.matches('\n').count() == 1,
                "one line per request: {line}"
            );
            answered.push((line, response));
        }
    }
    answered
}

#[test]
fn answers_match_the_golden_transcript() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden transcript present");
    let golden: Vec<&str> = golden.split_inclusive('\n').collect();
    let answered = transcript();
    for (n, ((request, response), want)) in answered.iter().zip(&golden).enumerate() {
        assert!(
            response == want,
            "line {}: the answer to\n  {request}\nis\n  {response}not\n  {want}",
            n + 1
        );
    }
    assert_eq!(answered.len(), golden.len(), "transcript length");
}

/// Rewrites the golden transcript from this build's answers.
#[test]
#[ignore = "rewrites tests/golden/answers.jsonl"]
fn regenerate_the_golden_transcript() {
    let text: String = transcript().into_iter().map(|(_, r)| r).collect();
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN, text).unwrap();
}
