//! The answer transcript's request lines, in the order they are sent:
//! shared by `transcript.rs`, which answers them, and
//! `parse_differential.rs`, which parses them and their mutations.

use samm_litmus::catalog::{self, ModelSel};
use samm_serve::json::Json;

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
pub fn large_cache_lines() -> Vec<String> {
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
pub fn one_entry_cache_lines() -> Vec<String> {
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
