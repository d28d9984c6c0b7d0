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

mod requests;

use std::sync::atomic::Ordering;

use samm_core::cache::EnumCache;
use samm_serve::handler::{error_response, serve_envelope, ServerState};
use samm_serve::{parse_envelope, ServerConfig};

use requests::{large_cache_lines, one_entry_cache_lines};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/answers.jsonl");

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
