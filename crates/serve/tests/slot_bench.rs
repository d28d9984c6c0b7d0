//! Microbenchmarks for the warm request path — the per-slot pipeline
//! that bounds `batch` throughput (E25): envelope parse, warm handler,
//! response render, and client-side decode, plus the individual pieces
//! that have historically regressed (catalog lookup, `EnumConfig`
//! construction, cache-hit clone, telemetry record).
//!
//! `#[ignore]`d so `cargo test` stays fast; run with
//!
//! ```text
//! cargo test --release -p samm-serve --test slot_bench -- --ignored --nocapture
//! ```
use samm_core::cache::EnumCache;
use samm_serve::handler::{handle_envelope, ServerState};
use samm_serve::protocol::parse_envelope;
use std::time::Instant;

#[test]
#[ignore]
fn slot_cost() {
    let state = ServerState::new(EnumCache::new(1024), None);
    let line = r#"{"kind":"enumerate","test":"IRIW","model":"Weak"}"#;
    let env = parse_envelope(line).unwrap();
    handle_envelope(&state, &env); // warm the cache
    let n = 20000;

    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(parse_envelope(line).unwrap());
    }
    println!(
        "parse_envelope: {:.1}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(handle_envelope(&state, &env));
    }
    println!(
        "handle warm:    {:.1}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    let resp = handle_envelope(&state, &env);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(resp.to_string());
    }
    println!(
        "render ({}B): {:.1}us",
        resp.to_string().len(),
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    let rendered = resp.to_string();
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(samm_serve::json::parse(&rendered).unwrap());
    }
    println!(
        "client parse:   {:.1}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );
}

#[test]
#[ignore]
fn handler_pieces() {
    use samm_litmus::catalog;
    let entry = catalog::all()
        .into_iter()
        .find(|e| e.test.name == "IRIW")
        .unwrap();
    let state = ServerState::new(EnumCache::new(1024), None);
    let env = parse_envelope(r#"{"kind":"enumerate","test":"IRIW","model":"Weak"}"#).unwrap();
    handle_envelope(&state, &env);
    let n = 20000;

    let policy = samm_core::policy::Policy::weak();
    let config = samm_core::enumerate::EnumConfig::default();
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(samm_core::fingerprint::query_fingerprint(
            &entry.test.program,
            &policy,
            &config,
        ));
    }
    println!(
        "fingerprint:  {:.1}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );
}

#[test]
#[ignore]
fn handler_by_test() {
    let state = ServerState::new(EnumCache::new(1024), None);
    let n = 20000;
    for (name, line) in [
        (
            "SB/SC   ",
            r#"{"kind":"enumerate","test":"SB","model":"SC"}"#,
        ),
        (
            "IRIW/Weak",
            r#"{"kind":"enumerate","test":"IRIW","model":"Weak"}"#,
        ),
        ("metrics ", r#"{"kind":"metrics"}"#),
    ] {
        let env = parse_envelope(line).unwrap();
        handle_envelope(&state, &env);
        let sz = handle_envelope(&state, &env).to_string().len();
        let t = Instant::now();
        for _ in 0..n {
            std::hint::black_box(handle_envelope(&state, &env));
        }
        println!(
            "{name} ({sz:5}B): {:.1}us",
            t.elapsed().as_secs_f64() * 1e6 / n as f64
        );
    }

    // cache.get (a shard lock and a refcount bump) in isolation
    let entry = {
        use samm_litmus::catalog;
        catalog::all()
            .into_iter()
            .find(|e| e.test.name == "IRIW")
            .unwrap()
    };
    let policy = samm_core::policy::Policy::weak();
    let config = samm_core::enumerate::EnumConfig::default();
    let cache = EnumCache::new(64);
    samm_core::cache::cached_enumerate(
        &cache,
        &entry.test.program,
        &policy,
        &config,
        samm_core::enumerate::enumerate,
    )
    .unwrap();
    let fp = samm_core::fingerprint::query_fingerprint(&entry.test.program, &policy, &config);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(cache.get(fp));
    }
    println!(
        "cache.get: {:.1}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );
}

#[test]
#[ignore]
fn overhead_pieces() {
    use samm_core::telemetry::trace::{ActiveSpan, SpanKind, TraceRing};
    use samm_serve::telemetry::{ReqOutcome, Telemetry};
    use samm_serve::Json;
    use std::sync::Arc;
    use std::time::Duration;
    // A span log whose slow threshold drops every span below: the cost
    // a traced server pays for a fast request.
    let telemetry = Telemetry::new(
        Some(Arc::new(TraceRing::new(1024))),
        Duration::from_millis(100),
    );
    let n = 20000;

    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(telemetry.ids.next_id());
    }
    println!(
        "next_id:        {:.2}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    let t = Instant::now();
    for _ in 0..n {
        telemetry.record(0, ReqOutcome::Hit, Duration::from_micros(20));
        let mut span = ActiveSpan::root("server", SpanKind::Server);
        span.attr("id", "r1".to_owned());
        span.finish(&telemetry);
    }
    println!(
        "record+span:    {:.2}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Json::obj([
            ("ok", Json::Bool(true)),
            ("kind", Json::str("enumerate")),
            ("test", Json::str("IRIW")),
            ("model", Json::str("Weak")),
            ("engine", Json::str("serial")),
            ("cache_hit", Json::Bool(true)),
            ("outcome_count", Json::num(15.0)),
            ("executions", Json::num(100.0)),
            ("outcomes", Json::Null),
            ("stats", Json::str("x")),
        ]));
    }
    println!(
        "Json::obj x10:  {:.2}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );
}

#[test]
#[ignore]
fn config_cost() {
    let n = 20000;
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(
            samm_core::enumerate::EnumConfig::builder()
                .keep_executions(false)
                .observe(true)
                .budget(None)
                .build(),
        );
    }
    println!(
        "config build:   {:.2}us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );
}
