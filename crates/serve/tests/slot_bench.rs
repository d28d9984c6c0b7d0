//! Microbenchmarks for the warm request path — the per-slot pipeline
//! that bounds `batch` throughput (E25, E31). `slot_cost` splits one
//! served slot into the stages the server runs: envelope parse, query
//! resolve (catalog name lookup and a row of the start-up resolution
//! table, beside the per-request resolution it replaced), cache probe
//! and the byte writer; then times the whole served inline hit, a served
//! 32-slot batch line, and a client's parse of the answer. The other
//! tests time the pieces
//! that have historically regressed (catalog lookup, `EnumConfig`
//! construction, cache-hit clone, telemetry record).
//!
//! `#[ignore]`d so `cargo test` stays fast; run with
//!
//! ```text
//! cargo test --release -p samm-serve --test slot_bench -- --ignored --nocapture
//! ```
use samm_core::cache::EnumCache;
use samm_core::enumerate::EnumConfig;
use samm_core::fingerprint::{query_fingerprint, write_config, write_program, FingerprintHasher};
use samm_litmus::catalog::ModelSel;
use samm_serve::answer::EnumQuery;
use samm_serve::handler::{serve_envelope, serve_hit, ServerState};
use samm_serve::protocol::{parse_envelope, parse_envelope_bytes, Request};
use std::time::Instant;

/// Mean microseconds per call of `f` over `n` calls.
fn time_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

#[test]
#[ignore]
fn slot_cost() {
    let state = ServerState::new(EnumCache::new(1024), None);
    let line = br#"{"kind":"enumerate","test":"IRIW","model":"Weak","id":"s7"}"#;
    let env = parse_envelope_bytes(line).unwrap();
    let mut out = Vec::new();
    serve_envelope(&state, &env, &mut out); // warm the cache
    let n = 20000;
    let Request::Enumerate {
        test,
        model,
        budget,
    } = &env.request
    else {
        unreachable!()
    };
    let query = EnumQuery::resolve(&state, test, model, *budget).unwrap();
    let value = state.cache.probe(query.fingerprint()).unwrap();

    println!("served slot, by stage:");
    let parse = time_us(n, || parse_envelope_bytes(line).unwrap());
    println!("  parse:          {parse:.2}us");
    let resolve = time_us(n, || {
        EnumQuery::resolve(&state, test, model, *budget).unwrap()
    });
    println!("  resolve:        {resolve:.2}us (name lookup, resolution-table row)");
    let catalog = samm_litmus::catalog::all();
    let per_request = |keyed_by_view: bool| {
        time_us(n, || {
            let entry = catalog
                .iter()
                .find(|e| e.test.name.eq_ignore_ascii_case(test))
                .unwrap();
            let sel = ModelSel::ALL
                .into_iter()
                .find(|m| m.name().eq_ignore_ascii_case(model))
                .unwrap();
            let policy = sel.policy();
            let config = EnumConfig::builder()
                .keep_executions(false)
                .observe(true)
                .budget(*budget)
                .build();
            let program = &entry.test.program;
            if keyed_by_view {
                return query_fingerprint(program, &policy, &config);
            }
            let mut h = FingerprintHasher::new();
            write_program(&mut h, program);
            for (_, _, cell) in policy.table().cells() {
                h.write_u8(cell as u8);
            }
            h.write_u8(u8::from(policy.alias_speculation()));
            write_config(&mut h, &config);
            h.finish()
        })
    };
    println!(
        "    per request, policy key: {:.2}us (lookup, policy, config, hash of 25 cells)",
        per_request(false)
    );
    println!(
        "    per request, view key:   {:.2}us (the same with the table view computed)",
        per_request(true)
    );
    let probe = time_us(n, || state.cache.probe(query.fingerprint()));
    println!("  probe:          {probe:.2}us");
    let write = time_us(n, || {
        out.clear();
        query.write_answer(&state, "s7", &value, true, &mut out);
    });
    println!("  write ({}B): {write:.2}us", out.len());
    let served = time_us(n, || {
        out.clear();
        serve_hit(&state, &env, &mut out)
    });
    println!("  served hit:     {served:.2}us (resolve, probe, telemetry, write)");

    let batch = format!(
        r#"{{"kind":"batch","requests":[{}]}}"#,
        vec![std::str::from_utf8(line).unwrap(); 32].join(",")
    );
    let batch_env = parse_envelope(&batch).unwrap();
    let per_slot = |us: f64| us / 32.0;
    let served = time_us(n / 32, || {
        out.clear();
        serve_envelope(&state, &batch_env, &mut out);
    });
    println!(
        "served batch32:   {served:.1}us ({:.2}us per slot)",
        per_slot(served)
    );

    out.clear();
    serve_envelope(&state, &env, &mut out);
    let client = time_us(n, || samm_serve::json::parse_bytes(&out).unwrap());
    println!("client parse:     {client:.2}us");
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
    serve_envelope(&state, &env, &mut Vec::new());
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
        let mut out = Vec::new();
        serve_envelope(&state, &env, &mut out);
        let t = Instant::now();
        for _ in 0..n {
            out.clear();
            serve_envelope(&state, &env, &mut out);
        }
        let sz = out.len();
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
    samm_core::cache::cached_enumerate(&cache, &entry.test.program, &policy, &config).unwrap();
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
