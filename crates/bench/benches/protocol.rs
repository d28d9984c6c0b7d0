//! The request codec on a warm cache: reading one request line into an
//! `Envelope`, beside answering it. `protocol/parse/single` parses one
//! `warm-singles` line; `protocol/parse/batch32` parses one
//! `warm-batch32` line, the first 32 catalog keys as `enumerate` slots
//! (divide by 32 for the cost per slot); `protocol/serve/batch32`
//! answers that parsed line from a warm cache, so the two batch rows
//! split the server's work on a batch line between parsing and
//! serving.

use criterion::{criterion_group, criterion_main, Criterion};

use samm_core::cache::EnumCache;
use samm_litmus::catalog::{self, ModelSel};
use samm_serve::handler::{serve_envelope, ServerState};
use samm_serve::protocol::parse_envelope;

/// Timed samples per row: one parse is a fraction of a microsecond, so
/// many samples steady the median.
const SAMPLES: usize = 2000;

/// The first 32 catalog keys as one batch line of `enumerate` slots,
/// written as the benchmark's workloads write them.
fn batch32() -> String {
    let slots: Vec<String> = catalog::all()
        .iter()
        .flat_map(|entry| {
            ModelSel::ALL.into_iter().map(move |sel| {
                format!(
                    r#"{{"kind":"enumerate","test":"{}","model":"{}"}}"#,
                    entry.test.name,
                    sel.name()
                )
            })
        })
        .take(32)
        .collect();
    format!(r#"{{"kind":"batch","requests":[{}]}}"#, slots.join(","))
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/parse");
    group.sample_size(SAMPLES);
    let single = r#"{"kind":"enumerate","test":"IRIW","model":"Weak"}"#;
    group.bench_function("single", |b| {
        b.iter(|| parse_envelope(single).expect("the line parses"));
    });
    let batch = batch32();
    group.bench_function("batch32", |b| {
        b.iter(|| parse_envelope(&batch).expect("the line parses"));
    });
    group.finish();
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/serve");
    group.sample_size(SAMPLES);
    let state = ServerState::new(EnumCache::new(1024), None);
    let envelope = parse_envelope(&batch32()).expect("the line parses");
    let mut out = Vec::new();
    // Fill the cache, so every timed slot is a hit.
    serve_envelope(&state, &envelope, &mut out);
    group.bench_function("batch32", |b| {
        b.iter(|| {
            out.clear();
            serve_envelope(&state, &envelope, &mut out);
            out.len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_parse, bench_serve);
criterion_main!(benches);
