//! Tracing overhead guard (experiment E26): the raw cost of recording
//! one finished span into the lock-free ring, and an A/B of the warm
//! batch path — the E25 throughput configuration — with span tracing
//! disabled versus enabled. The bar: disabled must be noise against
//! PR 8's warm numbers (no sink, no span is even allocated), enabled
//! must stay within 5% of disabled.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use samm_core::cache::EnumCache;
use samm_core::telemetry::trace::{ActiveSpan, SpanKind, SpanSink, TraceRing};
use samm_serve::handler::{self, ServerState};
use samm_serve::protocol::parse_envelope;
use samm_serve::telemetry::Telemetry;

fn bench_span_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace/span");

    // Allocate + finish one attributed span into the ring: the full
    // per-span cost a server request pays when tracing is on.
    group.bench_function("record", |b| {
        let ring = TraceRing::new(4096);
        b.iter(|| {
            let mut span = ActiveSpan::root("server", SpanKind::Server);
            span.attr("req", "enumerate");
            span.attr("outcome", "hit");
            span.finish(std::hint::black_box(&ring) as &dyn SpanSink);
        });
    });

    // A child span continuing an existing context — what forwards and
    // engine phases cost on top of the root.
    group.bench_function("child", |b| {
        let ring = TraceRing::new(4096);
        let parent = ActiveSpan::root("server", SpanKind::Server);
        b.iter(|| {
            let mut span = parent.child("enumerate", SpanKind::Internal);
            span.attr("cache_hit", true);
            span.finish(std::hint::black_box(&ring) as &dyn SpanSink);
        });
    });
    group.finish();
}

/// The warm batch path A/B: one 8-slot batch of cache-hit enumerates
/// through the full handler, with tracing off (no sink installed — the
/// span branch short-circuits) versus on (ring sink; a server span per
/// slot plus one per batch, children for the batch fan-in).
fn bench_warm_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace/warm_batch");
    let sub = r#"{"kind":"enumerate","test":"IRIW","model":"Weak"}"#;
    let line = format!(
        "{{\"kind\":\"batch\",\"requests\":[{}]}}",
        [sub; 8].join(",")
    );
    let env = parse_envelope(&line).unwrap();
    for traced in [false, true] {
        let label = if traced { "enabled" } else { "disabled" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &traced, |b, &traced| {
            let ring: Arc<dyn SpanSink> = Arc::new(TraceRing::new(4096));
            let telemetry = Telemetry::new(traced.then_some(ring), Duration::ZERO);
            let state = ServerState::with_telemetry(EnumCache::new(64), None, telemetry);
            let mut out = Vec::new();
            handler::serve_envelope(&state, &env, &mut out); // warm the cache
            b.iter(|| {
                out.clear();
                handler::serve_envelope(&state, &env, &mut out);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_span_record, bench_warm_batch);
criterion_main!(benches);
