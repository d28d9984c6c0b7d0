//! Telemetry primitive cost (experiment E22): the histogram's hot-path
//! `record`, snapshot merging, and a cold enumerate request through the
//! serve-side telemetry wrapper (`serve_envelope` with live histograms),
//! and one render of a populated Prometheus exposition.
//! The bar mirrors E19's: per-request telemetry cost must be noise
//! against real enumeration work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use samm_core::cache::EnumCache;
use samm_core::telemetry::Histogram;
use samm_litmus::catalog::{self, ModelSel};
use samm_serve::handler::{self, ServerState};
use samm_serve::protocol::parse_envelope;

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/histogram");

    // Hot path: one relaxed add per counter plus the bucket index math.
    group.bench_function("record", |b| {
        let histogram = Histogram::new();
        let mut value = 1u64;
        b.iter(|| {
            // An LCG walk over 6 decades so branch prediction cannot
            // memorise one bucket.
            value = value
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            histogram.record(std::hint::black_box(value >> 24));
        });
    });

    for shards in [2usize, 8, 32] {
        group.bench_with_input(BenchmarkId::new("merge", shards), &shards, |b, &shards| {
            let snaps: Vec<_> = (0..shards)
                .map(|shard| {
                    let h = Histogram::new();
                    let mut value = shard as u64 | 1;
                    for _ in 0..10_000 {
                        value = value
                            .wrapping_mul(2862933555777941757)
                            .wrapping_add(3037000493);
                        h.record(value >> 24);
                    }
                    h.snapshot()
                })
                .collect();
            b.iter(|| {
                let mut merged = snaps[0].clone();
                for snap in &snaps[1..] {
                    merged.merge(snap);
                }
                std::hint::black_box(merged.quantile(0.99))
            });
        });
    }
    group.finish();
}

/// A fresh enumerate request through `serve_envelope` (full telemetry:
/// id, histograms, obs folding). Cache capacity 0 would poison the
/// measurement, so each iteration uses a fresh cache and the request is
/// a cold miss doing real enumeration work. The enumeration-side cost
/// of instrumentation is the `obs` bench's observed/disabled A/B.
fn bench_request_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/enumerate");
    group.sample_size(20);
    let request =
        parse_envelope(r#"{"kind":"enumerate","test":"IRIW","model":"Weak","id":"bench"}"#)
            .unwrap();
    group.bench_function("observed", |b| {
        b.iter(|| {
            let state = ServerState::new(EnumCache::new(64), None);
            let mut response = Vec::new();
            handler::serve_envelope(&state, &request, &mut response);
            std::hint::black_box(response)
        });
    });
    group.finish();
}

/// One render of the Prometheus exposition over a populated state: every
/// catalog key enumerated under every model, a verdict per entry, one
/// request of each other kind, and two loops' gauges. Event loop 0
/// renders each scrape, so this is how long a scrape holds that loop.
fn bench_prom_render(c: &mut Criterion) {
    let state = ServerState::new(EnumCache::new(1024), None);
    let _gauges = [
        state.telemetry.register_loop(),
        state.telemetry.register_loop(),
    ];
    let mut lines = vec![
        r#"{"kind":"witness","test":"SB","model":"TSO"}"#.to_owned(),
        r#"{"kind":"refutation","test":"SB","model":"SC"}"#.to_owned(),
        r#"{"kind":"certify","test":"MP","model":"TSO","robust":true}"#.to_owned(),
        r#"{"kind":"metrics"}"#.to_owned(),
    ];
    for entry in catalog::all() {
        let test = &entry.test.name;
        for sel in ModelSel::ALL {
            let model = sel.name();
            lines.push(format!(
                r#"{{"kind":"enumerate","test":"{test}","model":"{model}"}}"#
            ));
        }
        lines.push(format!(r#"{{"kind":"verdict","test":"{test}"}}"#));
    }
    for line in &lines {
        handler::handle_envelope(&state, &parse_envelope(line).unwrap());
    }
    let mut group = c.benchmark_group("telemetry/prom");
    group.bench_function("render", |b| {
        b.iter(|| std::hint::black_box(state.render_prom()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_histogram,
    bench_request_overhead,
    bench_prom_render
);
criterion_main!(benches);
