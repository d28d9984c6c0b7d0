//! Telemetry primitive cost (experiment E22): the histogram's hot-path
//! `record`, snapshot merging, and an A/B of the serve-side telemetry
//! wrapper on the enumerate path — `handle_traced` with live histograms
//! versus the bare handler work. The bar mirrors E19's: per-request
//! telemetry cost must be noise against real enumeration work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use samm_core::cache::EnumCache;
use samm_core::telemetry::Histogram;
use samm_serve::handler::{self, ServerState};
use samm_serve::protocol::Request;
use samm_serve::telemetry::Telemetry;

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

/// The A/B that matters for the service: a fresh enumerate request
/// through `handle_traced` (full telemetry: id, histograms, obs
/// folding) versus through a state whose request never
/// reaches the latency-tracked path. Cache capacity 0 would poison the
/// comparison, so both sides use a fresh cache per iteration — each
/// request is a cold miss doing real enumeration work.
fn bench_request_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry/enumerate");
    group.sample_size(20);
    let request = Request::Enumerate {
        test: "IRIW".into(),
        model: "Weak".into(),
        budget: None,
    };
    for (label, observe) in [("observed", true), ("disabled", false)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &observe,
            |b, &observe| {
                b.iter(|| {
                    let state = ServerState::with_telemetry(
                        EnumCache::new(64),
                        None,
                        Telemetry::default(),
                        observe,
                    );
                    let response = handler::handle_traced(&state, &request, Some("bench"));
                    std::hint::black_box(response)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_histogram, bench_request_overhead);
criterion_main!(benches);
