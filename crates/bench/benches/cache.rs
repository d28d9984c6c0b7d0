//! The content-addressed enumeration cache: fingerprint cost, hit/miss
//! latency, and the end-to-end effect of a warm cache on the harness.
//!
//! `cache/fingerprint` measures the pure hashing cost of keying a query
//! (program + policy + config). `cache/hit` replays an enumerate query
//! against a warm cache — the steady state of `samm-serve` — and
//! `cache/miss_fresh` is the same query enumerated fresh, so the pair
//! bounds the speedup a hit buys. `cache/harness_warm` runs the full
//! conformance harness on a warm cache versus `cache/harness_cold`
//! filling it from scratch.

use criterion::{criterion_group, criterion_main, Criterion};

use samm_core::cache::{cached_enumerate, EnumCache};
use samm_core::enumerate::EnumConfig;
use samm_core::fingerprint::query_fingerprint;
use samm_core::policy::Policy;
use samm_core::pruned::enumerate_pruned;
use samm_litmus::expect::{run_entry_planned, EntryReport, VerdictPlan};
use samm_litmus::{catalog, CatalogEntry};

fn config() -> EnumConfig {
    EnumConfig::builder().keep_executions(false).build()
}

fn bench_fingerprint(c: &mut Criterion) {
    let entry = catalog::iriw();
    let policy = Policy::weak();
    let cfg = config();
    c.bench_function("cache/fingerprint", |b| {
        b.iter(|| std::hint::black_box(query_fingerprint(&entry.test.program, &policy, &cfg)));
    });
}

fn bench_hit_vs_miss(c: &mut Criterion) {
    let entry = catalog::iriw();
    let policy = Policy::weak();
    let cfg = config();

    let cache = EnumCache::new(64);
    let (_, hit) =
        cached_enumerate(&cache, &entry.test.program, &policy, &cfg).expect("enumerates");
    assert!(!hit, "first fill must miss");

    c.bench_function("cache/hit", |b| {
        b.iter(|| {
            let (value, hit) =
                cached_enumerate(&cache, &entry.test.program, &policy, &cfg).expect("enumerates");
            assert!(hit);
            std::hint::black_box(value.outcomes.len())
        });
    });
    c.bench_function("cache/miss_fresh", |b| {
        b.iter(|| {
            let r = enumerate_pruned(&entry.test.program, &policy, &cfg).expect("enumerates");
            std::hint::black_box(r.outcomes.len())
        });
    });
}

/// `entry`'s verdicts through `cache`, certifying nothing.
fn cached_verdicts(entry: &CatalogEntry, cfg: &EnumConfig, cache: &EnumCache) -> EntryReport {
    let plan = VerdictPlan::new(entry, cfg, None);
    run_entry_planned(entry, &plan, cfg, Some(cache)).expect("runs")
}

fn bench_harness(c: &mut Criterion) {
    let entry = catalog::iriw();
    let cfg = config();

    let mut group = c.benchmark_group("cache/harness");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let cache = EnumCache::new(64);
            let report = cached_verdicts(&entry, &cfg, &cache);
            std::hint::black_box(report.rows.len())
        });
    });
    let warm = EnumCache::new(64);
    // The first pass classifies the views that dominate a weaker one and
    // inserts none of them; the second searches and inserts them.
    for _ in 0..2 {
        cached_verdicts(&entry, &cfg, &warm);
    }
    group.bench_function("warm", |b| {
        b.iter(|| {
            let report = cached_verdicts(&entry, &cfg, &warm);
            assert!(report.rows.iter().all(|r| r.cache_hit));
            std::hint::black_box(report.rows.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fingerprint, bench_hit_vs_miss, bench_harness);
criterion_main!(benches);
