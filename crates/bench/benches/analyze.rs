//! The DRF-SC short-circuit payoff: running a fenced catalog entry
//! through the full model chain with the static certifier (one SC
//! enumeration + four static checks) versus honest per-model
//! enumeration, plus the raw cost of the static passes themselves, and
//! the service's verdict path over the whole catalog with and without
//! the DRF certifier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use samm_analyze::{certify, find_races, harness};
use samm_core::cache::EnumCache;
use samm_core::enumerate::EnumConfig;
use samm_core::policy::Policy;
use samm_litmus::expect::{run_entry_planned, VerdictPlan};
use samm_litmus::{catalog, expect, CatalogEntry};

fn fast_config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

fn fenced_entries() -> Vec<CatalogEntry> {
    vec![
        catalog::sb_fenced(),
        catalog::mp_fenced(),
        catalog::iriw_fenced(),
        catalog::wrc_fenced(),
    ]
}

/// Full-enumeration harness vs the certified short-circuit, per entry.
/// The certified runs enumerate once (SC) and answer every other model
/// statically, so the gap widens with chain length and program size.
fn bench_certified_skip(c: &mut Criterion) {
    let config = fast_config();
    let mut group = c.benchmark_group("analyze/harness");
    for entry in fenced_entries() {
        group.bench_with_input(
            BenchmarkId::new("full-enumeration", &entry.test.name),
            &entry,
            |b, entry| {
                b.iter(|| {
                    std::hint::black_box(
                        expect::run_entry(entry, &config).expect("enumeration succeeds"),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("certified-skip", &entry.test.name),
            &entry,
            |b, entry| {
                b.iter(|| {
                    let plan = VerdictPlan::new(entry, &config, Some(&harness::checked_certifier));
                    std::hint::black_box(
                        run_entry_planned(entry, &plan, &config, None)
                            .expect("enumeration succeeds"),
                    )
                });
            },
        );
    }
    group.finish();
}

/// The static passes in isolation: what a certificate or race report
/// costs without any enumeration at all.
fn bench_static_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyze/static");
    let weak = Policy::weak();
    for entry in fenced_entries() {
        group.bench_with_input(
            BenchmarkId::new("certify", &entry.test.name),
            &entry,
            |b, entry| {
                b.iter(|| std::hint::black_box(certify(&entry.test.program, &weak)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("find_races", &entry.test.name),
            &entry,
            |b, entry| {
                b.iter(|| std::hint::black_box(find_races(&entry.test.program, &weak)));
            },
        );
    }
    group.finish();
}

/// The service's verdict path over the whole catalog on a cold cache:
/// `run_entry_planned` with the DRF certifier `samm-serve` passes, versus
/// certifying nothing (every model enumerated, as before the certifier
/// was wired in).
fn bench_verdict_catalog(c: &mut Criterion) {
    let config = EnumConfig::builder()
        .keep_executions(false)
        .observe(true)
        .build();
    let entries = catalog::all();
    let mut group = c.benchmark_group("analyze/verdict-catalog");
    group.sample_size(10);
    let certifiers: [(&str, expect::Certifier<'_>); 2] = [
        ("uncertified", &|_, _| false),
        ("drf-certified", &harness::drf_certifier),
    ];
    for (name, certifier) in certifiers {
        group.bench_function(name, |b| {
            b.iter(|| {
                let cache = EnumCache::new(1024);
                for entry in &entries {
                    let plan = VerdictPlan::new(entry, &config, Some(certifier));
                    std::hint::black_box(
                        run_entry_planned(entry, &plan, &config, Some(&cache))
                            .expect("enumeration succeeds"),
                    );
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_certified_skip,
    bench_static_passes,
    bench_verdict_catalog
);
criterion_main!(benches);
