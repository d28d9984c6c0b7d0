//! E23: prune-before-expand vs the serial oracle on fresh enumeration.
//!
//! Benchmarks the catalog mix the `samm-serve` cold path pays for —
//! fresh `keep_executions(false)` queries — under three engines: the
//! serial oracle, the prune-before-expand engine, and (for the IRIW
//! headline number) the E20 configuration both EXPERIMENTS.md tables
//! quote. The pruned engine's win comes from killing claims on the
//! dedup fingerprint *before* paying for a fork, plus flat-arena
//! copy-on-write forks. `samm-bench-report` gates the engines' ratio in
//! CI, on IRIW's whole verdict (every model) rather than IRIW under
//! Weak alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::pruned::enumerate_pruned;
use samm_litmus::{catalog, CatalogEntry, ModelSel};

fn fresh_config() -> EnumConfig {
    EnumConfig::builder().keep_executions(false).build()
}

/// The catalog mix: the heavier classic tests plus the paper figures —
/// the entries whose fresh enumerations dominate a cold catalog sweep.
fn mix() -> Vec<(CatalogEntry, ModelSel)> {
    vec![
        (catalog::sb(), ModelSel::Weak),
        (catalog::mp(), ModelSel::Weak),
        (catalog::iriw(), ModelSel::Weak),
        (catalog::wrc(), ModelSel::Weak),
        (catalog::fig5(), ModelSel::Weak),
        (catalog::fig10(), ModelSel::Pso),
        (catalog::fig10(), ModelSel::Weak),
    ]
}

fn bench_pruned_vs_serial(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruned");
    group.sample_size(30);
    let config = fresh_config();
    for (entry, model) in mix() {
        let policy = model.policy();
        let serial_label = format!("{}/{}/serial", entry.test.name, model.name());
        group.bench_with_input(
            BenchmarkId::from_parameter(serial_label),
            &entry,
            |b, entry| {
                b.iter(|| {
                    let r = enumerate(&entry.test.program, &policy, &config).expect("enumerates");
                    std::hint::black_box((r.outcomes.len(), r.stats.distinct_executions))
                });
            },
        );
        let pruned_label = format!("{}/{}/pruned", entry.test.name, model.name());
        group.bench_with_input(
            BenchmarkId::from_parameter(pruned_label),
            &entry,
            |b, entry| {
                b.iter(|| {
                    let r = enumerate_pruned(&entry.test.program, &policy, &config)
                        .expect("enumerates");
                    std::hint::black_box((r.outcomes.len(), r.stats.distinct_executions))
                });
            },
        );
    }
    group.finish();
}

/// The E20 headline pair: fresh IRIW under Weak, the configuration whose
/// 763 µs baseline EXPERIMENTS.md E20 documents and whose pruned
/// replacement E23 tables.
fn bench_e20_headline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruned-e20");
    group.sample_size(50);
    let entry = catalog::iriw();
    let policy = ModelSel::Weak.policy();
    let config = fresh_config();
    group.bench_function("iriw-weak-serial", |b| {
        b.iter(|| {
            let r = enumerate(&entry.test.program, &policy, &config).expect("enumerates");
            std::hint::black_box(r.stats.distinct_executions)
        });
    });
    group.bench_function("iriw-weak-pruned", |b| {
        b.iter(|| {
            let r = enumerate_pruned(&entry.test.program, &policy, &config).expect("enumerates");
            std::hint::black_box(r.stats.distinct_executions)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pruned_vs_serial, bench_e20_headline);
criterion_main!(benches);
