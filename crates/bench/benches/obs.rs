//! Instrumentation overhead (experiment E19): the same enumeration at
//! each `EnumConfig::observe` level. `off` makes every instrumentation
//! site a null check, `counted` keeps the closure-rule and candidate
//! counters without reading the clock, and `timed` adds the per-phase
//! timers. The serial group runs three catalog tests under all their
//! models; the pruned group sweeps every catalog (entry, model) key on
//! the production engine. The acceptance bars: `off` stays within noise
//! of the pre-instrumentation enumerator, and `counted` costs at most 5%
//! over `off`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::obs::Observe;
use samm_core::pruned::enumerate_pruned;
use samm_litmus::catalog::{self, ModelSel};

const LEVELS: [(Observe, &str); 3] = [
    (Observe::Off, "off"),
    (Observe::Count, "counted"),
    (Observe::Timed, "timed"),
];

fn config(observe: Observe) -> EnumConfig {
    EnumConfig::builder()
        .keep_executions(false)
        .observe(observe)
        .build()
}

fn bench_observe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/enumerate");
    let cases = [catalog::sb(), catalog::iriw(), catalog::fig10()];
    for entry in &cases {
        for (observe, name) in LEVELS {
            let label = format!("{}/{name}", entry.test.name);
            group.bench_with_input(
                BenchmarkId::from_parameter(&label),
                &config(observe),
                |b, config| {
                    b.iter(|| {
                        let mut total = 0usize;
                        for model in entry.models() {
                            let result = enumerate(&entry.test.program, &model.policy(), config)
                                .expect("enumeration succeeds");
                            total += result.stats.distinct_executions;
                        }
                        std::hint::black_box(total)
                    });
                },
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("obs/pruned-catalog");
    let keys: Vec<_> = catalog::all()
        .into_iter()
        .flat_map(|entry| ModelSel::ALL.map(|model| (entry.test.program.clone(), model.policy())))
        .collect();
    for (observe, name) in LEVELS {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &config(observe),
            |b, config| {
                b.iter(|| {
                    let mut total = 0usize;
                    for (program, policy) in &keys {
                        let result = enumerate_pruned(program, policy, config)
                            .expect("enumeration succeeds");
                        total += result.stats.distinct_executions;
                    }
                    std::hint::black_box(total)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_observe_overhead);
criterion_main!(benches);
