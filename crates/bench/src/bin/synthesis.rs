//! Complete small-world model comparison: sweeps *every* program of a
//! bounded litmus family and tabulates, for each adjacent pair of the
//! model chain, how many programs separate them — the systematic
//! counterpart of the paper's hand-picked examples.
//!
//! Run with: `cargo run --release -p samm-bench --bin synthesis`
//!
//! The sweep shares one content-addressed enumeration cache across the
//! chain pairs, so each middle model (TSO, PSO, Weak) is enumerated
//! once per program instead of twice; the final line reports the hit
//! rate.

use std::time::Instant;

use samm_core::cache::EnumCache;
use samm_litmus::synthesis::{diff_models_cached, programs, SynthConfig};
use samm_litmus::ModelSel;

fn sweep(config: &SynthConfig, label: &str, cache: &EnumCache) {
    println!(
        "\n=== family `{label}`: {} threads × {} ops, {} locations{} — {} programs ===",
        config.threads,
        config.ops_per_thread,
        config.locations,
        if config.include_fences {
            ", fences"
        } else {
            ""
        },
        config.family_size()
    );
    let pairs = [
        (ModelSel::Sc, ModelSel::Tso),
        (ModelSel::Tso, ModelSel::Pso),
        (ModelSel::Pso, ModelSel::Weak),
        (ModelSel::Weak, ModelSel::WeakSpec),
    ];
    for (strong, weak) in pairs {
        let start = Instant::now();
        let summary = diff_models_cached(config, &strong.policy(), &weak.policy(), cache);
        print!("  [{:.3?}] ", start.elapsed());
        print!(
            "{:>5} vs {:<10} differ on {:>4}/{} programs",
            strong.name(),
            weak.name(),
            summary.differing,
            summary.programs
        );
        match summary.first_exemplar {
            Some(index) => {
                println!("   first exemplar: #{index}");
                let program = programs(config).nth(index).expect("index in range");
                for (t, thread) in program.threads().iter().enumerate() {
                    let ops: Vec<String> =
                        thread.instrs().iter().map(ToString::to_string).collect();
                    println!("        T{t}: {}", ops.join(" ; "));
                }
            }
            None => println!(),
        }
    }
}

fn main() {
    println!("samm synthesis — exhaustive small-world model comparison");
    let cache = EnumCache::new(65_536);
    sweep(&SynthConfig::default(), "2x2", &cache);
    sweep(
        &SynthConfig {
            include_fences: true,
            ..SynthConfig::default()
        },
        "2x2+fences",
        &cache,
    );
    let stats = cache.stats();
    println!(
        "\ncache: {:.1}% hit rate over {} lookups ({} entries)",
        100.0 * stats.hit_rate(),
        stats.hits + stats.misses,
        stats.entries
    );
    println!("inclusion (stronger ⊆ weaker) was asserted on every program of every family ✔");
}
