//! Regenerates every figure/table of the paper and prints paper-claim vs
//! measured verdicts — the reproduction record behind `EXPERIMENTS.md`.
//!
//! Run with: `cargo run --release -p samm-bench --bin experiments`
//!
//! Every experiment enumerates with the production engine
//! ([`enumerate_pruned`]); E17 checks it against the serial oracle over
//! the whole catalog.
//!
//! Flags: `--cache <file>` loads/saves the content-addressed
//! enumeration cache, so a rerun answers repeated (program, policy,
//! config) queries from disk. All verdict-matrix experiments share one
//! in-process cache either way; the cache-summary section at the end
//! reports the hit rate.

use std::sync::OnceLock;

use samm_core::cache::{cached_enumerate, EnumCache};
use samm_core::enumerate::EnumConfig;
use samm_core::policy::Policy;
use samm_core::pruned::enumerate_pruned;
use samm_core::speculation;
use samm_litmus::{catalog, expect, ModelSel};

/// The process-wide content-addressed enumeration cache shared by every
/// verdict-matrix experiment.
static CACHE: OnceLock<EnumCache> = OnceLock::new();

fn cache() -> &'static EnumCache {
    CACHE.get_or_init(|| EnumCache::new(1024))
}

fn config() -> EnumConfig {
    EnumConfig::builder().keep_executions(false).build()
}

fn heading(s: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{s}");
    println!("{}", "=".repeat(72));
}

/// E1 / Figure 1: the reordering-axiom tables.
fn experiment_tables() {
    heading("E1 — Figure 1: reordering axiom tables");
    for policy in [
        Policy::weak(),
        Policy::sequential_consistency(),
        Policy::tso(),
        Policy::naive_tso(),
        Policy::pso(),
    ] {
        println!("\n{policy}");
    }
}

/// E3–E9: the worked figures, checked verdict by verdict.
fn experiment_figures() {
    heading("E3–E9 — paper figures 3, 4, 5, 7, 8, 10 (verdict matrix)");
    let mut pass = 0usize;
    let mut total = 0usize;
    for entry in catalog::paper_figures() {
        let report = expect::run_entry_cached(&entry, &config(), cache(), &|_, _| false)
            .expect("enumeration succeeds");
        println!("\n{report}");
        total += report.rows.len();
        pass += report.rows.iter().filter(|r| r.pass()).count();
    }
    println!("\nfigure verdicts: {pass}/{total} match the paper");
}

/// Writes DOT renderings of each paper figure's key execution to
/// `target/figures/` (render with `dot -Tpng`).
fn emit_figure_dots() {
    use samm_core::dot::{render, DotOptions};
    let dir = std::path::Path::new("target/figures");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("cannot create {}; skipping DOT output", dir.display());
        return;
    }
    let cases = [
        (catalog::fig3(), ModelSel::Weak, 1usize),
        (catalog::fig4(), ModelSel::Weak, 2),
        (catalog::fig5(), ModelSel::Weak, 1),
        (catalog::fig7(), ModelSel::Weak, 0),
        (catalog::fig8(), ModelSel::WeakSpec, 0),
        (catalog::fig10(), ModelSel::Tso, 0),
    ];
    for (entry, model, cond_index) in cases {
        let result = enumerate_pruned(&entry.test.program, &model.policy(), &EnumConfig::default())
            .expect("enumeration succeeds");
        let cond = &entry.test.conditions[cond_index];
        if let Some(exec) = result
            .executions
            .iter()
            .find(|b| cond.matches(&b.outcome()))
        {
            let dot = render(
                exec,
                &DotOptions {
                    title: format!("{} under {} ({})", entry.test.name, model.name(), cond.text),
                    loads_and_stores_only: true,
                    ..DotOptions::default()
                },
            );
            let path = dir.join(format!("{}_{}.dot", entry.test.name, model.name()));
            if std::fs::write(&path, dot).is_ok() {
                println!("wrote {}", path.display());
            }
        }
    }
}

/// The classic litmus suite across all models.
fn experiment_classics() {
    heading("classic litmus suite (verdict matrix)");
    let mut pass = 0usize;
    let mut total = 0usize;
    for entry in catalog::all() {
        if entry.test.name.starts_with("fig") {
            continue;
        }
        let report = expect::run_entry_cached(&entry, &config(), cache(), &|_, _| false)
            .expect("enumeration succeeds");
        println!("\n{report}");
        total += report.rows.len();
        pass += report.rows.iter().filter(|r| r.pass()).count();
    }
    println!("\nclassic verdicts: {pass}/{total} match the expected model behaviour");
}

/// E10: the outcome-count bracketing table.
fn experiment_bracketing() {
    heading("E10 — outcome counts per model (SC ⊆ TSO ⊆ PSO; SC ⊆ NaiveTSO ⊆ Weak ⊆ Weak+spec)");
    print!("{:<12}", "test");
    for m in ModelSel::ALL {
        print!("{:>10}", m.name());
    }
    println!();
    for entry in catalog::all() {
        print!("{:<12}", entry.test.name);
        for model in ModelSel::ALL {
            let (value, _) = cached_enumerate(
                cache(),
                &entry.test.program,
                &model.policy(),
                &config(),
                enumerate_pruned,
            )
            .expect("enumeration succeeds");
            print!("{:>10}", value.outcomes.len());
        }
        println!();
    }
    println!("\n(naive TSO may dip below TSO — that is Figure 11's point; TSO and PSO are not inside Weak)");
}

/// E8 focus: the speculation case study in numbers.
fn experiment_speculation() {
    heading("E8 — Figure 8/9: address-aliasing speculation study");
    let entry = catalog::fig8();
    let report =
        speculation::compare(&entry.test.program, &Policy::weak(), &config()).expect("runs");
    println!(
        "non-speculative outcomes: {:>3}   (explored {} behaviours)",
        report.base.outcomes.len(),
        report.base.stats.explored
    );
    println!(
        "speculative outcomes:     {:>3}   (explored {}, rolled back {})",
        report.speculative.outcomes.len(),
        report.speculative.stats.explored,
        report.rollbacks()
    );
    println!(
        "new behaviours admitted by speculation: {}",
        report.new_outcomes().len()
    );
    println!(
        "non-speculative ⊆ speculative: {}",
        if report.base_is_subset() {
            "yes"
        } else {
            "NO (bug!)"
        }
    );
}

/// E9 focus: Figure 10 across the four models of Figure 11.
fn experiment_tso() {
    heading("E9 — Figure 10/11: the TSO bypass execution across models");
    let entry = catalog::fig10();
    let cond = &entry.test.conditions[0];
    println!("condition: {}", cond.text);
    for model in [
        ModelSel::Sc,
        ModelSel::NaiveTso,
        ModelSel::Tso,
        ModelSel::Pso,
        ModelSel::Weak,
    ] {
        let (value, _) = cached_enumerate(
            cache(),
            &entry.test.program,
            &model.policy(),
            &config(),
            enumerate_pruned,
        )
        .expect("enumeration succeeds");
        let outcomes = &value.outcomes;
        println!(
            "  {:9} -> {} ({} outcomes total)",
            model.name(),
            if cond.observable_in(outcomes) {
                "allowed"
            } else {
                "forbidden"
            },
            outcomes.len()
        );
    }
    println!("paper: forbidden under SC and naive reordering, allowed by TSO-with-bypass and Weak");
}

/// E12: coherence-protocol conformance.
fn experiment_coherence() {
    heading("E12 — section 4.2: MSI directory protocol vs Store Atomicity");
    use samm_coherence::{check_trace, CoherentSystem, SystemConfig};
    let mut runs = 0usize;
    let mut consistent = 0usize;
    let mut sc_outcomes = 0usize;
    for entry in catalog::all() {
        let program = &entry.test.program;
        let sc = samm_oper::enumerate_sc(program, 2_000_000).expect("SC enumeration");
        for seed in 0..10 {
            let run = CoherentSystem::new(
                program,
                SystemConfig {
                    seed,
                    ..SystemConfig::default()
                },
            )
            .run()
            .expect("protocol completes");
            runs += 1;
            if check_trace(&run.trace, |a| program.initial_value(a)).consistent {
                consistent += 1;
            }
            if sc.contains(&run.outcome) {
                sc_outcomes += 1;
            }
        }
    }
    println!("protocol runs:                     {runs}");
    println!("traces satisfying Store Atomicity: {consistent}/{runs}");
    println!("outcomes sequentially consistent:  {sc_outcomes}/{runs}");
}

/// Compression: "one graph represents many instruction interleavings with
/// identical behaviors" (paper section 1) — measured as serializations per
/// execution.
fn experiment_compression() {
    heading("graph compression — serializations represented per execution");
    println!(
        "{:<12} {:>11} {:>16} {:>9}",
        "test", "executions", "serializations", "ratio"
    );
    let cfg = EnumConfig::default();
    for entry in [
        catalog::sb(),
        catalog::mp(),
        catalog::fig3(),
        catalog::fig7(),
    ] {
        let result = enumerate_pruned(&entry.test.program, &Policy::weak(), &cfg).expect("runs");
        let mut total = 0usize;
        for exec in &result.executions {
            total += samm_core::serialize::serializations(exec, 100_000).len();
        }
        let execs = result.executions.len();
        println!(
            "{:<12} {:>11} {:>16} {:>8.1}x",
            entry.test.name,
            execs,
            total,
            total as f64 / execs.max(1) as f64
        );
    }
}

/// E13: enumeration statistics (supplementary; the paper reports none).
fn experiment_stats() {
    heading("E13 — enumeration statistics (supplementary)");
    println!(
        "{:<12} {:>9} {:>10} {:>9} {:>9} {:>11}",
        "test", "model", "explored", "forks", "deduped", "executions"
    );
    for entry in catalog::paper_figures() {
        for model in [ModelSel::Sc, ModelSel::Weak] {
            let (r, _) = cached_enumerate(
                cache(),
                &entry.test.program,
                &model.policy(),
                &config(),
                enumerate_pruned,
            )
            .expect("enumeration succeeds");
            println!(
                "{:<12} {:>9} {:>10} {:>9} {:>9} {:>11}",
                entry.test.name,
                model.name(),
                r.stats.explored,
                r.stats.forks,
                r.stats.deduped,
                r.stats.distinct_executions
            );
        }
    }
}

/// E17: engine equivalence — the pruned production engine against the
/// serial oracle over the full catalog, verdict row by verdict row,
/// plus the wall-clock of each.
fn experiment_engines() {
    use std::time::Instant;
    heading("E17 — pruned engine vs the serial oracle (engine equivalence + wall-clock)");
    let entries = catalog::all();
    let time = |run: &dyn Fn(&samm_litmus::CatalogEntry) -> expect::EntryReport| {
        let start = Instant::now();
        let reports: Vec<_> = entries.iter().map(run).collect();
        (reports, start.elapsed())
    };
    let (serial, serial_time) =
        time(&|e| expect::run_entry_serial(e, &config()).expect("serial harness succeeds"));
    let (pruned, pruned_time) =
        time(&|e| expect::run_entry(e, &config()).expect("pruned harness succeeds"));
    let mut rows = 0usize;
    for (s, p) in serial.iter().zip(&pruned) {
        assert_eq!(s.rows.len(), p.rows.len(), "{}: row count differs", s.name);
        for (sr, pr) in s.rows.iter().zip(&p.rows) {
            assert_eq!(
                (sr.observed_allowed, sr.outcomes, sr.executions),
                (pr.observed_allowed, pr.outcomes, pr.executions),
                "{}: engines disagree on `{}`",
                s.name,
                sr.condition
            );
            rows += 1;
        }
    }
    println!(
        "serial oracle: full catalog ({} entries) in {serial_time:.3?}",
        entries.len()
    );
    println!(
        "pruned engine: full catalog in {pruned_time:.3?} ({:.2}x vs serial), all {rows} verdict rows identical",
        serial_time.as_secs_f64() / pruned_time.as_secs_f64()
    );
}

/// Cache summary: what sharing one content-addressed cache across all
/// verdict-matrix experiments bought this run.
fn experiment_cache() {
    heading("E21 — content-addressed enumeration cache (this run)");
    let stats = cache().stats();
    println!("{}", stats.to_json());
    println!(
        "hit rate {:.1}% over {} lookups ({} entries resident)",
        100.0 * stats.hit_rate(),
        stats.hits + stats.misses,
        stats.entries
    );
}

fn main() {
    let mut cache_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache" => match args.next() {
                Some(path) => cache_path = Some(path),
                None => {
                    eprintln!("experiments: --cache needs a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("experiments: unknown argument '{other}' (flags: --cache FILE)");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &cache_path {
        if std::path::Path::new(path).exists() {
            match cache().load_from(path) {
                Ok((loaded, skipped)) => {
                    println!("cache: loaded {loaded} entr(ies) from {path} ({skipped} skipped)");
                }
                Err(e) => eprintln!("cache: cannot load {path}: {e}"),
            }
        }
    }

    println!("samm experiments — reproducing 'Memory Model = Instruction Reordering + Store Atomicity' (ISCA 2006)");
    experiment_tables();
    experiment_figures();
    emit_figure_dots();
    experiment_classics();
    experiment_bracketing();
    experiment_speculation();
    experiment_tso();
    experiment_coherence();
    experiment_compression();
    experiment_stats();
    experiment_engines();
    experiment_cache();
    if let Some(path) = &cache_path {
        match cache().save_to(path) {
            Ok(saved) => println!("cache: saved {saved} entr(ies) to {path}"),
            Err(e) => eprintln!("cache: cannot save {path}: {e}"),
        }
    }
    println!("\nDone. See EXPERIMENTS.md for the paper-vs-measured record.");
}
