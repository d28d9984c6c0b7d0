//! Explains catalog litmus outcomes: witnesses for allowed conditions,
//! refutations for forbidden ones.
//!
//! ```text
//! samm-trace <test> [--model <name>] [--condition <index>]
//!                   [--dot <file>] [--json <file>] [--stats]
//!                   [--cache <file>]
//! ```
//!
//! For every verdict of the named catalog entry (optionally narrowed to
//! one model and/or one condition index), the tool either extracts a
//! replayable witness (the execution graph, each load's observed store,
//! and a serialization) or a refutation naming the Store Atomicity rule
//! that empties the blocked load's candidate set. Both artifacts are
//! re-verified before being printed.
//!
//! `--dot` writes the first witness's execution graph as Graphviz DOT
//! (closure-rule labels on the dashed Store Atomicity edges), `--json`
//! writes all artifacts as a JSON array, and `--stats` prints the
//! instrumented enumeration counters for each model.
//!
//! `--cache <file>` answers the `--stats` enumerations from a persisted
//! content-addressed cache, writing it back on exit.

use std::process::ExitCode;

use samm_core::cache::{cached_enumerate, EnumCache};
use samm_core::dot::{render, DotOptions};
use samm_core::enumerate::EnumConfig;
use samm_core::explain::{find_witness, refute, Goal, Refutation, RefuteOutcome};
use samm_core::pruned::enumerate_pruned;
use samm_litmus::catalog::{self, CatalogEntry, ModelSel};

struct Args {
    test: String,
    model: Option<ModelSel>,
    condition: Option<usize>,
    dot: Option<String>,
    json: Option<String>,
    stats: bool,
    cache: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: samm-trace <test> [--model <name>] [--condition <index>] \
         [--dot <file>] [--json <file>] [--stats] [--cache <file>]"
    );
    eprintln!("tests: {}", catalog_names().join(", "));
    eprintln!(
        "models: {}",
        ModelSel::ALL
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn catalog_names() -> Vec<String> {
    catalog::all().iter().map(|e| e.test.name.clone()).collect()
}

fn parse_model(name: &str) -> Option<ModelSel> {
    ModelSel::ALL
        .iter()
        .copied()
        .find(|m| m.name().eq_ignore_ascii_case(name))
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        test: String::new(),
        model: None,
        condition: None,
        dot: None,
        json: None,
        stats: false,
        cache: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => args.model = Some(parse_model(it.next()?)?),
            "--condition" => args.condition = it.next()?.parse().ok(),
            "--dot" => args.dot = Some(it.next()?.clone()),
            "--json" => args.json = Some(it.next()?.clone()),
            "--stats" => args.stats = true,
            "--cache" => args.cache = Some(it.next()?.clone()),
            other if args.test.is_empty() && !other.starts_with('-') => {
                args.test = other.to_owned();
            }
            _ => return None,
        }
    }
    if args.test.is_empty() {
        None
    } else {
        Some(args)
    }
}

fn find_entry(name: &str) -> Option<CatalogEntry> {
    catalog::all()
        .into_iter()
        .find(|e| e.test.name.eq_ignore_ascii_case(name))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let Some(entry) = find_entry(&args.test) else {
        eprintln!(
            "unknown test {:?}; known: {}",
            args.test,
            catalog_names().join(", ")
        );
        return ExitCode::from(2);
    };

    let config = EnumConfig::builder().keep_executions(false).build();
    let cache = args.cache.as_ref().map(|path| {
        let cache = EnumCache::new(1024);
        if std::path::Path::new(path).exists() {
            match cache.load_from(path) {
                Ok((loaded, skipped)) => {
                    println!("cache: loaded {loaded} entr(ies) from {path} ({skipped} skipped)");
                }
                Err(e) => eprintln!("cache: cannot load {path}: {e}"),
            }
        }
        cache
    });
    println!("{} — {}", entry.test.name, entry.description);

    let mut failures = 0usize;
    let mut first_witness_dot: Option<String> = None;
    let mut json_items: Vec<String> = Vec::new();

    for verdict in &entry.verdicts {
        if args.model.is_some_and(|m| m != verdict.model) {
            continue;
        }
        if args.condition.is_some_and(|c| c != verdict.condition) {
            continue;
        }
        let policy = verdict.model.policy();
        let condition = &entry.test.conditions[verdict.condition];
        let goal = Goal::new(condition.clauses.clone());
        println!(
            "\n[{}] {} — paper says {}",
            verdict.model.name(),
            condition.text,
            if verdict.allowed {
                "allowed"
            } else {
                "forbidden"
            },
        );

        if verdict.allowed {
            match find_witness(&entry.test.program, &policy, &config, &goal) {
                Ok(Some(witness)) => {
                    match witness.verify(&entry.test.program, &policy, config.max_nodes_per_thread)
                    {
                        Ok(()) => print!("{witness}"),
                        Err(e) => {
                            println!("WITNESS FAILED TO VERIFY: {e}");
                            failures += 1;
                        }
                    }
                    if first_witness_dot.is_none() {
                        let options = DotOptions {
                            title: format!(
                                "{} [{}] {}",
                                entry.test.name,
                                verdict.model.name(),
                                condition.text
                            ),
                            ..DotOptions::default()
                        };
                        first_witness_dot = Some(render(&witness.execution, &options));
                    }
                    json_items.push(format!(
                        "{{\"model\":\"{}\",\"kind\":\"witness\",\"artifact\":{}}}",
                        verdict.model.name(),
                        witness.to_json()
                    ));
                }
                Ok(None) => {
                    println!("NO WITNESS FOUND (catalog claims allowed)");
                    failures += 1;
                }
                Err(e) => {
                    println!("enumeration failed: {e}");
                    failures += 1;
                }
            }
        } else {
            match refute(&entry.test.program, &policy, &config, &goal) {
                Ok(RefuteOutcome::Refuted(refutation)) => {
                    println!("{refutation}");
                    if let Refutation::Blocked(b) = &refutation {
                        match b.verify(&entry.test.program, &policy, config.max_nodes_per_thread) {
                            Ok(()) => println!("  (machine-checked)"),
                            Err(e) => {
                                println!("REFUTATION FAILED TO VERIFY: {e}");
                                failures += 1;
                            }
                        }
                        json_items.push(format!(
                            "{{\"model\":\"{}\",\"kind\":\"refutation\",\"artifact\":{}}}",
                            verdict.model.name(),
                            b.to_json()
                        ));
                    }
                }
                Ok(RefuteOutcome::Observable(w)) => {
                    println!(
                        "OBSERVABLE (catalog claims forbidden): outcome {}",
                        w.outcome
                    );
                    failures += 1;
                }
                Err(e) => {
                    println!("enumeration failed: {e}");
                    failures += 1;
                }
            }
        }
    }

    if args.stats {
        println!();
        let observed = EnumConfig {
            observe: true,
            ..config.clone()
        };
        for model in entry.models() {
            if args.model.is_some_and(|m| m != model) {
                continue;
            }
            let outcome = match &cache {
                Some(cache) => cached_enumerate(
                    cache,
                    &entry.test.program,
                    &model.policy(),
                    &observed,
                    enumerate_pruned,
                )
                .map(|(value, hit)| (value.stats, hit)),
                None => enumerate_pruned(&entry.test.program, &model.policy(), &observed)
                    .map(|result| (result.stats, false)),
            };
            match outcome {
                Ok((stats, hit)) => {
                    println!(
                        "stats[{}]{} = {}",
                        model.name(),
                        if hit { " [cached]" } else { "" },
                        stats.to_json()
                    );
                }
                Err(e) => {
                    println!("stats[{}]: enumeration failed: {e}", model.name());
                    failures += 1;
                }
            }
        }
    }

    if let (Some(cache), Some(path)) = (&cache, &args.cache) {
        match cache.save_to(path) {
            Ok(saved) => println!("cache: saved {saved} entr(ies) to {path}"),
            Err(e) => eprintln!("cache: cannot save {path}: {e}"),
        }
    }

    if let Some(path) = &args.dot {
        match &first_witness_dot {
            Some(dot) => {
                if let Err(e) = std::fs::write(path, dot) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
                println!("\nwrote witness DOT to {path}");
            }
            None => eprintln!("\nno witness produced; {path} not written"),
        }
    }
    if let Some(path) = &args.json {
        let body = format!("[{}]\n", json_items.join(","));
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {} artifact(s) to {path}", json_items.len());
    }

    if failures > 0 {
        eprintln!("\n{failures} artifact(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
