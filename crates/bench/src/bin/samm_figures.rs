//! Generates `docs/FIGURES.md` and the witness graphs under
//! `docs/figures/` from the litmus catalog — the paper-figure doc
//! pipeline.
//!
//! ```text
//! samm-figures           # (re)write docs/FIGURES.md and docs/figures/*.dot
//! samm-figures --check   # regenerate in memory and fail on any drift
//! ```
//!
//! The output is fully deterministic (no timestamps): the behaviour-set
//! tables count the serial oracle's search (`enumerate`), and the verdict
//! matrices run the production harness (`expect::run_entry`, pruned
//! engine). The generated files are committed and CI runs `--check` to
//! keep them in sync with the code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use samm_core::dot::{render, DotOptions};
use samm_core::enumerate::{enumerate, EnumConfig};
use samm_core::explain::{find_witness, refute, Goal, Refutation, RefuteOutcome, RefuteReason};
use samm_litmus::catalog::{self, CatalogEntry, ModelSel};
use samm_litmus::expect;

fn config() -> EnumConfig {
    EnumConfig {
        keep_executions: false,
        ..EnumConfig::default()
    }
}

fn docs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs")
}

fn model_slug(model: ModelSel) -> String {
    model.name().to_ascii_lowercase().replace(['+', ' '], "_")
}

/// The paper figures each catalog entry mechanizes.
fn sections() -> Vec<(&'static str, CatalogEntry)> {
    vec![
        (
            "Figure 3 — rule a: observing an overwrite orders the stores",
            catalog::fig3(),
        ),
        (
            "Figure 4 — rule b: an observed load precedes later overwrites",
            catalog::fig4(),
        ),
        (
            "Figure 5 — rule c: two loads of one variable see one store order",
            catalog::fig5(),
        ),
        (
            "Figure 7 — Store Atomicity closure to a fixed point",
            catalog::fig7(),
        ),
        (
            "Figures 8 and 9 — load speculation and its rollback",
            catalog::fig8(),
        ),
        (
            "Figures 10 and 11 — TSO store-buffer bypass",
            catalog::fig10(),
        ),
    ]
}

/// Prose notes tying each section to the paper's figure numbers.
fn section_note(name: &str) -> &'static str {
    match name {
        "fig8" => {
            "Figure 8 shows the speculative execution; Figure 9 shows the \
             rollback when the speculation is refuted. Both are covered by \
             the `Weak+spec` rows: allowed outcomes correspond to \
             speculations that commit, and the enumerator's rolled-back \
             forks are Figure 9's discarded executions."
        }
        "fig10" => {
            "Figure 10's bypass execution has **no strict serialization** — \
             its witness carries a store-buffer serialization instead \
             (loads may forward from a pending program-earlier store). \
             Figure 11 contrasts naive TSO (reordering axioms only, no \
             bypass) with real TSO: compare the `NaiveTSO` and `TSO` rows."
        }
        _ => "",
    }
}

/// Generates every output file as `(relative path, contents)`.
fn generate() -> Result<BTreeMap<String, String>, String> {
    let mut files: BTreeMap<String, String> = BTreeMap::new();
    let mut md = String::new();
    let cfg = config();

    md.push_str(
        "# Paper figures, mechanized\n\n\
         <!-- Generated by `cargo run --release -p samm-bench --bin samm-figures`.\n     \
         Do not edit by hand: CI regenerates this file with `--check` and fails on drift. -->\n\n\
         Each section maps a figure of *\"Memory Model = Instruction Reordering +\n\
         Store Atomicity\"* (Arvind & Maessen, ISCA 2006) to a litmus entry of\n\
         `samm-litmus::catalog` and its enumerated behaviour sets. Every *allowed*\n\
         verdict links a machine-checked **witness** (an execution graph rendered\n\
         as DOT, with the serialization justifying it), and every *forbidden*\n\
         verdict records the machine-checked **refutation** — the Store Atomicity\n\
         closure rule (Figure 6) that empties the blocked load's candidate set.\n\
         Regenerate with `samm-figures`; explore interactively with `samm-trace\n\
         <test> [--model <name>]`.\n\n",
    );

    md.push_str("## Figure 1 — the reordering policy tables\n\n");
    md.push_str(
        "The per-model instruction-reordering axioms (`samm_core::policy`), \
         printed from the same tables the enumerator executes:\n\n",
    );
    for model in ModelSel::ALL {
        let _ = writeln!(md, "```text\n{}```\n", model.policy());
    }

    for (title, entry) in sections() {
        let name = entry.test.name.clone();
        let _ = writeln!(md, "## {title}\n");
        let _ = writeln!(md, "Catalog entry [`{name}`] — {}.\n", entry.description);
        let note = section_note(&name);
        if !note.is_empty() {
            let _ = writeln!(md, "{note}\n");
        }

        // Behaviour sets per model (serial enumeration; deterministic).
        md.push_str("Enumerated behaviour sets:\n\n");
        md.push_str("| model | outcomes | executions | forks | deduped | rolled back |\n");
        md.push_str("|-------|----------|------------|-------|---------|-------------|\n");
        for model in entry.models() {
            let result = enumerate(&entry.test.program, &model.policy(), &cfg)
                .map_err(|e| format!("{name}/{}: {e}", model.name()))?;
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} | {} |",
                model.name(),
                result.outcomes.len(),
                result.stats.distinct_executions,
                result.stats.forks,
                result.stats.deduped,
                result.stats.rolled_back,
            );
        }
        md.push('\n');

        // Verdict matrix with witness links / refutation rules.
        let report = expect::run_entry(&entry, &cfg).map_err(|e| format!("{name}: {e}"))?;
        md.push_str("| model | condition | paper | enumerated | evidence |\n");
        md.push_str("|-------|-----------|-------|------------|----------|\n");
        for (verdict, row) in entry.verdicts.iter().zip(&report.rows) {
            let policy = verdict.model.policy();
            let condition = &entry.test.conditions[verdict.condition];
            let goal = Goal::new(condition.clauses.clone());
            let evidence = if verdict.allowed {
                let witness = find_witness(&entry.test.program, &policy, &cfg, &goal)
                    .map_err(|e| format!("{name}: {e}"))?
                    .ok_or_else(|| format!("{name}: no witness for allowed {}", condition.text))?;
                witness
                    .verify(&entry.test.program, &policy, cfg.max_nodes_per_thread)
                    .map_err(|e| format!("{name}: witness failed: {e}"))?;
                let file = format!(
                    "{}_{}_c{}.dot",
                    name,
                    model_slug(verdict.model),
                    verdict.condition
                );
                let options = DotOptions {
                    title: format!("{name} [{}] {}", verdict.model.name(), condition.text),
                    ..DotOptions::default()
                };
                files.insert(
                    format!("figures/{file}"),
                    render(&witness.execution, &options),
                );
                let kind = match witness.serialization {
                    samm_core::explain::Serialization::Strict(_) => "strict",
                    samm_core::explain::Serialization::Buffered(_) => "store-buffer",
                    samm_core::explain::Serialization::None => "none",
                };
                format!("[witness](figures/{file}) ({kind} serialization)")
            } else {
                match refute(&entry.test.program, &policy, &cfg, &goal)
                    .map_err(|e| format!("{name}: {e}"))?
                {
                    RefuteOutcome::Refuted(Refutation::Blocked(b)) => {
                        b.verify(&entry.test.program, &policy, cfg.max_nodes_per_thread)
                            .map_err(|e| format!("{name}: refutation failed: {e}"))?;
                        let rule = match &b.reason {
                            RefuteReason::Overwritten { rule: Some(r), .. }
                            | RefuteReason::AfterLoad { rule: Some(r), .. } => {
                                format!("closure rule {r}")
                            }
                            RefuteReason::NoSuchStore => "no such store value".to_owned(),
                            RefuteReason::ResolutionCycle { .. } => "ordering cycle".to_owned(),
                            _ => "local ordering".to_owned(),
                        };
                        format!("refuted: {rule} empties `candidates(L)`")
                    }
                    RefuteOutcome::Refuted(Refutation::Exhaustive { distinct, .. }) => {
                        format!("refuted by exhaustion ({distinct} executions)")
                    }
                    RefuteOutcome::Observable(_) => {
                        return Err(format!(
                            "{name}: {} observable but catalog forbids it",
                            condition.text
                        ))
                    }
                }
            };
            let check = if row.pass() { "ok" } else { "**MISMATCH**" };
            let _ = writeln!(
                md,
                "| {} | `{}` | {} | {} ({check}) | {} |",
                verdict.model.name(),
                condition.text,
                if verdict.allowed {
                    "allowed"
                } else {
                    "forbidden"
                },
                if row.observed_allowed {
                    "allowed"
                } else {
                    "forbidden"
                },
                evidence,
            );
        }
        md.push('\n');
    }

    md.push_str(
        "---\n\nRendering the witness graphs: `dot -Tpng docs/figures/<file> -o out.png`.\n\
         Solid edges are local ordering, bold-dotted edges are observations, and\n\
         dashed edges are Store Atomicity consequences labelled with the Figure 6\n\
         rule (`a`, `b`, or `c`) that inserted them.\n",
    );
    files.insert("FIGURES.md".to_owned(), md);
    Ok(files)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let check = match argv.as_slice() {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => {
            eprintln!("usage: samm-figures [--check]");
            return ExitCode::from(2);
        }
    };

    let files = match generate() {
        Ok(files) => files,
        Err(e) => {
            eprintln!("generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let root = docs_dir();
    let mut drift = 0usize;
    for (rel, contents) in &files {
        let path = root.join(rel);
        if check {
            match std::fs::read_to_string(&path) {
                Ok(existing) if existing == *contents => {}
                Ok(_) => {
                    eprintln!("drift: docs/{rel} is stale (re-run samm-figures)");
                    drift += 1;
                }
                Err(_) => {
                    eprintln!("drift: docs/{rel} is missing (re-run samm-figures)");
                    drift += 1;
                }
            }
        } else {
            if let Some(dir) = path.parent() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote docs/{rel}");
        }
    }
    if check {
        if drift > 0 {
            eprintln!("{drift} file(s) out of date");
            return ExitCode::FAILURE;
        }
        println!(
            "docs/FIGURES.md and {} figure(s) up to date",
            files.len() - 1
        );
    }
    ExitCode::SUCCESS
}
