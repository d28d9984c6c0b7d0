//! Litmus explorer: parse a litmus test (from a file or the built-in
//! sample), enumerate it under a chosen model, and print outcomes,
//! condition verdicts and optionally DOT graphs of every execution.
//!
//! Usage:
//!   cargo run --example litmus_explorer -- [FILE.litmus] [MODEL] [--dot]
//!
//! MODEL is one of: sc, naive-tso, tso, pso, weak, weak-spec (default: weak).

use std::env;
use std::fs;
use std::process::ExitCode;

use samm::core::dot::{render, DotOptions};
use samm::core::enumerate::EnumConfig;
use samm::core::policy::Policy;
use samm::core::pruned::enumerate_pruned;
use samm::litmus::parser;

const SAMPLE: &str = "\
test: MP
init: x = 0, flag = 0

thread P0:
  store x, 42
  fence
  store flag, 1

thread P1:
  r0 = load flag
  fence
  r1 = load x

forbid: P1:r0 = 1 & P1:r1 = 0
";

fn policy_by_name(name: &str) -> Option<Policy> {
    Some(match name {
        "sc" => Policy::sequential_consistency(),
        "naive-tso" => Policy::naive_tso(),
        "tso" => Policy::tso(),
        "pso" => Policy::pso(),
        "weak" => Policy::weak(),
        "weak-spec" => Policy::weak().with_alias_speculation(true),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let want_dot = args.iter().any(|a| a == "--dot");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let source = match positional.first() {
        Some(path) => match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            println!("(no file given; using the built-in MP sample)\n");
            SAMPLE.to_owned()
        }
    };
    let policy = match positional.get(1) {
        Some(name) => match policy_by_name(name) {
            Some(p) => p,
            None => {
                eprintln!("unknown model `{name}` (try: sc, naive-tso, tso, pso, weak, weak-spec)");
                return ExitCode::FAILURE;
            }
        },
        None => Policy::weak(),
    };

    let test = match parser::parse(&source) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match test.compile() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("=== {} under {} ===", compiled.name, policy.name());
    let result = match enumerate_pruned(&compiled.program, &policy, &EnumConfig::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("enumeration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} behaviours explored, {} distinct executions, {} outcomes, {} forks rolled back\n",
        result.stats.explored,
        result.stats.distinct_executions,
        result.outcomes.len(),
        result.stats.rolled_back,
    );
    println!("outcomes:");
    for outcome in &result.outcomes {
        println!("  {outcome}");
    }
    for cond in &compiled.conditions {
        let observable = cond.observable_in(&result.outcomes);
        println!(
            "\ncondition `{}` ({}) is {}",
            cond.text,
            cond.kind,
            if observable {
                "observable"
            } else {
                "not observable"
            }
        );
    }
    if want_dot {
        for (i, exec) in result.executions.iter().enumerate() {
            let dot = render(
                exec,
                &DotOptions {
                    title: format!("{} execution {}", compiled.name, i),
                    loads_and_stores_only: true,
                    ..DotOptions::default()
                },
            );
            println!("\n// ---- execution {i} ----\n{dot}");
        }
    }
    ExitCode::SUCCESS
}
