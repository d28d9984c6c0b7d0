//! `samm-bench-report` — machine-readable enumeration benchmarks.
//!
//! ```text
//! samm-bench-report [--out PATH] [--iters N] [--tests A,B,...]
//! ```
//!
//! Times both engines (the prune-before-expand production engine and the
//! serial oracle) over a fixed set of catalog tests and writes
//! one JSON report — `BENCH_enum.json` by default — with per-(test,
//! engine) wall microseconds (min and mean over `--iters` runs, min
//! being the noise-resistant number CI should trend) plus the verdict
//! pass flag, so a perf regression and a correctness regression both
//! surface as a diff in one artifact. The serving-path counterpart is
//! `samm-benchmark --out` (the workloads of `BENCHMARK.json`); together
//! they cover the two performance planes EXPERIMENTS.md tracks.
//!
//! Exits non-zero when a test name is unknown, an enumeration fails,
//! or any verdict row mismatches — a bench report over a broken build
//! is worse than none.

use std::process::ExitCode;
use std::time::Instant;

use samm_core::enumerate::EnumConfig;
use samm_litmus::catalog::{self, CatalogEntry};
use samm_litmus::expect::{run_entry, run_entry_serial, EntryReport};
use samm_serve::json::Json;

/// Fast classics plus one paper figure: small enough that both
/// engines × `--iters` runs stay under a second, varied enough that
/// the engines' search shapes differ.
const DEFAULT_TESTS: [&str; 5] = ["SB", "MP", "LB", "IRIW", "fig4"];

fn usage() -> ! {
    eprintln!("usage: samm-bench-report [--out PATH] [--iters N] [--tests A,B,...]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut out = "BENCH_enum.json".to_owned();
    let mut iters: usize = 3;
    let mut tests: Vec<String> = DEFAULT_TESTS.iter().map(|t| (*t).to_owned()).collect();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("samm-bench-report: {flag} needs an argument");
                usage();
            })
        };
        match arg.as_str() {
            "--out" => out = take("--out"),
            "--iters" => {
                iters = take("--iters").parse().unwrap_or_else(|_| usage());
                if iters == 0 {
                    eprintln!("samm-bench-report: --iters must be at least 1");
                    usage();
                }
            }
            "--tests" => {
                tests = take("--tests")
                    .split(',')
                    .map(|t| t.trim().to_owned())
                    .filter(|t| !t.is_empty())
                    .collect();
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("samm-bench-report: unknown argument '{other}'");
                usage();
            }
        }
    }

    let all = catalog::all();
    let mut entries: Vec<&CatalogEntry> = Vec::new();
    for name in &tests {
        match all.iter().find(|e| &e.test.name == name) {
            Some(entry) => entries.push(entry),
            None => {
                eprintln!("samm-bench-report: unknown test '{name}'");
                return ExitCode::FAILURE;
            }
        }
    }

    type Engine = (
        &'static str,
        fn(&CatalogEntry, &EnumConfig) -> Result<EntryReport, samm_core::error::EnumError>,
    );
    let engines: [Engine; 2] = [("serial", run_entry_serial), ("pruned", run_entry)];

    let config = EnumConfig::default();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<10} {:>12} {:>12} {:>6}",
        "test", "engine", "min us", "mean us", "pass"
    );
    for entry in &entries {
        for (engine, run) in engines {
            let mut min_us = f64::INFINITY;
            let mut sum_us = 0.0;
            let mut pass = true;
            for _ in 0..iters {
                let started = Instant::now();
                let report = match run(entry, &config) {
                    Ok(report) => report,
                    Err(e) => {
                        eprintln!(
                            "samm-bench-report: {}/{engine} failed: {e}",
                            entry.test.name
                        );
                        return ExitCode::FAILURE;
                    }
                };
                let us = started.elapsed().as_secs_f64() * 1e6;
                min_us = min_us.min(us);
                sum_us += us;
                pass &= report.all_pass();
            }
            let mean_us = sum_us / iters as f64;
            println!(
                "{:<12} {engine:<10} {min_us:>12.1} {mean_us:>12.1} {:>6}",
                entry.test.name,
                if pass { "yes" } else { "NO" },
            );
            if !pass {
                eprintln!(
                    "samm-bench-report: verdict mismatch in {}/{engine}",
                    entry.test.name
                );
                return ExitCode::FAILURE;
            }
            rows.push(Json::obj([
                ("test", Json::str(&entry.test.name)),
                ("engine", Json::str(engine)),
                ("wall_us_min", Json::num(min_us)),
                ("wall_us_mean", Json::num(mean_us)),
                ("pass", Json::Bool(pass)),
            ]));
        }
    }

    let report = Json::obj([
        ("bench", Json::str("enum")),
        ("iters", Json::num(iters as f64)),
        ("results", Json::Arr(rows)),
    ]);
    match std::fs::write(&out, format!("{report}\n")) {
        Ok(()) => {
            println!("bench report written to {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("samm-bench-report: cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
