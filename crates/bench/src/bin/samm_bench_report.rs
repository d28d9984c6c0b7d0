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
//! surface as a diff in one artifact.
//!
//! The `pruned` and `serial` rows time `expect::run_entry` and
//! `run_entry_serial`: every model, no certifier, a verdict plan built
//! per call. The `pruned-served` rows time the verdict as `samm-serve`
//! answers it: the entry's DRF-certified `VerdictPlan`, built once,
//! run by `run_entry_planned` at `Observe::Count` through a one-entry
//! `EnumCache`, fresh for each run so every run is cold, as on the
//! `fresh-mix` workload; each such row also records the verdict's
//! engine runs (`engine_runs`) and the views it classified from a
//! weaker view's run instead of searching (`classified_views`). The
//! `witness` and `refutation` rows time `explain::find_witness` and
//! `explain::refute` as `samm-serve` answers them (no counters, no
//! executions kept): one run is the test's every condition under every
//! model, and each such row records its calls (`calls`). A `witness`
//! row passes when every witness replays and a witness exists exactly
//! where `refute` finds the condition observable; a `refutation` row
//! passes when every blocked proof verifies. The
//! serving-path counterpart is
//! `samm-benchmark --out` (the workloads of `BENCHMARK.json`); together
//! they cover the two performance planes EXPERIMENTS.md tracks.
//!
//! Exits non-zero when a test name is unknown, an enumeration fails,
//! or any verdict row mismatches — a bench report over a broken build
//! is worse than none.

use std::process::ExitCode;
use std::time::Instant;

use samm_analyze::harness::drf_certifier;
use samm_core::cache::EnumCache;
use samm_core::enumerate::EnumConfig;
use samm_core::explain::{find_witness, refute, Goal, Refutation, RefuteOutcome};
use samm_core::obs::Observe;
use samm_litmus::catalog::{self, CatalogEntry, ModelSel};
use samm_litmus::expect::{run_entry, run_entry_planned, run_entry_serial, VerdictPlan};
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

    let config = EnumConfig::default();
    // The server's verdict configuration (`ServerState::config`).
    let served = EnumConfig::builder()
        .keep_executions(false)
        .observe(Observe::Count)
        .build();
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>6}",
        "test", "engine", "min us", "mean us", "pass"
    );
    // The server's witness and refutation configuration.
    let explained = EnumConfig {
        observe: Observe::Off,
        ..served.clone()
    };
    for entry in &entries {
        let plan = VerdictPlan::new(entry, &served, Some(&drf_certifier));
        for engine in ["serial", "pruned", "pruned-served"] {
            let mut min_us = f64::INFINITY;
            let mut sum_us = 0.0;
            let mut pass = true;
            let mut shape = None;
            for _ in 0..iters {
                // One shard of one entry: `fresh-mix`'s geometry.
                let cache = EnumCache::with_shards(1, 1);
                let started = Instant::now();
                let report = match engine {
                    "serial" => run_entry_serial(entry, &config),
                    "pruned" => run_entry(entry, &config),
                    _ => run_entry_planned(entry, &plan, &served, Some(&cache)),
                };
                let report = match report {
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
                if engine == "pruned-served" {
                    let runs = report.rows.iter().filter(|r| r.fresh_run).count();
                    let mut classified: Vec<usize> = (0..report.rows.len())
                        .filter(|&i| report.rows[i].classified)
                        .map(|i| plan.verdict_row(i).run)
                        .collect();
                    classified.sort_unstable();
                    classified.dedup();
                    shape = Some((runs, classified.len()));
                }
            }
            let mean_us = sum_us / iters as f64;
            println!(
                "{:<12} {engine:<14} {min_us:>12.1} {mean_us:>12.1} {:>6}{}",
                entry.test.name,
                if pass { "yes" } else { "NO" },
                shape.map_or(String::new(), |(runs, classified)| format!(
                    "  {runs} runs, {classified} classified"
                )),
            );
            if !pass {
                eprintln!(
                    "samm-bench-report: verdict mismatch in {}/{engine}",
                    entry.test.name
                );
                return ExitCode::FAILURE;
            }
            let mut row = vec![
                ("test", Json::str(&entry.test.name)),
                ("engine", Json::str(engine)),
                ("wall_us_min", Json::num(min_us)),
                ("wall_us_mean", Json::num(mean_us)),
                ("pass", Json::Bool(pass)),
            ];
            if let Some((runs, classified)) = shape {
                row.push(("engine_runs", Json::num(runs as f64)));
                row.push(("classified_views", Json::num(classified as f64)));
            }
            rows.push(Json::obj(row));
        }
        for engine in ["witness", "refutation"] {
            let (min_us, mean_us, calls, pass) =
                match time_explain(entry, engine, &explained, iters) {
                    Ok(timed) => timed,
                    Err(e) => {
                        eprintln!(
                            "samm-bench-report: {}/{engine} failed: {e}",
                            entry.test.name
                        );
                        return ExitCode::FAILURE;
                    }
                };
            println!(
                "{:<12} {engine:<14} {min_us:>12.1} {mean_us:>12.1} {:>6}  {calls} calls",
                entry.test.name,
                if pass { "yes" } else { "NO" },
            );
            if !pass {
                eprintln!(
                    "samm-bench-report: unchecked {engine} in {}",
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
                ("calls", Json::num(calls as f64)),
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

/// Times `engine` (`witness` or `refutation`) over every condition of
/// `entry` under every model, `iters` times: the min and mean wall
/// microseconds of one such run, its calls, and whether every answer
/// checks out (checked once, outside the timed runs).
fn time_explain(
    entry: &CatalogEntry,
    engine: &str,
    config: &EnumConfig,
    iters: usize,
) -> Result<(f64, f64, usize, bool), String> {
    let program = &entry.test.program;
    let policies: Vec<_> = ModelSel::ALL.iter().map(|m| m.policy()).collect();
    let goals: Vec<Goal> = entry
        .test
        .conditions
        .iter()
        .map(|c| Goal::new(c.clauses.clone()))
        .collect();
    let limit = config.max_nodes_per_thread;
    let mut pass = true;
    for policy in &policies {
        for goal in &goals {
            let witness = find_witness(program, policy, config, goal).map_err(|e| e.to_string())?;
            match refute(program, policy, config, goal).map_err(|e| e.to_string())? {
                RefuteOutcome::Observable(_) => pass &= witness.is_some(),
                RefuteOutcome::Refuted(refutation) => {
                    pass &= witness.is_none();
                    if let Refutation::Blocked(blocked) = refutation {
                        pass &= blocked.verify(program, policy, limit).is_ok();
                    }
                }
            }
            if let Some(witness) = witness {
                pass &= witness.verify(program, policy, limit).is_ok();
            }
        }
    }
    let (mut min_us, mut sum_us) = (f64::INFINITY, 0.0);
    for _ in 0..iters {
        let started = Instant::now();
        for policy in &policies {
            for goal in &goals {
                let answered = if engine == "witness" {
                    find_witness(program, policy, config, goal).map(|w| w.is_some())
                } else {
                    refute(program, policy, config, goal)
                        .map(|r| matches!(r, RefuteOutcome::Refuted(_)))
                };
                std::hint::black_box(answered.map_err(|e| e.to_string())?);
            }
        }
        let us = started.elapsed().as_secs_f64() * 1e6;
        min_us = min_us.min(us);
        sum_us += us;
    }
    Ok((
        min_us,
        sum_us / iters as f64,
        policies.len() * goals.len(),
        pass,
    ))
}
