//! `samm-benchmark` — checked end-to-end and per-layer benchmark of the
//! `samm-serve` litmus-query service.
//!
//! ```text
//! samm-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! samm-benchmark --seed N [--seconds S] --out FILE
//! samm-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! The first form runs one workload and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The
//! second runs every workload, traced, and writes both metric sets to
//! FILE. The third compares two such files. See README.md for the
//! workloads and metrics.

mod compare;
mod machine;
mod oracle;
mod run;
mod server;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use samm_serve::json::Json;

use crate::run::{Metric, Run};
use crate::workload::{Workload, NAMES};

/// Exit code for bad arguments and failures that leave no result.
const EXIT_ERROR: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: samm-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      samm-benchmark --seed N [--seconds S] --out FILE\n\
         \x20      samm-benchmark compare A.json B.json [--bounds BENCHMARK.json]\n\
         workloads: {}",
        NAMES.join(", ")
    );
    ExitCode::from(EXIT_ERROR)
}

#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse(args: &[String]) -> Option<Options> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = Some(value.parse().ok()?),
            "--seconds" => opts.seconds = Some(value.parse().ok().filter(|&s| s > 0)?),
            "--trace" => {
                opts.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--out" => opts.out = Some(value.clone()),
            _ => return None,
        }
    }
    Some(opts)
}

fn metrics_json(metrics: &[Metric], with_spread: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::num(m.value)), ("unit", Json::str(m.unit))];
        if with_spread {
            fields.push(("spread", Json::num(m.spread)));
        }
        (m.name, Json::obj(fields))
    }))
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload} {} = {} {} (spread {:.2}%)",
            m.name,
            m.value,
            m.unit,
            m.spread * 100.0
        );
    }
}

fn run_one(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<Run, String> {
    let w = Workload::build(name, seed).ok_or(format!("unknown workload '{name}'"))?;
    let run = run::run(&w, seconds, traced)?;
    print_metrics(name, &run.end_to_end);
    print_metrics(name, run.per_layer.as_deref().unwrap_or_default());
    println!(
        "{name} fail_ratio = {} ({} failed of {} attempted)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    Ok(run)
}

/// One run of one workload, ending with the one-line JSON result.
/// Returns the number of failed operations.
fn single(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<u64, String> {
    let run = run_one(name, seed, seconds, traced)?;
    let metrics = if traced {
        run.per_layer.as_deref().unwrap_or_default()
    } else {
        &run.end_to_end
    };
    let line = Json::obj([
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", Json::num(run.attempted as f64)),
        ("failed", Json::num(run.failed as f64)),
        ("metrics", metrics_json(metrics, false)),
    ]);
    println!("{line}");
    Ok(run.failed)
}

/// One traced run of every workload, written to `out`. Returns the
/// number of failed operations.
fn all(seed: u64, seconds: u64, out: &str) -> Result<u64, String> {
    let mut reports = Vec::new();
    let mut failed = 0;
    for name in NAMES {
        let run = run_one(name, seed, seconds, true)?;
        failed += run.failed;
        reports.push((
            name,
            Json::obj([
                ("attempted", Json::num(run.attempted as f64)),
                ("failed", Json::num(run.failed as f64)),
                ("end_to_end", metrics_json(&run.end_to_end, true)),
                (
                    "per_layer",
                    metrics_json(run.per_layer.as_deref().unwrap_or_default(), false),
                ),
            ]),
        ));
    }
    let report = Json::obj([
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds as f64)),
        ("workloads", Json::obj(reports)),
    ]);
    std::fs::write(out, format!("{report}\n")).map_err(|e| format!("{out}: {e}"))?;
    println!("results written to {out}");
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let (a, b, bounds) = match &args[1..] {
            [a, b] => (a, b, "BENCHMARK.json"),
            [a, b, flag, bounds] if flag == "--bounds" => (a, b, bounds.as_str()),
            _ => return usage(),
        };
        return match compare::compare(a, b, bounds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("samm-benchmark: {e}");
                ExitCode::from(EXIT_ERROR)
            }
        };
    }
    let Some(Options {
        workload,
        seed: Some(seed),
        seconds,
        trace,
        out,
    }) = parse(&args)
    else {
        return usage();
    };
    match machine::pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}"),
        Err(e) => {
            eprintln!("samm-benchmark: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    }
    let result = match (workload, seconds, trace, out) {
        (Some(name), Some(seconds), Some(traced), None) => single(&name, seed, seconds, traced),
        (None, seconds, None, Some(out)) => all(seed, seconds.unwrap_or(20), &out),
        _ => return usage(),
    };
    match result {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("samm-benchmark: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}
